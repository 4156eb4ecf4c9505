"""Exception hierarchy for the DFX reproduction library, and the one
boundary check every numeric field and argument goes through."""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import TypeVar

_Value = TypeVar("_Value")


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """A model or hardware configuration is invalid or inconsistent."""


class PartitioningError(ReproError):
    """A model cannot be partitioned across the requested number of devices."""


class CompilationError(ReproError):
    """The ISA compiler could not lower the model into a valid program."""


class ProgramValidationError(ReproError):
    """A compiled program violates ISA constraints (operands, dependencies)."""


class ExecutionError(ReproError):
    """The functional interpreter hit an invalid runtime state."""


class ResourceExhaustedError(ReproError):
    """A design point does not fit the FPGA's resource or routing budget."""


class CalibrationError(ReproError):
    """Calibration constants are out of their documented valid range."""


def check_number(
    name: str,
    value: _Value,
    low: float = -math.inf,
    high: float = math.inf,
    *,
    open_low: bool = False,
    open_high: bool = False,
    integer: bool = False,
    error: type[Exception] = ConfigurationError,
) -> _Value:
    """Return ``value`` if it is a finite number in range; raise otherwise.

    The range is ``low <= value <= high``; ``open_low`` / ``open_high``
    make either end strict.  Every comparison is written so that NaN fails
    it (NaN compares false with everything), and infinity is never in
    range, so a NaN or infinite input fails here, naming ``name``, instead
    of deep in a simulation or as a silently wrong result.  With
    ``integer=True`` the value must be an ``int`` or a NumPy integer, so
    floats (even integral ones) fail; a ``bool`` fails either way.
    ``error`` is the exception type raised, so each module keeps its own.
    """
    kind = type(value)
    if (
        kind is int
        or (kind is float and not integer)
        or (kind is not bool and isinstance(value, Integral if integer else Real))
    ) and (
        (low < value if open_low else low <= value)
        and (value < high if open_high else value <= high)
        and -math.inf < value < math.inf
    ):
        return value
    requirement = "an integer" if integer else "finite"
    if high == math.inf:
        if low != -math.inf:
            requirement += f" and {'>' if open_low else '>='} {low}"
    elif low == -math.inf:
        requirement += f" and {'<' if open_high else '<='} {high}"
    else:
        requirement += (
            f" and in {'(' if open_low else '['}{low}, {high}"
            f"{')' if open_high else ']'}"
        )
    raise error(f"{name} must be {requirement}, got {value!r}")
