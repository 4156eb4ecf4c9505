"""Numeric execution modes for the functional GPT-2 substrate.

The accuracy experiment (paper Sec. VII-A) compares two FP16 pipelines that
differ only in their GELU implementation:

* the **GPU reference** pipeline: FP16 operators, tanh-approximation GELU;
* the **DFX** pipeline: FP16 operators, 2048-entry LUT GELU.

A third, full-precision mode is provided as a numeric gold standard for
quantization-error measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from repro.model import gelu as gelu_module

_FLOAT16 = np.dtype(np.float16)

#: Process-wide memo of :func:`fp16_table`: expression key -> read-only table.
_FP16_TABLES: dict[Hashable, np.ndarray] = {}


def fp16_table(
    key: Hashable, expression: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """``expression`` evaluated once at all 65,536 float16 bit patterns.

    ``expression`` maps a float16 array to a float16 array elementwise, so
    ``table.take(x.view(np.uint16))`` equals ``expression(x)`` for any
    float16 array ``x``: every FP16 unary op is one lookup.  ``key`` names
    the expression and its constants; the table is built on the first
    request for that key and shared by every later caller.
    """
    table = _FP16_TABLES.get(key)
    if table is None:
        inputs = np.arange(1 << 16, dtype=np.uint16).view(np.float16)
        # The NaN and infinity entries raise invalid/overflow warnings.
        with np.errstate(all="ignore"):
            table = expression(inputs)
        table.flags.writeable = False
        _FP16_TABLES[key] = table
    return table


@dataclass(frozen=True)
class Numerics:
    """A numeric execution mode: data type plus activation implementation.

    ``gelu`` must be elementwise (all three modes' are): in a float16 mode,
    :meth:`activation` of a float16 array is one lookup in the table of
    ``gelu`` at every FP16 input (:func:`fp16_table`).

    :meth:`matmul` (when ``accumulate_fp32``), :meth:`add` and the layers
    upcast their operands to FP32.  The reference model holds its rounded
    weights and K/V rows in ``np.promote_types(dtype, np.float32)``, so in
    the FP16 and FP32 modes those upcasts return them without a copy.

    Attributes:
        name: Human-readable label used in reports.
        dtype: NumPy dtype activations and weights are rounded to.
        gelu: Callable implementing the GELU activation, elementwise.
        accumulate_fp32: Whether matrix products accumulate in float32 before
            rounding back (models wide accumulators; both platforms do this).
    """

    name: str
    dtype: np.dtype
    gelu: Callable[[np.ndarray], np.ndarray]
    accumulate_fp32: bool = True

    def cast(self, array: np.ndarray) -> np.ndarray:
        """Round ``array`` to this mode's data type."""
        return np.asarray(array).astype(self.dtype)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product under this mode's precision rules."""
        if self.accumulate_fp32:
            result = np.asarray(a, dtype=np.float32) @ np.asarray(b, dtype=np.float32)
        else:
            result = np.asarray(a, dtype=self.dtype) @ np.asarray(b, dtype=self.dtype)
        return result.astype(self.dtype)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise addition rounded to this mode's data type."""
        return (
            np.asarray(a, dtype=np.float32) + np.asarray(b, dtype=np.float32)
        ).astype(self.dtype)

    def activation(self, x: np.ndarray) -> np.ndarray:
        """Apply GELU and round to this mode's data type."""
        if type(x) is np.ndarray and x.ndim and x.dtype == self.dtype == _FLOAT16:
            table = fp16_table(("gelu", self.gelu), self._fp32_activation)
            return table.take(x.view(np.uint16))
        return self._fp32_activation(x)

    def _fp32_activation(self, x: np.ndarray) -> np.ndarray:
        return self.gelu(np.asarray(x, dtype=np.float32)).astype(self.dtype)


#: Full-precision gold standard (not a paper platform).
FP32_EXACT = Numerics(
    name="fp32-exact", dtype=np.dtype(np.float32), gelu=gelu_module.gelu_exact
)

#: GPU baseline numerics: FP16 with tanh-approximation GELU.
FP16_GPU = Numerics(
    name="fp16-gpu", dtype=np.dtype(np.float16), gelu=gelu_module.gelu_tanh
)

#: DFX numerics: FP16 with the SFU's lookup-table GELU.
FP16_DFX = Numerics(
    name="fp16-dfx", dtype=np.dtype(np.float16), gelu=gelu_module.gelu_lut
)
