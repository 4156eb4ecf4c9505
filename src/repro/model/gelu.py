"""GELU activation variants.

DFX's special function unit implements GELU with a 2048-entry lookup table and
linear interpolation over the range [-8, 8] (Sec. V-C).  The GPU baseline uses
the usual tanh approximation.  The paper attributes the (negligible) accuracy
difference between the two platforms entirely to this approximation gap, so we
implement all three variants and expose the LUT parameters.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import check_number

#: Number of samples in the DFX GELU lookup table (Sec. V-C).
DFX_GELU_LUT_SAMPLES = 2048

#: Input range covered by the lookup table; the slope converges outside it.
DFX_GELU_LUT_RANGE = (-8.0, 8.0)


#: Elementwise ``math.erf``: NumPy has no erf ufunc of its own.
_erf = np.frompyfunc(math.erf, 1, 1)


def gelu_exact(x: np.ndarray) -> np.ndarray:
    """Exact GELU using the Gaussian CDF: ``x * Phi(x)``."""
    x64 = np.asarray(x, dtype=np.float64)
    erf = np.asarray(_erf(x64 / np.sqrt(2.0)), dtype=np.float64)
    return (0.5 * x64 * (1.0 + erf)).astype(np.float32)


def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """GPT-2 / GPU tanh approximation of GELU.

    ``0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3)))``
    """
    x32 = np.asarray(x, dtype=np.float32)
    inner = np.sqrt(2.0 / np.pi) * (x32 + 0.044715 * np.power(x32, 3))
    return (0.5 * x32 * (1.0 + np.tanh(inner))).astype(np.float32)


class GeluLookupTable:
    """DFX's table-based GELU with linear interpolation.

    The table samples :func:`gelu_tanh` (the same equation the paper quotes)
    at ``samples`` evenly spaced points across ``input_range``.  Inputs
    outside the range are clamped to the boundary behaviour: GELU(x) ~ 0 for
    x << 0 and GELU(x) ~ x for x >> 0.
    """

    def __init__(
        self,
        samples: int = DFX_GELU_LUT_SAMPLES,
        input_range: tuple[float, float] = DFX_GELU_LUT_RANGE,
    ) -> None:
        check_number("samples", samples, 2, integer=True, error=ValueError)
        low, high = input_range
        check_number("input_range[0]", low, error=ValueError)
        check_number("input_range[1]", high, low, open_low=True, error=ValueError)
        self.samples = samples
        self.input_range = (float(low), float(high))
        self._xs = np.linspace(low, high, samples, dtype=np.float32)
        self._ys = gelu_tanh(self._xs)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the LUT-approximated GELU elementwise."""
        x32 = np.asarray(x, dtype=np.float32)
        low, high = self.input_range
        clamped = np.clip(x32, low, high)
        interpolated = np.interp(clamped, self._xs, self._ys).astype(np.float32)
        # Outside the table the function is linear: 0 below, identity above.
        result = np.where(x32 > high, x32, interpolated)
        result = np.where(x32 < low, np.float32(0.0), result)
        return result.astype(np.float32)


#: Module-level default table shared by the functional DFX pipeline.
DEFAULT_GELU_LUT = GeluLookupTable()


def gelu_lut(x: np.ndarray) -> np.ndarray:
    """DFX's LUT-based GELU using the default 2048-entry table."""
    return DEFAULT_GELU_LUT(x)
