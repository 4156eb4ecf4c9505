"""Latency distributions for serving reports.

Every report accounts its latency populations (response, queueing, gather,
transfer, failover, ...) in distribution slots with one surface:
``add(value)``, ``query(percentile)``, ``mean`` and ``count``.  Every slot
holds durations, so both implementations reject NaN, infinite and negative
values.  The run's ``retain_records`` picks one:

* :class:`ExactDistribution` keeps every value and answers with
  ``np.percentile`` / ``np.mean`` over the values in insertion order —
  retained runs, which also keep every outcome record anyway;
* :class:`QuantileSketch` keeps a bounded summary — streaming runs, where
  million-request traces rule out storing every response time.

The sketch follows DDSketch (Masson, Rim and Lee, PVLDB 12(12), 2019): it
counts values in buckets whose bounds grow by ``gamma = (1 + alpha) / (1 -
alpha)``, so each bucket's representative is within relative error
``alpha`` of every value in it, and a percentile is within ``alpha`` of
the exact answer (:data:`DEFAULT_ALPHA`, 0.05%) — a bound on the value an
SLO check compares, whatever the distribution.  Memory grows with the
values' range (about 700 buckets per octave), not their count.  Bucket
keys come from the exact ``np.frexp`` and fixed per-octave tables, so
they do not depend on NumPy's SIMD dispatch, and seeded runs reproduce
their reports bit for bit.
"""

from __future__ import annotations

from functools import cache
from math import floor, inf, ldexp

import numpy as np

from repro.errors import ConfigurationError, check_number

#: Relative accuracy of streaming percentiles: every answer is within
#: 0.05% of the exact answer a retained run gives.
DEFAULT_ALPHA = 0.0005
_BLOCK = 1024  # values a sketch buffers before one NumPy pass buckets them
#: Equal cells per octave of mantissas: each is narrower than the narrowest
#: bucket at the smallest alpha allowed, 1e-4, so it holds at most one bound.
_CELLS = 1 << 13


def _rejected(value: float) -> ConfigurationError:
    """The error both distributions raise for a value that is no duration."""
    return ConfigurationError(f"observation must be >= 0 and finite, got {value}")


class ExactDistribution:
    """Every observation kept, answered exactly.

    ``query`` is ``np.percentile`` and ``mean`` is ``np.mean`` over the
    values in insertion order, so a caller that adds values in a fixed
    order gets the same floats as computing over its own array.  The
    value list is append-only and private; the sorted copy the percentile
    queries read is rebuilt only when the count has changed.
    """

    __slots__ = ("_values", "_sorted")

    def __init__(self) -> None:
        self._values: list[float] = []
        self._sorted = np.empty(0)

    def add(self, value: float) -> None:
        """Insert one duration (finite and non-negative)."""
        if not 0.0 <= value < inf:
            raise _rejected(value)
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        """Mean over the values in insertion order (0.0 when empty)."""
        if not self._values:
            return 0.0
        return float(np.mean(self._values))

    def values(self) -> np.ndarray:
        """A fresh array of the values in insertion order."""
        return np.asarray(self._values, dtype=np.float64)

    def query(self, percentile: float) -> float:
        """Exact value at ``percentile`` (0..100), numpy's interpolation."""
        check_number("percentile", percentile, 0.0, 100.0)
        if not self._values:
            return 0.0
        if self._sorted.size != len(self._values):
            self._sorted = np.sort(self.values())
        return float(np.percentile(self._sorted, percentile))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactDistribution):
            return NotImplemented
        return self._values == other._values


@cache
def _octave(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Bucket bounds over the mantissas [0.5, 1] — ``0.5 * gamma**j``, then
    1.0, multiplied out in Python floats so that no SIMD kernel makes them —
    and the bucket holding the low end of each of the ``_CELLS`` cells."""
    gamma = (1.0 + alpha) / (1.0 - alpha)
    bounds = [0.5]
    while bounds[-1] * gamma < 1.0:
        bounds.append(bounds[-1] * gamma)
    bounds = np.array([*bounds, 1.0])
    cell_lows = 0.5 + np.arange(_CELLS) / (2 * _CELLS)
    return bounds, np.searchsorted(bounds, cell_lows, side="right") - 1


class QuantileSketch:
    """Log-bucket sketch: ``query(p)`` is within relative error ``alpha`` of
    ``np.percentile`` over the same values.

    ``add`` buffers values; each ``_BLOCK`` of them is bucketed in one NumPy
    pass.  ``count``, ``min``, ``max`` and ``total`` (summed in insertion
    order) are exact.  Answers depend only on the multiset of values, so
    no query or flush point changes a later one, and :meth:`merge` adds
    another sketch's counts.
    """

    __slots__ = ("alpha", "_bounds", "_cells", "_buffer", "_count", "_total",
                 "_min", "_max", "_zeros", "_offset", "_counts")

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        check_number("alpha", alpha, 1e-4, 0.5, open_high=True)
        self.alpha = alpha
        self._bounds, self._cells = _octave(alpha)
        self._buffer: list[float] = []
        #: Flushed values: their count, sum, extremes and zeros, and the
        #: count of each key ``exponent * buckets_per_octave + bucket`` from
        #: ``_offset`` on (the span always reaches key 0).
        self._count = self._zeros = self._offset = 0
        self._total = 0.0
        self._min, self._max = inf, -inf
        self._counts = np.zeros(0, dtype=np.int64)

    def add(self, value: float) -> None:
        """Insert one duration (finite and non-negative)."""
        if not 0.0 <= value < inf:
            raise _rejected(value)
        buffer = self._buffer
        buffer.append(value)
        if len(buffer) >= _BLOCK:
            self._flush()

    @property
    def count(self) -> int:
        return self._count + len(self._buffer)

    @property
    def total(self) -> float:
        self._flush()
        return self._total

    @property
    def mean(self) -> float:
        """Running mean (exact, not sketched)."""
        total = self.total
        return total / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self.query(0.0)

    @property
    def max(self) -> float:
        return self.query(100.0)

    def _flush(self) -> None:
        buffer = self._buffer
        if not buffer:
            return
        # accumulate adds one value at a time in insertion order, where
        # np.sum adds pairwise and sum() compensates from CPython 3.12.
        values = np.array([self._total, *buffer], dtype=np.float64)
        buffer.clear()
        self._total = float(np.add.accumulate(values)[-1])
        values = values[1:]
        self._count += values.size
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))
        positive = values[values > 0.0]
        self._zeros += values.size - positive.size
        if positive.size:
            keys = self._keys(positive)
            low = int(keys.min())
            self._add_counts(low, np.bincount(keys - low))

    def _keys(self, values: np.ndarray) -> np.ndarray:
        """Key ``exponent * buckets_per_octave + bucket`` of each value > 0."""
        mantissas, exponents = np.frexp(values)
        # Exact: the cell index scales ``mantissa - 0.5`` by a power of two,
        # and a cell's mantissas lie in its low end's bucket or the next.
        cells = ((mantissas - 0.5) * (2 * _CELLS)).astype(np.intp)
        buckets = self._cells[cells]
        buckets += mantissas >= self._bounds[buckets + 1]
        return exponents * (self._bounds.size - 1) + buckets

    def _add_counts(self, low: int, counts: np.ndarray) -> None:
        """Add ``counts`` of the keys from ``low`` on, widening the store."""
        below = max(self._offset - low, 0)
        above = max(low + counts.size - self._offset - self._counts.size, 0)
        if below or above:
            self._counts = np.pad(self._counts, (below, above))
            self._offset -= below
        start = low - self._offset
        self._counts[start:start + counts.size] += counts

    def merge(self, other: QuantileSketch) -> None:
        """Add ``other``'s values, as if fed after this sketch's own (but
        ``total`` adds ``other.total`` whole)."""
        if other.alpha != self.alpha:
            raise ConfigurationError(f"cannot merge alpha {other.alpha} into {self.alpha}")
        other._flush()
        self._flush()
        self._count += other._count
        self._total += other._total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._zeros += other._zeros
        self._add_counts(other._offset, other._counts)

    def query(self, percentile: float) -> float:
        """Value at ``percentile`` (0..100), within ``alpha`` of exact."""
        check_number("percentile", percentile, 0.0, 100.0)
        self._flush()
        if not self._count:
            return 0.0
        # np.percentile's rank and interpolation (numpy's ``_lerp``).
        rank = percentile / 100.0 * (self._count - 1)
        below = floor(rank)
        fraction = rank - below
        low = self._value_at(below)
        if not fraction:
            return low
        high = self._value_at(below + 1)
        if fraction >= 0.5:
            return high - (high - low) * (1.0 - fraction)
        return low + (high - low) * fraction

    def _value_at(self, rank: int) -> float:
        """The exact min or max at the ends, 0.0 among the zeros, else the
        rank's bucket [low, high) answers ``2 * low * high / (low + high)``,
        within ``alpha`` of its values, clamped to [min, max]."""
        if rank == 0 or rank == self._count - 1:
            return self._min if rank == 0 else self._max
        if rank < self._zeros:
            return 0.0
        cumulative = np.cumsum(self._counts)
        index = int(np.searchsorted(cumulative, rank - self._zeros, side="right"))
        exponent, bucket = divmod(self._offset + index, self._bounds.size - 1)
        low, high = self._bounds[bucket:bucket + 2]
        value = ldexp(2.0 * low * high / (low + high), exponent)
        return min(max(value, self._min), self._max)

    def __eq__(self, other) -> bool:
        """Sketches are equal when fed the same values in the same order."""
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return self._state() == other._state()

    def _state(self) -> tuple:
        self._flush()
        return (self.alpha, self._count, self._total, self._min, self._max,
                self._zeros, self._offset, self._counts.tobytes())


def merge_distribution(into: dict[int, int], key: int, count: int = 1) -> None:
    """Add ``count`` observations of ``key`` to a histogram dict in place."""
    into[key] = into.get(key, 0) + count


__all__ = [
    "DEFAULT_ALPHA",
    "ExactDistribution",
    "QuantileSketch",
    "merge_distribution",
]
