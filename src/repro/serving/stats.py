"""Latency distributions for serving reports.

Every report accounts its latency populations (response, queueing, gather,
transfer, failover, ...) in distribution slots with one surface:
``add(value)``, ``query(percentile)``, ``mean`` and ``count``.  Two
implementations exist, and the run's ``retain_records`` picks one:

* :class:`ExactDistribution` keeps every value and answers with
  ``np.percentile`` / ``np.mean`` over the values in insertion order —
  retained runs, which also keep every outcome record anyway;
* :class:`QuantileSketch` keeps a bounded summary — streaming runs, where
  million-request traces rule out storing every response time.

The sketch is the Greenwald–Khanna (SIGMOD 2001) summary: a sorted list
of ``(value, g, delta)`` tuples maintaining, for every observed value,
bounds on its rank that are at most ``2 * eps * n`` apart.  Any quantile
query is then answered by an *observed* value whose true rank is within
``eps * n`` of the requested rank — a hard, deterministic guarantee (no
RNG, no distribution assumptions), which is what the accuracy-contract
tests assert against the exact retained-mode statistics.

Space is O((1/eps) * log(eps * n)); inserts are buffered and merged in
bulk so the amortized insert cost is O(1) list work plus an occasional
O(size) compression.  The sketch is fully deterministic: the same value
sequence always yields the same summary, so seeded simulations reproduce
their reports bit for bit.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from repro.errors import ConfigurationError

#: Default rank-error budget: quantile answers are within 0.5% of the
#: requested rank, i.e. a p99 over 1M samples lands between p98.5 and p99.5.
DEFAULT_EPS = 0.005


def _check_percentile(percentile: float) -> None:
    """Reject a percentile outside ``[0, 100]`` (both distributions)."""
    if not 0.0 <= percentile <= 100.0:
        raise ConfigurationError(
            f"percentile must be in [0, 100], got {percentile}"
        )


def _not_finite(value: float) -> ConfigurationError:
    """The error both distributions raise for a NaN or infinite observation."""
    return ConfigurationError(f"observation must be finite, got {value}")


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
        """Insert one finite observation."""
        if not isfinite(value):
            raise _not_finite(value)
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
        _check_percentile(percentile)
        if not self._values:
            return 0.0
        if self._sorted.size != len(self._values):
            self._sorted = np.sort(self.values())
        return float(np.percentile(self._sorted, percentile))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactDistribution):
            return NotImplemented
        return self._values == other._values


class QuantileSketch:
    """Greenwald–Khanna streaming quantile summary with rank error ``eps``.

    ``add`` accepts values in any order; ``query(percentile)`` returns an
    observed value whose rank in the full stream is within
    ``eps * count + 1`` of the requested rank — ``eps * count`` from the
    summary's uncertainty (``rank_error_bound``) plus one rank because the
    answer is a discrete observation where numpy would interpolate.  For
    streams shorter than ``1 / eps`` no compression has happened and
    the answer is the exact order statistic.
    """

    __slots__ = ("eps", "_entries", "_buffer", "_buffer_cap", "count",
                 "total", "_min", "_max")

    def __init__(self, eps: float = DEFAULT_EPS) -> None:
        if not 0.0 < eps < 0.5:
            raise ConfigurationError(f"eps must be in (0, 0.5), got {eps}")
        self.eps = eps
        #: Summary tuples (value, g, delta), sorted by value.
        self._entries: list[list[float]] = []
        self._buffer: list[float] = []
        #: Batching granularity: one merge+compress per 1/eps inserts.
        #: Buffer size does not touch the error budget — each insert's
        #: delta is capped at the flush-time threshold ``2 * eps * count``
        #: either way — it only amortizes the O(size) compress pass.
        self._buffer_cap = max(1, int(1.0 / eps))
        self.count = 0
        self.total = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def add(self, value: float) -> None:
        """Insert one finite observation."""
        if not isfinite(value):
            raise _not_finite(value)
        self._buffer.append(value)
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._buffer) >= self._buffer_cap:
            self._flush()

    @property
    def mean(self) -> float:
        """Running mean (exact, not sketched)."""
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    def rank_error_bound(self) -> float:
        """Absolute rank slack of any query answer: ``eps * count``."""
        return self.eps * self.count

    def _flush(self) -> None:
        """Merge the insert buffer into the summary, then compress."""
        if not self._buffer:
            return
        self._buffer.sort()
        entries = self._entries
        threshold = 2.0 * self.eps * self.count
        merged: list[list[float]] = []
        index = 0
        for value in self._buffer:
            while index < len(entries) and entries[index][0] <= value:
                merged.append(entries[index])
                index += 1
            if not merged or index >= len(entries):
                # New minimum or maximum: its rank is known exactly.
                delta = 0.0
            else:
                # Standard GK insertion slack: g_i + delta_i - 1 of the
                # successor tuple, floored at the running threshold.
                successor = entries[index]
                delta = min(successor[1] + successor[2] - 1.0, threshold - 1.0)
                if delta < 0.0:
                    delta = 0.0
            merged.append([value, 1.0, delta])
        merged.extend(entries[index:])
        self._buffer.clear()
        # Compress: merge a tuple into its successor when the combined
        # uncertainty still fits the 2*eps*n band.
        compressed: list[list[float]] = []
        for entry in merged:
            while (
                compressed
                and compressed[-1][1] + entry[1] + entry[2] <= threshold
                # The global minimum tuple anchors rank 1 and is never
                # merged away, mirroring the reference algorithm.
                and len(compressed) > 1
            ):
                entry[1] += compressed.pop()[1]
            compressed.append(entry)
        self._entries = compressed

    def query(self, percentile: float) -> float:
        """Value at ``percentile`` (0..100), within the rank-error bound."""
        _check_percentile(percentile)
        if self.count == 0:
            return 0.0
        self._flush()
        # numpy's linear-interpolation rank convention: p maps to 1-based
        # rank 1 + p/100 * (n - 1), so an uncompressed sketch answers with
        # the same order statistic np.percentile would select.
        target = 1.0 + percentile / 100.0 * (self.count - 1)
        slack = self.eps * self.count
        rank_min = 0.0
        previous = self._entries[0][0]
        for value, g, delta in self._entries:
            rank_min += g
            if rank_min + delta > target + slack:
                return previous
            previous = value
        return self._entries[-1][0]

    def __eq__(self, other) -> bool:
        """Sketches are equal when their visible statistics agree.

        Summary internals depend only on the value sequence (the sketch is
        deterministic), so comparing entries and counters makes two
        identically-fed sketches compare equal — which is what report
        equality needs.
        """
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        self._flush()
        other._flush()
        return (
            self.eps == other.eps
            and self.count == other.count
            and self.total == other.total
            and self._entries == other._entries
        )


def merge_distribution(into: dict[int, int], key: int, count: int = 1) -> None:
    """Add ``count`` observations of ``key`` to a histogram dict in place."""
    into[key] = into.get(key, 0) + count


__all__ = [
    "DEFAULT_EPS",
    "ExactDistribution",
    "QuantileSketch",
    "merge_distribution",
]
