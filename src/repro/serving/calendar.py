"""The serving simulator's event queue: a binary heap of timestamped tuples.

Events are tuples whose first element is the fire time in seconds, popped
in `heapq`'s full-tuple order.  The queue holds only in-flight completions
and pending retries, never the trace.  Times must be finite and
non-negative: "no event" is an empty queue, never an ``inf`` entry.

The name outlives a bucketed calendar queue: the benchmark tracer wraps
``CalendarQueue.push`` and ``pop`` by name, so both stay in the class body.
"""

from __future__ import annotations

import heapq
import math

from repro.errors import ConfigurationError


class CalendarQueue:
    """A min-heap priority queue over ``(time_s, ...)`` tuples."""

    def __init__(self) -> None:
        self._heap: list[tuple] = []

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, event: tuple) -> None:
        """Insert one event (``event[0]`` is its fire time in seconds)."""
        time_s = event[0]
        if not (time_s >= 0.0 and math.isfinite(time_s)):
            raise ConfigurationError(
                f"event times must be finite and non-negative, got {time_s!r}"
            )
        heapq.heappush(self._heap, event)

    def peek(self) -> tuple | None:
        """The earliest event without removing it (``None`` when empty)."""
        return self._heap[0] if self._heap else None

    def pop(self) -> tuple:
        """Remove and return the earliest event (``IndexError`` when empty)."""
        return heapq.heappop(self._heap)
