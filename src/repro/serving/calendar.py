"""Calendar-queue (bucketed time-wheel) event management for the simulator.

A discrete-event loop needs one operation pair — push an event stamped with
its fire time, pop the earliest — and a binary heap pays O(log n) per
operation.  A *calendar queue* (Brown, CACM 1988) is the classic O(1)
alternative: events hash into `num_buckets` time buckets of `bucket_width`
seconds each (a "day" on a wrap-around calendar of ``num_buckets *
bucket_width`` seconds — the "year"), and the dequeue walks the calendar
from the current day forward, only ever examining the handful of events
sharing the current bucket.  The structure self-tunes: when the event count
outgrows (or undershoots) the calendar, it is rebuilt with a doubled
(halved) bucket count and a bucket width re-estimated from the live
events' spacing, keeping O(1) amortized behavior across load levels.

The contract matched here is deliberately exactly `heapq`'s:

* events are tuples whose first element is the fire time in seconds;
* :meth:`pop` returns the lexicographically smallest event — equal times
  fall into the same bucket (same hash), where full tuple comparison
  breaks the tie, so the pop *order* is bit-identical to a binary heap's
  over any event set (the property suite's equivalence tests rely on it);
* like a heap, arbitrary interleavings of push and pop are allowed, and
  events may be pushed in any time order (the simulator's continuous-
  batching re-pricer pushes superseded events it later skips by epoch).

Events must carry finite, non-negative times: the simulator's "no event"
sentinel is *absence* (an empty queue), never an ``inf``-stamped entry.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError, check_number

#: Calendar sizes stay in this range: at least a handful of buckets so the
#: wheel is a wheel, and capped so one resize never allocates absurdly.
_MIN_BUCKETS = 8
_MAX_BUCKETS = 1 << 20
#: Resize thresholds (classic two-thirds rule rounded to powers of two):
#: grow when events exceed 2x the bucket count, shrink below 1/2x.
_GROW_FACTOR = 2.0
_SHRINK_FACTOR = 0.5


class CalendarQueue:
    """A bucketed time-wheel priority queue over ``(time_s, ...)`` tuples."""

    def __init__(self, bucket_width: float = 1.0, num_buckets: int = _MIN_BUCKETS):
        check_number("bucket_width", bucket_width, 0.0, open_low=True)
        check_number("num_buckets", num_buckets, 1, integer=True)
        self._width = bucket_width
        self._num = self._round_buckets(num_buckets)
        self._mask = self._num - 1
        self._buckets: list[list[tuple]] = [[] for _ in range(self._num)]
        self._size = 0
        #: Wall-clock floor: pops never return events before the last popped
        #: time, so the dequeue scan may start at its bucket.
        self._last_time = 0.0
        #: Cached (bucket_index, position) of the current minimum, valid
        #: until the next push/pop mutates the calendar (peek-then-pop is
        #: the simulator's per-iteration pattern).
        self._min_hint: tuple[int, int] | None = None

    @staticmethod
    def _round_buckets(count: int) -> int:
        power = _MIN_BUCKETS
        while power < count and power < _MAX_BUCKETS:
            power <<= 1
        return power

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def _bucket_of(self, time_s: float) -> int:
        return int(time_s / self._width) & self._mask

    def push(self, event: tuple) -> None:
        """Insert one event (``event[0]`` is its fire time in seconds)."""
        time_s = event[0]
        if not (time_s >= 0.0 and math.isfinite(time_s)):
            raise ConfigurationError(
                f"event times must be finite and non-negative, got {time_s!r}"
            )
        self._buckets[self._bucket_of(time_s)].append(event)
        self._size += 1
        self._min_hint = None
        if time_s < self._last_time:
            # Keep the dequeue-scan floor at or before the earliest event;
            # heapq allows pushing "into the past" and so does this queue.
            self._last_time = time_s
        if self._size > _GROW_FACTOR * self._num and self._num < _MAX_BUCKETS:
            self._resize(self._num * 2)

    def _find_min(self) -> tuple[int, int]:
        """Locate the minimal event as (bucket index, position in bucket).

        Walks the calendar from the current day: a bucket's candidates are
        the events belonging to the current year (fire time below the
        bucket's year boundary); the first day with candidates holds the
        global minimum (equal times share a bucket, so the full-tuple min
        within the day settles ties exactly like a heap).  If a whole year
        passes without candidates the events live far in the future — one
        direct scan finds the earliest and the calendar fast-forwards.
        """
        index = self._bucket_of(self._last_time)
        # Upper time bound of ``index``'s current day.
        boundary = (math.floor(self._last_time / self._width) + 1) * self._width
        for _ in range(self._num):
            bucket = self._buckets[index]
            if bucket:
                best_pos = -1
                best = None
                for pos, event in enumerate(bucket):
                    if event[0] < boundary and (best is None or event < best):
                        best = event
                        best_pos = pos
                if best_pos >= 0:
                    return index, best_pos
            index = (index + 1) & self._mask
            boundary += self._width
        # Nothing due this year: fast-forward straight to the earliest event.
        best_bucket = best_pos = -1
        best = None
        for index, bucket in enumerate(self._buckets):
            for pos, event in enumerate(bucket):
                if best is None or event < best:
                    best = event
                    best_bucket, best_pos = index, pos
        return best_bucket, best_pos

    def peek(self) -> tuple | None:
        """The earliest event without removing it (``None`` when empty)."""
        if self._size == 0:
            return None
        if self._min_hint is None:
            self._min_hint = self._find_min()
        bucket_index, position = self._min_hint
        return self._buckets[bucket_index][position]

    def pop(self) -> tuple:
        """Remove and return the earliest event (heap-identical order)."""
        if self._size == 0:
            raise IndexError("pop from an empty CalendarQueue")
        if self._min_hint is None:
            self._min_hint = self._find_min()
        bucket_index, position = self._min_hint
        self._min_hint = None
        bucket = self._buckets[bucket_index]
        event = bucket[position]
        # Swap-remove keeps the pop O(1); bucket order is irrelevant
        # (the scan always takes the tuple minimum).
        bucket[position] = bucket[-1]
        bucket.pop()
        self._size -= 1
        self._last_time = event[0]
        if (
            self._size < _SHRINK_FACTOR * self._num
            and self._num > _MIN_BUCKETS
        ):
            self._resize(self._num // 2)
        return event

    def _resize(self, num_buckets: int) -> None:
        """Rebuild the calendar with ``num_buckets`` and a re-estimated width.

        The new bucket width targets a few events per day: the average
        spacing of the live events (sampled over their full time range)
        times a small constant.  Degenerate spreads (all events at one
        instant) keep the previous width — correctness never depends on the
        width, only the constant-factor performance does.
        """
        events = [event for bucket in self._buckets for event in bucket]
        if len(events) >= 2:
            low = min(event[0] for event in events)
            high = max(event[0] for event in events)
            spread = high - low
            if spread > 0:
                self._width = 2.0 * spread / len(events)
        self._num = self._round_buckets(num_buckets)
        self._mask = self._num - 1
        self._buckets = [[] for _ in range(self._num)]
        self._min_hint = None
        for event in events:
            self._buckets[self._bucket_of(event[0])].append(event)
