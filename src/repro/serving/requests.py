"""Service request traces for datacenter-level serving studies.

The paper motivates DFX with datacenter text-generation services (chatbots,
article writing) and builds the appliance so one host can carry two
independent FPGA clusters.  This module generates synthetic request traces —
Poisson, evenly spaced, on-off bursty, or diurnal (time-varying-rate)
arrivals over a mix of workload shapes — that the serving simulator
(`repro.serving.simulator`) replays against an appliance model, and replays
recorded request logs (CSV / JSONL) through :func:`replay_trace`.

Every synthetic builder has a lazy form (``lazy=True``) yielding the same
seeded request sequence as a generator, plus a ``limit`` cap on the request
count; the simulator consumes lazy traces with a one-arrival lookahead, so
million-request experiments never materialize their trace.

Requests carry optional service-level attributes consumed by the scheduling
policies in `repro.serving.schedulers`:

* ``priority`` — dispatch class for the priority scheduler (lower = more
  urgent, like a Unix nice value).
* ``slo_s`` — response-time objective relative to arrival; the deadline
  scheduler treats ``arrival + slo_s`` as a hard deadline, and reports count
  completions beyond it as SLO violations.
* ``patience_s`` — how long the request waits in queue before abandoning.
* ``service_class`` — label used for per-class percentile reporting.

Use :func:`with_service_levels` to tag a plain trace with one service class
and :func:`merge_traces` to interleave several classed traces into one.
"""

from __future__ import annotations

import csv
import dataclasses
import heapq
import json
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError, check_number
from repro.workloads import ARTICLE_WRITING_WORKLOAD, CHATBOT_WORKLOAD, Workload

#: Default service-class label for untagged requests.
DEFAULT_SERVICE_CLASS = "default"


@dataclass(frozen=True)
class ServiceRequest:
    """One inference request: when it arrives, its shape, and its service level."""

    request_id: int
    arrival_time_s: float
    workload: Workload
    priority: int = 0
    slo_s: float | None = None
    patience_s: float | None = None
    service_class: str = DEFAULT_SERVICE_CLASS
    #: Whether the request may be re-dispatched after a unit failure kills
    #: it mid-flight (non-idempotent requests opt out and fail immediately).
    retryable: bool = True

    def __post_init__(self) -> None:
        # A NaN arrival would otherwise fail deep in the event loop.
        check_number("arrival_time_s", self.arrival_time_s, 0.0)
        if self.slo_s is not None:
            check_number("slo_s", self.slo_s, 0.0, open_low=True)
        if self.patience_s is not None:
            check_number("patience_s", self.patience_s, 0.0, open_low=True)

    @property
    def deadline_s(self) -> float:
        """Absolute response deadline (``inf`` for requests without an SLO)."""
        if self.slo_s is None:
            return float("inf")
        return self.arrival_time_s + self.slo_s

    @property
    def abandon_time_s(self) -> float:
        """Absolute time the request leaves the queue unserved (``inf`` = never)."""
        if self.patience_s is None:
            return float("inf")
        return self.arrival_time_s + self.patience_s


@dataclass(frozen=True)
class WorkloadMix:
    """A named distribution over workload shapes.

    Attributes:
        name: Mix label used in reports.
        workloads: Candidate request shapes.
        weights: Sampling probability of each shape (normalized internally).
    """

    name: str
    workloads: tuple[Workload, ...]
    weights: tuple[float, ...]
    # Normalized once at construction; ``sample`` used to renormalize on every
    # draw (an O(n) allocation per request that dominated long-trace
    # generation).  Read-only so the shared array cannot be corrupted.
    _probabilities: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.workloads) != len(self.weights):
            raise ConfigurationError("workloads and weights must have equal length")
        if not self.workloads:
            raise ConfigurationError("a workload mix needs at least one workload")
        for weight in self.weights:
            check_number("weights", weight, 0.0)
        if not any(self.weights):
            raise ConfigurationError("weights must not all be zero")
        weights = np.asarray(self.weights, dtype=np.float64)
        probabilities = weights / weights.sum()
        probabilities.setflags(write=False)
        object.__setattr__(self, "_probabilities", probabilities)

    def probabilities(self) -> np.ndarray:
        """Normalized sampling probabilities (cached, read-only)."""
        return self._probabilities

    def sample(self, rng: np.random.Generator) -> Workload:
        """Draw one workload shape."""
        index = int(rng.choice(len(self.workloads), p=self._probabilities))
        return self.workloads[index]


#: A chatbot-dominated service: mostly 50:50 requests with some short replies.
CHATBOT_MIX = WorkloadMix(
    name="chatbot",
    workloads=(CHATBOT_WORKLOAD, Workload(32, 16), Workload(64, 64)),
    weights=(0.6, 0.2, 0.2),
)

#: An article-writing service: long generations dominate.
ARTICLE_MIX = WorkloadMix(
    name="article-writing",
    workloads=(ARTICLE_WRITING_WORKLOAD, Workload(50, 100), Workload(25, 150)),
    weights=(0.5, 0.3, 0.2),
)

#: A blended datacenter mix of chat, article, and question-answering traffic.
DATACENTER_MIX = WorkloadMix(
    name="datacenter",
    workloads=(
        CHATBOT_WORKLOAD,
        ARTICLE_WRITING_WORKLOAD,
        Workload(128, 16),
        Workload(256, 8),
    ),
    weights=(0.45, 0.30, 0.15, 0.10),
)


def _check_limit(limit: int | None) -> None:
    if limit is not None:
        check_number("limit", limit, 1, integer=True)


def poisson_trace(
    arrival_rate_per_s: float,
    duration_s: float,
    mix: WorkloadMix = CHATBOT_MIX,
    seed: int = 0,
    *,
    limit: int | None = None,
    lazy: bool = False,
) -> list[ServiceRequest] | Iterator[ServiceRequest]:
    """Generate a Poisson-arrival request trace.

    Args:
        arrival_rate_per_s: Mean request arrival rate (requests per second).
        duration_s: Length of the trace window in seconds.
        mix: Distribution of request shapes.
        seed: RNG seed (traces are deterministic given the seed).
        limit: Stop after this many requests even if the window has room.
        lazy: Return a generator instead of a list.  The generator draws
            the identical RNG sequence, so ``list(poisson_trace(...,
            lazy=True))`` equals the eager trace request for request; the
            streaming simulator consumes it without ever materializing it.

    Returns:
        Requests sorted by arrival time, all arriving within ``duration_s``.
    """
    check_number("arrival_rate_per_s", arrival_rate_per_s, 0.0, open_low=True)
    check_number("duration_s", duration_s, 0.0, open_low=True)
    check_number("seed", seed, 0, integer=True)
    _check_limit(limit)

    def generate() -> Iterator[ServiceRequest]:
        rng = np.random.default_rng(seed)
        time_s = 0.0
        request_id = 0
        while limit is None or request_id < limit:
            time_s += float(rng.exponential(1.0 / arrival_rate_per_s))
            if time_s >= duration_s:
                return
            yield ServiceRequest(
                request_id=request_id,
                arrival_time_s=time_s,
                workload=mix.sample(rng),
            )
            request_id += 1

    return generate() if lazy else list(generate())


def constant_trace(
    interarrival_s: float,
    num_requests: int,
    workload: Workload = CHATBOT_WORKLOAD,
    start_time_s: float = 0.0,
    *,
    lazy: bool = False,
) -> list[ServiceRequest] | Iterator[ServiceRequest]:
    """Generate an evenly spaced trace of identical requests (for tests).

    ``lazy=True`` returns a generator of the same requests instead of a
    list (``num_requests`` already bounds the trace, so there is no
    separate ``limit``).
    """
    check_number("interarrival_s", interarrival_s, 0.0)
    check_number("num_requests", num_requests, 1, integer=True)
    check_number("start_time_s", start_time_s, 0.0)
    requests = (
        ServiceRequest(
            request_id=i,
            arrival_time_s=start_time_s + i * interarrival_s,
            workload=workload,
        )
        for i in range(num_requests)
    )
    return requests if lazy else list(requests)


def bursty_trace(
    burst_rate_per_s: float,
    idle_rate_per_s: float,
    duration_s: float,
    *,
    mean_burst_s: float = 10.0,
    mean_idle_s: float = 10.0,
    mix: WorkloadMix = CHATBOT_MIX,
    seed: int = 0,
    start_in_burst: bool = True,
    limit: int | None = None,
    lazy: bool = False,
) -> list[ServiceRequest] | Iterator[ServiceRequest]:
    """Generate an on-off (Markov-modulated Poisson) bursty request trace.

    The process alternates between *burst* phases (Poisson arrivals at
    ``burst_rate_per_s``) and *idle* phases (``idle_rate_per_s``, which may
    be 0); phase lengths are exponentially distributed with the given
    means.  This is the traffic where batching pays off: bursts stack the
    queue faster than an unbatched server drains it, while a Poisson trace
    of the same mean rate rarely does.

    Args:
        burst_rate_per_s: Arrival rate during burst phases (must exceed
            the idle rate — otherwise the trace is not bursty).
        idle_rate_per_s: Arrival rate during idle phases (0 = silent).
        duration_s: Length of the trace window in seconds.
        mean_burst_s: Mean burst-phase length.
        mean_idle_s: Mean idle-phase length.
        mix: Distribution of request shapes.
        seed: RNG seed (traces are deterministic given the seed).
        start_in_burst: Whether the first phase is a burst.
        limit: Stop after this many requests even if the window has room.
        lazy: Return a generator drawing the identical RNG sequence.

    Returns:
        Requests sorted by arrival time, all arriving within ``duration_s``;
        compatible with :func:`with_service_levels` and :func:`merge_traces`
        like every other trace builder.
    """
    check_number("burst_rate_per_s", burst_rate_per_s, 0.0, open_low=True)
    check_number("idle_rate_per_s", idle_rate_per_s, 0.0)
    if burst_rate_per_s <= idle_rate_per_s:
        raise ConfigurationError(
            "burst_rate_per_s must exceed idle_rate_per_s (on-off separation)"
        )
    check_number("duration_s", duration_s, 0.0, open_low=True)
    check_number("mean_burst_s", mean_burst_s, 0.0, open_low=True)
    check_number("mean_idle_s", mean_idle_s, 0.0, open_low=True)
    check_number("seed", seed, 0, integer=True)
    _check_limit(limit)

    def generate() -> Iterator[ServiceRequest]:
        rng = np.random.default_rng(seed)
        request_id = 0
        phase_start = 0.0
        in_burst = start_in_burst
        while phase_start < duration_s:
            mean_phase = mean_burst_s if in_burst else mean_idle_s
            phase_end = min(
                phase_start + float(rng.exponential(mean_phase)), duration_s
            )
            rate = burst_rate_per_s if in_burst else idle_rate_per_s
            if rate > 0:
                time_s = phase_start
                while True:
                    time_s += float(rng.exponential(1.0 / rate))
                    if time_s >= phase_end:
                        break
                    yield ServiceRequest(
                        request_id=request_id,
                        arrival_time_s=time_s,
                        workload=mix.sample(rng),
                    )
                    request_id += 1
                    if limit is not None and request_id >= limit:
                        return
            phase_start = phase_end
            in_burst = not in_burst

    return generate() if lazy else list(generate())


def diurnal_trace(
    peak_rate_per_s: float,
    duration_s: float,
    *,
    trough_rate_per_s: float | None = None,
    period_s: float = 86_400.0,
    phase_s: float = 0.0,
    mix: WorkloadMix = CHATBOT_MIX,
    seed: int = 0,
    limit: int | None = None,
    lazy: bool = False,
) -> list[ServiceRequest] | Iterator[ServiceRequest]:
    """Generate a diurnal (time-varying-rate) Poisson request trace.

    The arrival rate follows a sinusoidal day/night cycle between
    ``trough_rate_per_s`` and ``peak_rate_per_s`` with period ``period_s``
    (a day by default): the trace starts at the trough and peaks at
    mid-period, shifted by ``phase_s`` (``phase_s = period_s / 2`` starts
    at the peak).  Arrivals are drawn by thinning a Poisson process at the
    peak rate, the standard exact sampler for inhomogeneous Poisson
    processes, so the instantaneous rate is honoured everywhere rather
    than stepped.

    Args:
        peak_rate_per_s: Arrival rate at the daily peak.
        duration_s: Length of the trace window in seconds (may span any
            fraction of, or several, periods).
        trough_rate_per_s: Arrival rate at the nightly trough (defaults to
            a tenth of the peak).
        period_s: Cycle length (default: 24 hours).
        phase_s: Time offset into the cycle at trace start.
        mix: Distribution of request shapes.
        seed: RNG seed (traces are deterministic given the seed).
        limit: Stop after this many requests even if the window has room.
        lazy: Return a generator drawing the identical RNG sequence.

    Returns:
        Requests sorted by arrival time, all arriving within ``duration_s``;
        compatible with :func:`with_service_levels` and :func:`merge_traces`
        like every other trace builder.
    """
    check_number("peak_rate_per_s", peak_rate_per_s, 0.0, open_low=True)
    if trough_rate_per_s is None:
        trough_rate_per_s = peak_rate_per_s / 10.0
    check_number("trough_rate_per_s", trough_rate_per_s, 0.0)
    if trough_rate_per_s > peak_rate_per_s:
        raise ConfigurationError(
            "trough_rate_per_s must not exceed peak_rate_per_s"
        )
    check_number("duration_s", duration_s, 0.0, open_low=True)
    check_number("period_s", period_s, 0.0, open_low=True)
    check_number("phase_s", phase_s)
    check_number("seed", seed, 0, integer=True)
    _check_limit(limit)

    def rate_at(time_s: float) -> float:
        # Raised cosine: trough at cycle start, peak at mid-period.
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * (time_s + phase_s) / period_s))
        return trough_rate_per_s + (peak_rate_per_s - trough_rate_per_s) * swing

    def generate() -> Iterator[ServiceRequest]:
        rng = np.random.default_rng(seed)
        request_id = 0
        time_s = 0.0
        while limit is None or request_id < limit:
            time_s += float(rng.exponential(1.0 / peak_rate_per_s))
            if time_s >= duration_s:
                return
            if rng.random() < rate_at(time_s) / peak_rate_per_s:
                yield ServiceRequest(
                    request_id=request_id,
                    arrival_time_s=time_s,
                    workload=mix.sample(rng),
                )
                request_id += 1

    return generate() if lazy else list(generate())


#: Request-log fields ``replay_trace`` understands (besides the required
#: arrival_time_s / input_tokens / output_tokens).
_REPLAY_OPTIONAL_FIELDS = (
    "request_id", "priority", "slo_s", "patience_s", "service_class",
    "retryable",
)


def _parse_bool(value) -> bool:
    """Parse a log field as a boolean (accepts JSON bools and CSV strings)."""
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _replay_record(record: dict, line_number: int, source: str) -> dict:
    """Validate and convert one raw log record into ServiceRequest kwargs."""
    try:
        kwargs = {
            "arrival_time_s": float(record["arrival_time_s"]),
            "workload": Workload(
                input_tokens=int(record["input_tokens"]),
                output_tokens=int(record["output_tokens"]),
            ),
        }
    except KeyError as error:
        raise ConfigurationError(
            f"{source}, record {line_number}: missing required field {error}"
        ) from error
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"{source}, record {line_number}: {error}"
        ) from error
    converters = {
        "request_id": int, "priority": int,
        "slo_s": float, "patience_s": float, "service_class": str,
        "retryable": _parse_bool,
    }
    for name in _REPLAY_OPTIONAL_FIELDS:
        value = record.get(name)
        if value is None or value == "":
            continue
        try:
            kwargs[name] = converters[name](value)
        except (TypeError, ValueError) as error:
            raise ConfigurationError(
                f"{source}, record {line_number}: bad {name}: {error}"
            ) from error
    return kwargs


def replay_trace(path: str | Path, format: str = "auto") -> list[ServiceRequest]:
    """Replay a recorded request log (CSV or JSONL) as a serving trace.

    Each record needs ``arrival_time_s``, ``input_tokens``, and
    ``output_tokens``; the service-level fields (``request_id``,
    ``priority``, ``slo_s``, ``patience_s``, ``service_class``,
    ``retryable``) are optional and empty CSV cells mean "unset".  JSONL logs carry one JSON
    object per line (blank lines skipped); CSV logs need a header row.
    ``format`` is ``"csv"``, ``"jsonl"``, or ``"auto"`` (by file suffix:
    ``.jsonl`` / ``.ndjson`` / ``.json`` are JSONL, anything else CSV).

    Requests are returned sorted by arrival time; records without a
    ``request_id`` get sequential ids in that order (mixing explicit and
    implicit ids is rejected as ambiguous).
    """
    path = Path(path)
    if format not in ("auto", "csv", "jsonl"):
        raise ConfigurationError(
            f"format must be 'auto', 'csv', or 'jsonl', got {format!r}"
        )
    if not path.exists():
        raise ConfigurationError(f"no request log at {path}")
    if format == "auto":
        format = (
            "jsonl" if path.suffix.lower() in (".jsonl", ".ndjson", ".json")
            else "csv"
        )

    # (line number, ServiceRequest kwargs) per record.
    records: list[tuple[int, dict]] = []
    source = str(path)
    if format == "jsonl":
        with path.open() as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ConfigurationError(
                        f"{source}, line {line_number}: invalid JSON: {error}"
                    ) from error
                if not isinstance(record, dict):
                    raise ConfigurationError(
                        f"{source}, line {line_number}: expected a JSON object"
                    )
                records.append(
                    (line_number, _replay_record(record, line_number, source))
                )
    else:
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise ConfigurationError(f"{source}: empty CSV request log")
            for line_number, record in enumerate(reader, start=2):
                records.append(
                    (line_number, _replay_record(record, line_number, source))
                )

    with_ids = sum(1 for _, record in records if "request_id" in record)
    if 0 < with_ids < len(records):
        raise ConfigurationError(
            f"{source}: {with_ids} of {len(records)} records carry a "
            f"request_id — give all records ids, or none"
        )
    if with_ids:
        seen: dict[int, int] = {}
        for _, record in records:
            request_id = record["request_id"]
            seen[request_id] = seen.get(request_id, 0) + 1
        duplicates = sorted(id for id, count in seen.items() if count > 1)
        if duplicates:
            raise ConfigurationError(
                f"{source}: duplicate request_id values {duplicates} — "
                f"per-request accounting would silently collapse them"
            )
    records.sort(key=lambda item: item[1]["arrival_time_s"])
    trace = []
    for index, (line_number, record) in enumerate(records):
        record.setdefault("request_id", index)
        try:
            trace.append(ServiceRequest(**record))
        except ConfigurationError as error:
            raise ConfigurationError(
                f"{source}, record {line_number}: {error}"
            ) from error
    return trace


def with_service_levels(
    trace: Iterable[ServiceRequest],
    *,
    priority: int = 0,
    slo_s: float | None = None,
    patience_s: float | None = None,
    service_class: str = DEFAULT_SERVICE_CLASS,
) -> list[ServiceRequest] | Iterator[ServiceRequest]:
    """Tag every request of a trace with one service class.

    Returns new requests (``ServiceRequest`` is frozen); arrival times and
    workloads are untouched, so the offered load is identical.  A sized
    trace (list/tuple) maps to a list; a lazy trace maps to a lazy trace,
    so tagging never materializes a streamed trace.
    """
    tagged = (
        dataclasses.replace(
            request,
            priority=priority,
            slo_s=slo_s,
            patience_s=patience_s,
            service_class=service_class,
        )
        for request in trace
    )
    return list(tagged) if hasattr(trace, "__len__") else tagged


def _arrival_key(request: ServiceRequest) -> float:
    """The one merge ordering key, shared by both ``merge_traces`` paths.

    Ties on arrival time are broken by *trace argument order, then order
    within each trace* — the eager path gets this from sort stability over
    the argument-order concatenation, the lazy path from ``heapq.merge``'s
    stable interleave.  Both resolve ties identically, and the equivalence
    is bit-identity-tested over tying arrivals, so eager and lazy merges of
    the same inputs are interchangeable everywhere downstream.
    """
    return request.arrival_time_s


def merge_traces(
    *traces: Iterable[ServiceRequest],
) -> list[ServiceRequest] | Iterator[ServiceRequest]:
    """Interleave several traces into one, sorted by arrival time.

    Request ids are reassigned (in arrival order) so the merged trace has
    unique ids even when the inputs were generated independently.

    Sized inputs (lists/tuples) merge into a list by a full sort, exactly
    as always.  If *any* input is lazy, the merge is lazy too: every input
    must then already be sorted by arrival time (true of every trace
    builder here) and the streams are interleaved with ``heapq.merge``, so
    arbitrarily long traces merge in constant memory.  Both paths order by
    :func:`_arrival_key` with the same pinned tie-break (argument order,
    then within-trace order), so the eager and lazy merges of the same
    inputs are bit-identical.
    """
    if all(hasattr(trace, "__len__") for trace in traces):
        merged = sorted(
            (request for trace in traces for request in trace),
            key=_arrival_key,
        )
        return [
            dataclasses.replace(request, request_id=index)
            for index, request in enumerate(merged)
        ]
    interleaved = heapq.merge(*traces, key=_arrival_key)
    return (
        dataclasses.replace(request, request_id=index)
        for index, request in enumerate(interleaved)
    )
