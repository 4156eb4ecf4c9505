"""Serving reports, the latency oracle, and the serving front end.

The serving subsystem is split across these modules:

* ``serving/server.py`` (this module) — the :class:`LatencyOracle`, the
  outcome records (:class:`CompletedRequest`, :class:`AbandonedRequest`,
  :class:`FailedRequest`), the :class:`ReportAccumulator` every run seals
  them into, the aggregate :class:`ServingReport` that reads it, the one
  serving front end :class:`ApplianceFleet` (several appliances, each a
  :class:`FleetMember`, behind one queue) with :class:`ApplianceServer` as
  its one-member form, and :func:`capacity_search` for capacity planning.
* ``serving/simulator.py`` — the discrete-event core: a single event loop
  that replays a trace against any set of server units.
* ``serving/schedulers.py`` — pluggable dispatch policies (FIFO, SJF,
  priority classes, deadline/EDF with infeasibility drops).
* ``serving/batching.py`` — batch-formation policies (none, size-or-timeout
  dynamic batching, continuous decode slots) and batch cost models.
* ``serving/fleet.py`` — re-exports :class:`FleetMember` and
  :class:`ApplianceFleet` under their historical import path.

The DFX server appliance hosts one or two independent FPGA clusters behind a
dual-socket CPU (paper Fig. 5 / Sec. VI); each cluster serves one request at
a time because text generation is run unbatched (Sec. III-A) — the batching
layer exists to model the GPU side of that tradeoff.  A datacenter rack
mixes such hosts with GPU servers, so the front end is a fleet and one
appliance is a fleet of one.  Per-request service time comes from any
:class:`~repro.backends.base.Backend` — pass a registered name (``"dfx"``,
``"gpu"``, ``"tpu"``, ``"dfx-sim"``) or a backend instance — so the same
harness compares serving capacity across every platform the registry knows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from repro.backends import Backend, make_backend
from repro.errors import ConfigurationError, check_number
from repro.results import InferenceResult
from repro.serving.batching import (
    BackendBatchCostModel,
    BatchFormationPolicy,
    make_batch_policy,
)
from repro.serving.requests import ServiceRequest
from repro.serving.schedulers import SchedulingPolicy, make_scheduler
from repro.serving.stats import (
    DEFAULT_ALPHA,
    ExactDistribution,
    QuantileSketch,
    merge_distribution,
)
from repro.workloads import Workload

#: Abandonment reason: the request's patience ran out while queued.
ABANDON_TIMEOUT = "timeout"
#: Abandonment reason: the deadline scheduler proved the SLO unmeetable.
ABANDON_INFEASIBLE = "infeasible-deadline"

#: Failure reason: killed by a unit failure with no retry policy (or the
#: request was tagged non-retryable).
FAIL_UNIT = "unit-failure"
#: Failure reason: killed after exhausting the retry policy's max attempts.
FAIL_RETRIES = "retries-exhausted"
#: Failure reason: killed while the run's global retry budget was dry.
FAIL_BUDGET = "retry-budget-exhausted"

#: A report's latency distribution slot (exact in retained runs, sketched
#: in streaming runs).
Distribution = ExactDistribution | QuantileSketch


class LatencyOracle:
    """Caches per-workload latency/energy so traces with repeated shapes are cheap.

    Accepts any :class:`~repro.backends.base.Backend` or a registered
    backend name; estimates come from
    :meth:`~repro.backends.base.Backend.estimate`.
    """

    def __init__(self, platform: Backend | str) -> None:
        self.backend = make_backend(platform)
        # Keyed on the shape's two ints: a tuple of ints hashes in C, where
        # a Workload key would run its dataclass __hash__ and __eq__.
        self._cache: dict[tuple[int, int], InferenceResult] = {}

    def result_for(self, workload: Workload) -> InferenceResult:
        """Backend estimate for ``workload`` (memoized)."""
        key = (workload.input_tokens, workload.output_tokens)
        result = self._cache.get(key)
        if result is None:
            result = self._cache[key] = self.backend.estimate(workload)
        return result

    def service_time_s(self, workload: Workload) -> float:
        """End-to-end service time for one request of this shape."""
        return self.result_for(workload).latency_s


@dataclass(frozen=True)
class CompletedRequest:
    """Timing of one served request.

    ``batch_id`` groups the requests dispatched together as one batch
    (``None`` on legacy records, meaning a singleton dispatch); under
    gather-mode batching ``batch_size`` is the member count, under
    continuous batching it is the decode-slot occupancy at admission.
    """

    request: ServiceRequest
    start_time_s: float
    finish_time_s: float
    cluster_id: int
    appliance: str = ""
    batch_id: int | None = None
    batch_size: int = 1
    # Dispatches it took to complete the request: 1 unless a unit failure
    # killed an earlier attempt and the retry policy re-enqueued it.
    attempts: int = 1
    #: Network transfer seconds this request's dispatch paid (prompt ingress
    #: plus token egress over its unit's link; shared by every member of a
    #: gathered batch).  Exactly 0.0 without a network model.
    transfer_time_s: float = 0.0

    @property
    def queueing_delay_s(self) -> float:
        """Time spent waiting for a free cluster."""
        return self.start_time_s - self.request.arrival_time_s

    @property
    def service_time_s(self) -> float:
        """Time spent executing on the cluster."""
        return self.finish_time_s - self.start_time_s

    @property
    def response_time_s(self) -> float:
        """Arrival-to-completion latency seen by the user."""
        return self.finish_time_s - self.request.arrival_time_s

    @property
    def slo_met(self) -> bool:
        """Whether the response met the request's SLO (vacuously true without one)."""
        if self.request.slo_s is None:
            return True
        return self.response_time_s <= self.request.slo_s


@dataclass(frozen=True)
class AbandonedRequest:
    """A request that left the system unserved."""

    request: ServiceRequest
    abandoned_time_s: float
    # ABANDON_TIMEOUT, ABANDON_INFEASIBLE, or the simulator's ABANDON_UNSERVED.
    reason: str


@dataclass(frozen=True)
class FailedRequest:
    """A request the system killed and could not (or would not) retry.

    Distinct from :class:`AbandonedRequest`: an abandonment is the *client*
    leaving (patience, infeasible deadline, shedding); a failure is the
    *system* losing the request to a unit fault after any retries ran out.
    """

    request: ServiceRequest
    failed_time_s: float
    # FAIL_UNIT, FAIL_RETRIES, or FAIL_BUDGET.
    reason: str
    #: Dispatches attempted before the request was declared failed.
    attempts: int = 1


@dataclass
class ReportAccumulator:
    """Report accounting: every serving run seals its outcomes into this.

    The simulator seals each outcome record here.  Running counters cover
    conservation, utilization, SLO attainment, goodput, and the
    per-class/per-appliance breakdowns; distribution slots answer the
    response/queueing/gather/transfer/failover percentile and mean queries.
    ``alpha`` picks the slot type (see :mod:`repro.serving.stats`):

    * ``None`` — retained runs: an :class:`ExactDistribution` per slot,
      answering exactly as numpy does over the sealed values;
    * a float — streaming runs: a :class:`QuantileSketch` per slot, whose
      percentiles lie within relative error ``alpha`` of exact (0.05% by
      default), so memory stays flat in the trace length.

    Everything here is deterministic, so seeded runs reproduce their
    reports exactly.  :class:`ServingReport` reads every statistic from
    its ``stats`` accumulator.
    """

    alpha: float | None = DEFAULT_ALPHA
    num_completed: int = 0
    num_abandoned: int = 0
    num_failed: int = 0
    #: Generated tokens over all completed requests.
    output_tokens: int = 0
    #: Busy time with each dispatched batch counted once (utilization).
    busy_time_s: float = 0.0
    num_batches: int = 0
    batch_size_total: int = 0
    #: SLO-carrying requests offered / completed late / lost unserved.
    slo_offered: int = 0
    slo_late: int = 0
    slo_lost: int = 0
    #: Latest completion instant (the busy window's right edge).
    last_finish_s: float = float("-inf")
    # ------------------------------------------------- network accounting
    #: Network transfer seconds summed over dispatches (each batch once).
    total_transfer_time_s: float = 0.0
    #: Dispatches that landed on a member off the ingress rack.
    num_cross_rack_dispatches: int = 0
    #: Members off the ingress rack (set by the simulator from the network
    #: model; empty without one).
    cross_rack_members: frozenset = frozenset()
    response: Distribution = field(init=False)
    queueing: Distribution = field(init=False)
    #: Per-dispatch gather delay: dispatch time minus oldest member arrival.
    gather: Distribution = field(init=False)
    failover: Distribution = field(init=False)
    #: Per-dispatch transfer seconds (fed for every dispatch, 0.0 entries
    #: included, so network-free and zero-cost runs accumulate identically).
    transfer: Distribution = field(init=False)
    #: Response times of requests served on cross-rack members.
    cross_rack_response: Distribution = field(init=False)
    response_by_class: dict[str, Distribution] = field(
        init=False, default_factory=dict
    )
    #: Service-class labels seen on any outcome (completed/abandoned/failed).
    class_labels: set[str] = field(init=False, default_factory=set)
    busy_by_appliance: dict[str, float] = field(init=False, default_factory=dict)
    batch_sizes: dict[int, int] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.response = self._distribution()
        self.queueing = self._distribution()
        self.gather = self._distribution()
        self.failover = self._distribution()
        self.transfer = self._distribution()
        self.cross_rack_response = self._distribution()

    def _distribution(self) -> Distribution:
        if self.alpha is None:
            return ExactDistribution()
        return QuantileSketch(self.alpha)

    # ------------------------------------------------------- sealing interface
    def seal_dispatch(self, records: list[CompletedRequest]) -> None:
        """Account one completed dispatch (its records seal together)."""
        representative = records[0]
        self.num_batches += 1
        self.batch_size_total += representative.batch_size
        merge_distribution(self.batch_sizes, representative.batch_size)
        service_time = representative.service_time_s
        self.busy_time_s += service_time
        appliance = representative.appliance
        self.busy_by_appliance[appliance] = (
            self.busy_by_appliance.get(appliance, 0.0) + service_time
        )
        if len(records) == 1:
            oldest_arrival = representative.request.arrival_time_s
        else:
            oldest_arrival = min(r.request.arrival_time_s for r in records)
        self.gather.add(representative.start_time_s - oldest_arrival)
        transfer = representative.transfer_time_s
        self.total_transfer_time_s += transfer
        self.transfer.add(transfer)
        cross_rack = representative.appliance in self.cross_rack_members
        if cross_rack:
            self.num_cross_rack_dispatches += 1
        for record in records:
            self.num_completed += 1
            self.output_tokens += record.request.workload.output_tokens
            response_time = record.response_time_s
            self.response.add(response_time)
            self.queueing.add(record.queueing_delay_s)
            if cross_rack:
                self.cross_rack_response.add(response_time)
            label = record.request.service_class
            self.class_labels.add(label)
            by_class = self.response_by_class.get(label)
            if by_class is None:
                by_class = self.response_by_class[label] = self._distribution()
            by_class.add(response_time)
            if record.request.slo_s is not None:
                self.slo_offered += 1
                if not record.slo_met:
                    self.slo_late += 1
            if record.finish_time_s > self.last_finish_s:
                self.last_finish_s = record.finish_time_s

    def seal_abandoned(self, abandoned: AbandonedRequest) -> None:
        self.num_abandoned += 1
        self.class_labels.add(abandoned.request.service_class)
        if abandoned.request.slo_s is not None:
            self.slo_offered += 1
            self.slo_lost += 1

    def seal_failed(self, failed: FailedRequest) -> None:
        self.num_failed += 1
        self.class_labels.add(failed.request.service_class)
        if failed.request.slo_s is not None:
            self.slo_offered += 1
            self.slo_lost += 1

    def seal_failover(self, delay_s: float) -> None:
        self.failover.add(delay_s)


@dataclass
class ServingReport:
    """Aggregate statistics of one serving simulation.

    ``makespan_s`` is the busy window ``[first arrival, last finish]`` — not
    ``[0, last finish]`` — so throughput and utilization are correct for
    traces that start late or are sparse.  ``appliance_clusters`` maps each
    appliance name to its cluster count for fleet reports; when empty the
    report describes a single appliance with ``num_clusters`` clusters.

    Every statistic reads the ``stats`` accumulator the run sealed into.
    The record lists (``completed``, ``abandoned``, ``failed``,
    ``failover_delays_s``) are kept for record-level inspection by
    retained runs only and stay empty in streaming runs.
    """

    platform: str
    num_clusters: int
    completed: list[CompletedRequest] = field(default_factory=list)
    total_energy_joules: float = 0.0
    makespan_s: float = 0.0
    scheduler: str = "fifo"
    abandoned: list[AbandonedRequest] = field(default_factory=list)
    first_arrival_s: float = 0.0
    appliance_clusters: dict[str, int] = field(default_factory=dict)
    batch_policy: str = "none"
    # ----------------------------------------------- availability accounting
    failed: list[FailedRequest] = field(default_factory=list)
    #: Retries spent across the run (kills that were re-enqueued).
    num_retries: int = 0
    #: Per-retried-request failover latency: kill time to restart time.
    failover_delays_s: list[float] = field(default_factory=list)
    #: Merged down windows per unit id, from the compiled fault schedule
    #: (an open-ended fail-stop window ends at ``inf``).
    unit_downtime: dict[int, tuple[tuple[float, float], ...]] = field(
        default_factory=dict
    )
    #: Appliance name of each unit id (for per-appliance availability).
    unit_appliance: dict[int, str] = field(default_factory=dict)
    # ----------------------------------------------------- network accounting
    #: Members (appliance names) placed off the ingress rack by the run's
    #: network model; empty when the run carried no network.
    cross_rack_members: frozenset = frozenset()
    #: Merged severed windows per link name, from the compiled fault schedule.
    link_downtime: dict[str, tuple[tuple[float, float], ...]] = field(
        default_factory=dict
    )
    #: The run's accounting: exact distributions in retained runs,
    #: quantile sketches in streaming runs (``retain_records=False``).
    stats: ReportAccumulator = field(
        default_factory=lambda: ReportAccumulator(alpha=None)
    )

    # ------------------------------------------------------------------ stats
    @property
    def num_requests(self) -> int:
        return self.stats.num_completed

    @property
    def num_abandoned(self) -> int:
        return self.stats.num_abandoned

    @property
    def num_failed(self) -> int:
        return self.stats.num_failed

    @property
    def num_offered(self) -> int:
        """Requests that entered the system (served, abandoned, or failed)."""
        return self.num_requests + self.num_abandoned + self.num_failed

    def response_time_percentile_s(
        self, percentile: float, service_class: str | None = None
    ) -> float:
        """Response-time percentile (e.g. 50, 95, 99) in seconds.

        With ``service_class`` the percentile is computed over that class's
        completed requests only.  Streaming reports answer from the quantile
        sketch, within relative error ``stats.alpha`` of exact.
        """
        if service_class is None:
            return self.stats.response.query(percentile)
        by_class = self.stats.response_by_class.get(service_class)
        return by_class.query(percentile) if by_class is not None else 0.0

    def queueing_delay_percentile_s(self, percentile: float) -> float:
        """Queueing-delay percentile over completed requests."""
        return self.stats.queueing.query(percentile)

    def service_classes(self) -> list[str]:
        """Service-class labels present in the trace (any outcome)."""
        return sorted(self.stats.class_labels)

    def percentiles_by_class(self, percentile: float) -> dict[str, float]:
        """Per-service-class response-time percentile."""
        return {
            label: self.response_time_percentile_s(percentile, service_class=label)
            for label in self.service_classes()
        }

    @property
    def mean_response_time_s(self) -> float:
        return self.stats.response.mean

    @property
    def mean_queueing_delay_s(self) -> float:
        return self.stats.queueing.mean

    @property
    def requests_per_hour(self) -> float:
        """Sustained request throughput over the busy window."""
        if self.makespan_s <= 0:
            return 0.0
        return self.num_requests / self.makespan_s * 3600.0

    @property
    def output_tokens_per_second(self) -> float:
        """Sustained generated-token throughput over the busy window."""
        if self.makespan_s <= 0:
            return 0.0
        return self.stats.output_tokens / self.makespan_s

    def iter_dispatches(self):
        """One representative completed request per dispatch (batch).

        Requests served together in one batch share their unit's busy
        interval, so busy-time accounting must count each batch once.
        Legacy records without a ``batch_id`` are their own dispatch.
        Streaming reports keep no records, so this yields nothing there.
        """
        seen: set[int] = set()
        for completed in self.completed:
            if completed.batch_id is None:
                yield completed
            elif completed.batch_id not in seen:
                seen.add(completed.batch_id)
                yield completed

    @property
    def utilization(self) -> float:
        """Fraction of cluster-time spent serving (busy time / capacity).

        Busy time counts each dispatched batch once; under continuous
        batching concurrent decode streams on one unit overlap, so values
        above 1.0 are possible (and mean the decode slots were shared).
        """
        if self.makespan_s <= 0 or self.num_clusters == 0:
            return 0.0
        return self.stats.busy_time_s / (self.makespan_s * self.num_clusters)

    def utilization_by_appliance(self) -> dict[str, float]:
        """Busy-time fraction of each appliance in the (possibly fleet) report."""
        clusters = self.appliance_clusters or {self.platform: self.num_clusters}
        if self.makespan_s <= 0:
            return {name: 0.0 for name in clusters}
        busy: dict[str, float] = {name: 0.0 for name in clusters}
        for name, value in self.stats.busy_by_appliance.items():
            key = name or self.platform
            busy[key] = busy.get(key, 0.0) + value
        return {
            name: busy.get(name, 0.0) / (self.makespan_s * count)
            for name, count in clusters.items()
            if count > 0
        }

    # ------------------------------------------------------------- batch stats
    @property
    def num_batches(self) -> int:
        """Dispatches performed (each gathered batch counts once)."""
        return self.stats.num_batches

    @property
    def mean_batch_size(self) -> float:
        """Average recorded batch size over dispatches (1.0 when unbatched)."""
        if self.stats.num_batches == 0:
            return 0.0
        return self.stats.batch_size_total / self.stats.num_batches

    def batch_size_distribution(self) -> dict[int, int]:
        """Dispatch count by recorded batch size.

        Gather-mode sizes are member counts; continuous-mode sizes are the
        decode occupancy at admission.  An unbatched report is all 1s.
        """
        sizes = self.stats.batch_sizes
        return {size: sizes[size] for size in sorted(sizes)}

    def batch_gather_delays_s(self) -> np.ndarray:
        """Per-batch gather delay: dispatch time minus oldest member arrival.

        For singleton dispatches this equals the request's queueing delay;
        for gathered batches it is the wait the batch's oldest member paid
        while the batch formed (the latency cost of batching the paper's
        Sec. III-A argues about).  Returns a fresh array in dispatch order.
        Streaming reports keep no per-batch values — use
        :meth:`batch_gather_delay_percentile_s` /
        :attr:`mean_batch_gather_delay_s` there, or run with
        ``retain_records=True``.
        """
        if not isinstance(self.stats.gather, ExactDistribution):
            raise ConfigurationError(
                "per-batch gather delays are not retained in streaming mode; "
                "serve with retain_records=True for the exact array"
            )
        return self.stats.gather.values()

    @property
    def mean_batch_gather_delay_s(self) -> float:
        return self.stats.gather.mean

    def batch_gather_delay_percentile_s(self, percentile: float) -> float:
        return self.stats.gather.query(percentile)

    # ---------------------------------------------------------- network stats
    @property
    def total_transfer_time_s(self) -> float:
        """Network transfer seconds summed over dispatches (each batch once).

        Exactly 0.0 for runs without a network model (or with a zero-cost
        one).
        """
        return self.stats.total_transfer_time_s

    @property
    def mean_transfer_time_s(self) -> float:
        """Mean per-dispatch network transfer seconds."""
        return self.stats.transfer.mean

    def transfer_time_percentile_s(self, percentile: float) -> float:
        """Per-dispatch transfer-time percentile (0.0 with no dispatches)."""
        return self.stats.transfer.query(percentile)

    @property
    def num_cross_rack_dispatches(self) -> int:
        """Dispatches that landed on a member off the ingress rack."""
        return self.stats.num_cross_rack_dispatches

    @property
    def cross_rack_dispatch_fraction(self) -> float:
        """Fraction of dispatches routed off the ingress rack."""
        batches = self.num_batches
        if batches == 0:
            return 0.0
        return self.num_cross_rack_dispatches / batches

    def cross_rack_response_percentile_s(self, percentile: float) -> float:
        """Response-time percentile over requests served off-rack.

        0.0 when no request was served on a cross-rack member (including
        every run without a network model).
        """
        return self.stats.cross_rack_response.query(percentile)

    def downtime_by_link(self) -> dict[str, float]:
        """Severed seconds per link name, clipped to the busy window."""
        window_start, window_end = self._busy_window()
        downtime: dict[str, float] = {}
        for link, windows in self.link_downtime.items():
            total = 0.0
            for start, end in windows:
                total += max(0.0, min(end, window_end) - max(start, window_start))
            downtime[link] = total
        return downtime

    @property
    def abandonment_rate(self) -> float:
        """Fraction of offered requests that left unserved."""
        if self.num_offered == 0:
            return 0.0
        return self.num_abandoned / self.num_offered

    @property
    def slo_violations(self) -> int:
        """Offered requests with an SLO that were not served within it.

        Counts completions beyond the SLO plus abandonments and failures of
        SLO-carrying requests; requests without an SLO can only violate by
        leaving unserved and are reported through ``abandonment_rate`` /
        ``failure_rate`` instead.
        """
        return self.stats.slo_late + self.stats.slo_lost

    @property
    def slo_violation_rate(self) -> float:
        """SLO violations as a fraction of offered SLO-carrying requests."""
        if self.stats.slo_offered == 0:
            return 0.0
        return self.slo_violations / self.stats.slo_offered

    @property
    def slo_attainment(self) -> float:
        """1 - slo_violation_rate (1.0 when no request carries an SLO)."""
        return 1.0 - self.slo_violation_rate

    @property
    def has_slo_requests(self) -> bool:
        """Whether any offered request carried an SLO."""
        return self.stats.slo_offered > 0

    @property
    def energy_per_request_joules(self) -> float:
        if self.num_requests == 0:
            return 0.0
        return self.total_energy_joules / self.num_requests

    # -------------------------------------------------- availability / faults
    @property
    def failure_rate(self) -> float:
        """Fraction of offered requests lost to unit faults."""
        if self.num_offered == 0:
            return 0.0
        return self.num_failed / self.num_offered

    @property
    def goodput_fraction(self) -> float:
        """Completed fraction of offered load (goodput vs offered).

        1.0 on an empty trace (nothing offered, nothing lost); anything
        below 1.0 under faults is load lost to failures, shedding, or
        fault-induced abandonment.
        """
        if self.num_offered == 0:
            return 1.0
        return self.num_requests / self.num_offered

    @property
    def offered_per_hour(self) -> float:
        """Offered request rate over the busy window (goodput's denominator)."""
        if self.makespan_s <= 0:
            return 0.0
        return self.num_offered / self.makespan_s * 3600.0

    @property
    def mean_failover_delay_s(self) -> float:
        """Mean kill-to-restart latency over retried dispatches."""
        return self.stats.failover.mean

    def failover_delay_percentile_s(self, percentile: float) -> float:
        """Kill-to-restart latency percentile over retried dispatches."""
        return self.stats.failover.query(percentile)

    def _busy_window(self) -> tuple[float, float]:
        return (self.first_arrival_s, self.first_arrival_s + self.makespan_s)

    def downtime_by_unit(self) -> dict[int, float]:
        """Downtime seconds per unit, clipped to the busy window.

        Units that never went down map to 0.0; an open-ended fail-stop
        window contributes from its start to the end of the busy window.
        """
        window_start, window_end = self._busy_window()
        downtime: dict[int, float] = {
            unit_id: 0.0 for unit_id in self.unit_appliance
        }
        for unit_id, windows in self.unit_downtime.items():
            total = 0.0
            for start, end in windows:
                total += max(0.0, min(end, window_end) - max(start, window_start))
            downtime[unit_id] = total
        return downtime

    @property
    def availability(self) -> float:
        """Fraction of unit-time the fleet was up over the busy window.

        ``1 - downtime / (makespan * num_clusters)`` with downtime clipped
        to the busy window; 1.0 when the window is empty or no faults were
        scheduled.
        """
        if self.makespan_s <= 0 or self.num_clusters == 0:
            return 1.0
        lost = sum(self.downtime_by_unit().values())
        return 1.0 - lost / (self.makespan_s * self.num_clusters)

    def availability_by_appliance(self) -> dict[str, float]:
        """Per-appliance availability over the busy window.

        Falls back to ``appliance_clusters`` (all 1.0) when the run carried
        no per-unit fault bookkeeping (pre-fault reports).
        """
        clusters = self.appliance_clusters or {self.platform: self.num_clusters}
        if not self.unit_appliance or self.makespan_s <= 0:
            return {name: 1.0 for name in clusters}
        downtime = self.downtime_by_unit()
        lost: dict[str, float] = {name: 0.0 for name in clusters}
        counts: dict[str, int] = {name: 0 for name in clusters}
        for unit_id, appliance in self.unit_appliance.items():
            lost[appliance] = lost.get(appliance, 0.0) + downtime.get(unit_id, 0.0)
            counts[appliance] = counts.get(appliance, 0) + 1
        return {
            name: 1.0 - lost[name] / (self.makespan_s * counts[name])
            if counts.get(name)
            else 1.0
            for name in clusters
        }


@dataclass(frozen=True)
class FleetMember:
    """One appliance in the fleet: a backend and its cluster count.

    ``platform`` is a :class:`~repro.backends.base.Backend` or a registered
    backend name (``FleetMember("dfx", "dfx", 2)`` builds the default DFX
    cluster adapter).  ``num_clusters=None`` (the default) takes the
    cluster count from the resolved backend's capabilities
    (``capabilities().num_units``), so presets like
    ``FleetMember("host0", "dfx-4u")`` spell their shape by name.
    ``max_batch_size`` > 1 marks the member's clusters batch-capable; the
    resolved backend's capabilities must then support batching.
    ``max_batch_size=None`` takes the fleet's batch policy's own size, so
    a ``"dynamic"`` fleet batches without extra plumbing.
    """

    name: str
    platform: Backend | str
    num_clusters: int | None = None
    max_batch_size: int | None = 1

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"fleet member name must be a non-empty str, got {self.name!r}"
            )
        if self.num_clusters is not None:
            check_number("num_clusters", self.num_clusters, 1, integer=True)
        if self.max_batch_size is not None:
            check_number("max_batch_size", self.max_batch_size, 1, integer=True)


def check_fleet_members(members: Iterable[FleetMember]) -> tuple[FleetMember, ...]:
    """``members`` read once into a tuple (so a generator keeps its members),
    each checked to be a :class:`FleetMember` before any name is read."""
    try:
        members = tuple(members)
    except TypeError:
        raise ConfigurationError(
            f"fleet members must be an iterable of FleetMember, "
            f"got {type(members).__name__}"
        ) from None
    if not members:
        raise ConfigurationError("a fleet needs at least one member")
    for member in members:
        if not isinstance(member, FleetMember):
            raise ConfigurationError(
                f"fleet members must be FleetMember instances, got {member!r}"
            )
    return members


class ApplianceFleet:
    """A set of (possibly heterogeneous) appliances behind one queue.

    The serving front end: each :class:`FleetMember` contributes its
    clusters as server units backed by its own latency oracle, and the
    discrete-event simulator dispatches greedily onto the idle unit that
    finishes the request earliest (so a faster appliance absorbs more of
    the offered load).  A single appliance is the one-member fleet
    (:class:`ApplianceServer`).

    Scheduling policy (which request goes next) is orthogonal to fleet
    composition (where it runs); any policy from
    :mod:`repro.serving.schedulers` works unchanged.  Batch formation is a
    third axis: a member with ``max_batch_size > 1`` (e.g. the GPU
    appliance) contributes batch-capable units priced through
    :class:`~repro.serving.batching.BackendBatchCostModel`, while DFX
    members keep the unbatched batch=1 passthrough — the paper's asymmetry
    (Sec. III-A).  The defaults (``"none"``, capacity 1) are the paper's
    unbatched regime and reproduce the pre-batching simulator bit for bit.
    A fourth axis is where the members sit: a
    :class:`~repro.serving.network.NetworkModel` placing every member in a
    rack prices prompt-ingress plus token-egress transfer into each
    dispatch, so routing becomes network-aware; ``network=None`` keeps the
    one-box arithmetic bit for bit.

    ``faults`` (a :class:`~repro.serving.faults.FaultSchedule`),
    ``retry_policy`` and ``degraded_mode`` configure fault injection for
    every ``serve()`` call — kept on the object so a capacity search, which
    calls bare ``serve(trace)``, runs the same campaign at every rate.

    ``retain_records=True`` (the default) keeps every outcome record on the
    report and answers percentiles exactly.  ``retain_records=False`` keeps
    no records and sketches the percentiles (flat memory), which is what
    million-request traces need; ``serve()`` accepts a lazy request
    iterator in non-decreasing arrival order either way, never
    materializing the trace.
    """

    def __init__(
        self,
        members: Iterable[FleetMember],
        scheduler: str | SchedulingPolicy = "fifo",
        name: str | None = None,
        batch_policy: str | BatchFormationPolicy = "none",
        faults=None,
        retry_policy=None,
        degraded_mode=None,
        network=None,
        retain_records: bool = True,
    ) -> None:
        members = check_fleet_members(members)
        names = [member.name for member in members]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"fleet member names must be unique: {names}")
        if network is not None:
            # Fail at fleet build time, not mid-simulation: every member
            # must be placed in a rack, and every placed name must exist.
            for member_name in names:
                network.rack_of(member_name)
            unknown = set(network.members) - set(names)
            if unknown:
                raise ConfigurationError(
                    f"network places unknown members {sorted(unknown)}; "
                    f"fleet members: {names}"
                )
        self.network = network
        # Resolved once so an unset member capacity always matches the
        # policy that will run (a "dynamic" policy on capacity-1 units would
        # otherwise silently serve unbatched while the report claims
        # batching ran).
        batch_policy = make_batch_policy(batch_policy)
        self.members = tuple(
            member if member.max_batch_size is not None
            else replace(member, max_batch_size=batch_policy.max_batch_size)
            for member in members
        )
        self.scheduler = scheduler
        self.batch_policy = batch_policy
        self.name = name or "+".join(names)
        self.faults = faults
        self.retry_policy = retry_policy
        self.degraded_mode = degraded_mode
        # Read by every serve(), so it may be changed between runs.
        self.retain_records = retain_records
        # Each member's backend (instance or registry name) is resolved once
        # at fleet build time.
        self._backends = {
            member.name: make_backend(member.platform) for member in self.members
        }
        # num_clusters=None members take their count from the backend's
        # declared capabilities (e.g. "dfx-4u" carries two clusters).
        self._cluster_counts = {
            member.name: (
                member.num_clusters
                if member.num_clusters is not None
                else self._backends[member.name].capabilities().num_units
            )
            for member in self.members
        }
        # One oracle per member so repeated shapes stay cheap across traces.
        self._oracles = {
            member.name: LatencyOracle(self._backends[member.name])
            for member in self.members
        }
        # Batch cost models are validated eagerly so a misconfigured member
        # (batch-capable but a non-batching backend) fails at fleet build
        # time, not mid-simulation.
        self._batch_costs = {
            member.name: (
                BackendBatchCostModel(
                    self._backends[member.name], member.max_batch_size
                )
                if member.max_batch_size > 1
                else None
            )
            for member in self.members
        }

    @property
    def num_clusters(self) -> int:
        """Total server units across the fleet."""
        return sum(self._cluster_counts.values())

    def clusters_for(self, member_name: str) -> int:
        """Resolved cluster count of one member (after capability defaults)."""
        if member_name not in self._cluster_counts:
            raise ConfigurationError(
                f"no fleet member named {member_name!r}; "
                f"members: {[m.name for m in self.members]}"
            )
        return self._cluster_counts[member_name]

    def backend_for(self, member_name: str) -> Backend:
        """The resolved backend serving one member's clusters."""
        if member_name not in self._backends:
            raise ConfigurationError(
                f"no fleet member named {member_name!r}; "
                f"members: {[m.name for m in self.members]}"
            )
        return self._backends[member_name]

    def serve(self, trace) -> ServingReport:
        """Replay a trace (list or lazy iterable) across the whole fleet."""
        # Imported here: simulator.py needs this module's report classes, so a
        # top-level import would be circular.
        from repro.serving.simulator import ServerUnit, simulate

        units: list[ServerUnit] = []
        for member in self.members:
            oracle = self._oracles[member.name]
            for _ in range(self._cluster_counts[member.name]):
                units.append(
                    ServerUnit(
                        unit_id=len(units),
                        appliance=member.name,
                        oracle=oracle,
                        max_batch_size=member.max_batch_size,
                        batch_costs=self._batch_costs[member.name],
                    )
                )
        return simulate(
            units,
            trace,
            scheduler=make_scheduler(self.scheduler),
            platform=self.name,
            batching=make_batch_policy(self.batch_policy),
            faults=self.faults,
            retry_policy=self.retry_policy,
            degraded_mode=self.degraded_mode,
            network=self.network,
            retain_records=self.retain_records,
        )


class ApplianceServer(ApplianceFleet):
    """A server appliance with ``num_clusters`` independent accelerator clusters.

    The one-member :class:`ApplianceFleet`: its member is named
    ``platform_name`` (default: the backend's name), which also labels the
    report's platform.  ``platform`` is a
    :class:`~repro.backends.base.Backend` or a registered backend name
    (``ApplianceServer("dfx", 2)``).  ``num_clusters=None`` (the default)
    takes the cluster count from the backend's capabilities
    (``capabilities().num_units``), so presets like ``"dfx-4u"`` spell the
    appliance shape by name.

    ``max_batch_size`` is the per-cluster capacity and defaults (``None``)
    to the batch policy's own batch size, so ``ApplianceServer(gpu,
    batch_policy="dynamic")`` batches without extra plumbing (pass an
    explicit ``max_batch_size`` to cap it — capping to 1 forces the
    singleton passthrough even under a batching policy).  A capacity above 1
    requires the backend's capabilities to support batching.
    """

    def __init__(self, platform: Backend | str,
                 num_clusters: int | None = None,
                 platform_name: str | None = None,
                 scheduler: str | SchedulingPolicy = "fifo",
                 batch_policy: str | BatchFormationPolicy = "none",
                 max_batch_size: int | None = None,
                 faults=None,
                 retry_policy=None,
                 degraded_mode=None,
                 retain_records: bool = True) -> None:
        backend = make_backend(platform)
        super().__init__(
            [FleetMember(platform_name or backend.name, backend,
                         num_clusters, max_batch_size)],
            scheduler=scheduler,
            batch_policy=batch_policy,
            faults=faults,
            retry_policy=retry_policy,
            degraded_mode=degraded_mode,
            retain_records=retain_records,
        )

    # Bound in this class body because perfbench's tracer wraps each front
    # end's own ``serve`` (``vars(cls)["serve"]``).
    serve = ApplianceFleet.serve


@dataclass(frozen=True)
class CapacityPlan:
    """Result of a capacity search: the highest offered rate meeting an SLO."""

    platform: str
    scheduler: str
    slo_s: float
    percentile: float
    max_rate_per_s: float
    reports: dict[float, ServingReport]

    @property
    def max_requests_per_hour(self) -> float:
        return self.max_rate_per_s * 3600.0

    @property
    def report_at_capacity(self) -> ServingReport | None:
        """The serving report measured at the returned capacity (if any)."""
        if self.max_rate_per_s <= 0:
            return None
        return self.reports.get(self.max_rate_per_s)


def capacity_search(
    front_end: ApplianceFleet,
    trace_builder,
    slo_s: float,
    *,
    percentile: float = 95.0,
    rate_bounds: tuple[float, float] = (0.05, 64.0),
    relative_tolerance: float = 0.05,
    max_abandonment_rate: float = 0.0,
) -> CapacityPlan:
    """Capacity planning: the highest offered rate whose tail meets the SLO.

    Serves ``front_end`` (an :class:`ApplianceFleet`, or the one-member
    :class:`ApplianceServer`) at probed rates: exponentially grows the
    offered rate from ``rate_bounds[0]`` until the ``percentile`` response
    time exceeds ``slo_s`` (or the abandonment rate exceeds
    ``max_abandonment_rate``), then bisects the bracket until it is within
    ``relative_tolerance``.  ``trace_builder(rate)`` must be deterministic
    for the search to converge.  The search reads only each probed report's
    tail percentile and abandonment rate, so a front end built with
    ``retain_records=False`` runs it with flat memory at every probed rate.

    The plan is labelled with ``front_end.name`` and its scheduler's name.
    Its ``max_rate_per_s`` is 0.0 when even the lowest probed rate violates
    the SLO, and ``rate_bounds[1]`` when the SLO holds all the way to the
    cap.
    """
    check_number("slo_s", slo_s, 0.0, open_low=True)
    check_number("percentile", percentile, 0.0, 100.0)
    low, high = rate_bounds
    check_number("rate_bounds[0]", low, 0.0, open_low=True)
    check_number("rate_bounds[1]", high, low, open_low=True)
    check_number("relative_tolerance", relative_tolerance, 0.0, open_low=True)
    check_number("max_abandonment_rate", max_abandonment_rate, 0.0, 1.0)

    reports: dict[float, ServingReport] = {}

    def meets_slo(rate: float) -> bool:
        if rate not in reports:
            reports[rate] = front_end.serve(trace_builder(rate))
        report = reports[rate]
        return (
            report.response_time_percentile_s(percentile) <= slo_s
            and report.abandonment_rate <= max_abandonment_rate
        )

    def plan(max_rate: float) -> CapacityPlan:
        return CapacityPlan(
            platform=front_end.name,
            scheduler=make_scheduler(front_end.scheduler).name,
            slo_s=slo_s,
            percentile=percentile,
            max_rate_per_s=max_rate,
            reports=dict(reports),
        )

    if not meets_slo(low):
        return plan(0.0)
    # Exponential growth to bracket the saturation point.
    good = low
    while True:
        candidate = min(good * 2.0, high)
        if meets_slo(candidate):
            good = candidate
            if candidate >= high:
                return plan(high)
        else:
            bad = candidate
            break
    # Bisect [good, bad] down to the requested relative tolerance.
    while (bad - good) > relative_tolerance * good:
        middle = (good + bad) / 2.0
        if meets_slo(middle):
            good = middle
        else:
            bad = middle
    return plan(good)
