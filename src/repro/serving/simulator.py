"""Discrete-event core of the serving subsystem.

One event loop replays a request trace against an arbitrary set of
:class:`ServerUnit` s (clusters), each backed by a latency oracle.  Three
event kinds exist — request arrival, service completion, and batch flush —
and between events the scheduler is asked which queued request(s) to
dispatch onto which idle unit.  The loop is run by the one serving front
end, :class:`~repro.serving.server.ApplianceFleet` (units from different
appliances with different speeds behind one queue); a single appliance,
:class:`~repro.serving.server.ApplianceServer`, is the fleet of one whose
units all share one oracle.

The loop is built for million-request traces: only in-flight completions
and pending retries wait in :class:`~repro.serving.calendar.CalendarQueue`
heaps, arrivals are pulled one ahead from the trace (a generator trace is
never materialized), and every outcome record flows through the record
sink when it seals, into the report's
:class:`~repro.serving.server.ReportAccumulator` (running counters plus
latency distributions).  Retained runs also keep every
record on the report's lists and answer percentiles exactly;
``retain_records=False`` keeps no records and sketches the percentiles,
so memory stays flat in the trace length.
In-flight work holds its *provisional* completion records privately
(:class:`_InflightDispatch` / :class:`_DecodeStream`); a record reaches the
report only when the work really completes, which is also what makes unit
failures cheap — killed records are dropped, not retracted.

Dispatch rules:

* The scheduler (``repro.serving.schedulers``) picks *which* request runs
  next; requests whose patience expired while queued abandon first, and
  deadline-aware policies may drop requests whose SLO is provably unmeetable.
* The simulator picks *where* it runs: the idle unit with the smallest
  estimated service time for that request, breaking ties toward the unit
  that has been free the longest (then the lowest unit id).  For a
  homogeneous appliance this reduces to the original ``(free time, cluster
  id)`` min-heap choice, so FIFO scheduling reproduces the legacy
  ``ApplianceServer.serve()`` loop exactly; for a heterogeneous fleet it is
  a greedy earliest-finish load balancer.
* The batch policy (``repro.serving.batching``) picks *how many* run
  together.  Units with ``max_batch_size == 1`` (DFX clusters — the paper
  serves text generation unbatched, Sec. III-A) always take the singleton
  passthrough, priced by the per-request latency oracle; batch-capable
  units (the GPU baseline) gather up to ``capacity`` queued requests under
  the policy's size/timeout rules and price the batch through their
  :class:`~repro.serving.batching.BatchCostModel`.  A held partial batch
  registers a flush deadline so the loop wakes to dispatch it even when no
  arrival or completion intervenes.

Continuous batching runs each admission as a decode *stream* on one of the
unit's slots.  Every occupancy change — admission or departure — re-prices
the in-flight streams: each stream's completed work fraction is carried
over and its remaining work re-runs at the new concurrency's rate.
Superseded completion events stay in the completion queue and are skipped
by an epoch check (lazy deletion); a stream's provisional completion
record seals with its revised finish time when it really completes, and
retained runs restore dispatch order at finalize.

Fault injection (``repro.serving.faults``) adds a fourth event source: a
compiled :class:`~repro.serving.faults.FaultSchedule` feeds a timeline of
``down``/``up``/``slow``/``unslow`` events into the loop.  A unit going
down kills its in-flight work — the victims' provisional records are
dropped, energy already billed for the unserved remainder is refunded, and
each victim is re-enqueued through the
:class:`~repro.serving.faults.RetryPolicy` (after
its exponential backoff) or recorded as a
:class:`~repro.serving.server.FailedRequest`.  Down units never appear in
the dispatch candidate set; a degraded-mode policy may shed queued
low-priority traffic while capacity is reduced.  Link degradation scales a
unit's service times by a slowdown factor: work priced while a factor is
active runs slower, and re-priced decode streams re-run their remainder at
each factor change.  In-flight gather-mode work keeps its priced finish
time across a degradation (only failures retract dispatched work).  With
no faults scheduled every multiplier is exactly 1.0 and every fault branch
is dead, so the simulation is bit-identical to the pre-fault simulator.

A :class:`~repro.serving.network.NetworkModel` makes the loop
network-aware: every unit is annotated with the link its appliance sits
behind, dispatches pay prompt-ingress plus token-egress transfer time on
top of compute (the wall clock stretches; energy does not), and both
routing estimates fold the transfer tax in so an off-rack unit only wins
a dispatch when its compute advantage beats the wire.  Link faults target
the link by name: a severed link partitions its rack (no new dispatches;
in-flight work completes) and a degraded link stretches transfer time
only.  With ``network=None`` every unit keeps ``transfer_link=None`` and
prices zero transfer through an early return; a zero-cost model prices
every transfer at exactly ``0.0`` — both are bit-identical to the
pre-network simulator.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, check_number
from repro.serving.batching import (
    BatchCostModel,
    BatchFormationPolicy,
    make_batch_policy,
)
from repro.serving.calendar import CalendarQueue
from repro.serving.stats import DEFAULT_EPS
from repro.serving.faults import (
    ABANDON_SHED,
    EVENT_DOWN,
    EVENT_LINK_DOWN,
    EVENT_LINK_SLOW,
    EVENT_LINK_UNSLOW,
    EVENT_LINK_UP,
    EVENT_SLOW,
    EVENT_UNSLOW,
    EVENT_UP,
    DegradedModePolicy,
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
)
from repro.serving.network import NetworkLink, NetworkModel
from repro.serving.requests import ServiceRequest
from repro.serving.schedulers import SchedulingPolicy
from repro.serving.server import (
    ABANDON_INFEASIBLE,
    ABANDON_TIMEOUT,
    FAIL_BUDGET,
    FAIL_RETRIES,
    FAIL_UNIT,
    AbandonedRequest,
    CompletedRequest,
    FailedRequest,
    LatencyOracle,
    ReportAccumulator,
    ServingReport,
)

#: Abandonment reason for requests a (custom) policy never dispatched.
ABANDON_UNSERVED = "unserved"


class _RecordSink:
    """Where every outcome record goes when it seals.

    Every record seals into the report's
    :class:`~repro.serving.server.ReportAccumulator`, which answers all of
    the report's statistics.  Streaming runs (``retain=False``) seal each
    record as it happens and keep nothing else, so memory stays flat.

    Retained runs also keep the records on the report's lists.  Their
    dispatches seal in *completion* order, but the report contract is
    *dispatch* order (FIFO traces read like the legacy serve loop, and the
    property suite asserts monotone start times).  Batch ids are handed out
    in dispatch order, so retained dispatches are held and sealed at
    finalize sorted by batch id, members in position order — including
    after unit failures, because killed provisional records simply never
    seal.  Every float sum and mean of the accumulator then sees the values
    in dispatch order.
    """

    def __init__(self, report: ServingReport, retain: bool) -> None:
        self.report = report
        self.stats = report.stats
        self.retain = retain
        self._held: list[list[CompletedRequest]] = []

    def seal_dispatch(self, records: list[CompletedRequest]) -> None:
        if self.retain:
            self._held.append(records)
        else:
            self.stats.seal_dispatch(records)

    def seal_abandoned(self, abandoned: AbandonedRequest) -> None:
        if self.retain:
            self.report.abandoned.append(abandoned)
        self.stats.seal_abandoned(abandoned)

    def seal_failed(self, failed: FailedRequest) -> None:
        if self.retain:
            self.report.failed.append(failed)
        self.stats.seal_failed(failed)

    def seal_failover(self, delay_s: float) -> None:
        if self.retain:
            self.report.failover_delays_s.append(delay_s)
        self.stats.seal_failover(delay_s)

    def finalize(self) -> None:
        self._held.sort(key=lambda records: records[0].batch_id)
        for records in self._held:
            self.stats.seal_dispatch(records)
            self.report.completed.extend(records)
        self._held.clear()


@dataclass
class _DecodeStream:
    """One in-flight continuous-batching admission under re-pricing.

    ``fraction_done`` is the share of the request's work already decoded;
    it advances at rate ``1 / T(concurrency)`` where ``T`` is the stream's
    total service time at a given decode concurrency, so an occupancy
    change carries completed work over and re-runs only the remainder at
    the new rate.  ``epoch`` invalidates superseded completion events in
    the queue (lazy deletion).  ``record`` is the provisional completion
    record built at admission; its finish time is revised when the stream
    really completes and only then does the record seal into the report.
    """

    record: CompletedRequest
    concurrency: int
    fraction_done: float
    last_change_s: float
    finish_s: float
    epoch: int = 0
    energy_joules: float = 0.0
    #: Slowdown factor in effect for the current segment (link degradation).
    slowdown: float = 1.0
    #: Network transfer priced into this stream at admission (a fixed
    #: additive term carried through every re-price; 0.0 with no network).
    transfer_s: float = 0.0

    @property
    def request(self) -> ServiceRequest:
        return self.record.request


@dataclass
class _InflightDispatch:
    """One immutable in-flight dispatch, registered so a fault can kill it.

    Gather-mode batches and singletons pass through here; continuous
    decode streams carry their own state in :class:`_DecodeStream`
    instead.  ``records`` are the members' provisional completion records
    — sealed together when the dispatch completes, discarded when a
    failure kills it.
    """

    records: list[CompletedRequest]
    start_s: float
    finish_s: float
    energy_joules: float


@dataclass
class ServerUnit:
    """One cluster of one appliance.

    A unit serves one *dispatch* per slot at a time: a singleton request or
    a gathered batch on gather-mode units (``slots == 1``), or up to
    ``max_batch_size`` concurrent decode streams under continuous batching
    (``slots`` is raised by :func:`simulate` when the policy is continuous).
    Units with ``max_batch_size > 1`` must carry a ``batch_costs`` model;
    ``max_batch_size == 1`` units never consult it (batch=1 passthrough).
    """

    unit_id: int
    appliance: str
    oracle: LatencyOracle
    free_at_s: float = 0.0
    max_batch_size: int = 1
    batch_costs: BatchCostModel | None = None
    # Runtime state, managed by the simulator.
    active: int = 0
    slots: int = 1
    streams: dict[int, _DecodeStream] = field(default_factory=dict)
    # Fault state: a down unit takes no dispatches; ``slowdown`` is the
    # product of the active degradation factors (exactly 1.0 when none
    # are active, so fault-free pricing is bit-identical).
    up: bool = True
    slowdown: float = 1.0
    slow_factors: list[float] = field(default_factory=list)
    inflight: dict[int, _InflightDispatch] = field(default_factory=dict)
    # Network state, annotated by :func:`simulate` from the NetworkModel:
    # units on the ingress rack (and every unit of a network-less run) keep
    # ``transfer_link=None`` and price zero transfer through an early
    # return, so the no-network arithmetic is untouched.  ``link_name`` is
    # the fault-targetable name of the link this unit sits behind;
    # ``link_up`` / ``link_slowdown`` mirror the unit-level fault state but
    # sever dispatch reachability and stretch transfer time only.
    link_name: str | None = None
    transfer_link: NetworkLink | None = None
    transfer_bytes_per_token: float = 0.0
    link_up: bool = True
    link_slowdown: float = 1.0
    link_slow_factors: list[float] = field(default_factory=list)

    @property
    def busy(self) -> bool:
        return self.active >= self.slots

    @property
    def available(self) -> bool:
        """Whether the unit can take a dispatch right now (live, reachable,
        and not full)."""
        return self.up and self.link_up and not self.busy

    def transfer_time_s(self, request: ServiceRequest) -> float:
        """Network transfer one dispatch of ``request`` pays on this unit.

        Prompt ingress plus token egress over the unit's link, scaled by
        the link's degradation factor; exactly ``0.0`` for local units
        (ingress rack, or no network at all).  Matches
        :meth:`~repro.serving.network.NetworkModel.transfer_time_s` term
        for term so retained-mode recomputation is bit-exact.
        """
        if self.transfer_link is None:
            return 0.0
        workload = request.workload
        return (
            self.transfer_link.one_way_s(
                workload.input_tokens * self.transfer_bytes_per_token
            )
            + self.transfer_link.one_way_s(
                workload.output_tokens * self.transfer_bytes_per_token
            )
        ) * self.link_slowdown

    def batch_transfer_time_s(self, requests: list[ServiceRequest]) -> float:
        """Network transfer one gathered batch pays on this unit.

        The batch ships as one burst: every member's prompt crosses on the
        ingress leg and every member's output on the egress leg, each leg
        paying the link's propagation latency once.
        """
        if self.transfer_link is None:
            return 0.0
        input_tokens = sum(r.workload.input_tokens for r in requests)
        output_tokens = sum(r.workload.output_tokens for r in requests)
        return (
            self.transfer_link.one_way_s(
                input_tokens * self.transfer_bytes_per_token
            )
            + self.transfer_link.one_way_s(
                output_tokens * self.transfer_bytes_per_token
            )
        ) * self.link_slowdown

    def service_time_s(self, request: ServiceRequest) -> float:
        """Estimated time to serve ``request`` dispatched on this unit now
        (compute plus any network transfer)."""
        if self.slots > 1:
            compute = (
                self.batch_costs.continuous_latency_s(
                    request.workload, self.active + 1
                )
                * self.slowdown
            )
        else:
            compute = self.oracle.service_time_s(request.workload) * self.slowdown
        if self.transfer_link is None:
            return compute
        return compute + self.transfer_time_s(request)


@dataclass
class _SimulationState:
    """Mutable bookkeeping of one run (kept off the public report object)."""

    units: list[ServerUnit]
    scheduler: SchedulingPolicy
    batching: BatchFormationPolicy
    report: ServingReport
    sink: _RecordSink = None
    # False until a patience-carrying request enters the queue, letting
    # dispatch skip the per-event queue sweep (it can only be a no-op until
    # then — the sweep inspects queue members only, and a queue without
    # patience carriers has every abandon time at infinity).
    has_patience: bool = False
    queue: list[ServiceRequest] = field(default_factory=list)
    # Heap of (finish_s, unit_id, stream_id, epoch); stream_id is -1 for
    # immutable dispatches (epoch slot holds the batch id), >= 0 for
    # re-priced continuous decode streams (whose superseded events are
    # skipped by the epoch check).  Batch ids and (stream_id, epoch) pairs
    # are unique, so no two events compare equal and the pop order is total.
    completions: CalendarQueue = field(default_factory=CalendarQueue)
    # Earliest time a held partial batch must be forced out (inf = no hold).
    flush_at_s: float = float("inf")
    next_batch_id: int = 0
    next_stream_id: int = 0
    # Fault handling (all inert when no fault schedule is compiled).
    retry_policy: RetryPolicy | None = None
    degraded_mode: DegradedModePolicy | None = None
    #: Kills suffered so far, by request id (== dispatches attempted).
    attempts: dict[int, int] = field(default_factory=dict)
    #: Heap of (retry_time_s, unique seq, request) awaiting re-enqueue.
    retries: CalendarQueue = field(default_factory=CalendarQueue)
    next_retry_seq: int = 0
    retry_budget_left: int | None = None
    #: Kill time of retried requests not yet re-dispatched (failover latency).
    pending_failover: dict[int, float] = field(default_factory=dict)

    def enqueue(self, request: ServiceRequest) -> None:
        """Add one arriving (or retried) request to the dispatch queue."""
        self.queue.append(request)
        if request.patience_s is not None:
            self.has_patience = True

    def abandon(self, request: ServiceRequest, time_s: float, reason: str) -> None:
        self.sink.seal_abandoned(
            AbandonedRequest(request=request, abandoned_time_s=time_s, reason=reason)
        )

    def shed_queue(self, now: float) -> None:
        """Degraded mode: drop queued shed-class traffic while capacity is low."""
        if self.degraded_mode is None or not self.queue:
            return
        live = sum(1 for unit in self.units if unit.up)
        if not self.degraded_mode.active(live, len(self.units)):
            return
        still_waiting = []
        for request in self.queue:
            if self.has_patience and request.abandon_time_s < now:
                # The client already left; record the timeout, not a shed.
                self.abandon(request, request.abandon_time_s, ABANDON_TIMEOUT)
            elif self.degraded_mode.sheds(request):
                self.abandon(request, now, ABANDON_SHED)
            else:
                still_waiting.append(request)
        self.queue[:] = still_waiting

    def dispatch(self, now: float) -> None:
        """Start queued requests on idle units until one side runs out."""
        # Any previously-registered hold is re-evaluated from scratch below.
        self.flush_at_s = float("inf")
        self.shed_queue(now)
        if not self.queue:
            return
        # Early exit without building a list: this runs once per event, and
        # on a loaded system most events find every unit busy.
        for unit in self.units:
            if unit.up and unit.link_up and unit.active < unit.slots:
                break
        else:
            return
        # Patience ran out strictly before now: those requests left the
        # queue at their abandon time, before this dispatch opportunity.
        # Both this sweep and the infeasibility drops depend only on ``now``
        # and the full unit set, so one pass covers every start below.
        if self.has_patience:
            still_waiting = []
            for request in self.queue:
                if request.abandon_time_s < now:
                    self.abandon(request, request.abandon_time_s, ABANDON_TIMEOUT)
                else:
                    still_waiting.append(request)
            self.queue[:] = still_waiting

        def system_estimate(request: ServiceRequest) -> float:
            # Singleton service time on the best *live, reachable* unit in
            # the system — a lower bound on any achievable service time
            # (batches only slow a member down), so deadline policies can
            # treat ``now + estimate(r) > deadline`` as a proof of
            # infeasibility even when the fast units are momentarily busy.
            # Down units cannot serve, units behind a severed link cannot
            # be reached, degraded units pay their slowdown, and off-rack
            # units pay their transfer tax (0.0 with no network, so the
            # network-less estimate is bit-identical).  At least one unit
            # is reachable here: the early-exit sweep above found one.
            return min(
                unit.oracle.service_time_s(request.workload) * unit.slowdown
                + unit.transfer_time_s(request)
                for unit in self.units
                if unit.up and unit.link_up
            )

        dropped = self.scheduler.infeasible(now, self.queue, system_estimate)
        for index in sorted(set(dropped), reverse=True):
            self.abandon(self.queue.pop(index), now, ABANDON_INFEASIBLE)

        # Units the batch policy chose to hold open this round: they stay
        # idle waiting for their batch to fill, and must not be re-offered
        # the same queue within this dispatch call.
        held: set[int] = set()
        while self.queue:
            # Inlined ``unit.available`` (property dispatch is measurable at
            # a million events) minus the units held open for batch fill.
            available = [
                unit for unit in self.units
                if unit.up and unit.link_up and unit.active < unit.slots
                and unit.unit_id not in held
            ]
            if not available:
                return

            def idle_estimate(request: ServiceRequest) -> float:
                # Service time on the best currently-available unit — what
                # this dispatch opportunity can actually achieve.  Policies
                # may decline a request that only a busy (faster) unit can
                # save.
                return min(unit.service_time_s(request) for unit in available)

            chosen = self.scheduler.select(now, self.queue, idle_estimate)
            if chosen is None:
                return
            request = self.queue[chosen]
            if len(available) == 1:
                unit = available[0]
            else:
                unit = min(
                    available,
                    key=lambda u: (
                        u.service_time_s(request), u.free_at_s, u.unit_id
                    ),
                )
            capacity = (
                1 if unit.slots > 1 else self.batching.capacity(unit.max_batch_size)
            )
            if capacity <= 1:
                # Singleton passthrough (DFX units, batch=1 policies, and
                # continuous decode-slot admissions).
                self.queue.pop(chosen)
                self.start([request], unit, now)
                continue
            oldest_arrival = min(r.arrival_time_s for r in self.queue)
            if not self.batching.ready(
                now, oldest_arrival, len(self.queue), capacity
            ):
                # Hold this unit open for the batch to fill; the loop will
                # wake at the flush deadline if nothing else intervenes.
                # ``flush_at`` is computed from the oldest arrival, which can
                # only move later, so the deadline is always in the future
                # (``ready`` returns True once ``now`` reaches it).
                held.add(unit.unit_id)
                self.flush_at_s = min(
                    self.flush_at_s, self.batching.flush_at(oldest_arrival)
                )
                continue
            members = self.scheduler.select_batch(
                now, self.queue, idle_estimate, capacity
            )
            if not members:
                return
            batch = [self.queue[index] for index in members]
            for index in sorted(set(members), reverse=True):
                self.queue.pop(index)
            self.start(batch, unit, now)

    def start(
        self, requests: list[ServiceRequest], unit: ServerUnit, now: float
    ) -> None:
        """Dispatch one batch (singleton or gathered) onto ``unit``."""
        if unit.slots > 1:
            self.admit_stream(requests[0], unit, now)
            return
        if len(requests) == 1:
            # The exact legacy arithmetic: singleton dispatches reproduce the
            # unbatched simulator bit for bit regardless of the batch policy.
            result = unit.oracle.result_for(requests[0].workload)
            latency_s = result.latency_s * unit.slowdown
            energy_joules = result.energy_joules * unit.slowdown
            batch_size = 1
            transfer_s = unit.transfer_time_s(requests[0])
        else:
            workloads = [request.workload for request in requests]
            latency_s = unit.batch_costs.batch_latency_s(workloads) * unit.slowdown
            energy_joules = unit.batch_costs.batch_energy_joules(workloads, latency_s)
            batch_size = len(requests)
            transfer_s = unit.batch_transfer_time_s(requests)
        # Transfer extends the dispatch's wall clock (the slot is held until
        # the last token lands back at the ingress rack) but burns no unit
        # energy; 0.0 transfer leaves the finish instant bit-identical.
        finish = now + latency_s + transfer_s
        unit.active += 1
        unit.free_at_s = max(unit.free_at_s, finish)
        batch_id = self.next_batch_id
        self.next_batch_id += 1
        self.completions.push((finish, unit.unit_id, -1, batch_id))
        records = []
        for request in requests:
            records.append(
                CompletedRequest(
                    request=request,
                    start_time_s=now,
                    finish_time_s=finish,
                    cluster_id=unit.unit_id,
                    appliance=unit.appliance,
                    batch_id=batch_id,
                    batch_size=batch_size,
                    attempts=self.attempts.get(request.request_id, 0) + 1,
                    transfer_time_s=transfer_s,
                )
            )
            self.record_failover(request, now)
        unit.inflight[batch_id] = _InflightDispatch(
            records=records,
            start_s=now,
            finish_s=finish,
            energy_joules=energy_joules,
        )
        self.report.total_energy_joules += energy_joules

    # ------------------------------------------------- continuous re-pricing
    def admit_stream(
        self, request: ServiceRequest, unit: ServerUnit, now: float
    ) -> None:
        """Admit one request into a re-priced decode slot.

        The admission is priced at the occupancy it creates (the recorded
        ``batch_size`` is that occupancy), then every pre-existing stream
        on the unit is re-priced at the new concurrency.  The completion
        record built here is provisional: its ``finish_time_s`` is revised
        when the stream really completes, and only the final record seals
        into the report.
        """
        concurrency = unit.active + 1
        workload = request.workload
        latency_s = (
            unit.batch_costs.continuous_latency_s(workload, concurrency)
            * unit.slowdown
        )
        # Transfer is priced once, at admission, and carried as a fixed
        # additive term through every re-price (compute speed changes with
        # occupancy; the wire does not).
        transfer_s = unit.transfer_time_s(request)
        finish = now + latency_s + transfer_s
        unit.active += 1
        unit.free_at_s = max(unit.free_at_s, finish)
        batch_id = self.next_batch_id
        self.next_batch_id += 1
        record = CompletedRequest(
            request=request,
            start_time_s=now,
            finish_time_s=finish,
            cluster_id=unit.unit_id,
            appliance=unit.appliance,
            batch_id=batch_id,
            batch_size=concurrency,
            attempts=self.attempts.get(request.request_id, 0) + 1,
            transfer_time_s=transfer_s,
        )
        self.record_failover(request, now)
        stream_id = self.next_stream_id
        self.next_stream_id += 1
        unit.streams[stream_id] = _DecodeStream(
            record=record,
            concurrency=concurrency,
            fraction_done=0.0,
            last_change_s=now,
            finish_s=finish,
            slowdown=unit.slowdown,
            transfer_s=transfer_s,
        )
        self.completions.push((finish, unit.unit_id, stream_id, 0))
        # The new admission crowds everyone already decoding on the unit.
        self.reprice_streams(unit, now, exclude=stream_id)

    def reprice_streams(
        self, unit: ServerUnit, now: float, exclude: int | None = None
    ) -> None:
        """Re-price a unit's in-flight streams after an occupancy change.

        Each stream first banks the segment that just ended (work fraction
        and energy at the concurrency — and slowdown factor — that held),
        then its remaining work is re-run at the unit's new occupancy and
        current slowdown.  A superseded completion event stays in the heap;
        bumping the stream's epoch makes the event loop skip it.  Callers
        either change the occupancy by exactly one (admission/departure) or
        keep it and change the slowdown (a degradation boundary), so each
        surviving stream's rate really is stale here.

        Network transfer (``stream.transfer_s``, priced at admission) is a
        fixed additive slice of each total: the wire does not speed up or
        slow down with decode occupancy.  With no network it is exactly
        ``0.0`` and both totals are bit-identical to the transfer-free
        arithmetic.
        """
        for stream_id, stream in unit.streams.items():
            if stream_id == exclude:
                continue
            workload = stream.request.workload
            elapsed = now - stream.last_change_s
            if elapsed > 0:
                old_total = (
                    unit.batch_costs.continuous_latency_s(
                        workload, stream.concurrency
                    )
                    * stream.slowdown
                    + stream.transfer_s
                )
                if old_total > 0:
                    stream.fraction_done = min(
                        1.0, stream.fraction_done + elapsed / old_total
                    )
                stream.energy_joules += unit.batch_costs.continuous_energy_joules(
                    workload, stream.concurrency, elapsed
                )
            stream.last_change_s = now
            stream.concurrency = unit.active
            stream.slowdown = unit.slowdown
            new_total = (
                unit.batch_costs.continuous_latency_s(workload, stream.concurrency)
                * unit.slowdown
                + stream.transfer_s
            )
            remaining = max(0.0, 1.0 - stream.fraction_done) * new_total
            stream.finish_s = now + remaining
            stream.epoch += 1
            unit.free_at_s = max(unit.free_at_s, stream.finish_s)
            self.completions.push(
                (stream.finish_s, unit.unit_id, stream_id, stream.epoch)
            )

    def finish_stream(self, unit: ServerUnit, stream_id: int, now: float) -> None:
        """Complete one decode stream: bank its last segment, seal its record."""
        stream = unit.streams.pop(stream_id)
        elapsed = now - stream.last_change_s
        if elapsed > 0:
            stream.energy_joules += unit.batch_costs.continuous_energy_joules(
                stream.request.workload, stream.concurrency, elapsed
            )
        unit.active -= 1
        self.sink.seal_dispatch(
            [dataclasses.replace(stream.record, finish_time_s=now)]
        )
        self.report.total_energy_joules += stream.energy_joules
        # The departure frees decode bandwidth for the survivors.
        self.reprice_streams(unit, now)

    # --------------------------------------------------------- fault handling
    def record_failover(self, request: ServiceRequest, now: float) -> None:
        """Log kill-to-restart latency when a retried request re-dispatches."""
        kill_time = self.pending_failover.pop(request.request_id, None)
        if kill_time is not None:
            self.sink.seal_failover(now - kill_time)

    def apply_fault(self, unit: ServerUnit, event: FaultEvent, now: float) -> None:
        """Apply one compiled fault-timeline event to ``unit``."""
        if event.kind == EVENT_DOWN:
            self.fail_unit(unit, now)
        elif event.kind == EVENT_UP:
            unit.up = True
        elif event.kind == EVENT_SLOW:
            unit.slow_factors.append(event.slowdown)
            self.change_slowdown(unit, now)
        elif event.kind == EVENT_UNSLOW:
            # Remove one instance of this factor (degradations stack).
            unit.slow_factors.remove(event.slowdown)
            self.change_slowdown(unit, now)
        elif event.kind == EVENT_LINK_DOWN:
            # A severed link is a partition, not a crash: the unit keeps
            # serving what it already holds (results buffer rack-side) but
            # takes no new dispatches until the link repairs.
            unit.link_up = False
        elif event.kind == EVENT_LINK_UP:
            unit.link_up = True
        elif event.kind == EVENT_LINK_SLOW:
            unit.link_slow_factors.append(event.slowdown)
            self.change_link_slowdown(unit)
        elif event.kind == EVENT_LINK_UNSLOW:
            unit.link_slow_factors.remove(event.slowdown)
            self.change_link_slowdown(unit)
        else:  # pragma: no cover - compile() only emits the eight kinds
            raise ConfigurationError(f"unknown fault event kind {event.kind!r}")

    def change_link_slowdown(self, unit: ServerUnit) -> None:
        """Recompute a unit's link slowdown from its active factor stack.

        Transfer is priced at admission/dispatch time, so a link factor
        change affects only work priced after it — in-flight dispatches and
        streams keep the transfer term they were admitted with (no
        re-price: the bytes already on the wire crossed at the old rate).
        """
        product = 1.0
        for factor in unit.link_slow_factors:
            product *= factor
        unit.link_slowdown = product

    def change_slowdown(self, unit: ServerUnit, now: float) -> None:
        """Recompute a unit's slowdown from its active degradation stack.

        Re-priced decode streams bank the segment served at the old factor
        and re-run their remainder at the new one; already-priced immutable
        dispatches keep their finish times (a degradation only affects work
        priced while it is active).
        """
        product = 1.0
        for factor in unit.slow_factors:
            product *= factor
        if product == unit.slowdown:
            return
        unit.slowdown = product
        if unit.streams:
            self.reprice_streams(unit, now)

    def fail_unit(self, unit: ServerUnit, now: float) -> None:
        """Take ``unit`` down, killing and re-routing its in-flight work.

        The victims' provisional completion records are simply discarded
        (killed work never seals into the report), energy billed for the
        unserved remainder is refunded, and every victim goes through the
        retry policy in dispatch order — ``(batch id, member position)``,
        the order their records were provisioned — so retry arrival order
        is deterministic.  The unit stays busy-looking only through
        ``up=False``; its slots are freed so a repair restores capacity.
        """
        if not unit.up:
            return
        unit.up = False
        victims: list[tuple[int, int, ServiceRequest]] = []
        for batch_id, inflight in sorted(unit.inflight.items()):
            span = inflight.finish_s - inflight.start_s
            if span > 0:
                self.report.total_energy_joules -= (
                    inflight.energy_joules * (inflight.finish_s - now) / span
                )
            for member_index, record in enumerate(inflight.records):
                victims.append((batch_id, member_index, record.request))
            unit.active -= 1
        unit.inflight.clear()
        for stream_id in sorted(unit.streams):
            stream = unit.streams[stream_id]
            # Bank what the stream really consumed before the crash; the
            # remainder was never served, so nothing to refund.
            elapsed = now - stream.last_change_s
            if elapsed > 0:
                stream.energy_joules += unit.batch_costs.continuous_energy_joules(
                    stream.request.workload, stream.concurrency, elapsed
                )
            self.report.total_energy_joules += stream.energy_joules
            victims.append((stream.record.batch_id, 0, stream.request))
            unit.active -= 1
        unit.streams.clear()
        victims.sort(key=lambda victim: (victim[0], victim[1]))
        for _, _, request in victims:
            self.requeue_or_fail(request, now)

    def requeue_or_fail(self, request: ServiceRequest, now: float) -> None:
        """Route one killed request: schedule a retry or record the failure."""
        failures = self.attempts.get(request.request_id, 0) + 1
        self.attempts[request.request_id] = failures
        policy = self.retry_policy

        def fail(reason: str) -> None:
            self.sink.seal_failed(
                FailedRequest(
                    request=request,
                    failed_time_s=now,
                    reason=reason,
                    attempts=failures,
                )
            )

        if policy is None or policy.max_attempts == 1 or not request.retryable:
            fail(FAIL_UNIT)
            return
        retry_s = now + policy.delay_s(failures)
        # A retry instant past the float range never comes due.
        if failures >= policy.max_attempts or not math.isfinite(retry_s):
            fail(FAIL_RETRIES)
            return
        if self.retry_budget_left is not None:
            if self.retry_budget_left <= 0:
                fail(FAIL_BUDGET)
                return
            self.retry_budget_left -= 1
        self.retries.push((retry_s, self.next_retry_seq, request))
        self.next_retry_seq += 1
        self.report.num_retries += 1
        self.pending_failover[request.request_id] = now


def _monotone_arrivals(requests):
    """Validate a lazy trace's arrival order as it streams through.

    List traces are sorted defensively (they always were); a lazy iterator
    cannot be sorted without materializing it, so out-of-order arrivals are
    a hard error rather than a silent reordering.
    """
    last_arrival = float("-inf")
    for request in requests:
        if request.arrival_time_s < last_arrival:
            raise ConfigurationError(
                "lazy traces must yield non-decreasing arrival times: "
                f"request {request.request_id} arrives at "
                f"{request.arrival_time_s} after {last_arrival}"
            )
        last_arrival = request.arrival_time_s
        yield request


def simulate(
    units: list[ServerUnit],
    trace,
    scheduler: SchedulingPolicy,
    platform: str,
    batching: BatchFormationPolicy | str | None = None,
    faults: FaultSchedule | None = None,
    retry_policy: RetryPolicy | None = None,
    degraded_mode: DegradedModePolicy | None = None,
    network: NetworkModel | None = None,
    retain_records: bool = True,
    quantile_eps: float = DEFAULT_EPS,
) -> ServingReport:
    """Replay ``trace`` against ``units`` under ``scheduler`` and ``batching``.

    ``trace`` is a list (sorted here, as always) or any lazy iterable of
    :class:`~repro.serving.requests.ServiceRequest` in non-decreasing
    arrival order — the loop pulls one arrival ahead, so a generator trace
    is never materialized and memory stays flat in the trace length.

    Returns a :class:`~repro.serving.server.ServingReport` whose busy window
    (``first_arrival_s`` / ``makespan_s``) spans first arrival to last finish.
    Completed requests are recorded in dispatch order (for FIFO that is
    arrival order, matching the legacy serve loop).  ``batching`` defaults
    to ``"none"``: every dispatch is a singleton and the simulation is
    identical to the pre-batching simulator.

    Every run seals its outcome records into a
    :class:`~repro.serving.server.ReportAccumulator` on ``report.stats``.
    ``retain_records=True`` (default) also keeps every record on the
    report and answers percentiles exactly.  ``retain_records=False`` keeps
    no records and answers percentiles from ``quantile_eps``-rank-error
    quantile sketches, so report memory is O(1) in the trace length.

    ``faults`` is an optional :class:`~repro.serving.faults.FaultSchedule`,
    compiled here against the concrete units; ``retry_policy`` routes
    requests killed by failures and ``degraded_mode`` sheds low-priority
    queued traffic while capacity is reduced.  ``faults=None`` and an empty
    schedule are equivalent (and bit-identical to the pre-fault simulator).

    ``network`` is an optional
    :class:`~repro.serving.network.NetworkModel` placing every unit's
    appliance in a rack: each unit is annotated with the link its traffic
    crosses and dispatches pay prompt-ingress plus token-egress transfer
    time (see ``network.py``).  Every unit's appliance must be placed.
    ``network=None`` and a zero-cost model are bit-identical.
    """
    units_by_id = {unit.unit_id: unit for unit in units}
    if len(units_by_id) != len(units):
        raise ConfigurationError(
            f"server unit ids must be unique: {[u.unit_id for u in units]}"
        )
    policy = make_batch_policy(batching)
    for unit in units:
        check_number(f"unit {unit.unit_id}: max_batch_size", unit.max_batch_size, 1,
                     integer=True)
        if unit.max_batch_size > 1 and unit.batch_costs is None:
            raise ConfigurationError(
                f"unit {unit.unit_id}: batch-capable units need a batch_costs model"
            )
        unit.slots = (
            policy.capacity(unit.max_batch_size) if policy.continuous else 1
        )
        unit.streams.clear()
        unit.inflight.clear()
        unit.slow_factors.clear()
        unit.up = True
        unit.slowdown = 1.0
        unit.link_slow_factors.clear()
        unit.link_up = True
        unit.link_slowdown = 1.0
        if network is not None:
            unit.link_name = network.link_name_for(unit.appliance)
            unit.transfer_link = network.link_for(unit.appliance)
            unit.transfer_bytes_per_token = network.bytes_per_token
        else:
            unit.link_name = None
            unit.transfer_link = None
            unit.transfer_bytes_per_token = 0.0
    appliance_clusters: dict[str, int] = {}
    for unit in units:
        appliance_clusters[unit.appliance] = appliance_clusters.get(unit.appliance, 0) + 1
    compiled = faults.compile(units) if faults is not None else None
    fault_events: tuple[FaultEvent, ...] = compiled.events if compiled else ()
    cross_rack_members = (
        network.cross_rack_members() if network is not None else frozenset()
    )
    report = ServingReport(
        platform=platform,
        num_clusters=len(units),
        scheduler=scheduler.name,
        appliance_clusters=appliance_clusters,
        batch_policy=policy.name,
        cross_rack_members=cross_rack_members,
        stats=ReportAccumulator(
            eps=None if retain_records else quantile_eps,
            cross_rack_members=cross_rack_members,
        ),
    )
    report.unit_appliance = {unit.unit_id: unit.appliance for unit in units}
    if compiled:
        report.unit_downtime = dict(compiled.downtime)
        report.link_downtime = dict(compiled.link_downtime)
    sink = _RecordSink(report, retain=retain_records)

    # Lists are sorted defensively (as always); anything else streams
    # through with a one-arrival lookahead and an order check.
    if hasattr(trace, "__len__"):
        pending = iter(sorted(trace, key=lambda request: request.arrival_time_s))
    else:
        pending = _monotone_arrivals(iter(trace))
    upcoming = next(pending, None)
    if upcoming is None:
        return report

    state = _SimulationState(
        units=units,
        scheduler=scheduler,
        batching=policy,
        report=report,
        sink=sink,
        retry_policy=retry_policy,
        degraded_mode=degraded_mode,
        retry_budget_left=(
            retry_policy.retry_budget if retry_policy is not None else None
        ),
    )
    inf = float("inf")
    fault_index = 0
    first_arrival_s = upcoming.arrival_time_s
    now = first_arrival_s
    while (
        upcoming is not None
        or state.completions
        or state.retries
        or state.flush_at_s < inf
        # A stuck queue (every unit down) must still wake for repairs; once
        # the queue is empty, remaining fault events cannot change any
        # outcome (downtime accounting is analytic, from the compiled
        # schedule) so the loop need not replay them.
        or (state.queue and fault_index < len(fault_events))
    ):
        head = state.completions.peek()
        next_completion_s = head[0] if head is not None else inf
        next_fault_s = (
            fault_events[fault_index].time_s
            if fault_index < len(fault_events)
            else inf
        )
        retry_head = state.retries.peek()
        next_retry_s = retry_head[0] if retry_head is not None else inf
        next_arrival_s = (
            upcoming.arrival_time_s if upcoming is not None else inf
        )
        # Completions fire before arrivals at the same instant, lowest unit
        # id first, mirroring the legacy min-heap pop order; a coinciding
        # failure then cannot kill work that finished at the same instant.
        # Faults fire next (so retries and arrivals at the instant see the
        # post-fault capacity), then retries, then arrivals; flush deadlines
        # yield to everything (a coinciding event re-runs dispatch anyway,
        # which re-evaluates the hold).
        if next_completion_s <= min(
            next_fault_s, next_retry_s, next_arrival_s, state.flush_at_s
        ):
            completion_s, unit_id, stream_id, dispatch_id = (
                state.completions.pop()
            )
            unit = units_by_id[unit_id]
            if stream_id >= 0:
                stream = unit.streams.get(stream_id)
                if stream is None or stream.epoch != dispatch_id:
                    # Superseded by a re-price, or killed by a failure:
                    # nothing happened at this instant, so the clock and
                    # the queue stay untouched.
                    continue
                now = completion_s
                state.finish_stream(unit, stream_id, now)
            else:
                inflight = unit.inflight.pop(dispatch_id, None)
                if inflight is None:
                    # The dispatch was killed by a unit failure; its stale
                    # completion event is skipped (lazy deletion).
                    continue
                now = completion_s
                unit.active -= 1
                sink.seal_dispatch(inflight.records)
        elif next_fault_s <= min(next_retry_s, next_arrival_s, state.flush_at_s):
            event = fault_events[fault_index]
            fault_index += 1
            now = event.time_s
            state.apply_fault(units_by_id[event.unit_id], event, now)
        elif next_retry_s <= min(next_arrival_s, state.flush_at_s):
            retry_s, _, request = state.retries.pop()
            now = retry_s
            state.enqueue(request)
        elif next_arrival_s <= state.flush_at_s:
            state.enqueue(upcoming)
            now = upcoming.arrival_time_s
            upcoming = next(pending, None)
        else:
            # Wake to flush a held partial batch: ``dispatch`` re-asks the
            # policy, whose ``ready`` now sees the deadline reached.
            now = state.flush_at_s
        state.dispatch(now)

    # Custom policies may decline to dispatch; account for what they left.
    # Same boundary as the dispatch-time sweep: patience expiring strictly
    # before ``now`` is a timeout, anything still willing at ``now`` was
    # simply never served.
    for request in state.queue:
        if request.abandon_time_s < now:
            state.abandon(request, request.abandon_time_s, ABANDON_TIMEOUT)
        else:
            state.abandon(request, now, ABANDON_UNSERVED)

    sink.finalize()
    report.first_arrival_s = first_arrival_s
    if report.stats.num_completed:
        report.makespan_s = max(0.0, report.stats.last_finish_s - first_arrival_s)
    return report
