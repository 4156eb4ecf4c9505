"""Pluggable dispatch policies for the discrete-event serving simulator.

A scheduling policy decides, each time a server unit is free, which queued
request to dispatch next (and, for deadline-aware policies, which queued
requests to give up on).  The simulator hands the policy the current time,
the queue in arrival order, and an ``estimate`` callable (from the latency
oracle) so policies can be latency-aware without knowing about platforms.
The estimate's meaning differs by method: ``select`` sees the service time
on the best *currently idle* unit (what this dispatch can achieve), while
``infeasible`` sees the service time on the best unit in the *system* (a
lower bound on any achievable service time, hence a sound infeasibility
proof even while the fast units are momentarily busy).

Adding a policy: subclass :class:`SchedulingPolicy`, implement ``select``
(and optionally ``infeasible``), give it a unique ``name``, and register it
in :data:`SCHEDULERS`.  Everything that accepts a scheduler — the
:class:`~repro.serving.server.ApplianceFleet` front end (and its one-member
:class:`~repro.serving.server.ApplianceServer`), the analysis drivers —
also accepts the registry name, resolved through :func:`make_scheduler`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.serving.requests import ServiceRequest

#: Maps a queued request to its estimated service time in seconds (on the
#: best idle unit for ``select``, on the best unit in the system for
#: ``infeasible`` — see the module docstring).
EstimateFn = Callable[[ServiceRequest], float]


class SchedulingPolicy:
    """Base class: picks the next queued request to dispatch."""

    #: Registry name; shown in ``ServingReport.scheduler``.
    name = "base"

    def select(
        self,
        now: float,
        queue: Sequence[ServiceRequest],
        estimate: EstimateFn,
    ) -> int | None:
        """Index into ``queue`` of the request to dispatch, or ``None`` to idle.

        ``queue`` is in arrival order and non-empty.
        """
        raise NotImplementedError

    def infeasible(
        self,
        now: float,
        queue: Sequence[ServiceRequest],
        estimate: EstimateFn,
    ) -> list[int]:
        """Indices of queued requests this policy gives up on (dropped now)."""
        return []

    def select_batch(
        self,
        now: float,
        queue: Sequence[ServiceRequest],
        estimate: EstimateFn,
        max_size: int,
    ) -> list[int]:
        """Indices into ``queue`` of up to ``max_size`` requests forming one batch.

        The default composes ``select`` greedily: the policy's next pick
        joins the batch, then the next, until the batch is full or the
        policy declines — so FIFO batches the oldest requests, SJF the
        shortest, priority the most urgent.  Requests the policy has
        declared ``infeasible`` at this instant are excluded before
        composing — a policy must not gather a request into a batch it
        would have dropped the same tick.  Override to co-schedule
        requests that batch well together (e.g. similar output lengths).
        """
        dropped = set(self.infeasible(now, queue, estimate))
        remaining = [
            request
            for index, request in enumerate(queue)
            if index not in dropped
        ]
        positions = [index for index in range(len(queue)) if index not in dropped]
        picked: list[int] = []
        while remaining and len(picked) < max_size:
            index = self.select(now, remaining, estimate)
            if index is None:
                break
            picked.append(positions.pop(index))
            remaining.pop(index)
        return picked


class FIFOScheduler(SchedulingPolicy):
    """First-in-first-out: dispatch strictly in arrival order.

    This is the policy of the original ``ApplianceServer.serve()`` loop and
    reproduces its results exactly.
    """

    name = "fifo"

    def select(self, now, queue, estimate):
        return 0


class ShortestJobFirstScheduler(SchedulingPolicy):
    """Dispatch the queued request with the smallest estimated service time.

    Classic SJF: minimizes mean response time under backlog at the cost of
    potentially starving long requests.  Ties break toward arrival order.
    """

    name = "sjf"

    def select(self, now, queue, estimate):
        return min(range(len(queue)), key=lambda i: (estimate(queue[i]), i))


class PriorityScheduler(SchedulingPolicy):
    """Strict priority classes (lower ``priority`` value = more urgent).

    Within a class, requests dispatch in arrival order, so each class is a
    FIFO lane and the default class (priority 0) behaves like plain FIFO.
    """

    name = "priority"

    def select(self, now, queue, estimate):
        return min(range(len(queue)), key=lambda i: (queue[i].priority, i))


class DeadlineScheduler(SchedulingPolicy):
    """Earliest-deadline-first with infeasibility drops.

    Requests carrying an SLO have deadline ``arrival + slo_s``; requests
    without one have deadline infinity (served when no deadline is pressing).
    A queued request whose deadline can no longer be met even by the fastest
    unit in the system is dropped rather than served late — spending cluster
    time on a guaranteed SLO violation only delays the requests that can
    still meet theirs.  ``select`` runs EDF over the requests the currently
    idle units can still satisfy: a request that only a busy (faster) unit
    can save stays queued for that unit instead of being burned on a slow
    idle one.
    """

    name = "deadline"

    def select(self, now, queue, estimate):
        feasible_now = [
            index
            for index, request in enumerate(queue)
            if now + estimate(request) <= request.deadline_s
        ]
        if not feasible_now:
            # Everything left needs a faster unit than is currently idle
            # (provably-dead requests were already dropped by ``infeasible``);
            # leave the unit idle rather than guarantee a violation.
            return None
        return min(feasible_now, key=lambda i: (queue[i].deadline_s, i))

    def infeasible(self, now, queue, estimate):
        return [
            index
            for index, request in enumerate(queue)
            if now + estimate(request) > request.deadline_s
        ]


class ShapeAwareScheduler(SchedulingPolicy):
    """FIFO dispatch with shape-aware batch gathering.

    Gather-mode batches are priced by their *longest* member (the batch
    decodes until its last request finishes — see
    :class:`~repro.serving.batching.BackendBatchCostModel`), so a batch
    mixing short and long generations pads every short member up to the
    dominant shape.  This policy keeps singleton dispatch order FIFO
    (identical to :class:`FIFOScheduler` when no batches form) but gathers
    batches around the oldest waiting request: the anchor joins first, then
    the queue's closest output lengths fill the remaining seats, ties
    breaking toward arrival order.  Members are returned in arrival order,
    so the recorded batch layout stays deterministic.
    """

    name = "shape"

    def select(self, now, queue, estimate):
        return 0

    def select_batch(self, now, queue, estimate, max_size):
        candidates = [
            index
            for index in range(len(queue))
            if index not in set(self.infeasible(now, queue, estimate))
        ]
        if not candidates:
            return []
        anchor = candidates[0]
        anchor_tokens = queue[anchor].workload.output_tokens
        rest = sorted(
            candidates[1:],
            key=lambda i: (
                abs(queue[i].workload.output_tokens - anchor_tokens),
                i,
            ),
        )[: max_size - 1]
        return sorted([anchor, *rest])


#: Registry of built-in policies by name.
SCHEDULERS: dict[str, type[SchedulingPolicy]] = {
    FIFOScheduler.name: FIFOScheduler,
    ShortestJobFirstScheduler.name: ShortestJobFirstScheduler,
    PriorityScheduler.name: PriorityScheduler,
    DeadlineScheduler.name: DeadlineScheduler,
    ShapeAwareScheduler.name: ShapeAwareScheduler,
}


def make_scheduler(spec: str | SchedulingPolicy) -> SchedulingPolicy:
    """Resolve a scheduler name or pass an instance through."""
    if isinstance(spec, SchedulingPolicy):
        return spec
    if isinstance(spec, str):
        if spec not in SCHEDULERS:
            raise ConfigurationError(
                f"unknown scheduler {spec!r}; available: {sorted(SCHEDULERS)}"
            )
        return SCHEDULERS[spec]()
    raise ConfigurationError(
        f"scheduler must be a name or SchedulingPolicy, got {type(spec).__name__}"
    )
