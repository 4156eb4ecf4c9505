"""Datacenter serving subsystem.

Every entry point that takes a platform — the oracle, the front ends,
the batch cost model — speaks the unified
:class:`~repro.backends.base.Backend` protocol: pass a registered backend
name (``"dfx"``, ``"gpu"``, ``"tpu"``, ``"dfx-sim"``) or a
:class:`~repro.backends.base.Backend` instance, and the same simulator
serves it.

Layout (see the module docstrings for details):

* ``requests``   — traces (synthetic Poisson / constant / bursty / diurnal
  generators plus ``replay_trace`` for recorded CSV/JSONL logs), workload
  mixes, and service-level tagging.
* ``server``     — latency oracle, reports, the ``ApplianceFleet`` front end
  (``ApplianceServer`` is its one-member form) and ``capacity_search``
  capacity planning.
* ``simulator``  — the discrete-event core every front end runs.
* ``schedulers`` — pluggable dispatch policies (FIFO / SJF / priority /
  deadline / shape-aware batch gathering); subclass ``SchedulingPolicy``
  and register in ``SCHEDULERS`` to add one.
* ``batching``   — batch-formation policies (none / dynamic size-or-timeout /
  continuous decode slots, re-priced on occupancy change by default) and
  the backend-generic ``BackendBatchCostModel``; subclass
  ``BatchFormationPolicy`` and register in ``BATCH_POLICIES`` to add one.
* ``fleet``      — re-exports ``ApplianceFleet`` and ``FleetMember``.
* ``faults``     — fault injection and degraded-mode serving: seeded
  ``FaultSchedule`` campaigns (scripted outages, Poisson MTBF/MTTR
  processes, link degradation), ``RetryPolicy`` for killed in-flight
  requests, and ``DegradedModePolicy`` load shedding while capacity is
  reduced.
* ``network``    — rack/link topology over fleet members: ``NetworkModel``
  prices prompt-ingress plus token-egress transfer into every off-rack
  dispatch, and named links are fault targets (``Outage(link=...)``).
* ``scenario``   — ``ServingScenario``, one serving run declared as a frozen
  value (members, racks, arrivals, service levels, faults).  It is the one
  place that builds a fleet, a rack star or a synthetic trace for
  ``cli serve``, the study drivers and the DSE evaluator; a study varies
  one scenario with ``dataclasses.replace``.
"""

from repro.serving.batching import (
    BATCH_POLICIES,
    BackendBatchCostModel,
    BatchCostModel,
    BatchFormationPolicy,
    ContinuousBatching,
    DynamicBatching,
    NoBatching,
    dominant_workload,
    make_batch_policy,
)
from repro.serving.requests import (
    ARTICLE_MIX,
    CHATBOT_MIX,
    DATACENTER_MIX,
    DEFAULT_SERVICE_CLASS,
    ServiceRequest,
    WorkloadMix,
    bursty_trace,
    constant_trace,
    diurnal_trace,
    merge_traces,
    poisson_trace,
    replay_trace,
    with_service_levels,
)
from repro.serving.faults import (
    ABANDON_SHED,
    Degradation,
    DegradedModePolicy,
    FaultProcess,
    FaultSchedule,
    Outage,
    RetryPolicy,
)
from repro.serving.server import (
    ABANDON_INFEASIBLE,
    ABANDON_TIMEOUT,
    FAIL_BUDGET,
    FAIL_RETRIES,
    FAIL_UNIT,
    AbandonedRequest,
    ApplianceFleet,
    ApplianceServer,
    CapacityPlan,
    CompletedRequest,
    FailedRequest,
    FleetMember,
    LatencyOracle,
    ServingReport,
    capacity_search,
)
from repro.serving.network import NetworkLink, NetworkModel
from repro.serving.scenario import ServingScenario
from repro.serving.schedulers import (
    SCHEDULERS,
    DeadlineScheduler,
    FIFOScheduler,
    PriorityScheduler,
    SchedulingPolicy,
    ShapeAwareScheduler,
    ShortestJobFirstScheduler,
    make_scheduler,
)
from repro.serving.simulator import ABANDON_UNSERVED, ServerUnit, simulate

__all__ = [
    "ARTICLE_MIX",
    "CHATBOT_MIX",
    "DATACENTER_MIX",
    "DEFAULT_SERVICE_CLASS",
    "ServiceRequest",
    "WorkloadMix",
    "bursty_trace",
    "constant_trace",
    "diurnal_trace",
    "merge_traces",
    "poisson_trace",
    "replay_trace",
    "with_service_levels",
    "BATCH_POLICIES",
    "BackendBatchCostModel",
    "BatchCostModel",
    "BatchFormationPolicy",
    "ContinuousBatching",
    "DynamicBatching",
    "NoBatching",
    "dominant_workload",
    "make_batch_policy",
    "ABANDON_INFEASIBLE",
    "ABANDON_SHED",
    "ABANDON_TIMEOUT",
    "ABANDON_UNSERVED",
    "AbandonedRequest",
    "ApplianceServer",
    "CapacityPlan",
    "CompletedRequest",
    "Degradation",
    "DegradedModePolicy",
    "FAIL_BUDGET",
    "FAIL_RETRIES",
    "FAIL_UNIT",
    "FailedRequest",
    "FaultProcess",
    "FaultSchedule",
    "Outage",
    "RetryPolicy",
    "LatencyOracle",
    "ServingReport",
    "capacity_search",
    "NetworkLink",
    "NetworkModel",
    "ServingScenario",
    "SCHEDULERS",
    "DeadlineScheduler",
    "FIFOScheduler",
    "PriorityScheduler",
    "SchedulingPolicy",
    "ShapeAwareScheduler",
    "ShortestJobFirstScheduler",
    "make_scheduler",
    "ServerUnit",
    "simulate",
    "ApplianceFleet",
    "FleetMember",
]
