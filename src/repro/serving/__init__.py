"""Datacenter serving subsystem.

Every entry point that takes a platform — the oracle, the server, the
fleet, the sweeps — speaks the unified :class:`~repro.backends.base.Backend`
protocol: pass a registered backend name (``"dfx"``, ``"gpu"``, ``"tpu"``,
``"dfx-sim"``), a :class:`~repro.backends.base.Backend` instance, or a
legacy platform model with ``run(workload)`` (wrapped on the fly), and the
same simulator serves it.

Layout (see the module docstrings for details):

* ``requests``   — traces (synthetic Poisson / constant / bursty / diurnal
  generators plus ``replay_trace`` for recorded CSV/JSONL logs), workload
  mixes, and service-level tagging.
* ``server``     — latency oracle, reports, ``ApplianceServer`` front end,
  ``saturation_sweep`` and ``find_max_rate_under_slo`` capacity planning.
* ``simulator``  — the discrete-event core shared by appliance and fleet.
* ``schedulers`` — pluggable dispatch policies (FIFO / SJF / priority /
  deadline / shape-aware batch gathering); subclass ``SchedulingPolicy``
  and register in ``SCHEDULERS`` to add one.
* ``batching``   — batch-formation policies (none / dynamic size-or-timeout /
  continuous decode slots, re-priced on occupancy change by default) and
  the backend-generic ``BackendBatchCostModel``; subclass
  ``BatchFormationPolicy`` and register in ``BATCH_POLICIES`` to add one.
* ``fleet``      — heterogeneous multi-appliance serving behind one queue.
* ``faults``     — fault injection and degraded-mode serving: seeded
  ``FaultSchedule`` campaigns (scripted outages, Poisson MTBF/MTTR
  processes, link degradation), ``RetryPolicy`` for killed in-flight
  requests, and ``DegradedModePolicy`` load shedding while capacity is
  reduced.
* ``network``    — rack/link topology over fleet members: ``NetworkModel``
  prices prompt-ingress plus token-egress transfer into every off-rack
  dispatch, and named links are fault targets (``Outage(link=...)``).
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
    ApplianceServer,
    CapacityPlan,
    CompletedRequest,
    FailedRequest,
    LatencyOracle,
    PlatformModel,
    ServingReport,
    capacity_search,
    find_max_rate_under_slo,
    saturation_sweep,
)
from repro.serving.network import NetworkLink, NetworkModel
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
from repro.serving.fleet import ApplianceFleet, FleetMember

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
    "PlatformModel",
    "ServingReport",
    "capacity_search",
    "find_max_rate_under_slo",
    "saturation_sweep",
    "NetworkLink",
    "NetworkModel",
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
