"""One serving run declared as a value: who serves, where, what arrives, what fails.

A :class:`ServingScenario` is the whole configuration of one serving run —
the fleet members of one rack, how many racks replicate them behind one
ingress, the arrival process (or a recorded trace), the service levels
stamped onto every request, and the fault campaign — in one frozen
dataclass.  Its defaults are ``cli serve``'s.  A study declares a base
scenario and varies it along its own axis with :func:`dataclasses.replace`
(``replace(base, scheduler="sjf")``, ``replace(base, link=NetworkLink())``,
``replace(base, rate_per_s=rate)``), so no caller builds a fleet, a rack
star or a trace by hand::

    base = ServingScenario(members=(FleetMember("host0", "dfx"),), racks=2)
    priced = base.run()
    free = replace(base, link=NetworkLink()).run()

Construction checks only the fields nothing else checks in time
(``arrivals``, ``racks`` and ``members``, read once into a tuple); the
trace builders check the numeric trace fields, and
:meth:`~ServingScenario.trace` runs before anything is served.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.errors import ConfigurationError, check_number
from repro.serving.batching import BatchFormationPolicy
from repro.serving.faults import FaultSchedule, RetryPolicy
from repro.serving.network import NetworkLink, NetworkModel
from repro.serving.requests import (
    CHATBOT_MIX,
    ServiceRequest,
    WorkloadMix,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
)
from repro.serving.schedulers import SchedulingPolicy
from repro.serving.server import (
    ApplianceFleet,
    FleetMember,
    ServingReport,
    check_fleet_members,
)

#: Synthetic arrival processes: name -> builder of a scenario's trace.
_ARRIVALS = {
    "poisson": lambda s: poisson_trace(
        s.rate_per_s, s.duration_s, s.mix, seed=s.seed, limit=s.limit,
        lazy=s.streaming,
    ),
    "bursty": lambda s: bursty_trace(
        s.rate_per_s, 0.0, s.duration_s, mix=s.mix, seed=s.seed,
        limit=s.limit, lazy=s.streaming,
    ),
    "diurnal": lambda s: diurnal_trace(
        s.rate_per_s, s.duration_s, period_s=s.period_s, mix=s.mix,
        seed=s.seed, limit=s.limit, lazy=s.streaming,
    ),
}


@dataclass(frozen=True)
class ServingScenario:
    """One serving run: fleet, racks, arrivals, service levels and faults.

    ``members`` is one rack's :class:`FleetMember` set.  ``racks=None``
    serves them without a network; ``racks=n`` replicates them into ``n``
    racks on a :meth:`NetworkModel.star` behind ``rack0`` — member ``m`` of
    rack ``r`` is named ``rack{r}-{m}`` and every other rack hangs off the
    ingress by ``link``.

    The trace is ``requests`` when given (a recorded or hand-built trace),
    otherwise ``arrivals`` over ``mix`` at ``rate_per_s`` (the Poisson
    mean, the bursty in-burst rate, or the diurnal peak over ``period_s``)
    for ``duration_s``, seeded by ``seed`` and capped at ``limit``
    requests.  ``slo_s`` / ``patience_s`` override only those two fields
    on every request, so a replayed log keeps its priorities and classes.
    ``streaming`` generates the synthetic trace lazily and accounts the
    report online (no retained records).
    """

    members: tuple[FleetMember, ...] = (FleetMember("dfx", "dfx", max_batch_size=None),)
    scheduler: str | SchedulingPolicy = "fifo"
    batch_policy: str | BatchFormationPolicy = "none"
    racks: int | None = None
    link: NetworkLink = NetworkLink(latency_s=0.05, bandwidth_bytes_per_s=1.25e9)
    arrivals: str = "poisson"
    rate_per_s: float = 1.0
    duration_s: float = 60.0
    period_s: float = 86_400.0
    mix: WorkloadMix = CHATBOT_MIX
    seed: int = 0
    limit: int | None = None
    requests: Sequence[ServiceRequest] | None = None
    slo_s: float | None = None
    patience_s: float | None = None
    faults: FaultSchedule | None = None
    retry_policy: RetryPolicy | None = RetryPolicy()
    streaming: bool = False

    def __post_init__(self) -> None:
        if self.arrivals not in _ARRIVALS:
            raise ConfigurationError(
                f"arrivals must be one of {sorted(_ARRIVALS)}, got {self.arrivals!r}"
            )
        if self.racks is not None:
            check_number("racks", self.racks, 1, integer=True)
        # Rack naming reads every member's name before any fleet is built.
        object.__setattr__(self, "members", check_fleet_members(self.members))

    def trace(self):
        """The requests this scenario serves (a generator when streaming)."""
        trace = self.requests
        if trace is None:
            trace = _ARRIVALS[self.arrivals](self)
        levels = {"slo_s": self.slo_s, "patience_s": self.patience_s}
        overrides = {name: value for name, value in levels.items() if value is not None}
        if not overrides:
            return trace
        tagged = (replace(request, **overrides) for request in trace)
        return list(tagged) if hasattr(trace, "__len__") else tagged

    def front_end(self) -> ApplianceFleet:
        """The fleet serving this scenario, on a rack star when ``racks`` is set."""
        members, network = self.members, None
        if self.racks is not None:
            placement = {
                f"rack{rack}": tuple(f"rack{rack}-{m.name}" for m in self.members)
                for rack in range(self.racks)
            }
            members = tuple(
                replace(member, name=name)
                for names in placement.values()
                for member, name in zip(self.members, names)
            )
            network = NetworkModel.star(placement, ingress="rack0", link=self.link)
        return ApplianceFleet(
            members,
            scheduler=self.scheduler,
            batch_policy=self.batch_policy,
            faults=self.faults,
            retry_policy=self.retry_policy,
            network=network,
            retain_records=not self.streaming,
        )

    def run(self) -> ServingReport:
        """Serve :meth:`trace` on :meth:`front_end`."""
        trace = self.trace()
        return self.front_end().serve(trace)
