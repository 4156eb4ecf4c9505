"""Fault injection and degraded-mode serving policies.

The paper pitches DFX as a datacenter building block, and a datacenter
building block must answer "what happens when a device dies mid-trace?".
This module is the fault half of that answer (the simulator's event loop is
the other half): it describes *when and where* the fleet breaks, and *how*
the serving layer responds while capacity is reduced.

* :class:`FaultSchedule` — a seeded campaign of failures: scripted
  deterministic :class:`Outage` / :class:`Degradation` windows plus Poisson
  MTBF/MTTR :class:`FaultProcess` es (the DAVOS-style fault-dictionary /
  campaign-orchestration shape).  Fault kinds covered:

  - fail-stop unit crashes (an :class:`Outage` with ``duration_s=None``, or
    a process with ``mttr_s=None``) — the unit never comes back;
  - transient unit outages with repair (finite outage windows);
  - whole-member dropout/rejoin (target a fleet member by name: every unit
    of that appliance goes down and comes back together);
  - link degradation (:class:`Degradation`) — a slowdown factor scaling a
    unit's or member's service times over a window, modelling a congested
    or flapping inter-appliance link rather than a dead device;
  - named-link faults — with a
    :class:`~repro.serving.network.NetworkModel` in play, ``link=`` targets
    resolve against the topology's link names: a link outage partitions the
    rack behind it (no new dispatches; in-flight work completes), and a
    link degradation stretches *transfer* times only.

* :class:`RetryPolicy` — what happens to requests killed in flight: retry
  with exponential backoff up to ``max_attempts`` dispatches, under an
  optional global ``retry_budget``; requests that exhaust either are
  recorded as :class:`~repro.serving.server.FailedRequest` s.

* :class:`DegradedModePolicy` — load shedding while capacity is reduced:
  when fewer than ``capacity_threshold`` of the units are live, queued
  requests in the shed classes (by priority and/or service class) abandon
  immediately instead of competing with protected traffic.

A schedule is *compiled* against the concrete unit set at simulation time
(:meth:`FaultSchedule.compile`), which resolves member names to unit ids,
merges overlapping outage windows, and fixes the event order — so the same
schedule object can be replayed against any appliance or fleet, and two
runs with the same seed see bit-identical fault timelines.  An empty
schedule compiles to no events at all: the simulator is then bit-identical
to a fault-free run (equivalence-tested in the property suite).

Adding a fault kind: express it as compiled timeline events — extend
:meth:`FaultSchedule.compile` to emit the standard ``down``/``up`` /
``slow``/``unslow`` events (a new failure *source* needs no simulator
change), or add a new event kind plus its handler in
``simulator.py``'s fault-event branch for genuinely new semantics.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, check_number

#: Abandonment reason: shed by the degraded-mode policy while capacity was
#: reduced (recorded through ``ServingReport.abandoned`` like timeouts).
ABANDON_SHED = "degraded-shed"

#: Compiled fault-event kinds, in intra-instant processing order: repairs
#: and degradation ends apply before new failures and degradations, so a
#: back-to-back repair/failure pair at one instant nets to the failure.
#: Link events (named-link severs and degradations, resolved against units
#: behind that link) follow the same repair-before-failure discipline.
EVENT_UP = "up"
EVENT_LINK_UP = "link-up"
EVENT_UNSLOW = "unslow"
EVENT_LINK_UNSLOW = "link-unslow"
EVENT_SLOW = "slow"
EVENT_LINK_SLOW = "link-slow"
EVENT_DOWN = "down"
EVENT_LINK_DOWN = "link-down"
_EVENT_ORDER = {
    EVENT_UP: 0,
    EVENT_LINK_UP: 1,
    EVENT_UNSLOW: 2,
    EVENT_LINK_UNSLOW: 3,
    EVENT_SLOW: 4,
    EVENT_LINK_SLOW: 5,
    EVENT_DOWN: 6,
    EVENT_LINK_DOWN: 7,
}

#: Salt mixed into per-target RNG streams so a schedule seed never collides
#: with a trace seed drawn from the same integer.
_PROCESS_SALT = 0xFA017


def _validate_target(
    what: str,
    unit_id: int | None,
    member: str | None,
    link: str | None = None,
) -> None:
    targets = sum(
        1 for target in (unit_id, member, link) if target is not None
    )
    if targets != 1:
        raise ConfigurationError(
            f"{what} needs exactly one target: unit_id, member, or link"
        )


@dataclass(frozen=True)
class Outage:
    """One scripted outage window: a unit, member, or link goes down.

    ``duration_s=None`` is a fail-stop crash — the target never repairs.
    Targeting a ``member`` (fleet-member / appliance name) takes down every
    unit of that appliance together: whole-member dropout and rejoin.
    Targeting a ``link`` (a :class:`~repro.serving.network.NetworkModel`
    link name) severs the network path to the rack behind it: units there
    take no new dispatches while the link is down, but stay up and finish
    their in-flight work — a partition, not a crash.
    """

    start_s: float
    duration_s: float | None = None
    unit_id: int | None = None
    member: str | None = None
    link: str | None = None

    def __post_init__(self) -> None:
        # A NaN or infinite setting would otherwise fail deep in the event
        # loop, hang it, or serve silently wrong numbers.
        check_number("outage start_s", self.start_s, 0.0)
        if self.duration_s is not None:
            check_number("outage duration_s", self.duration_s, 0.0, open_low=True)
        _validate_target("an outage", self.unit_id, self.member, self.link)

    @property
    def end_s(self) -> float:
        return (
            float("inf")
            if self.duration_s is None
            else self.start_s + self.duration_s
        )


@dataclass(frozen=True)
class Degradation:
    """Link degradation: a window scaling the target's service or transfer
    times.

    ``slowdown`` multiplies every cost the target prices while the window
    is active (2.0 = twice as slow); overlapping degradations on one target
    stack multiplicatively.  A ``unit_id`` or ``member`` target scales the
    target's *service* times (a struggling device); a ``link`` target (a
    :class:`~repro.serving.network.NetworkModel` link name) scales the
    *transfer* times of every unit behind that link — a congested or
    error-prone inter-rack path rather than a slow device.
    """

    start_s: float
    duration_s: float
    slowdown: float
    unit_id: int | None = None
    member: str | None = None
    link: str | None = None

    def __post_init__(self) -> None:
        check_number("degradation start_s", self.start_s, 0.0)
        check_number("degradation duration_s", self.duration_s, 0.0, open_low=True)
        check_number("slowdown", self.slowdown, 0.0, open_low=True)
        _validate_target(
            "a degradation", self.unit_id, self.member, self.link
        )

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class FaultProcess:
    """A seeded Poisson MTBF/MTTR fault process.

    Each target alternates exponentially-distributed up times (mean
    ``mtbf_s``) and down times (mean ``mttr_s``), drawn from its own RNG
    stream (seeded by ``(seed, target)``) so fault timelines are
    independent across targets yet bit-reproducible for a given seed.
    ``mttr_s=None`` makes the first failure of each target fail-stop.
    ``members=None`` targets every unit independently; naming members makes
    each named appliance drop out and rejoin as a whole.
    """

    mtbf_s: float
    mttr_s: float | None
    horizon_s: float
    seed: int = 0
    members: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        # An infinite horizon would draw windows forever.
        check_number("mtbf_s", self.mtbf_s, 0.0, open_low=True)
        if self.mttr_s is not None:
            check_number("mttr_s", self.mttr_s, 0.0, open_low=True)
        check_number("horizon_s", self.horizon_s, 0.0, open_low=True)
        check_number("seed", self.seed, 0, integer=True)

    def draw_windows(self, stream_key: int) -> list[tuple[float, float]]:
        """Down windows for one target, deterministic in (seed, stream_key)."""
        rng = np.random.default_rng([self.seed, _PROCESS_SALT, stream_key])
        windows: list[tuple[float, float]] = []
        time_s = float(rng.exponential(self.mtbf_s))
        while time_s < self.horizon_s:
            if self.mttr_s is None:
                windows.append((time_s, float("inf")))
                break
            repair_s = float(rng.exponential(self.mttr_s))
            windows.append((time_s, time_s + repair_s))
            time_s = time_s + repair_s + float(rng.exponential(self.mtbf_s))
        return windows


@dataclass(frozen=True)
class FaultEvent:
    """One compiled timeline event applied to one concrete unit."""

    time_s: float
    kind: str  # EVENT_DOWN / EVENT_UP / EVENT_SLOW / EVENT_UNSLOW
    unit_id: int
    slowdown: float = 1.0

    def sort_key(self) -> tuple[float, int, int]:
        return (self.time_s, _EVENT_ORDER[self.kind], self.unit_id)


@dataclass(frozen=True)
class CompiledFaults:
    """A :class:`FaultSchedule` resolved against a concrete unit set."""

    events: tuple[FaultEvent, ...]
    #: Merged down windows per unit id (an open-ended fail-stop window ends
    #: at ``inf``); the availability oracle in ``ServingReport`` recomputes
    #: from exactly these windows.
    downtime: dict[int, tuple[tuple[float, float], ...]]
    #: Merged sever windows per link name (link outages partition the rack
    #: behind the link without taking its units down, so these windows are
    #: reported separately from unit downtime).
    link_downtime: dict[str, tuple[tuple[float, float], ...]] = field(
        default_factory=dict
    )


def merge_windows(
    windows: list[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Merge overlapping/touching ``(start, end)`` windows (end may be inf)."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _stable_member_key(member: str) -> int:
    """Deterministic integer stream key for a member name.

    ``hash(str)`` is salted per process (PYTHONHASHSEED), so a digest is
    required for fault timelines to reproduce across runs.
    """
    return zlib.crc32(member.encode("utf-8"))


@dataclass(frozen=True)
class FaultSchedule:
    """A fault campaign: scripted outages/degradations plus seeded processes.

    An empty schedule (``FaultSchedule()``) compiles to zero events and the
    simulator behaves bit-identically to a fault-free run.  Build scripted
    campaigns with :meth:`scripted`, random ones with :meth:`poisson`, or
    mix both by constructing directly.
    """

    outages: tuple[Outage, ...] = ()
    degradations: tuple[Degradation, ...] = ()
    processes: tuple[FaultProcess, ...] = ()

    @classmethod
    def scripted(cls, *faults: Outage | Degradation) -> "FaultSchedule":
        """A deterministic schedule from explicit outage/degradation windows."""
        outages = tuple(f for f in faults if isinstance(f, Outage))
        degradations = tuple(f for f in faults if isinstance(f, Degradation))
        if len(outages) + len(degradations) != len(faults):
            bad = [
                type(f).__name__
                for f in faults
                if not isinstance(f, (Outage, Degradation))
            ]
            raise ConfigurationError(
                f"scripted faults must be Outage or Degradation, got {bad}"
            )
        return cls(outages=outages, degradations=degradations)

    @classmethod
    def poisson(
        cls,
        mtbf_s: float,
        mttr_s: float | None,
        duration_s: float,
        *,
        seed: int = 0,
        members: tuple[str, ...] | list[str] | None = None,
    ) -> "FaultSchedule":
        """A seeded Poisson MTBF/MTTR campaign over ``duration_s`` seconds.

        ``mttr_s=None`` makes every failure fail-stop.  ``members`` names
        whole appliances that drop out together; ``None`` faults every unit
        independently.
        """
        return cls(
            processes=(
                FaultProcess(
                    mtbf_s=mtbf_s,
                    mttr_s=mttr_s,
                    horizon_s=duration_s,
                    seed=seed,
                    members=tuple(members) if members is not None else None,
                ),
            )
        )

    @property
    def empty(self) -> bool:
        return not (self.outages or self.degradations or self.processes)

    # ------------------------------------------------------------------ compile
    def _resolve(
        self,
        what: str,
        unit_id: int | None,
        member: str | None,
        unit_ids: set[int],
        members: dict[str, list[int]],
    ) -> list[int]:
        if unit_id is not None:
            if unit_id not in unit_ids:
                raise ConfigurationError(
                    f"{what} targets unknown unit {unit_id}; "
                    f"units: {sorted(unit_ids)}"
                )
            return [unit_id]
        if member not in members:
            raise ConfigurationError(
                f"{what} targets unknown member {member!r}; "
                f"members: {sorted(members)}"
            )
        return members[member]

    @staticmethod
    def _resolve_link(
        what: str, link: str, links: dict[str, list[int]]
    ) -> list[int]:
        if not links:
            raise ConfigurationError(
                f"{what} targets link {link!r} but the unit set carries no "
                f"links — serve the fleet with a NetworkModel to name them"
            )
        if link not in links:
            raise ConfigurationError(
                f"{what} targets unknown link {link!r}; "
                f"links: {sorted(links)}"
            )
        return links[link]

    def compile(self, units) -> CompiledFaults:
        """Resolve this schedule against concrete server units.

        ``units`` is the simulator's unit list (anything with ``unit_id``
        and ``appliance`` attributes; units annotated by a
        :class:`~repro.serving.network.NetworkModel` also carry
        ``link_name``, which is what ``link=`` targets resolve against).
        Returns the merged per-unit down windows plus the sorted event
        timeline the event loop consumes.
        """
        unit_ids = {unit.unit_id for unit in units}
        members: dict[str, list[int]] = {}
        links: dict[str, list[int]] = {}
        for unit in units:
            members.setdefault(unit.appliance, []).append(unit.unit_id)
            link_name = getattr(unit, "link_name", None)
            if link_name is not None:
                links.setdefault(link_name, []).append(unit.unit_id)

        down: dict[int, list[tuple[float, float]]] = {}
        link_down: dict[str, list[tuple[float, float]]] = {}
        for outage in self.outages:
            if outage.link is not None:
                self._resolve_link("an outage", outage.link, links)
                link_down.setdefault(outage.link, []).append(
                    (outage.start_s, outage.end_s)
                )
                continue
            for uid in self._resolve(
                "an outage", outage.unit_id, outage.member, unit_ids, members
            ):
                down.setdefault(uid, []).append((outage.start_s, outage.end_s))
        for process in self.processes:
            if process.members is None:
                for uid in sorted(unit_ids):
                    down.setdefault(uid, []).extend(process.draw_windows(uid))
            else:
                for member in process.members:
                    windows = process.draw_windows(_stable_member_key(member))
                    for uid in self._resolve(
                        "a fault process", None, member, unit_ids, members
                    ):
                        down.setdefault(uid, []).extend(windows)

        events: list[FaultEvent] = []
        downtime: dict[int, tuple[tuple[float, float], ...]] = {}
        for uid, windows in down.items():
            merged = merge_windows(windows)
            if not merged:
                continue
            downtime[uid] = tuple(merged)
            for start, end in merged:
                events.append(FaultEvent(start, EVENT_DOWN, uid))
                if end != float("inf"):
                    events.append(FaultEvent(end, EVENT_UP, uid))

        link_downtime: dict[str, tuple[tuple[float, float], ...]] = {}
        for link, windows in link_down.items():
            merged = merge_windows(windows)
            if not merged:
                continue
            link_downtime[link] = tuple(merged)
            for start, end in merged:
                for uid in links[link]:
                    events.append(FaultEvent(start, EVENT_LINK_DOWN, uid))
                    if end != float("inf"):
                        events.append(FaultEvent(end, EVENT_LINK_UP, uid))

        for degradation in self.degradations:
            if degradation.link is not None:
                targets = self._resolve_link(
                    "a degradation", degradation.link, links
                )
                slow_kind, unslow_kind = EVENT_LINK_SLOW, EVENT_LINK_UNSLOW
            else:
                targets = self._resolve(
                    "a degradation",
                    degradation.unit_id,
                    degradation.member,
                    unit_ids,
                    members,
                )
                slow_kind, unslow_kind = EVENT_SLOW, EVENT_UNSLOW
            for uid in targets:
                events.append(
                    FaultEvent(
                        degradation.start_s, slow_kind, uid,
                        slowdown=degradation.slowdown,
                    )
                )
                events.append(
                    FaultEvent(
                        degradation.end_s, unslow_kind, uid,
                        slowdown=degradation.slowdown,
                    )
                )

        events.sort(key=FaultEvent.sort_key)
        return CompiledFaults(
            events=tuple(events),
            downtime=downtime,
            link_downtime=link_downtime,
        )


@dataclass(frozen=True)
class RetryPolicy:
    """What happens to a request killed by a unit failure.

    A killed request re-enqueues after an exponential backoff —
    ``backoff_s * backoff_multiplier**(failures - 1)`` seconds after its
    ``failures``-th kill, clamped to ``max_backoff_s`` when one is set —
    until it has been dispatched ``max_attempts``
    times, after which it is recorded as failed (reason
    ``retries-exhausted``).  ``retry_budget`` caps the *total* retries the
    whole run may spend (reason ``retry-budget-exhausted`` once dry);
    ``None`` is unlimited.  ``max_attempts=1`` disables retries entirely:
    every killed request fails immediately (reason ``unit-failure``), as do
    requests tagged ``retryable=False``.

    Without ``max_backoff_s`` the exponential is unbounded: a long campaign
    of repeated kills pushes the retry instant astronomically far past the
    trace, where the request retries, or past the float range, where it
    fails (``retries-exhausted``).  Set the cap for any campaign whose
    failure count can grow large.
    """

    max_attempts: int = 3
    backoff_s: float = 0.1
    backoff_multiplier: float = 2.0
    retry_budget: int | None = None
    #: Upper bound on any single retry delay (``None`` = uncapped, the
    #: historical behavior).
    max_backoff_s: float | None = None

    def __post_init__(self) -> None:
        check_number("max_attempts", self.max_attempts, 1, integer=True)
        check_number("backoff_s", self.backoff_s, 0.0)
        check_number("backoff_multiplier", self.backoff_multiplier, 0.0,
                     open_low=True)
        if self.retry_budget is not None:
            check_number("retry_budget", self.retry_budget, 0, integer=True)
        if self.max_backoff_s is not None:
            check_number("max_backoff_s", self.max_backoff_s, 0.0)

    def delay_s(self, failures: int) -> float:
        """Backoff before the retry following the ``failures``-th kill."""
        check_number("failures", failures, 1, integer=True)
        try:
            delay = self.backoff_s * self.backoff_multiplier ** (failures - 1)
        except OverflowError:
            # Python float ** raises rather than returning inf; an exponent
            # that large is unbounded, unless there is no backoff to scale.
            delay = float("inf") if self.backoff_s else 0.0
        if self.max_backoff_s is not None:
            # min() also tames the overflow case: an exponent large enough
            # to overflow still clamps to the finite cap.
            return min(delay, self.max_backoff_s)
        return delay


@dataclass(frozen=True)
class DegradedModePolicy:
    """Load shedding while the fleet is degraded.

    While fewer than ``capacity_threshold`` of the units are live, queued
    requests in the shed set — ``priority > shed_priority_above`` and/or
    ``service_class in shed_classes`` — abandon immediately with reason
    :data:`ABANDON_SHED` instead of competing with protected traffic for
    the reduced capacity.  With the default threshold of 1.0 shedding is
    active whenever *any* unit is down; lower thresholds tolerate partial
    outages before shedding starts.
    """

    capacity_threshold: float = 1.0
    shed_priority_above: int | None = None
    shed_classes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_number("capacity_threshold", self.capacity_threshold, 0.0, 1.0,
                     open_low=True)
        if self.shed_priority_above is None and not self.shed_classes:
            raise ConfigurationError(
                "a degraded-mode policy needs a shed criterion: "
                "shed_priority_above and/or shed_classes"
            )

    def active(self, live_units: int, total_units: int) -> bool:
        """Whether shedding is on at this live/total capacity."""
        if total_units <= 0:
            return False
        return live_units < self.capacity_threshold * total_units

    def sheds(self, request) -> bool:
        """Whether ``request`` belongs to the shed set."""
        if (
            self.shed_priority_above is not None
            and request.priority > self.shed_priority_above
        ):
            return True
        return request.service_class in self.shed_classes
