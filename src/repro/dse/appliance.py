"""The appliance-level evaluator: score one configuration on four axes.

:class:`ApplianceEvaluator` turns a :class:`~repro.dse.space.Candidate`
into an objective vector over the production question ROADMAP open item 3
poses — which appliance configuration wins on latency x throughput x
energy x cost for a given traffic mix:

* **tail latency** (min) — a short, seeded serving-simulator run (one
  :class:`~repro.serving.scenario.ServingScenario` whose members are the
  candidate's instances, replicated per rack on a zero-cost star when the
  candidate spans racks) measuring the p99 response time under a Poisson
  arrival trace;
* **aggregate tokens/s** (max) — analytic, from ``estimate`` /
  ``batched_estimate``: units x tokens per batch / batch latency, summed
  across instances and racks;
* **energy per token** (min) — analytic: total energy rate over total
  token rate;
* **device cost** (min) — accelerator count x unit price from the
  Sec. VII cost sheets (:mod:`repro.baselines.specs`).

The evaluator is a frozen dataclass of primitives (preset names, floats,
a frozen workload/mix), so it pickles cleanly into the multiprocessing
evaluation pool, and every serving run is seeded from
``candidate_seed(seed, candidate.key)`` — a pure function of candidate
identity — so parallel evaluation is bit-identical to serial.

Recognized search dimensions (all optional except one of backend/fleet):

========== =====================================================
``backend``  registry name (``"dfx"``, ``"gpu"``, ...)
``fleet``    sequence of registry names, one appliance each
``config``   model preset name (overrides the evaluator default)
``devices``  accelerators per backend instance
``clusters`` serving units per instance (overrides capabilities)
``scheduler`` scheduler name (``fifo``, ``sjf``, ...)
``batch``    max batch size (1 = unbatched; >1 needs batching caps)
``racks``    star-topology rack count; the member set replicates per rack
========== =====================================================

Unknown dimension names raise :class:`~repro.errors.ConfigurationError`
at evaluation time, which the pool records as an infeasible candidate —
as does any backend rejecting its parameters (e.g. ``batch=8`` on the
unbatched DFX cluster, the Sec. III-A asymmetry the acceptance test
recovers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.backends.base import Backend
from repro.backends.registry import make_backend
from repro.baselines.specs import DFX_APPLIANCE_COST, GPU_APPLIANCE_COST
from repro.dse.objectives import Objective, ObjectiveVector
from repro.dse.pool import candidate_seed
from repro.dse.space import Candidate, Dimension, SearchSpace
from repro.errors import ConfigurationError
from repro.serving.network import NetworkLink
from repro.serving.requests import CHATBOT_MIX, WorkloadMix
from repro.serving.scenario import ServingScenario
from repro.serving.server import FleetMember
from repro.workloads import BALANCED_64_64_WORKLOAD, Workload

#: Accelerator unit price per backend registry name (USD), from the
#: Sec. VII cost sheets.  The TPU baseline reuses the GPU unit price as a
#: stand-in — the paper prices no TPU hardware.
DEVICE_UNIT_PRICE_USD: Mapping[str, float] = {
    "dfx": DFX_APPLIANCE_COST.accelerator_unit_price_usd,
    "dfx-4u": DFX_APPLIANCE_COST.accelerator_unit_price_usd,
    "dfx-sim": DFX_APPLIANCE_COST.accelerator_unit_price_usd,
    "gpu": GPU_APPLIANCE_COST.accelerator_unit_price_usd,
    "tpu": GPU_APPLIANCE_COST.accelerator_unit_price_usd,
}

_RECOGNIZED_DIMENSIONS = frozenset(
    {"backend", "fleet", "config", "devices", "clusters", "scheduler", "batch", "racks"}
)


def _unit_price(backend_name: str) -> float:
    try:
        return DEVICE_UNIT_PRICE_USD[backend_name]
    except KeyError:
        raise ConfigurationError(
            f"no device unit price for backend {backend_name!r}; "
            f"priced backends: {sorted(DEVICE_UNIT_PRICE_USD)}"
        ) from None


@dataclass(frozen=True)
class _Instance:
    """One resolved appliance instance of a candidate."""

    backend_name: str
    backend: Backend
    units: int


@dataclass(frozen=True)
class ApplianceEvaluator:
    """Multi-objective scorer for appliance configurations.

    ``serving_duration_s=None`` disables the serving-simulator run and
    swaps the tail-latency axis for the analytic single-batch latency —
    the cheap mode for huge factorial sweeps.
    """

    config: str = "test-tiny"
    workload: Workload = BALANCED_64_64_WORKLOAD
    serving_duration_s: float | None = 60.0
    arrival_rate_per_s: float = 0.5
    mix: WorkloadMix = CHATBOT_MIX
    tail_percentile: float = 99.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.serving_duration_s is not None and self.serving_duration_s <= 0:
            raise ConfigurationError("serving_duration_s must be positive (or None)")
        if self.arrival_rate_per_s <= 0:
            raise ConfigurationError("arrival_rate_per_s must be positive")
        if not 0 < self.tail_percentile <= 100:
            raise ConfigurationError("tail_percentile must be in (0, 100]")

    @property
    def objectives(self) -> tuple[Objective, ...]:
        latency = (
            Objective("latency_s", "min", "s")
            if self.serving_duration_s is None
            else Objective(f"p{self.tail_percentile:g}_latency_s", "min", "s")
        )
        return (
            latency,
            Objective("aggregate_tokens_per_s", "max", "tok/s"),
            Objective("energy_per_token_j", "min", "J/tok"),
            Objective("device_cost_usd", "min", "USD"),
        )

    # ------------------------------------------------------------------ scoring
    def evaluate(self, candidate: Candidate) -> ObjectiveVector:
        unknown = set(candidate.names) - _RECOGNIZED_DIMENSIONS
        if unknown:
            raise ConfigurationError(
                f"unknown search dimensions {sorted(unknown)}; recognized: "
                f"{sorted(_RECOGNIZED_DIMENSIONS)}"
            )
        batch = self._int_param(candidate, "batch", default=1, minimum=1)
        racks = self._int_param(candidate, "racks", default=1, minimum=1)
        scheduler = str(candidate.get("scheduler", "fifo"))
        instances = self._resolve_instances(candidate)

        token_rate = 0.0  # tokens/s across one rack's member set
        energy_rate = 0.0  # joules/s (watts) across the same
        batch_latency_s = 0.0
        for instance in instances:
            latency_s, energy_j, tokens = self._batch_cost(instance.backend, batch)
            if latency_s <= 0:
                raise ConfigurationError(
                    f"backend {instance.backend_name!r} priced a non-positive "
                    f"latency for {self.workload}"
                )
            token_rate += instance.units * tokens / latency_s
            energy_rate += instance.units * energy_j / latency_s
            batch_latency_s = max(batch_latency_s, latency_s)

        aggregate_tokens_per_s = racks * token_rate
        energy_per_token_j = (
            energy_rate / token_rate if token_rate > 0 else 0.0
        )
        device_cost_usd = racks * sum(
            instance.units
            * instance.backend.capabilities().num_devices
            * _unit_price(instance.backend_name)
            for instance in instances
        )

        if self.serving_duration_s is None:
            latency_value = batch_latency_s
        else:
            latency_value = self._tail_latency(candidate, instances, scheduler, batch, racks)

        return ObjectiveVector(
            objectives=self.objectives,
            values=(
                latency_value,
                aggregate_tokens_per_s,
                energy_per_token_j,
                device_cost_usd,
            ),
        )

    # ----------------------------------------------------------------- resolve
    def _resolve_instances(self, candidate: Candidate) -> list[_Instance]:
        backend_name = candidate.get("backend")
        fleet_spec = candidate.get("fleet")
        if (backend_name is None) == (fleet_spec is None):
            raise ConfigurationError(
                "a candidate needs exactly one of the 'backend' or 'fleet' "
                "dimensions"
            )
        names: list[str]
        if backend_name is not None:
            names = [str(backend_name)]
        else:
            if isinstance(fleet_spec, str) or not isinstance(fleet_spec, Sequence):
                raise ConfigurationError(
                    "the 'fleet' dimension value must be a sequence of "
                    f"backend names, got {fleet_spec!r}"
                )
            names = [str(name) for name in fleet_spec]
            if not names:
                raise ConfigurationError("a fleet needs at least one backend")
        devices = self._int_param(candidate, "devices", default=None, minimum=1)
        clusters = self._int_param(candidate, "clusters", default=None, minimum=1)
        config = str(candidate.get("config", self.config))

        instances = []
        for name in names:
            kwargs: dict[str, object] = {"config": config}
            if devices is not None:
                kwargs["devices"] = devices
            backend = make_backend(name, **kwargs)
            units = clusters if clusters is not None else backend.capabilities().num_units
            instances.append(_Instance(backend_name=name, backend=backend, units=units))
        return instances

    @staticmethod
    def _int_param(
        candidate: Candidate, name: str, *, default, minimum: int
    ):
        value = candidate.get(name, default)
        if value is None:
            return None
        try:
            value = int(value)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"dimension {name!r} must be an integer, got {candidate.get(name)!r}"
            ) from None
        if value < minimum:
            raise ConfigurationError(f"dimension {name!r} must be >= {minimum}")
        return value

    # --------------------------------------------------------------- objectives
    def _batch_cost(self, backend: Backend, batch: int) -> tuple[float, float, int]:
        """(latency_s, energy_joules, output tokens) of one batch."""
        if batch == 1:
            result = backend.estimate(self.workload)
            return (
                result.latency_s,
                result.total_power_watts * result.latency_s,
                self.workload.output_tokens,
            )
        estimate = backend.batched_estimate([self.workload] * batch)
        return (
            estimate.latency_s,
            estimate.energy_joules,
            batch * self.workload.output_tokens,
        )

    def _tail_latency(
        self,
        candidate: Candidate,
        instances: Sequence[_Instance],
        scheduler: str,
        batch: int,
        racks: int,
    ) -> float:
        scenario = ServingScenario(
            members=tuple(
                FleetMember(instance.backend_name, instance.backend, instance.units, batch)
                for instance in instances
            ),
            scheduler=scheduler,
            batch_policy="dynamic" if batch > 1 else "none",
            racks=racks if racks > 1 else None,
            link=NetworkLink(),
            rate_per_s=self.arrival_rate_per_s,
            duration_s=self.serving_duration_s,
            mix=self.mix,
            seed=candidate_seed(self.seed, candidate.key),
        )
        report = scenario.run()
        if report.num_requests == 0:
            raise ConfigurationError(
                "the serving trace produced no requests; raise "
                "arrival_rate_per_s or serving_duration_s"
            )
        return report.response_time_percentile_s(self.tail_percentile)


def appliance_search_space(
    *,
    backends: Sequence[str] = ("dfx", "gpu"),
    devices: Sequence[int] | None = None,
    clusters: Sequence[int] | None = None,
    schedulers: Sequence[str] = ("fifo",),
    batch_sizes: Sequence[int] = (1, 8),
    racks: Sequence[int] | None = None,
    fleets: Sequence[Sequence[str]] | None = None,
    configs: Sequence[str] | None = None,
) -> SearchSpace:
    """The standard appliance space: one dimension per non-trivial axis.

    Axes passed as ``None`` (or a single level for schedulers/batches) are
    left out of the space entirely, keeping candidate keys short and grids
    small.  ``fleets`` replaces the ``backend`` dimension with a ``fleet``
    dimension whose labels join member names with ``+``.
    """
    dimensions: list[Dimension] = []
    if fleets is not None:
        dimensions.append(
            Dimension(
                "fleet",
                {"+".join(fleet): tuple(fleet) for fleet in fleets},
            )
        )
    else:
        dimensions.append(Dimension("backend", list(backends)))
    if configs is not None:
        dimensions.append(Dimension("config", list(configs)))
    if devices is not None:
        dimensions.append(Dimension("devices", list(devices)))
    if clusters is not None:
        dimensions.append(Dimension("clusters", list(clusters)))
    if len(schedulers) > 0:
        dimensions.append(Dimension("scheduler", list(schedulers)))
    if len(batch_sizes) > 0:
        dimensions.append(Dimension("batch", list(batch_sizes)))
    if racks is not None:
        dimensions.append(Dimension("racks", list(racks)))
    return SearchSpace(dimensions)
