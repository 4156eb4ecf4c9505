"""Experiment drivers: one function per paper table/figure.

Each driver builds the relevant platform models, runs the paper's workloads,
and returns a structured result object.  The benchmark modules under
``benchmarks/`` and the examples call these drivers and print the same
rows/series the paper reports; ``scripts/run_all_experiments.py`` prints the
paper-vs-measured report for every driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.analysis.breakdown import BreakdownReport, dfx_breakdown, gpu_breakdown
from repro.analysis.cost import CostComparison, cost_comparison
from repro.analysis.energy import average_energy_efficiency_gain
from repro.analysis.metrics import (
    ComparisonRow,
    StageGflops,
    average_speedup,
    average_throughput_ratio,
    pair_results,
    stage_gflops,
)
from repro.analysis.workload_presets import (
    EvaluationSetup,
    PAPER_EVALUATION_SETUPS,
    PRIMARY_SETUP,
    SCALABILITY_SETUP,
)
from repro.backends import Backend, make_backend
from repro.baselines.gpu import GPUAppliance
from repro.errors import ConfigurationError
from repro.baselines.tpu import TPUBaseline
from repro.core.appliance import DFXAppliance
from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.tiling import design_space_mha_sweep
from repro.fpga.resources import CoreResourceReport, design_space_resource_sweep, estimate_core_resources
from repro.model.accuracy import AccuracyComparison, compare_pipelines
from repro.model.config import GPT2Config, GPT2_1_5B, GPT2_345M, GPT2_TEST_SMALL, PAPER_MODELS
from repro.model.datasets import paper_datasets
from repro.model.gpt2 import GPT2Model
from repro.model.numerics import FP16_DFX, FP16_GPU
from repro.model.weights import generate_weights
from repro.results import InferenceResult
from repro.serving import (
    CHATBOT_MIX,
    DATACENTER_MIX,
    ApplianceFleet,
    ApplianceServer,
    CapacityPlan,
    ContinuousBatching,
    DegradedModePolicy,
    DynamicBatching,
    FaultSchedule,
    FleetMember,
    NetworkLink,
    NetworkModel,
    RetryPolicy,
    ServingReport,
    WorkloadMix,
    bursty_trace,
    capacity_search,
    poisson_trace,
    with_service_levels,
)
from repro.workloads import (
    BALANCED_64_64_WORKLOAD,
    FIGURE3_WORKLOADS,
    PAPER_WORKLOAD_GRID,
    Workload,
)


# ---------------------------------------------------------------------- Fig. 3
@dataclass(frozen=True)
class Figure3Result:
    """GPU latency split by stage across the Fig. 3 workload sweep."""

    workloads: tuple[Workload, ...]
    summarization_ms: tuple[float, ...]
    generation_ms: tuple[float, ...]

    @property
    def marginal_output_token_ms(self) -> float:
        """Average latency added per extra output token."""
        first = self.summarization_ms[3] + self.generation_ms[3]   # [32:1]
        last = self.summarization_ms[-1] + self.generation_ms[-1]  # [32:4]
        return (last - first) / 3.0

    @property
    def marginal_input_token_ms(self) -> float:
        """Average latency added per extra input token."""
        largest = self.summarization_ms[0] + self.generation_ms[0]   # [128:1]
        smallest = self.summarization_ms[3] + self.generation_ms[3]  # [32:1]
        return (largest - smallest) / (128 - 32)


def run_figure3(
    config: GPT2Config = GPT2_1_5B, num_devices: int = 4
) -> Figure3Result:
    """Fig. 3: GPU latency with increasing input tokens then output tokens."""
    gpu = GPUAppliance(config, num_devices=num_devices)
    results = [gpu.run(workload) for workload in FIGURE3_WORKLOADS]
    return Figure3Result(
        workloads=FIGURE3_WORKLOADS,
        summarization_ms=tuple(result.summarization.latency_ms for result in results),
        generation_ms=tuple(result.generation.latency_ms for result in results),
    )


# ---------------------------------------------------------------------- Fig. 4
@dataclass(frozen=True)
class Figure4Result:
    """GPU latency breakdown vs raw-operation breakdown."""

    latency_fractions: dict[str, float]
    operation_fractions: dict[str, float]


def run_figure4(
    config: GPT2Config = GPT2_1_5B,
    num_devices: int = 4,
    workload: Workload = BALANCED_64_64_WORKLOAD,
) -> Figure4Result:
    """Fig. 4: GPU latency and operation-count breakdown."""
    gpu = GPUAppliance(config, num_devices=num_devices)
    result = gpu.run(workload)
    return Figure4Result(
        latency_fractions=gpu_breakdown([result]).fractions,
        operation_fractions=gpu.operation_count_fractions(),
    )


# ---------------------------------------------------------------------- Fig. 8
@dataclass(frozen=True)
class Figure8Result:
    """Design-space exploration of the tile shape (d, l)."""

    mha_gflops: dict[tuple[int, int], float]
    resource_reports: dict[tuple[int, int], CoreResourceReport]

    def best_performing_points(self, tolerance: float = 0.05) -> list[tuple[int, int]]:
        """Design points within ``tolerance`` of the best MHA throughput."""
        best = max(self.mha_gflops.values())
        return [
            point
            for point, gflops in self.mha_gflops.items()
            if gflops >= best * (1.0 - tolerance)
        ]

    def cheapest_best_point(self) -> tuple[int, int]:
        """Among the best performers, the point with the fewest LUTs (the paper's d=64)."""
        candidates = self.best_performing_points()
        return min(candidates, key=lambda point: self.resource_reports[point].components["mpu"].lut)


def run_figure8(config: GPT2Config = GPT2_1_5B, kv_length: int = 64) -> Figure8Result:
    """Fig. 8: tile-shape DSE — MHA performance (a) and resource cost (b)."""
    return Figure8Result(
        mha_gflops=design_space_mha_sweep(config, kv_length),
        resource_reports=design_space_resource_sweep(),
    )


# --------------------------------------------------------------------- Fig. 13
def run_figure13() -> CoreResourceReport:
    """Fig. 13: per-component resource utilization of the final (64, 16) core."""
    return estimate_core_resources(d=64, l=16)


# --------------------------------------------------------------------- Fig. 14
@dataclass(frozen=True)
class Figure14Column:
    """One model-size group of Fig. 14."""

    setup: EvaluationSetup
    rows: tuple[ComparisonRow, ...]

    @property
    def average_speedup(self) -> float:
        return average_speedup(list(self.rows))


@dataclass(frozen=True)
class Figure14Result:
    """All model-size groups of Fig. 14."""

    columns: tuple[Figure14Column, ...]

    def speedups(self) -> dict[str, float]:
        """Average speedup per model label."""
        return {column.setup.config.name: column.average_speedup for column in self.columns}


def run_figure14(
    setups: tuple[EvaluationSetup, ...] = PAPER_EVALUATION_SETUPS,
    workloads: tuple[Workload, ...] = PAPER_WORKLOAD_GRID,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> Figure14Result:
    """Fig. 14: DFX vs GPU latency over the 15-workload grid for each model."""
    columns = []
    for setup in setups:
        gpu = GPUAppliance(setup.config, num_devices=setup.num_devices)
        dfx = DFXAppliance(
            setup.config, num_devices=setup.num_devices, calibration=calibration
        )
        gpu_results = gpu.run_many(list(workloads))
        dfx_results = dfx.run_many(list(workloads))
        columns.append(
            Figure14Column(setup=setup, rows=tuple(pair_results(gpu_results, dfx_results)))
        )
    return Figure14Result(columns=tuple(columns))


# --------------------------------------------------------------------- Fig. 15
def run_figure15(
    setup: EvaluationSetup = PRIMARY_SETUP,
    workload: Workload = BALANCED_64_64_WORKLOAD,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> BreakdownReport:
    """Fig. 15: DFX latency breakdown on the 1.5B model with 4 FPGAs."""
    dfx = DFXAppliance(setup.config, num_devices=setup.num_devices, calibration=calibration)
    return dfx_breakdown([dfx.run(workload)])


# --------------------------------------------------------------------- Fig. 16
@dataclass(frozen=True)
class Figure16Result:
    """Throughput and energy efficiency over the workload grid (1.5B model)."""

    rows: tuple[ComparisonRow, ...]

    @property
    def throughput_gain(self) -> float:
        return average_throughput_ratio(list(self.rows))

    @property
    def energy_efficiency_gain(self) -> float:
        return average_energy_efficiency_gain(list(self.rows))


def run_figure16(
    setup: EvaluationSetup = PRIMARY_SETUP,
    workloads: tuple[Workload, ...] = PAPER_WORKLOAD_GRID,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> Figure16Result:
    """Fig. 16: throughput and normalized energy efficiency on the 1.5B model."""
    gpu = GPUAppliance(setup.config, num_devices=setup.num_devices)
    dfx = DFXAppliance(setup.config, num_devices=setup.num_devices, calibration=calibration)
    rows = pair_results(gpu.run_many(list(workloads)), dfx.run_many(list(workloads)))
    return Figure16Result(rows=tuple(rows))


# --------------------------------------------------------------------- Fig. 17
@dataclass(frozen=True)
class Figure17Result:
    """Achieved GFLOP/s per platform and stage (345M model, 64:64)."""

    gpu: StageGflops
    tpu: StageGflops
    dfx: StageGflops


def run_figure17(
    config: GPT2Config = GPT2_345M,
    workload: Workload = BALANCED_64_64_WORKLOAD,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> Figure17Result:
    """Fig. 17: GPU vs TPU vs DFX (1 FPGA) achieved GFLOP/s by stage."""
    gpu = GPUAppliance(config, num_devices=1)
    tpu = TPUBaseline(config)
    dfx = DFXAppliance(config, num_devices=1, calibration=calibration)
    return Figure17Result(
        gpu=stage_gflops(gpu.run(workload)),
        tpu=stage_gflops(tpu.run(workload)),
        dfx=stage_gflops(dfx.run(workload)),
    )


# --------------------------------------------------------------------- Fig. 18
@dataclass(frozen=True)
class Figure18Result:
    """DFX throughput scaling with the number of FPGAs (345M model, 64:64)."""

    device_counts: tuple[int, ...]
    tokens_per_second: tuple[float, ...]

    def scaling_factors(self) -> tuple[float, ...]:
        """Throughput gain of each step relative to the previous device count."""
        factors = []
        for index in range(1, len(self.tokens_per_second)):
            factors.append(self.tokens_per_second[index] / self.tokens_per_second[index - 1])
        return tuple(factors)


def run_figure18(
    config: GPT2Config = SCALABILITY_SETUP.config,
    workload: Workload = BALANCED_64_64_WORKLOAD,
    device_counts: tuple[int, ...] = (1, 2, 4),
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> Figure18Result:
    """Fig. 18: DFX tokens/s on 1, 2, and 4 FPGAs."""
    throughputs = []
    for count in device_counts:
        dfx = DFXAppliance(config, num_devices=count, calibration=calibration)
        throughputs.append(dfx.run(workload).tokens_per_second)
    return Figure18Result(
        device_counts=device_counts, tokens_per_second=tuple(throughputs)
    )


# -------------------------------------------------------------------- Table I
def run_table1() -> list[dict[str, object]]:
    """Table I: the three GPT-2 configurations."""
    rows = []
    for config in PAPER_MODELS:
        rows.append(
            {
                "model": config.name,
                "parameters": config.total_parameter_count(),
                "embedding_dimension": config.n_embd,
                "attention_heads": config.n_head,
                "head_dimension": config.head_dim,
                "layers": config.n_layer,
            }
        )
    return rows


# -------------------------------------------------------------------- Table II
def run_table2(
    setup: EvaluationSetup = PRIMARY_SETUP,
    workload: Workload = BALANCED_64_64_WORKLOAD,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> CostComparison:
    """Table II: cost analysis on the 1.5B model with the 64:64 workload."""
    gpu = GPUAppliance(setup.config, num_devices=setup.num_devices)
    dfx = DFXAppliance(setup.config, num_devices=setup.num_devices, calibration=calibration)
    return cost_comparison(gpu.run(workload), dfx.run(workload))


# ------------------------------------------------- Serving (datacenter study)
def _serving_backend(
    spec: str | Backend,
    config: GPT2Config,
    num_devices: int | None,
) -> Backend:
    """Resolve a serving driver's backend argument.

    Registry names are built with the driver's model configuration and
    device count (``num_devices=None`` keeps the factory's own device
    default, so single-device backends like ``"tpu"`` resolve cleanly);
    backend instances pass through (they already embed their
    configuration).
    """
    if isinstance(spec, str):
        kwargs = {"config": config}
        if num_devices is not None:
            kwargs["devices"] = num_devices
        return make_backend(spec, **kwargs)
    return make_backend(spec)


@dataclass(frozen=True)
class SchedulerComparisonResult:
    """One trace served under several scheduling policies on one appliance."""

    trace_length: int
    reports: dict[str, ServingReport]  # policy name -> report

    @staticmethod
    def _offered_p95(report: ServingReport) -> float:
        """p95 response time over *offered* requests, abandoned = infinity.

        Ranking by the percentile over completed requests alone would reward
        load shedding: a policy that abandons most of the trace shows a great
        tail over its few survivors.  Counting every abandoned request as an
        infinite response time removes that survivorship bias (a policy that
        abandons more than 5% of the offered load has an infinite p95).
        Needs every completed record, which streaming reports do not keep.
        """
        if len(report.completed) != report.num_requests:
            raise ConfigurationError(
                "the p95 over offered requests needs every completed record; "
                "run the comparison with retain_records=True"
            )
        if report.num_offered == 0:
            return 0.0
        rank = math.ceil(0.95 * report.num_offered)  # 1-based order statistic
        responses = sorted(c.response_time_s for c in report.completed)
        if rank > len(responses):
            return float("inf")
        return responses[rank - 1]

    def best_policy_by_p95(self) -> str:
        """Policy with the lowest p95 over offered requests on this trace."""
        return min(
            self.reports,
            key=lambda name: (
                self._offered_p95(self.reports[name]),
                self.reports[name].abandonment_rate,
            ),
        )


def run_scheduler_comparison(
    platform: Backend | str | None = None,
    *,
    policies: tuple[str, ...] = ("fifo", "sjf", "priority", "deadline"),
    arrival_rate_per_s: float = 0.8,
    duration_s: float = 300.0,
    num_clusters: int = 2,
    mix: WorkloadMix = DATACENTER_MIX,
    seed: int = 11,
    trace=None,
    platform_name: str | None = None,
    config: GPT2Config = GPT2_1_5B,
    num_devices: int | None = None,
    retain_records: bool = True,
) -> SchedulerComparisonResult:
    """Serve one trace under each policy on one appliance (default: DFX 4U host).

    ``platform`` may be a registered backend name (``"dfx"``, ``"gpu"``,
    ``"tpu"``) or a :class:`~repro.backends.base.Backend`; names are built
    with ``config`` and ``num_devices``
    (``None`` keeps the backend factory's own device default).  Pass
    ``trace`` directly to study classed traffic (priorities / SLOs /
    patience); otherwise a Poisson trace over ``mix`` is generated.
    ``retain_records=False`` streams every policy's report (flat memory on
    long traces).
    """
    if platform is None:
        platform = _serving_backend("dfx", config, num_devices)
        platform_name = platform_name or "dfx"
    elif isinstance(platform, str):
        # Resolve once so every policy serves the identical backend.
        platform = _serving_backend(platform, config, num_devices)
    if trace is None:
        trace = poisson_trace(arrival_rate_per_s, duration_s, mix, seed=seed)
    elif not hasattr(trace, "__len__"):
        # The identical trace is served once per policy, so a lazy trace
        # must be materialized here (it would be exhausted by the first).
        trace = list(trace)
    reports = {
        policy: ApplianceServer(
            platform,
            num_clusters=num_clusters,
            platform_name=platform_name,
            scheduler=policy,
            retain_records=retain_records,
        ).serve(trace)
        for policy in policies
    }
    return SchedulerComparisonResult(trace_length=len(trace), reports=reports)


@dataclass(frozen=True)
class ServingCapacityResult:
    """Capacity planning: max sustainable rate under an SLO per configuration."""

    slo_s: float
    percentile: float
    plans: dict[str, CapacityPlan]  # configuration label -> plan

    def capacities_per_hour(self) -> dict[str, float]:
        """Max offered load (requests/hour) meeting the SLO, per configuration."""
        return {
            label: plan.max_requests_per_hour for label, plan in self.plans.items()
        }


def run_serving_capacity(
    config: GPT2Config = GPT2_1_5B,
    *,
    slo_s: float = 8.0,
    percentile: float = 95.0,
    num_devices: int = 4,
    mix: WorkloadMix = DATACENTER_MIX,
    trace_duration_s: float = 240.0,
    seed: int = 5,
    scheduler: str = "fifo",
    retain_records: bool = True,
) -> ServingCapacityResult:
    """How much offered load each appliance configuration sustains under an SLO.

    Compares the GPU appliance, one DFX cluster, the full 4U host (two DFX
    clusters), and the heterogeneous fleet (both DFX clusters plus the GPU
    appliance behind one queue) — the capacity numbers the datacenter
    operator actually provisions by.  Both appliances come from the
    backend registry, so the whole study runs through the unified
    :class:`~repro.backends.base.Backend` protocol.

    The search reads only each probed report's tail percentile and
    abandonment rate, so ``retain_records=False`` keeps every probe's
    memory flat (percentiles then come from quantile sketches, within
    their rank-error bound of the exact search).
    """
    dfx = make_backend("dfx", config=config, devices=num_devices)
    gpu = make_backend("gpu", config=config, devices=num_devices)

    def trace_builder(rate: float):
        return poisson_trace(rate, trace_duration_s, mix, seed=seed)

    def server(backend: Backend, clusters: int, name: str) -> ApplianceServer:
        return ApplianceServer(backend, clusters, name, scheduler=scheduler,
                               retain_records=retain_records)

    front_ends = {
        "gpu-x1": server(gpu, 1, "gpu"),
        "dfx-x1": server(dfx, 1, "dfx"),
        "dfx-x2": server(dfx, 2, "dfx-x2"),
        "dfx-x2+gpu": ApplianceFleet(
            [
                FleetMember("dfx", dfx, num_clusters=2),
                FleetMember("gpu", gpu, num_clusters=1),
            ],
            scheduler=scheduler,
            retain_records=retain_records,
        ),
    }
    plans = {
        label: capacity_search(
            front_end, trace_builder, slo_s, percentile=percentile
        )
        for label, front_end in front_ends.items()
    }
    return ServingCapacityResult(slo_s=slo_s, percentile=percentile, plans=plans)


# --------------------------------------------------- Serving (fault campaigns)
@dataclass(frozen=True)
class FaultCampaignResult:
    """Schedulers compared across seeded fault campaigns on one appliance.

    ``reports[policy][seed]`` is the serving report of one policy under one
    seeded (trace, fault-schedule) pair; every policy sees the identical
    pairs, so differences are pure failover quality.  The aggregate methods
    average over seeds.
    """

    policies: tuple[str, ...]
    seeds: tuple[int, ...]
    mtbf_s: float
    mttr_s: float | None
    reports: dict[str, dict[int, ServingReport]]

    def _mean_over_seeds(self, metric) -> dict[str, float]:
        return {
            policy: sum(metric(report) for report in by_seed.values())
            / len(by_seed)
            for policy, by_seed in self.reports.items()
        }

    def mean_availability(self) -> dict[str, float]:
        """Mean fleet availability over the campaign's seeds, per policy."""
        return self._mean_over_seeds(lambda r: r.availability)

    def mean_goodput(self) -> dict[str, float]:
        """Mean completed fraction of offered load, per policy."""
        return self._mean_over_seeds(lambda r: r.goodput_fraction)

    def mean_failover_delay_s(self) -> dict[str, float]:
        """Mean kill-to-restart latency of retried requests, per policy."""
        return self._mean_over_seeds(lambda r: r.mean_failover_delay_s)

    def mean_slo_violation_rate(self) -> dict[str, float]:
        """Mean SLO-violation rate under failures, per policy."""
        return self._mean_over_seeds(lambda r: r.slo_violation_rate)

    def total_retries(self) -> dict[str, int]:
        """Retries spent across all seeds, per policy."""
        return {
            policy: sum(report.num_retries for report in by_seed.values())
            for policy, by_seed in self.reports.items()
        }

    def total_failed(self) -> dict[str, int]:
        """Requests lost to faults across all seeds, per policy."""
        return {
            policy: sum(report.num_failed for report in by_seed.values())
            for policy, by_seed in self.reports.items()
        }

    def best_policy_by_goodput(self) -> str:
        """Policy completing the largest offered fraction (ties: fewer SLO
        violations, then faster failover)."""
        goodput = self.mean_goodput()
        violations = self.mean_slo_violation_rate()
        failover = self.mean_failover_delay_s()
        return min(
            self.policies,
            key=lambda p: (-goodput[p], violations[p], failover[p]),
        )

    def summary_rows(self) -> list[tuple[str, float, float, float, int, int]]:
        """(policy, availability, goodput, failover_s, retries, failed) rows."""
        availability = self.mean_availability()
        goodput = self.mean_goodput()
        failover = self.mean_failover_delay_s()
        retries = self.total_retries()
        failed = self.total_failed()
        return [
            (
                policy,
                availability[policy],
                goodput[policy],
                failover[policy],
                retries[policy],
                failed[policy],
            )
            for policy in self.policies
        ]


def run_fault_campaign(
    platform: Backend | str | None = None,
    *,
    policies: tuple[str, ...] = ("fifo", "sjf", "priority", "deadline"),
    seeds: tuple[int, ...] = (0, 1, 2),
    arrival_rate_per_s: float = 0.6,
    duration_s: float = 180.0,
    mtbf_s: float = 40.0,
    mttr_s: float | None = 15.0,
    num_clusters: int | None = None,
    mix: WorkloadMix = CHATBOT_MIX,
    slo_s: float | None = None,
    retry_policy: RetryPolicy | None = None,
    degraded_mode: DegradedModePolicy | None = None,
    platform_name: str | None = None,
    config: GPT2Config = GPT2_1_5B,
    num_devices: int | None = None,
    retain_records: bool = True,
) -> FaultCampaignResult:
    """Compare schedulers' failover quality across seeded fault campaigns.

    For each seed, one Poisson trace and one Poisson MTBF/MTTR
    :class:`~repro.serving.faults.FaultSchedule` are drawn (sharing the
    seed, so the whole campaign is reproducible bit for bit), and every
    policy serves the identical (trace, schedule) pair.  The default
    platform is the ``"dfx-4u"`` preset — the paper's 4U host with two DFX
    clusters, whose unit count flows from the backend's capabilities — so
    single-unit outages degrade rather than silence the appliance.

    ``slo_s`` tags every request with one response-time objective so the
    SLO-violation-rate-under-failures column is populated; ``retry_policy``
    defaults to three attempts with exponential backoff.
    """
    if not policies:
        raise ConfigurationError("a fault campaign needs at least one policy")
    if not seeds:
        raise ConfigurationError("a fault campaign needs at least one seed")
    if platform is None:
        platform = _serving_backend("dfx-4u", config, num_devices)
        platform_name = platform_name or "dfx-4u"
    elif isinstance(platform, str):
        # Resolve once so every policy and seed serves the identical backend.
        platform = _serving_backend(platform, config, num_devices)
    if retry_policy is None:
        retry_policy = RetryPolicy()

    scenarios = {}
    for seed in seeds:
        trace = poisson_trace(arrival_rate_per_s, duration_s, mix, seed=seed)
        if slo_s is not None:
            trace = with_service_levels(trace, slo_s=slo_s)
        faults = FaultSchedule.poisson(mtbf_s, mttr_s, duration_s, seed=seed)
        scenarios[seed] = (trace, faults)

    reports: dict[str, dict[int, ServingReport]] = {}
    for policy in policies:
        by_seed: dict[int, ServingReport] = {}
        for seed, (trace, faults) in scenarios.items():
            server = ApplianceServer(
                platform,
                num_clusters=num_clusters,
                platform_name=platform_name,
                scheduler=policy,
                faults=faults,
                retry_policy=retry_policy,
                degraded_mode=degraded_mode,
                retain_records=retain_records,
            )
            by_seed[seed] = server.serve(trace)
        reports[policy] = by_seed
    return FaultCampaignResult(
        policies=tuple(policies),
        seeds=tuple(seeds),
        mtbf_s=mtbf_s,
        mttr_s=mttr_s,
        reports=reports,
    )


# --------------------------------------------------- Serving (fleet topology)
@dataclass(frozen=True)
class FleetTopologyResult:
    """One trace served by a multi-rack fleet, with and without network cost.

    ``priced`` is the report under the real link parameters; ``baseline``
    is the identical fleet and trace under a zero-cost network (bit-identical
    to no network at all), so every difference between the two reports is
    the network's doing.
    """

    racks: int
    appliances_per_rack: int
    link: NetworkLink
    priced: ServingReport
    baseline: ServingReport

    @property
    def cross_rack_p99_s(self) -> float:
        """p99 response time of cross-rack-served requests under the network."""
        return self.priced.cross_rack_response_percentile_s(99.0)

    @property
    def baseline_cross_rack_p99_s(self) -> float:
        """Same members' p99 under the zero-cost network."""
        return self.baseline.cross_rack_response_percentile_s(99.0)

    @property
    def cross_rack_latency_tax_s(self) -> float:
        """How much the wire added to the cross-rack p99."""
        return self.cross_rack_p99_s - self.baseline_cross_rack_p99_s

    def summary_rows(self) -> list[tuple[str, float, float]]:
        """(metric, priced, zero-cost-baseline) rows for printing."""
        return [
            (
                "p99 response (s)",
                self.priced.response_time_percentile_s(99.0),
                self.baseline.response_time_percentile_s(99.0),
            ),
            (
                "cross-rack p99 (s)",
                self.cross_rack_p99_s,
                self.baseline_cross_rack_p99_s,
            ),
            (
                "mean transfer (s)",
                self.priced.mean_transfer_time_s,
                self.baseline.mean_transfer_time_s,
            ),
            (
                "cross-rack dispatch fraction",
                self.priced.cross_rack_dispatch_fraction,
                self.baseline.cross_rack_dispatch_fraction,
            ),
        ]


def run_fleet_topology_plan(
    *,
    racks: int = 2,
    appliances_per_rack: int = 2,
    backend: str | Backend = "dfx",
    config: GPT2Config = GPT2_1_5B,
    num_devices: int | None = None,
    arrival_rate_per_s: float = 0.8,
    duration_s: float = 180.0,
    mix: WorkloadMix = DATACENTER_MIX,
    seed: int = 7,
    scheduler: str = "fifo",
    link_latency_s: float = 0.05,
    link_bandwidth_bytes_per_s: float | None = 1.25e9,
    bytes_per_token: float = 4.0,
    retain_records: bool = True,
) -> FleetTopologyResult:
    """Serve one region's traffic on ``racks`` × ``appliances_per_rack``.

    Builds a star topology — requests arrive at ``rack0`` and every other
    rack hangs off it by one link with ``link_latency_s`` propagation delay
    and ``link_bandwidth_bytes_per_s`` payload bandwidth (``None`` = free
    serialization) — then serves the identical trace twice: once under
    those link parameters and once under a zero-cost network.  The result's
    ``cross_rack_latency_tax_s`` is the wire's contribution to the
    off-rack p99, the number a region planner trades against rack count.
    """
    if racks < 1:
        raise ConfigurationError("a topology plan needs at least one rack")
    if appliances_per_rack < 1:
        raise ConfigurationError("appliances_per_rack must be positive")
    if isinstance(backend, str):
        backend = _serving_backend(backend, config, num_devices)
    members = [
        FleetMember(f"rack{rack}-host{host}", backend)
        for rack in range(racks)
        for host in range(appliances_per_rack)
    ]
    placement = {
        f"rack{rack}": tuple(
            f"rack{rack}-host{host}" for host in range(appliances_per_rack)
        )
        for rack in range(racks)
    }
    link = NetworkLink(
        latency_s=link_latency_s,
        bandwidth_bytes_per_s=link_bandwidth_bytes_per_s,
    )
    trace = poisson_trace(arrival_rate_per_s, duration_s, mix, seed=seed)
    reports = {}
    for label, topology_link in (("priced", link), ("baseline", NetworkLink())):
        fleet = ApplianceFleet(
            members,
            scheduler=scheduler,
            network=NetworkModel.star(
                placement,
                ingress="rack0",
                link=topology_link,
                bytes_per_token=bytes_per_token,
            ),
            retain_records=retain_records,
        )
        reports[label] = fleet.serve(trace)
    return FleetTopologyResult(
        racks=racks,
        appliances_per_rack=appliances_per_rack,
        link=link,
        priced=reports["priced"],
        baseline=reports["baseline"],
    )


# ------------------------------------------------- Serving (batching tradeoff)
@dataclass(frozen=True)
class BatchingComparisonResult:
    """The paper's latency-vs-throughput tradeoff (Sec. III-A), played out.

    The same configurations serve two traces: a sparse Poisson trace
    (``low_load``, the latency-bound regime datacenters actually run text
    generation in) and a bursty high-rate trace (``high_load``, where the
    GPU only keeps up once batches form).  Labels map configuration name
    to its serving report.
    """

    low_load: dict[str, ServingReport]
    high_load: dict[str, ServingReport]
    percentile: float

    def low_load_tail_latency_s(self) -> dict[str, float]:
        """Tail response time per configuration on the low-load trace."""
        return {
            label: report.response_time_percentile_s(self.percentile)
            for label, report in self.low_load.items()
        }

    def high_load_tokens_per_second(self) -> dict[str, float]:
        """Sustained generated-token throughput on the bursty high-load trace."""
        return {
            label: report.output_tokens_per_second
            for label, report in self.high_load.items()
        }

    @property
    def dfx_wins_low_load_latency(self) -> bool:
        """Unbatched DFX beats every batched GPU config on low-load tail latency."""
        tails = self.low_load_tail_latency_s()
        return all(
            tails["dfx-unbatched"] < tail
            for label, tail in tails.items()
            if label.startswith("gpu")
        )

    @property
    def gpu_batching_throughput_gain(self) -> float:
        """Bursty-trace throughput of the dynamically batched GPU vs unbatched."""
        rates = self.high_load_tokens_per_second()
        if rates["gpu-unbatched"] <= 0:
            return float("inf")
        return rates["gpu-dynamic"] / rates["gpu-unbatched"]


def run_batching_comparison(
    config: GPT2Config = GPT2_1_5B,
    *,
    num_devices: int = 4,
    mix: WorkloadMix = CHATBOT_MIX,
    duration_s: float = 120.0,
    low_rate_per_s: float = 0.25,
    burst_rate_per_s: float = 4.0,
    idle_rate_per_s: float = 0.1,
    mean_burst_s: float = 10.0,
    mean_idle_s: float = 10.0,
    max_batch_size: int = 8,
    batch_timeout_s: float = 2.0,
    percentile: float = 99.0,
    seed: int = 13,
    dfx_backend: str | Backend = "dfx",
    gpu_backend: str | Backend = "gpu",
) -> BatchingComparisonResult:
    """Serve low-load Poisson and high-load bursty traces across batch regimes.

    Configurations: one DFX cluster unbatched (the paper's serving mode),
    and one GPU appliance unbatched, under size-or-timeout dynamic
    batching, and under the continuous-batching approximation.  The
    expected outcome is the paper's argument in numbers: DFX wins tail
    latency at low load (no batch to gather, faster per request), while
    the GPU fleet only reaches competitive throughput on the bursty trace
    once dynamic batching amortizes its kernel overhead.

    ``dfx_backend`` / ``gpu_backend`` name (or directly provide) the two
    backends, so the same study runs against e.g. the functional-sim
    runtime or a custom-registered platform; batch pricing flows through
    the backend-generic :class:`~repro.serving.BackendBatchCostModel`.
    """
    dfx = _serving_backend(dfx_backend, config, num_devices)
    gpu = _serving_backend(gpu_backend, config, num_devices)
    low_trace = poisson_trace(low_rate_per_s, duration_s, mix, seed=seed)
    high_trace = bursty_trace(
        burst_rate_per_s,
        idle_rate_per_s,
        duration_s,
        mean_burst_s=mean_burst_s,
        mean_idle_s=mean_idle_s,
        mix=mix,
        seed=seed,
    )
    servers = {
        "dfx-unbatched": ApplianceServer(dfx, 1, "dfx"),
        "gpu-unbatched": ApplianceServer(gpu, 1, "gpu"),
        "gpu-dynamic": ApplianceServer(
            gpu, 1, "gpu",
            batch_policy=DynamicBatching(max_batch_size, batch_timeout_s),
            max_batch_size=max_batch_size,
        ),
        "gpu-continuous": ApplianceServer(
            gpu, 1, "gpu",
            batch_policy=ContinuousBatching(max_batch_size),
            max_batch_size=max_batch_size,
        ),
    }
    return BatchingComparisonResult(
        low_load={label: server.serve(low_trace) for label, server in servers.items()},
        high_load={label: server.serve(high_trace) for label, server in servers.items()},
        percentile=percentile,
    )


# -------------------------------------------- Serving (batch capacity study)
@dataclass(frozen=True)
class BatchCapacitySweepResult:
    """Batch-aware capacity planning: max SLO-compliant rate per batch size.

    ``plans`` maps each swept ``max_batch_size`` to its
    :class:`~repro.serving.CapacityPlan` (batch size 1 is the unbatched
    baseline).  The sweep answers the operator's sizing question behind
    Sec. III-A: how much extra offered load does each step of batching buy
    while the tail still meets the SLO?
    """

    backend: str
    slo_s: float
    percentile: float
    batch_timeout_s: float
    plans: dict[int, CapacityPlan]

    def capacities_per_hour(self) -> dict[int, float]:
        """Max offered load (requests/hour) meeting the SLO, per batch size."""
        return {
            size: plan.max_requests_per_hour for size, plan in self.plans.items()
        }

    def best_batch_size(self) -> int:
        """The swept batch size sustaining the highest SLO-compliant rate.

        Ties break toward the smaller batch (less gather latency for the
        same capacity).
        """
        return min(
            self.plans,
            key=lambda size: (-self.plans[size].max_rate_per_s, size),
        )

    @property
    def batching_capacity_gain(self) -> float:
        """Capacity of the best batch size relative to the unbatched baseline.

        Uses the same winner as :meth:`best_batch_size`, so the two always
        tell one story: exactly 1.0 when unbatched serving wins the sweep.
        Requires batch size 1 in the sweep; infinite when the unbatched
        configuration cannot meet the SLO at any probed rate but a batched
        one can.
        """
        if 1 not in self.plans:
            raise ConfigurationError(
                "batching_capacity_gain needs batch size 1 in the sweep"
            )
        best = self.plans[self.best_batch_size()].max_rate_per_s
        baseline = self.plans[1].max_rate_per_s
        if baseline <= 0:
            return float("inf") if best > 0 else 0.0
        return best / baseline


def run_batch_capacity_sweep(
    backend: str | Backend = "gpu",
    *,
    config: GPT2Config = GPT2_1_5B,
    num_devices: int = 4,
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8),
    slo_s: float = 30.0,
    percentile: float = 95.0,
    batch_timeout_s: float = 1.0,
    num_clusters: int = 1,
    scheduler: str = "fifo",
    mix: WorkloadMix = CHATBOT_MIX,
    trace_duration_s: float = 120.0,
    seed: int = 7,
    rate_bounds: tuple[float, float] = (0.05, 32.0),
) -> BatchCapacitySweepResult:
    """Sweep ``max_batch_size`` against a tail SLO via capacity search.

    For each batch size the driver runs :func:`~repro.serving.capacity_search`
    on one appliance under size-or-timeout dynamic batching (size 1 is the
    unbatched baseline) on the same deterministic Poisson trace family,
    producing the batch-aware capacity plan the ROADMAP's serving studies
    call for.  ``backend`` is a registry name or a backend instance; it
    must support batching for sizes above 1.
    """
    if not batch_sizes:
        raise ConfigurationError("batch_sizes must be non-empty")
    if any(size < 1 for size in batch_sizes):
        raise ConfigurationError("batch sizes must be >= 1")
    resolved = _serving_backend(backend, config, num_devices)

    def trace_builder(rate: float):
        return poisson_trace(rate, trace_duration_s, mix, seed=seed)

    plans: dict[int, CapacityPlan] = {}
    for size in batch_sizes:
        batch_policy = (
            "none" if size == 1 else DynamicBatching(size, batch_timeout_s)
        )
        server = ApplianceServer(
            resolved,
            num_clusters,
            f"{resolved.name}-batch{size}",
            scheduler=scheduler,
            batch_policy=batch_policy,
            max_batch_size=size,
        )
        plans[size] = capacity_search(
            server, trace_builder, slo_s, percentile=percentile,
            rate_bounds=rate_bounds,
        )
    return BatchCapacitySweepResult(
        backend=resolved.name,
        slo_s=slo_s,
        percentile=percentile,
        batch_timeout_s=batch_timeout_s,
        plans=plans,
    )


# ------------------------------------------------------------------- Accuracy
def run_accuracy_comparison(
    config: GPT2Config = GPT2_TEST_SMALL, seed: int = 0
) -> list[AccuracyComparison]:
    """Sec. VII-A: GPU-pipeline vs DFX-pipeline accuracy on cloze datasets.

    Uses a reduced-size model so the three datasets evaluate in seconds; the
    numeric pathways (FP16, LUT vs tanh GELU) are identical to the full-size
    models'.
    """
    weights = generate_weights(config, seed=seed)
    gpu_model = GPT2Model(weights, numerics=FP16_GPU)
    dfx_model = GPT2Model(weights, numerics=FP16_DFX)
    comparisons = []
    for dataset in paper_datasets(config.vocab_size):
        comparisons.append(compare_pipelines(gpu_model, dfx_model, dataset))
    return comparisons


# ------------------------------------------------------------------------ DSE
@dataclass(frozen=True)
class Figure8DSEResult:
    """Fig. 8 re-expressed as a factorial slice of the DSE engine.

    ``exploration`` is the engine's full record; ``mha_gflops`` and
    ``mpu_luts`` re-key the objective values by (d, l) tile point, matching
    the legacy :class:`Figure8Result` vocabulary bit for bit.
    """

    exploration: "repro.dse.ExplorationResult"  # noqa: F821 - doc only

    @property
    def mha_gflops(self) -> dict[tuple[int, int], float]:
        return {
            entry.candidate["tile"]: entry.vector.value("mha_gflops")
            for entry in self.exploration.evaluated
        }

    @property
    def mpu_luts(self) -> dict[tuple[int, int], float]:
        return {
            entry.candidate["tile"]: entry.vector.value("mpu_lut")
            for entry in self.exploration.evaluated
        }

    def front_points(self) -> list[tuple[int, int]]:
        """The Pareto-optimal (d, l) tile shapes."""
        return [member.candidate["tile"] for member in self.exploration.front]


def run_figure8_dse(config: str = "1.5b", kv_length: int = 64) -> Figure8DSEResult:
    """Fig. 8 through the general DSE engine (factorial over tile shapes).

    Produces the exact numbers of :func:`run_figure8` — same
    ``multi_head_attention_gflops`` and ``estimate_core_resources`` calls —
    but as a two-objective Pareto exploration, so the paper's chosen
    (64, 16) point can be read off the front instead of a hand-rolled
    tolerance scan.
    """
    from repro.dse import TilingEvaluator, factorial_search, figure8_search_space

    space = figure8_search_space()
    evaluator = TilingEvaluator(config=config, kv_length=kv_length)
    return Figure8DSEResult(exploration=factorial_search(space, evaluator))


def run_design_space_exploration(
    *,
    mode: str = "evolutionary",
    config: str = "test-small",
    backends: tuple[str, ...] = ("dfx", "gpu"),
    schedulers: tuple[str, ...] = ("fifo", "sjf"),
    batch_sizes: tuple[int, ...] = (1, 32),
    devices: tuple[int, ...] | None = None,
    racks: tuple[int, ...] | None = None,
    population_size: int = 8,
    generations: int = 4,
    seed: int = 0,
    jobs: int = 1,
    results_dir: str | None = None,
    serving_duration_s: float | None = 30.0,
    arrival_rate_per_s: float = 0.5,
) -> "repro.dse.ExplorationResult":  # noqa: F821 - forward doc reference
    """The appliance-configuration DSE driver (ROADMAP open item 3).

    Explores backend x scheduler x batch (plus devices/racks when given)
    under the four-objective appliance evaluator and returns the engine's
    :class:`~repro.dse.ExplorationResult`.  ``mode`` picks the generator:
    ``"evolutionary"`` (seeded NSGA-II) or ``"factorial"`` (exhaustive).
    ``results_dir`` makes the run resumable; ``jobs`` parallelizes
    evaluation with bit-identical results to serial.
    """
    from repro.dse import (
        ApplianceEvaluator,
        appliance_search_space,
        evolutionary_search,
        factorial_search,
    )

    space = appliance_search_space(
        backends=backends,
        schedulers=schedulers,
        batch_sizes=batch_sizes,
        devices=devices,
        racks=racks,
    )
    evaluator = ApplianceEvaluator(
        config=config,
        serving_duration_s=serving_duration_s,
        arrival_rate_per_s=arrival_rate_per_s,
        seed=seed,
    )
    if mode == "factorial":
        return factorial_search(space, evaluator, jobs=jobs, results_dir=results_dir)
    if mode == "evolutionary":
        return evolutionary_search(
            space,
            evaluator,
            population_size=population_size,
            generations=generations,
            seed=seed,
            jobs=jobs,
            results_dir=results_dir,
        )
    raise ConfigurationError(
        f"unknown DSE mode {mode!r}; expected 'evolutionary' or 'factorial'"
    )
