"""Experiment drivers: one function per paper table/figure.

Each driver builds the relevant platform models, runs the paper's workloads,
and returns a structured result object.  The benchmark modules under
``benchmarks/`` and the examples call these drivers and print the same
rows/series the paper reports; ``scripts/run_all_experiments.py`` prints the
paper-vs-measured report for every driver.

The serving studies (the datacenter case of Sec. III-A and Sec. VI) take a
:class:`~repro.serving.ServingScenario` — one declared serving run — and
vary it along their own axis with :func:`dataclasses.replace`: scheduling
policy, fleet composition, fault seed, link cost, batch regime or batch
size.  The scenario builds every fleet, rack star and synthetic trace, so
a new study is a base scenario, a loop of ``replace`` calls, and a result
class.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from repro.backends import make_backend
from repro.baselines.gpu import GPUAppliance
from repro.errors import ConfigurationError, check_number
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
from repro.serving import (
    CHATBOT_MIX,
    CapacityPlan,
    ContinuousBatching,
    DynamicBatching,
    FaultSchedule,
    FleetMember,
    NetworkLink,
    ServingReport,
    ServingScenario,
    WorkloadMix,
    bursty_trace,
    capacity_search,
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
@dataclass(frozen=True)
class SchedulerComparisonResult:
    """One trace served under several scheduling policies on one appliance."""

    reports: dict[str, ServingReport]  # policy name -> report


def run_scheduler_comparison(
    scenario: ServingScenario,
    policies: tuple[str, ...] = ("fifo", "sjf", "priority", "deadline"),
) -> SchedulerComparisonResult:
    """Serve one scenario under each scheduling policy.

    Every policy serves the identical trace (the scenario's ``requests``,
    or its seeded synthetic arrivals); ``streaming=True`` streams every
    policy's report (flat memory on long traces).
    """
    return SchedulerComparisonResult(
        reports={
            policy: replace(scenario, scheduler=policy).run() for policy in policies
        }
    )


def run_serving_capacity(
    scenario: ServingScenario,
    *,
    config: GPT2Config = GPT2_1_5B,
    num_devices: int = 4,
    slo_s: float = 8.0,
    percentile: float = 95.0,
) -> dict[str, CapacityPlan]:
    """How much offered load each appliance configuration sustains under an SLO.

    Compares the GPU appliance, one DFX cluster, the full 4U host (two DFX
    clusters), and the heterogeneous fleet (both DFX clusters plus the GPU
    appliance behind one queue) — the capacity numbers the datacenter
    operator actually provisions by.  Each configuration replaces the
    scenario's members, and ``capacity_search`` probes the scenario's trace
    at each offered rate; returns configuration label -> plan.

    The search reads only each probed report's tail percentile and
    abandonment rate, so ``streaming=True`` keeps every probe's memory
    flat (percentiles then come from quantile sketches, within their
    rank-error bound of the exact search).
    """
    dfx = make_backend("dfx", config=config, devices=num_devices)
    gpu = make_backend("gpu", config=config, devices=num_devices)
    configurations = {
        "gpu-x1": (FleetMember("gpu", gpu, 1),),
        "dfx-x1": (FleetMember("dfx", dfx, 1),),
        "dfx-x2": (FleetMember("dfx-x2", dfx, 2),),
        "dfx-x2+gpu": (FleetMember("dfx", dfx, 2), FleetMember("gpu", gpu, 1)),
    }
    return {
        label: _capacity_plan(
            replace(scenario, members=members), slo_s, percentile=percentile
        )
        for label, members in configurations.items()
    }


def _capacity_plan(scenario: ServingScenario, slo_s: float, **search) -> CapacityPlan:
    """``capacity_search`` over the scenario's trace family, varying its rate."""
    return capacity_search(
        scenario.front_end(),
        lambda rate: replace(scenario, rate_per_s=rate).trace(),
        slo_s,
        **search,
    )


# --------------------------------------------------- Serving (fault campaigns)
@dataclass(frozen=True)
class FaultCampaignResult:
    """Schedulers compared across seeded fault campaigns on one appliance.

    ``reports[policy][seed]`` is the serving report of one policy under one
    seeded (trace, fault-schedule) pair; every policy sees the identical
    pairs, so differences are pure failover quality.  The aggregate methods
    average over seeds.
    """

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

    def summary_rows(self) -> list[tuple[str, float, float, float, int, int]]:
        """(policy, availability, goodput, failover_s, retries, failed) rows."""
        availability = self.mean_availability()
        goodput = self.mean_goodput()
        failover = self._mean_over_seeds(lambda r: r.mean_failover_delay_s)
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
            for policy in self.reports
        ]


def run_fault_campaign(
    scenario: ServingScenario,
    *,
    mtbf_s: float = 40.0,
    mttr_s: float | None = 15.0,
    policies: tuple[str, ...] = ("fifo", "sjf", "priority", "deadline"),
    seeds: tuple[int, ...] = (0, 1, 2),
) -> FaultCampaignResult:
    """Compare schedulers' failover quality across seeded fault campaigns.

    For each seed, the scenario's trace and one Poisson MTBF/MTTR
    :class:`~repro.serving.faults.FaultSchedule` over its duration are
    drawn with that seed (so the whole campaign is reproducible bit for
    bit), and every policy serves the identical (trace, schedule) pair.
    Serve the paper's 4U host (the ``"dfx-4u"`` preset, two DFX clusters)
    so single-unit outages degrade rather than silence the appliance.  The
    scenario's ``slo_s`` gives every report an SLO-violation rate under
    failures, and its ``retry_policy`` handles killed requests.
    """
    if not policies:
        raise ConfigurationError("a fault campaign needs at least one policy")
    if not seeds:
        raise ConfigurationError("a fault campaign needs at least one seed")
    campaigns = [
        replace(
            scenario,
            seed=seed,
            faults=FaultSchedule.poisson(mtbf_s, mttr_s, scenario.duration_s, seed=seed),
        )
        for seed in seeds
    ]
    return FaultCampaignResult(
        reports={
            policy: {
                campaign.seed: replace(campaign, scheduler=policy).run()
                for campaign in campaigns
            }
            for policy in policies
        }
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

    priced: ServingReport
    baseline: ServingReport

    @property
    def cross_rack_latency_tax_s(self) -> float:
        """How much the wire added to the cross-rack p99."""
        return self.priced.cross_rack_response_percentile_s(
            99.0
        ) - self.baseline.cross_rack_response_percentile_s(99.0)

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
                self.priced.cross_rack_response_percentile_s(99.0),
                self.baseline.cross_rack_response_percentile_s(99.0),
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


def run_fleet_topology_plan(scenario: ServingScenario) -> FleetTopologyResult:
    """Serve one region's traffic on the scenario's racks, priced and free.

    Serves the scenario as declared — ``racks`` copies of its members on a
    star behind ``rack0``, each off-ingress rack paying ``link`` — and
    again under a zero-cost link.  The result's
    ``cross_rack_latency_tax_s`` is the wire's contribution to the
    off-rack p99, the number a region planner trades against rack count.
    """
    return FleetTopologyResult(
        priced=scenario.run(),
        baseline=replace(scenario, link=NetworkLink()).run(),
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
) -> BatchingComparisonResult:
    """Serve low-load Poisson and high-load bursty traces across batch regimes.

    Configurations: one DFX cluster unbatched (the paper's serving mode),
    and one GPU appliance unbatched, under size-or-timeout dynamic
    batching, and under the continuous-batching approximation.  The
    expected outcome is the paper's argument in numbers: DFX wins tail
    latency at low load (no batch to gather, faster per request), while
    the GPU fleet only reaches competitive throughput on the bursty trace
    once dynamic batching amortizes its kernel overhead.  Batch pricing
    flows through the backend-generic
    :class:`~repro.serving.BackendBatchCostModel`.
    """
    dfx = FleetMember("dfx", make_backend("dfx", config=config, devices=num_devices), 1)
    gpu = FleetMember("gpu", make_backend("gpu", config=config, devices=num_devices), 1)
    batched_gpu = replace(gpu, max_batch_size=max_batch_size)
    low_load = ServingScenario(
        rate_per_s=low_rate_per_s, duration_s=duration_s, mix=mix, seed=seed
    )
    configurations = {
        "dfx-unbatched": replace(low_load, members=(dfx,)),
        "gpu-unbatched": replace(low_load, members=(gpu,)),
        "gpu-dynamic": replace(
            low_load,
            members=(batched_gpu,),
            batch_policy=DynamicBatching(max_batch_size, batch_timeout_s),
        ),
        "gpu-continuous": replace(
            low_load,
            members=(batched_gpu,),
            batch_policy=ContinuousBatching(max_batch_size),
        ),
    }
    high_trace = bursty_trace(
        burst_rate_per_s,
        idle_rate_per_s,
        duration_s,
        mean_burst_s=mean_burst_s,
        mean_idle_s=mean_idle_s,
        mix=mix,
        seed=seed,
    )
    return BatchingComparisonResult(
        low_load={label: s.run() for label, s in configurations.items()},
        high_load={
            label: replace(s, requests=high_trace).run()
            for label, s in configurations.items()
        },
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

    plans: dict[int, CapacityPlan]

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
    scenario: ServingScenario,
    *,
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8),
    slo_s: float = 30.0,
    percentile: float = 95.0,
    batch_timeout_s: float = 1.0,
    rate_bounds: tuple[float, float] = (0.05, 32.0),
) -> BatchCapacitySweepResult:
    """Sweep ``max_batch_size`` against a tail SLO via capacity search.

    For each batch size, every scenario member ``m`` becomes
    ``m-batch{size}`` at that capacity under size-or-timeout dynamic
    batching (size 1 is the unbatched baseline), and
    :func:`~repro.serving.capacity_search` probes the scenario's trace
    family — the batch-aware capacity plan the ROADMAP's serving studies
    call for.  The members' backends must support batching for sizes
    above 1.
    """
    if not batch_sizes:
        raise ConfigurationError("batch_sizes must be non-empty")
    for size in batch_sizes:
        check_number("batch_sizes", size, 1, integer=True)
    plans: dict[int, CapacityPlan] = {}
    for size in batch_sizes:
        sized = replace(
            scenario,
            members=tuple(
                replace(member, name=f"{member.name}-batch{size}", max_batch_size=size)
                for member in scenario.members
            ),
            batch_policy="none" if size == 1 else DynamicBatching(size, batch_timeout_s),
        )
        plans[size] = _capacity_plan(
            sized, slo_s, percentile=percentile, rate_bounds=rate_bounds
        )
    return BatchCapacitySweepResult(plans=plans)


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
