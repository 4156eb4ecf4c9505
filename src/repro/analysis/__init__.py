"""Analysis layer: metrics, breakdowns, energy, cost, report formatting, and
per-figure experiment drivers."""

from repro.analysis.metrics import (
    ComparisonRow,
    StageGflops,
    average_latency_ms,
    average_speedup,
    average_throughput_ratio,
    average_throughput_tokens_per_second,
    pair_results,
    stage_gflops,
)
from repro.analysis.breakdown import (
    BreakdownReport,
    aggregate_breakdown,
    dfx_breakdown,
    gpu_breakdown,
)
from repro.analysis.energy import average_energy_efficiency_gain
from repro.analysis.cost import CostAnalysisRow, CostComparison, cost_comparison
from repro.analysis.reports import format_fractions, format_table
from repro.analysis.workload_presets import (
    EvaluationSetup,
    PAPER_EVALUATION_SETUPS,
    PRIMARY_SETUP,
    SCALABILITY_SETUP,
)
from repro.analysis import experiments
from repro.analysis.experiments import (
    BatchCapacitySweepResult,
    BatchingComparisonResult,
    SchedulerComparisonResult,
    run_batch_capacity_sweep,
    run_batching_comparison,
    run_design_space_exploration,
    run_scheduler_comparison,
    run_serving_capacity,
)

__all__ = [
    "ComparisonRow",
    "StageGflops",
    "average_latency_ms",
    "average_speedup",
    "average_throughput_ratio",
    "average_throughput_tokens_per_second",
    "pair_results",
    "stage_gflops",
    "BreakdownReport",
    "aggregate_breakdown",
    "dfx_breakdown",
    "gpu_breakdown",
    "average_energy_efficiency_gain",
    "CostAnalysisRow",
    "CostComparison",
    "cost_comparison",
    "format_fractions",
    "format_table",
    "EvaluationSetup",
    "PAPER_EVALUATION_SETUPS",
    "PRIMARY_SETUP",
    "SCALABILITY_SETUP",
    "experiments",
    "BatchCapacitySweepResult",
    "BatchingComparisonResult",
    "SchedulerComparisonResult",
    "run_design_space_exploration",
    "run_batch_capacity_sweep",
    "run_batching_comparison",
    "run_scheduler_comparison",
    "run_serving_capacity",
]
