"""Cross-platform metrics: speedups, throughput, achieved GFLOP/s.

These helpers consume :class:`~repro.results.InferenceResult` objects from any
platform model (DFX simulator, GPU appliance, TPU) and compute the derived
quantities the paper reports: per-workload speedup, average speedup over a
grid (Fig. 14), throughput in tokens/s (Fig. 16), and stage-level GFLOP/s
(Fig. 17).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.results import InferenceResult
from repro.workloads import Workload


@dataclass(frozen=True)
class ComparisonRow:
    """One workload's baseline-vs-DFX comparison (a column of Fig. 14/16)."""

    workload: Workload
    baseline: InferenceResult
    dfx: InferenceResult

    @property
    def speedup(self) -> float:
        """Baseline latency divided by DFX latency (>1 means DFX is faster)."""
        if self.dfx.latency_ms == 0:
            return math.inf
        return self.baseline.latency_ms / self.dfx.latency_ms


def pair_results(
    baseline_results: list[InferenceResult], dfx_results: list[InferenceResult]
) -> list[ComparisonRow]:
    """Pair baseline and DFX results by workload (order-preserving)."""
    if len(baseline_results) != len(dfx_results):
        raise ConfigurationError("result lists must have equal length")
    rows = []
    for baseline, dfx in zip(baseline_results, dfx_results):
        if baseline.workload != dfx.workload:
            raise ConfigurationError(
                f"workload mismatch: {baseline.workload.label} vs {dfx.workload.label}"
            )
        rows.append(ComparisonRow(workload=baseline.workload, baseline=baseline, dfx=dfx))
    return rows


def average_latency_ms(results: list[InferenceResult]) -> float:
    """Arithmetic-mean latency over a set of results (the paper's "Average" bar)."""
    if not results:
        return 0.0
    return sum(result.latency_ms for result in results) / len(results)


def average_speedup(rows: list[ComparisonRow]) -> float:
    """Average-latency ratio over a workload grid (how Fig. 14 reports speedup).

    The paper's headline numbers (3.20x / 4.46x / 5.58x) are the ratio of the
    *average* latencies across the 15-workload grid, not the mean of the
    per-workload ratios.
    """
    if not rows:
        return 0.0
    baseline_avg = average_latency_ms([row.baseline for row in rows])
    dfx_avg = average_latency_ms([row.dfx for row in rows])
    if dfx_avg == 0:
        return math.inf
    return baseline_avg / dfx_avg


def average_throughput_tokens_per_second(results: list[InferenceResult]) -> float:
    """Mean tokens/s over a set of results (Fig. 16 left panel, "Average")."""
    if not results:
        return 0.0
    return sum(result.tokens_per_second for result in results) / len(results)


def average_throughput_ratio(rows: list[ComparisonRow]) -> float:
    """Ratio of average throughputs across a grid (paper: 3.78x on the 1.5B model)."""
    baseline = average_throughput_tokens_per_second([row.baseline for row in rows])
    dfx = average_throughput_tokens_per_second([row.dfx for row in rows])
    if baseline == 0:
        return math.inf
    return dfx / baseline


@dataclass(frozen=True)
class StageGflops:
    """Achieved GFLOP/s of one platform split by stage (a Fig. 17 group)."""

    platform: str
    summarization_gflops: float
    generation_gflops: float
    total_gflops: float


def stage_gflops(result: InferenceResult) -> StageGflops:
    """Compute the Fig. 17 quantities for one result.

    Each platform model counts about 2 FLOPs per weight per token: ~0.71
    GFLOP per token on the 345M model.  The DFX model's 1-FPGA 64:64
    latency matches Fig. 18 within 3%, so its GFLOP/s falling 29-31% short
    of Fig. 17 comes from how FLOPs are counted, not from latency: the
    paper's 184 GFLOP/s at Fig. 18's 93 tok/s implies ~0.99 GFLOP per token.
    The paper scorecard reports these gaps and bounds only the figure's
    shape.
    """
    return StageGflops(
        platform=result.platform,
        summarization_gflops=result.summarization_gflops,
        generation_gflops=result.generation_gflops,
        total_gflops=result.gflops,
    )
