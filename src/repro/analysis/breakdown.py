"""Latency-breakdown aggregation (paper Fig. 4 and Fig. 15)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.results import (
    DFX_BREAKDOWN_PHASES,
    GPU_BREAKDOWN_PHASES,
    InferenceResult,
)


@dataclass(frozen=True)
class BreakdownReport:
    """Per-phase latency shares for one or more aggregated results."""

    platform: str
    fractions: dict[str, float]

    def fraction(self, phase: str) -> float:
        """Share of the given phase (0 when absent)."""
        return self.fractions.get(phase, 0.0)


def aggregate_breakdown(
    results: list[InferenceResult], phases: tuple[str, ...] | None = None
) -> BreakdownReport:
    """Aggregate per-phase latency over several results and normalize.

    Phases not in ``phases`` (e.g. embedding/LM-head when reproducing the
    per-layer breakdowns) are folded out before normalizing, mirroring how the
    paper's figures report only the decoder-layer phases.
    """
    totals: dict[str, float] = {}
    platform = results[0].platform if results else "unknown"
    for result in results:
        for phase, value in result.breakdown_ms.items():
            totals[phase] = totals.get(phase, 0.0) + value
    if phases is not None:
        totals = {phase: totals.get(phase, 0.0) for phase in phases}
    accounted = sum(totals.values())
    if accounted <= 0:
        return BreakdownReport(platform=platform, fractions={})
    return BreakdownReport(
        platform=platform,
        fractions={phase: value / accounted for phase, value in totals.items()},
    )


def dfx_breakdown(results: list[InferenceResult]) -> BreakdownReport:
    """Fig. 15: DFX latency shares over the five decoder-layer phases."""
    return aggregate_breakdown(results, DFX_BREAKDOWN_PHASES)


def gpu_breakdown(results: list[InferenceResult]) -> BreakdownReport:
    """Fig. 4 (left bar): GPU latency shares over the four decoder-layer phases."""
    return aggregate_breakdown(results, GPU_BREAKDOWN_PHASES)
