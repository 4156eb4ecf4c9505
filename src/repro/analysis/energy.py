"""Energy-efficiency analysis (paper Fig. 16, right panel)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import ComparisonRow


@dataclass(frozen=True)
class EnergyEfficiencyRow:
    """Energy efficiency of both platforms on one workload.

    The paper normalizes energy efficiency to the GPU appliance (1.0 by
    construction), so :attr:`normalized_dfx` is the improvement factor.
    """

    workload_label: str
    gpu_tokens_per_joule: float
    dfx_tokens_per_joule: float

    @property
    def normalized_dfx(self) -> float:
        """DFX energy efficiency normalized to the GPU appliance."""
        if self.gpu_tokens_per_joule == 0:
            return float("inf")
        return self.dfx_tokens_per_joule / self.gpu_tokens_per_joule


def energy_efficiency_rows(rows: list[ComparisonRow]) -> list[EnergyEfficiencyRow]:
    """Per-workload normalized energy efficiency (Fig. 16 right panel)."""
    return [
        EnergyEfficiencyRow(
            workload_label=row.workload.label,
            gpu_tokens_per_joule=row.baseline.tokens_per_joule,
            dfx_tokens_per_joule=row.dfx.tokens_per_joule,
        )
        for row in rows
    ]


def average_energy_efficiency_gain(rows: list[ComparisonRow]) -> float:
    """Ratio of average energy efficiencies over the grid (paper: 3.99x).

    Computed as the ratio of average tokens-per-joule, matching how the paper
    derives its 3.99x from the average throughput and the measured powers.
    """
    if not rows:
        return 0.0
    gpu_average = sum(row.baseline.tokens_per_joule for row in rows) / len(rows)
    dfx_average = sum(row.dfx.tokens_per_joule for row in rows) / len(rows)
    if gpu_average == 0:
        return float("inf")
    return dfx_average / gpu_average

