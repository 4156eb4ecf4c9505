"""Energy-efficiency analysis (paper Fig. 16, right panel)."""

from __future__ import annotations

from repro.analysis.metrics import ComparisonRow


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

