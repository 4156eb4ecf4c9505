"""Tests for the analysis layer: metrics, breakdowns, energy, cost, reports."""

import pytest

from repro.analysis.breakdown import aggregate_breakdown, dfx_breakdown, gpu_breakdown
from repro.analysis.cost import cost_comparison
from repro.analysis.energy import average_energy_efficiency_gain, energy_efficiency_rows
from repro.analysis.metrics import (
    ComparisonRow,
    average_latency_ms,
    average_speedup,
    average_throughput_ratio,
    pair_results,
    stage_gflops,
)
from repro.analysis.reports import format_fractions, format_table
from repro.errors import ConfigurationError
from repro.results import InferenceResult, PHASE_FFN, PHASE_SELF_ATTENTION, PHASE_SYNC, StageLatency
from repro.workloads import Workload


def _result(platform, latency_ms, workload=Workload(64, 64), power=180.0):
    return InferenceResult(
        platform=platform,
        model_name="gpt2-1.5b",
        workload=workload,
        num_devices=4,
        summarization=StageLatency(latency_ms * 0.2, {PHASE_SELF_ATTENTION: latency_ms * 0.1,
                                                      PHASE_FFN: latency_ms * 0.1}),
        generation=StageLatency(latency_ms * 0.8, {PHASE_SELF_ATTENTION: latency_ms * 0.4,
                                                   PHASE_FFN: latency_ms * 0.3,
                                                   PHASE_SYNC: latency_ms * 0.1}),
        total_power_watts=power,
        flops=1e12,
    )


class TestComparisonRows:
    def test_speedup_and_ratios(self):
        row = ComparisonRow(Workload(64, 64), _result("gpu", 1000.0, power=190.0),
                            _result("dfx", 250.0, power=180.0))
        assert row.speedup == pytest.approx(4.0)

    def test_pair_results_validates_alignment(self):
        gpu = [_result("gpu", 100.0, Workload(32, 1))]
        dfx = [_result("dfx", 50.0, Workload(32, 4))]
        with pytest.raises(ConfigurationError):
            pair_results(gpu, dfx)
        with pytest.raises(ConfigurationError):
            pair_results(gpu, [])

    def test_average_speedup_is_ratio_of_average_latencies(self):
        workloads = [Workload(32, 1), Workload(32, 256)]
        gpu = [_result("gpu", 100.0, workloads[0]), _result("gpu", 10_000.0, workloads[1])]
        dfx = [_result("dfx", 200.0, workloads[0]), _result("dfx", 2_000.0, workloads[1])]
        rows = pair_results(gpu, dfx)
        expected = (100.0 + 10_000.0) / (200.0 + 2_000.0)
        assert average_speedup(rows) == pytest.approx(expected)

    def test_average_latency_and_throughput(self):
        results = [_result("dfx", 100.0), _result("dfx", 300.0)]
        assert average_latency_ms(results) == pytest.approx(200.0)
        rows = pair_results([_result("gpu", 400.0), _result("gpu", 400.0)], results)
        assert average_throughput_ratio(rows) > 1.0

    def test_empty_inputs(self):
        assert average_speedup([]) == 0.0
        assert average_latency_ms([]) == 0.0

    def test_stage_gflops(self):
        gflops = stage_gflops(_result("dfx", 400.0))
        assert gflops.platform == "dfx"
        assert gflops.total_gflops > 0


class TestBreakdownAggregation:
    def test_fractions_normalized_over_selected_phases(self):
        report = dfx_breakdown([_result("dfx", 100.0)])
        assert sum(report.fractions.values()) == pytest.approx(1.0)
        assert max(report.fractions, key=report.fractions.get) == PHASE_SELF_ATTENTION

    def test_gpu_breakdown_excludes_sync(self):
        report = gpu_breakdown([_result("gpu", 100.0)])
        assert PHASE_SYNC not in report.fractions

    def test_aggregate_over_multiple_results(self):
        report = aggregate_breakdown([_result("dfx", 100.0), _result("dfx", 300.0)])
        assert sum(report.fractions.values()) == pytest.approx(1.0)

    def test_empty_results(self):
        assert aggregate_breakdown([]).fractions == {}


class TestEnergyAndCost:
    def test_normalized_energy_efficiency(self):
        rows = pair_results([_result("gpu", 1000.0, power=190.0)],
                            [_result("dfx", 250.0, power=180.0)])
        energy_rows = energy_efficiency_rows(rows)
        assert energy_rows[0].normalized_dfx > 1.0
        assert average_energy_efficiency_gain(rows) == pytest.approx(
            energy_rows[0].normalized_dfx
        )

    def test_cost_comparison_table2_structure(self):
        comparison = cost_comparison(_result("gpu", 4921.0), _result("dfx", 880.0))
        assert comparison.upfront_saving_usd == pytest.approx(14_652, rel=0.001)
        assert comparison.cost_effectiveness_gain > 1.0
        assert comparison.dfx.tokens_per_second_per_million_usd > (
            comparison.gpu.tokens_per_second_per_million_usd
        )


class TestReports:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.0], ["long-name", 12.345]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "long-name" in lines[3]
        assert "12.35" in lines[3]

    def test_format_fractions_sorted_descending(self):
        text = format_fractions({"a": 0.1, "b": 0.9})
        assert text.index("b") < text.index("a")
        assert "90.0%" in text
