"""Tests for the per-figure experiment drivers (shape checks, not full runs).

The full-grid drivers are scored against the paper by
:mod:`repro.analysis.scorecard` (``tests/test_scorecard.py`` and
``scripts/run_all_experiments.py``); here we verify their structure and the
paper-shape properties on reduced workload sets so the test suite stays fast.
"""

import pytest

from repro.analysis import experiments
from repro.analysis.workload_presets import (
    EvaluationSetup,
    PAPER_EVALUATION_SETUPS,
    PRIMARY_SETUP,
    SCALABILITY_SETUP,
)
from repro.backends import make_backend
from repro.errors import ConfigurationError
from repro.model.config import GPT2_345M, GPT2_TEST_TINY
from repro.results import PHASE_FFN, PHASE_LAYERNORM, PHASE_RESIDUAL, PHASE_SELF_ATTENTION, PHASE_SYNC
from repro.serving import DATACENTER_MIX, FleetMember, ServingScenario
from repro.workloads import Workload


class TestPresets:
    def test_paper_setups(self):
        assert len(PAPER_EVALUATION_SETUPS) == 3
        assert [setup.num_devices for setup in PAPER_EVALUATION_SETUPS] == [1, 2, 4]
        assert PRIMARY_SETUP.config.name == "gpt2-1.5b"
        assert SCALABILITY_SETUP.config is GPT2_345M

    def test_setup_label(self):
        assert EvaluationSetup(GPT2_345M, 1).label == "345M, 1 GPU vs 1 FPGA"
        assert "4 GPUs vs 4 FPGAs" in PRIMARY_SETUP.label


class TestMotivationDrivers:
    def test_figure3_marginal_costs(self):
        result = experiments.run_figure3()
        assert len(result.workloads) == 7
        # Paper: ~75 ms per extra output token, ~0.02 ms per extra input token.
        assert result.marginal_output_token_ms > 100 * result.marginal_input_token_ms

    def test_figure4_breakdowns(self):
        result = experiments.run_figure4()
        assert set(result.latency_fractions) == {
            PHASE_LAYERNORM, PHASE_SELF_ATTENTION, PHASE_RESIDUAL, PHASE_FFN,
        }
        assert result.operation_fractions[PHASE_FFN] > result.operation_fractions[PHASE_LAYERNORM]
        assert sum(result.latency_fractions.values()) == pytest.approx(1.0)


class TestDesignSpaceAndResources:
    def test_figure8_selects_64_16(self):
        result = experiments.run_figure8()
        assert (64, 16) in result.best_performing_points()
        assert result.cheapest_best_point() == (64, 16)

    def test_figure13_report(self):
        report = experiments.run_figure13()
        assert report.total.fits(report.spec.resources)
        assert report.utilization()["total"]["dsp"] < 0.5


class TestEvaluationDrivers:
    def test_figure14_reduced_grid(self):
        setups = (EvaluationSetup(GPT2_345M, 1),)
        workloads = (Workload(32, 1), Workload(32, 16))
        result = experiments.run_figure14(setups=setups, workloads=workloads)
        assert len(result.columns) == 1
        column = result.columns[0]
        assert len(column.rows) == 2
        assert column.average_speedup > 1.0
        assert "gpt2-345m" in result.speedups()

    def test_figure15_breakdown_phases(self):
        report = experiments.run_figure15(workload=Workload(32, 8))
        assert set(report.fractions) == {
            PHASE_SELF_ATTENTION, PHASE_FFN, PHASE_SYNC, PHASE_LAYERNORM, PHASE_RESIDUAL,
        }
        assert sum(report.fractions.values()) == pytest.approx(1.0)

    def test_figure16_gains(self):
        result = experiments.run_figure16(workloads=(Workload(32, 16), Workload(64, 16)))
        assert result.throughput_gain > 1.0
        assert result.energy_efficiency_gain > 1.0

    def test_figure17_platform_contrast(self):
        result = experiments.run_figure17(workload=Workload(32, 16))
        # GPU/TPU collapse in the generation stage; DFX does not.
        assert result.gpu.summarization_gflops > 5 * result.gpu.generation_gflops
        assert result.tpu.summarization_gflops > 5 * result.tpu.generation_gflops
        assert result.dfx.generation_gflops == pytest.approx(
            result.dfx.summarization_gflops, rel=0.2
        )
        assert result.dfx.generation_gflops > result.gpu.generation_gflops

    def test_figure18_scaling(self):
        result = experiments.run_figure18(workload=Workload(32, 16), device_counts=(1, 2))
        assert result.tokens_per_second[1] > result.tokens_per_second[0]
        factors = result.scaling_factors()
        assert len(factors) == 1
        assert 1.0 < factors[0] < 2.0


class TestBatchingComparison:
    """The paper's Sec. III-A tradeoff must play out on the tiny config."""

    @pytest.fixture(scope="class")
    def result(self):
        return experiments.run_batching_comparison(
            GPT2_TEST_TINY,
            num_devices=1,
            duration_s=60.0,
            low_rate_per_s=0.5,
            burst_rate_per_s=20.0,
            idle_rate_per_s=0.5,
            mean_burst_s=6.0,
            mean_idle_s=6.0,
            batch_timeout_s=1.0,
        )

    def test_configurations_and_policies(self, result):
        labels = {"dfx-unbatched", "gpu-unbatched", "gpu-dynamic", "gpu-continuous"}
        assert set(result.low_load) == labels
        assert set(result.high_load) == labels
        assert result.low_load["dfx-unbatched"].batch_policy == "none"
        assert result.high_load["gpu-dynamic"].batch_policy == "dynamic"
        assert result.high_load["gpu-continuous"].batch_policy == "continuous"

    def test_dfx_wins_unbatched_tail_latency_at_low_load(self, result):
        tails = result.low_load_tail_latency_s()
        assert tails["dfx-unbatched"] < tails["gpu-unbatched"]
        assert tails["dfx-unbatched"] < tails["gpu-dynamic"]
        assert tails["dfx-unbatched"] < tails["gpu-continuous"]

    def test_dynamic_batching_raises_gpu_throughput_under_bursty_load(self, result):
        rates = result.high_load_tokens_per_second()
        assert result.gpu_batching_throughput_gain > 1.2
        assert rates["gpu-dynamic"] > rates["gpu-unbatched"]
        # Batches actually formed on the bursty trace...
        assert result.high_load["gpu-dynamic"].mean_batch_size > 1.5
        # ...and the latency price was paid in gather delay.
        assert (
            result.high_load["gpu-dynamic"].mean_batch_gather_delay_s
            > result.low_load["dfx-unbatched"].mean_batch_gather_delay_s
        )

    def test_every_report_conserves_requests(self, result):
        for reports in (result.low_load, result.high_load):
            offered = {report.num_offered for report in reports.values()}
            assert len(offered) == 1  # same trace across configurations


class TestBatchCapacitySweep:
    """Batch-aware capacity planning sweeps max_batch_size against a tail SLO."""

    @pytest.fixture(scope="class")
    def sweep(self):
        gpu = make_backend("gpu", config=GPT2_TEST_TINY, devices=1)
        return experiments.run_batch_capacity_sweep(
            ServingScenario(
                members=(FleetMember("gpu", gpu, 1),), duration_s=40.0, seed=7
            ),
            batch_sizes=(1, 4),
            slo_s=2.0,
            batch_timeout_s=0.25,
            rate_bounds=(0.1, 16.0),
        )

    def test_one_plan_per_batch_size(self, sweep):
        assert set(sweep.plans) == {1, 4}
        assert sweep.plans[4].platform == "gpu-batch4"
        assert sweep.plans[1].max_rate_per_s > 0

    def test_batching_extends_slo_capacity(self, sweep):
        # The GPU's fixed kernel overhead dominates the tiny config, so
        # batch-4 dynamic batching must sustain a higher SLO-compliant
        # offered rate than unbatched serving.
        assert sweep.plans[4].max_rate_per_s > sweep.plans[1].max_rate_per_s
        assert sweep.batching_capacity_gain > 1.0
        assert sweep.best_batch_size() == 4

    def test_plans_record_the_batched_configuration(self, sweep):
        report = sweep.plans[4].report_at_capacity
        assert report is not None
        assert report.batch_policy == "dynamic"
        assert report.mean_batch_size > 1.0
        unbatched = sweep.plans[1].report_at_capacity
        assert unbatched.batch_policy == "none"

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            experiments.run_batch_capacity_sweep(ServingScenario(), batch_sizes=())
        with pytest.raises(ConfigurationError, match=">= 1"):
            experiments.run_batch_capacity_sweep(ServingScenario(), batch_sizes=(0, 2))

    def test_accepts_backend_names_for_drivers(self):
        # Scenario members resolve registry names too.
        result = experiments.run_scheduler_comparison(
            ServingScenario(
                members=(FleetMember("tpu", "tpu", 1),),
                rate_per_s=0.5,
                duration_s=20.0,
                mix=DATACENTER_MIX,
                seed=11,
            ),
            policies=("fifo",),
        )
        assert set(result.reports) == {"fifo"}
        assert result.reports["fifo"].platform == "tpu"


class TestTablesAndAccuracy:
    def test_table1_rows(self):
        rows = experiments.run_table1()
        assert len(rows) == 3
        assert rows[2]["layers"] == 48
        assert all(row["head_dimension"] == 64 for row in rows)

    def test_table2_cost_effectiveness(self):
        comparison = experiments.run_table2(workload=Workload(32, 16))
        assert comparison.cost_effectiveness_gain > 1.0
        assert comparison.upfront_saving_usd == pytest.approx(14_652, rel=0.001)

    def test_accuracy_comparison_on_tiny_model(self):
        comparisons = experiments.run_accuracy_comparison(config=GPT2_TEST_TINY)
        assert len(comparisons) == 3
        for comparison in comparisons:
            assert comparison.agreement > 0.9
            assert abs(comparison.accuracy_delta) < 0.05
