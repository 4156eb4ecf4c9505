"""Tests for the DFX appliance end-to-end latency model."""

import pytest

from repro.core.appliance import DFXAppliance
from repro.core.calibration import IDEAL_CALIBRATION
from repro.errors import ConfigurationError
from repro.model.config import GPT2_1_5B, GPT2_345M, GPT2_TEST_SMALL
from repro.results import (
    DFX_BREAKDOWN_PHASES,
    PHASE_SELF_ATTENTION,
    PHASE_SYNC,
)
from repro.workloads import Workload


class TestRunBasics:
    def test_result_metadata(self, dfx_1_5b_4dev):
        result = dfx_1_5b_4dev.run(Workload(32, 4))
        assert result.platform == "dfx"
        assert result.model_name == "gpt2-1.5b"
        assert result.num_devices == 4
        assert result.total_power_watts == pytest.approx(180.0)

    def test_single_output_token_has_no_generation_stage(self, dfx_1_5b_4dev):
        result = dfx_1_5b_4dev.run(Workload(32, 1))
        assert result.generation.latency_ms == 0.0
        assert result.summarization.latency_ms > 0.0

    def test_latency_grows_with_output_tokens(self, dfx_1_5b_4dev):
        short = dfx_1_5b_4dev.run(Workload(32, 1)).latency_ms
        long = dfx_1_5b_4dev.run(Workload(32, 16)).latency_ms
        assert long > short

    def test_latency_grows_roughly_linearly_with_prompt_length(self, dfx_1_5b_4dev):
        # DFX streams the prompt through the single-token datapath, so the
        # summarization cost is ~linear in the prompt length (unlike the GPU).
        small = dfx_1_5b_4dev.run(Workload(32, 1)).summarization.latency_ms
        large = dfx_1_5b_4dev.run(Workload(128, 1)).summarization.latency_ms
        assert large / small == pytest.approx(4.0, rel=0.15)

    def test_context_overflow_rejected(self, dfx_1_5b_4dev):
        with pytest.raises(ConfigurationError):
            dfx_1_5b_4dev.run(Workload(1000, 100))

    def test_run_many_preserves_order(self, dfx_1_5b_4dev):
        workloads = [Workload(32, 1), Workload(32, 4)]
        results = dfx_1_5b_4dev.run_many(workloads)
        assert [r.workload for r in results] == workloads


class TestPaperScaleAgreement:
    """Coarse agreement with the paper's published DFX measurements."""

    def test_per_token_generation_latency_1_5b(self, dfx_1_5b_4dev):
        # Paper Fig. 14: ([32:256] - [32:1]) / 255 = ~6.9 ms per token.
        short = dfx_1_5b_4dev.run(Workload(32, 1)).latency_ms
        long = dfx_1_5b_4dev.run(Workload(32, 64)).latency_ms
        per_token = (long - short) / 63
        assert 5.0 < per_token < 9.0

    def test_32_64_latency_close_to_paper(self, dfx_1_5b_4dev):
        # Paper: [32:64] = 660.4 ms on the 1.5B model with 4 FPGAs.
        latency = dfx_1_5b_4dev.run(Workload(32, 64)).latency_ms
        assert latency == pytest.approx(660.4, rel=0.25)

    def test_345m_single_fpga_throughput_close_to_paper(self):
        # Paper Fig. 18: 93.10 tokens/s for the 345M model on 1 FPGA at 64:64.
        appliance = DFXAppliance(GPT2_345M, num_devices=1)
        tokens_per_second = appliance.run(Workload(64, 64)).tokens_per_second
        assert tokens_per_second == pytest.approx(93.10, rel=0.20)


class TestBreakdownAndEfficiency:
    def test_breakdown_contains_decoder_phases(self, dfx_1_5b_4dev):
        result = dfx_1_5b_4dev.run(Workload(32, 8))
        for phase in DFX_BREAKDOWN_PHASES:
            assert phase in result.breakdown_ms
        assert result.breakdown_ms[PHASE_SELF_ATTENTION] > 0

    def test_breakdown_sums_to_total_latency(self, dfx_1_5b_4dev):
        result = dfx_1_5b_4dev.run(Workload(32, 8))
        assert sum(result.breakdown_ms.values()) == pytest.approx(
            result.latency_ms, rel=0.02
        )

    def test_sync_share_vanishes_on_single_device(self):
        single = DFXAppliance(GPT2_345M, num_devices=1).run(Workload(32, 8))
        assert single.breakdown_ms.get(PHASE_SYNC, 0.0) == pytest.approx(0.0, abs=1e-6)

    def test_ideal_calibration_is_faster(self):
        workload = Workload(32, 8)
        real = DFXAppliance(GPT2_1_5B, 4).run(workload).latency_ms
        ideal = DFXAppliance(GPT2_1_5B, 4, calibration=IDEAL_CALIBRATION).run(workload).latency_ms
        assert ideal < real

    def test_gflops_constant_across_stages(self, dfx_1_5b_4dev):
        # Fig. 17's key DFX property: the same matrix-vector dataflow serves
        # both stages, so achieved GFLOP/s barely changes between them.
        result = dfx_1_5b_4dev.run(Workload(64, 64))
        assert result.summarization_gflops == pytest.approx(
            result.generation_gflops, rel=0.15
        )

    def test_per_token_generation_seconds_helper(self, dfx_1_5b_4dev):
        assert dfx_1_5b_4dev.per_token_generation_seconds(64) > 0


class TestBatchedRequestSeconds:
    def test_batch_one_matches_run_exactly(self, dfx_1_5b_4dev):
        workload = Workload(32, 16)
        single = dfx_1_5b_4dev.run(workload).latency_s
        batched = dfx_1_5b_4dev.batched_request_seconds(workload, batch=1)
        assert batched == pytest.approx(single, rel=1e-12)

    def test_cohort_latency_bounded_by_sequential(self, dfx_1_5b_4dev):
        workload = Workload(32, 16)
        single = dfx_1_5b_4dev.run(workload).latency_s
        for batch in (2, 4, 8):
            cohort = dfx_1_5b_4dev.batched_request_seconds(workload, batch)
            assert single < cohort < batch * single

    def test_aggregate_throughput_grows_with_batch(self, dfx_1_5b_4dev):
        workload = Workload(32, 16)
        tokens = workload.output_tokens
        previous = tokens / dfx_1_5b_4dev.run(workload).latency_s
        for batch in (2, 4, 8):
            seconds = dfx_1_5b_4dev.batched_request_seconds(workload, batch)
            aggregate = batch * tokens / seconds
            assert aggregate > previous
            previous = aggregate

    def test_context_window_still_enforced(self, dfx_1_5b_4dev):
        over = Workload(GPT2_1_5B.n_positions, 1)
        with pytest.raises(ConfigurationError):
            dfx_1_5b_4dev.batched_request_seconds(over, batch=2)


@pytest.mark.parametrize(
    ("price", "field"),
    [
        (lambda a: a.batched_request_seconds(Workload(8, 4), 0), "batch"),
        (lambda a: a.batched_request_seconds(Workload(8, 4), 2.5), "batch"),
        (lambda a: a.batched_request_seconds(Workload(8, 4), True), "batch"),
        (lambda a: a.per_token_generation_seconds(-1), "context_length"),
        (lambda a: a.per_token_generation_seconds(10_000), "context_length"),
        (lambda a: a.per_token_generation_seconds(2.5), "context_length"),
    ],
    ids=["batch-zero", "batch-fraction", "batch-bool", "context-negative",
         "context-past-window", "context-fraction"],
)
def test_bad_step_shapes_rejected_at_the_timing_boundary(price, field):
    appliance = DFXAppliance(GPT2_TEST_SMALL, num_devices=4, check_capacity=False)
    with pytest.raises(ConfigurationError, match=f"^{field} must be an integer"):
        price(appliance)
    # A context that fills the whole window is still valid.
    assert appliance.per_token_generation_seconds(GPT2_TEST_SMALL.n_positions) > 0
