"""Tests for the compute core's token step, device capacity checks, and the
appliance's device-count scaling."""

import pytest

from repro.core.appliance import DFXAppliance
from repro.core.compute_core import ComputeCore
from repro.core.device import FPGADevice
from repro.errors import ResourceExhaustedError
from repro.model.config import GPT2_1_5B, GPT2_345M
from repro.parallel.partitioner import build_partition_plan
from repro.workloads import Workload


@pytest.fixture(scope="module")
def core_1_5b():
    plan = build_partition_plan(GPT2_1_5B, 4)
    return ComputeCore(GPT2_1_5B, plan, device_id=0)


class TestComputeCore:
    def test_token_step_is_cached(self, core_1_5b):
        first = core_1_5b.token_step(1, 10)
        second = core_1_5b.token_step(1, 10)
        assert first is second
        assert core_1_5b.token_step(2, 10) is not first

    def test_longer_context_costs_more(self, core_1_5b):
        short = core_1_5b.token_step(1, 8).timing.total_cycles
        long = core_1_5b.token_step(1, 512).timing.total_cycles
        assert long > short

    def test_token_step_includes_all_layers(self, core_1_5b):
        step = core_1_5b.token_step(1, 32)
        layer = core_1_5b.scheduler.time_program(
            core_1_5b.compiler.compile_decoder_layer(1, 32)
        )
        assert step.timing.total_cycles > GPT2_1_5B.n_layer * 0.95 * layer.total_cycles

    def test_token_step_flops_match_partitioned_model_size(self, core_1_5b):
        # Per device, a generation step is dominated by 2 * (params / devices)
        # multiply-accumulate FLOPs.
        step = core_1_5b.token_step(1, 1)
        dense_flops = 2 * GPT2_1_5B.total_parameter_count() / 4
        assert step.flops_per_device == pytest.approx(dense_flops, rel=0.15)

    def test_token_step_seconds_in_expected_range(self, core_1_5b):
        # Paper Fig. 14: ~6.9 ms per token on the 1.5B model with 4 FPGAs.
        seconds = core_1_5b.token_step(1, 64).seconds(
            core_1_5b.spec.kernel_frequency_hz
        ) + core_1_5b.calibration.host_overhead_per_token_s
        assert 0.004 < seconds < 0.010


class TestDeviceCapacity:
    def test_1_5b_on_four_devices_fits(self):
        plan = build_partition_plan(GPT2_1_5B, 4)
        device = FPGADevice(GPT2_1_5B, plan, 0)
        footprint = device.check_capacity()
        assert footprint.hbm_bytes < 8 * 2**30

    def test_footprint_components(self):
        plan = build_partition_plan(GPT2_345M, 1)
        device = FPGADevice(GPT2_345M, plan, 0)
        footprint = device.memory_footprint(max_tokens=256)
        assert footprint.weight_bytes > 0
        assert footprint.kv_cache_bytes > 0
        assert footprint.hbm_bytes == footprint.weight_bytes + footprint.kv_cache_bytes
        assert footprint.ddr_bytes > 0

    def test_oversized_model_rejected(self):
        huge = GPT2_1_5B.scaled(name="gpt2-huge", n_embd=4096, n_head=32, n_layer=64)
        plan = build_partition_plan(huge, 1)
        with pytest.raises(ResourceExhaustedError):
            FPGADevice(huge, plan, 0).check_capacity()


class TestCluster:
    """The appliance's ring of devices: scaling with the device count."""

    def test_more_devices_reduce_step_time(self):
        one = DFXAppliance(GPT2_345M, num_devices=1).per_token_generation_seconds(64)
        four = DFXAppliance(GPT2_345M, num_devices=4).per_token_generation_seconds(64)
        assert four < one
        # ...but not perfectly linearly (sync + non-parallel vector work).
        assert four > one / 4

    def test_power_scales_with_devices(self):
        workload = Workload(4, 1)
        assert DFXAppliance(GPT2_345M, 4).run(workload).total_power_watts == (
            pytest.approx(180.0)
        )
        assert DFXAppliance(GPT2_345M, 1).run(workload).total_power_watts == (
            pytest.approx(45.0)
        )

    def test_cluster_flops_scale_with_devices(self):
        appliance = DFXAppliance(GPT2_345M, num_devices=2)
        per_device = appliance.device.core.token_step(1, 0).flops_per_device
        assert appliance.run(Workload(1, 1)).flops == pytest.approx(2 * per_device)


class TestBatchedTokenStep:
    def test_cohort_step_amortizes_the_weight_stream(self, core_1_5b):
        single = core_1_5b.token_step(1, 16).timing.total_cycles
        for batch in (2, 4, 8):
            cohort = core_1_5b.token_step(batch, 16).timing.total_cycles
            # One cohort step costs more than one stream's step but far less
            # than running the batch sequentially.
            assert single < cohort < batch * single

    def test_per_stream_kv_work_still_scales_with_batch(self, core_1_5b):
        shallow = core_1_5b.token_step(8, past_length=8)
        deep = core_1_5b.token_step(8, past_length=512)
        assert deep.timing.total_cycles > shallow.timing.total_cycles
