"""Tests for the MPU/VPU/DMA/Router timing unit models."""

import pytest

from repro.core.calibration import Calibration, IDEAL_CALIBRATION
from repro.core.dma import DMAModel
from repro.core.mpu import MPUModel
from repro.core.router import RouterModel
from repro.core.tiling import TilingConfig
from repro.core.vpu import VPUModel
from repro.isa.instructions import (
    DMAInstruction,
    MatrixInstruction,
    RouterInstruction,
    VectorInstruction,
)
from repro.isa.opcodes import DMAOpcode, MatrixOpcode, MemorySpace, RouterOpcode, VectorOpcode


def _conv(rows=1, in_dim=1536, out_dim=384):
    return MatrixInstruction(MatrixOpcode.CONV1D, dst="y", input_operand="x",
                             weight_operand="w", rows=rows, in_dim=in_dim,
                             out_dim=out_dim)


class TestMPUTiming:
    def test_large_conv1d_is_memory_bound(self):
        mpu = MPUModel()
        timing = mpu.instruction_timing(_conv())
        assert timing.stream_cycles > timing.compute_cycles

    def test_ideal_calibration_balances_compute_and_streaming(self):
        # One d x l tile is exactly one HBM beat, so at 100% streaming
        # efficiency compute and memory are balanced by construction.
        mpu = MPUModel(calibration=IDEAL_CALIBRATION)
        timing = mpu.instruction_timing(_conv())
        assert timing.compute_cycles == pytest.approx(timing.stream_cycles, rel=1e-6)

    def test_occupancy_scales_linearly_with_rows(self):
        mpu = MPUModel(calibration=IDEAL_CALIBRATION)
        one = mpu.instruction_timing(_conv(rows=1)).occupancy_cycles
        four = mpu.instruction_timing(_conv(rows=4)).occupancy_cycles
        assert four == pytest.approx(4 * one, rel=0.02)

    def test_lower_hbm_efficiency_means_more_cycles(self):
        fast = MPUModel(calibration=Calibration(hbm_efficiency=0.9))
        slow = MPUModel(calibration=Calibration(hbm_efficiency=0.45))
        assert (
            slow.instruction_timing(_conv()).occupancy_cycles
            > fast.instruction_timing(_conv()).occupancy_cycles
        )

    def test_peak_gflops(self):
        # One d x l tile per cycle: 1024 MACs = 2048 FLOPs per cycle, i.e.
        # 409.6 GFLOPS at 200 MHz when the MPU is compute bound.
        mpu = MPUModel()
        conv = _conv()
        timing = mpu.instruction_timing(conv)
        assert timing.compute_cycles == (1536 // 64) * (384 // 16)
        peak_gflops = 2 * conv.rows * conv.in_dim * conv.out_dim / timing.compute_cycles * 200e6 / 1e9
        assert peak_gflops == pytest.approx(2 * 1024 * 200e6 / 1e9)

    def test_small_attention_matrices_pay_pipeline_drain(self):
        mpu = MPUModel()
        score = MatrixInstruction(MatrixOpcode.MASKED_MM, dst="s", input_operand="q",
                                  weight_operand="k", rows=1, in_dim=64, out_dim=64)
        timing = mpu.instruction_timing(score)
        assert timing.occupancy_cycles > mpu.calibration.matrix_issue_cycles + 4

    def test_effective_gflops_below_peak(self):
        # Streaming-bound Conv1D: the achieved rate is below the array peak.
        mpu = MPUModel()
        conv = _conv()
        seconds = mpu.instruction_timing(conv).occupancy_cycles / 200e6
        effective_gflops = conv.flops() / seconds / 1e9
        assert 0 < effective_gflops < 2 * 1024 * 200e6 / 1e9


class TestVPUTiming:
    def test_wide_vector_takes_more_cycles(self):
        vpu = VPUModel()
        short = VectorInstruction(VectorOpcode.ADD, dst="y", src1="a", src2="b", length=64)
        long = VectorInstruction(VectorOpcode.ADD, dst="y", src1="a", src2="b", length=6144)
        assert (
            vpu.instruction_timing(long).occupancy_cycles
            > vpu.instruction_timing(short).occupancy_cycles
        )

    def test_load_uses_bypass_and_is_cheap(self):
        vpu = VPUModel()
        load = VectorInstruction(VectorOpcode.LOAD, dst="g", src1="gamma", length=1536)
        add = VectorInstruction(VectorOpcode.ADD, dst="y", src1="a", src2="b", length=1536)
        assert (
            vpu.instruction_timing(load).occupancy_cycles
            < vpu.instruction_timing(add).occupancy_cycles
        )

    def test_rows_multiply_occupancy(self):
        vpu = VPUModel(calibration=IDEAL_CALIBRATION)
        one = VectorInstruction(VectorOpcode.MUL, dst="y", src1="a", src2="b",
                                length=1536, rows=1)
        many = VectorInstruction(VectorOpcode.MUL, dst="y", src1="a", src2="b",
                                 length=1536, rows=8)
        assert vpu.instruction_timing(many).occupancy_cycles > 4 * vpu.instruction_timing(one).occupancy_cycles

    def test_throughput(self):
        # One 64-wide chunk per cycle: each extra 64 elements per row costs
        # exactly one cycle, i.e. 64 * 200e6 elements per second.
        vpu = VPUModel()
        short = VectorInstruction(VectorOpcode.ADD, dst="y", src1="a", src2="b", length=64)
        long = VectorInstruction(VectorOpcode.ADD, dst="y", src1="a", src2="b", length=64 * 97)
        extra_cycles = (
            vpu.instruction_timing(long).occupancy_cycles
            - vpu.instruction_timing(short).occupancy_cycles
        )
        assert extra_cycles == 96
        assert 64 * 96 / (extra_cycles / 200e6) == pytest.approx(64 * 200e6)


class TestDMATiming:
    def test_weight_prefetch_costs_only_setup(self):
        dma = DMAModel()
        prefetch = DMAInstruction(DMAOpcode.LOAD_WEIGHT, dst="buf", src="w",
                                  size_bytes=10**7, memory=MemorySpace.HBM)
        timing = dma.instruction_timing(prefetch)
        assert timing.occupancy_cycles == pytest.approx(dma.calibration.dma_setup_cycles)

    def test_kv_store_charged_at_hbm_write_bandwidth(self):
        dma = DMAModel()
        small = DMAInstruction(DMAOpcode.STORE_KV, dst="kv", src="v", size_bytes=128)
        large = DMAInstruction(DMAOpcode.STORE_KV, dst="kv", src="v", size_bytes=1_000_000)
        assert (
            dma.instruction_timing(large).occupancy_cycles
            > dma.instruction_timing(small).occupancy_cycles
        )

    def test_ddr_transfers_slower_than_hbm(self):
        dma = DMAModel()
        hbm = DMAInstruction(DMAOpcode.STORE_KV, dst="kv", src="v", size_bytes=100_000,
                             memory=MemorySpace.HBM)
        ddr = DMAInstruction(DMAOpcode.LOAD_EMBEDDING, dst="e", src="wte", size_bytes=100_000,
                             memory=MemorySpace.DDR)
        assert (
            dma.instruction_timing(ddr).occupancy_cycles
            > dma.instruction_timing(hbm).occupancy_cycles
        )


class TestRouterTiming:
    def _sync(self, elements=1536, rows=1):
        return RouterInstruction(RouterOpcode.SYNC, dst="full", src="part",
                                 payload_elements=elements, rows=rows)

    def test_single_device_sync_is_free(self):
        router = RouterModel(num_devices=1)
        assert router.instruction_timing(self._sync()).occupancy_cycles == 0.0

    def test_more_devices_more_hops(self):
        two = RouterModel(num_devices=2).instruction_timing(self._sync()).occupancy_cycles
        four = RouterModel(num_devices=4).instruction_timing(self._sync()).occupancy_cycles
        assert four > two > 0

    def test_payload_size_matters(self):
        router = RouterModel(num_devices=4)
        small = router.instruction_timing(self._sync(elements=1536)).occupancy_cycles
        large = router.instruction_timing(self._sync(elements=6144 * 64)).occupancy_cycles
        assert large > small

    def test_sync_seconds_order_of_magnitude(self):
        # An emb=1536 FP16 all-gather across 4 devices should take a handful
        # of microseconds — far less than a decoder layer, but not free.
        router = RouterModel(num_devices=4)
        seconds = router.sync_seconds(1536 * 2)
        assert 1e-6 < seconds < 50e-6
