"""Tests for the tiling scheme (Fig. 8) and calibration constants."""

import pytest

from repro.core.calibration import Calibration, DEFAULT_CALIBRATION, IDEAL_CALIBRATION
from repro.core.tiling import (
    TILE_DESIGN_POINTS,
    TilingConfig,
    design_space_mha_sweep,
    multi_head_attention_gflops,
)
from repro.errors import CalibrationError, ConfigurationError
from repro.fpga.u280 import DEFAULT_U280
from repro.model.config import GPT2_1_5B


class TestTilingConfig:
    def test_default_tile_is_64_by_16(self):
        tiling = TilingConfig()
        assert (tiling.d, tiling.l) == (64, 16)
        assert tiling.macs_per_cycle == 1024
        # One tile of FP16 values (2 bytes each) is exactly one 32x512-bit
        # HBM beat.
        tile_bytes = tiling.d * tiling.l * 2
        assert tile_bytes == DEFAULT_U280.hbm_bytes_per_kernel_cycle == 2048

    def test_all_design_points_have_1024_macs(self):
        for d, l in TILE_DESIGN_POINTS:
            assert TilingConfig(d, l).macs_per_cycle == 1024

    def test_tiles_for_weight_matrix(self):
        tiling = TilingConfig(64, 16)
        assert tiling.tiles_for(1536, 384) == (1536 // 64) * (384 // 16)
        assert tiling.tiles_for(65, 17) == 2 * 2

    def test_utilization_full_and_partial(self):
        tiling = TilingConfig(64, 16)
        assert tiling.utilization(128, 32) == pytest.approx(1.0)
        assert tiling.utilization(1, 1) == pytest.approx(1.0 / 1024)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            TilingConfig(0, 16)
        with pytest.raises(ConfigurationError):
            TilingConfig(64, 16).tiles_for(0, 4)


class TestFigure8aSweep:
    def test_middle_points_tie_and_extremes_lose(self):
        sweep = design_space_mha_sweep(GPT2_1_5B, kv_length=64)
        best = max(sweep.values())
        # (16,64), (32,32), (64,16) are within a few percent of each other...
        for point in ((16, 64), (32, 32), (64, 16)):
            assert sweep[point] >= 0.95 * best
        # ...while (8,128) and (128,8) clearly underperform (Fig. 8a).
        assert sweep[(8, 128)] < 0.80 * best
        assert sweep[(128, 8)] < 0.80 * best

    def test_large_d_hurts_query_key_product(self):
        # d > head_dim wastes MAC rows on Q x K^T.
        small_d = multi_head_attention_gflops(TilingConfig(64, 16), GPT2_1_5B)
        large_d = multi_head_attention_gflops(TilingConfig(128, 8), GPT2_1_5B)
        assert large_d < small_d

    def test_gflops_scale_with_frequency(self):
        slow = multi_head_attention_gflops(TilingConfig(), GPT2_1_5B,
                                           kernel_frequency_hz=100e6)
        fast = multi_head_attention_gflops(TilingConfig(), GPT2_1_5B,
                                           kernel_frequency_hz=200e6)
        assert fast == pytest.approx(2 * slow)


class TestCalibration:
    def test_default_values_within_physical_ranges(self):
        cal = DEFAULT_CALIBRATION
        assert 0 < cal.hbm_efficiency <= 1
        assert cal.matrix_issue_cycles >= 0
        assert cal.aurora_hop_latency_s > 0

    def test_ideal_calibration_has_no_overheads(self):
        assert IDEAL_CALIBRATION.hbm_efficiency == 1.0
        assert IDEAL_CALIBRATION.matrix_issue_cycles == 0
        assert IDEAL_CALIBRATION.host_overhead_per_token_s == 0.0

    def test_with_overrides_returns_new_object(self):
        tweaked = DEFAULT_CALIBRATION.with_overrides(hbm_efficiency=0.9)
        assert tweaked.hbm_efficiency == 0.9
        assert DEFAULT_CALIBRATION.hbm_efficiency != 0.9

    def test_invalid_calibration_rejected(self):
        with pytest.raises(CalibrationError):
            Calibration(hbm_efficiency=0.0)
        with pytest.raises(CalibrationError):
            Calibration(matrix_issue_cycles=-1)
        with pytest.raises(CalibrationError):
            Calibration(aurora_hop_latency_s=-1e-6)
