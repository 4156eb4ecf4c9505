"""Tests for the U280 spec and the KV-cache sizing helper."""

import pytest

from repro.errors import ConfigurationError
from repro.fpga.memory import kv_cache_bytes
from repro.fpga.u280 import DEFAULT_U280, ResourceBudget, U280Spec


class TestU280Spec:
    def test_paper_figures(self):
        spec = DEFAULT_U280
        assert spec.kernel_frequency_hz == 200e6
        assert spec.memory_frequency_hz == 410e6
        assert spec.hbm_channels == 32
        assert spec.hbm_capacity_bytes == 8 * 2**30
        assert spec.hbm_peak_bandwidth == 460e9
        assert spec.ddr_peak_bandwidth == 38e9
        assert spec.num_slr == 3
        assert spec.board_power_watts == 45.0

    def test_hbm_streaming_matches_32x512_bits_per_cycle(self):
        spec = DEFAULT_U280
        assert spec.hbm_bytes_per_kernel_cycle == 32 * 512 // 8 == 2048
        # 2 KiB per cycle at 200 MHz = 409.6 GB/s, below the 460 GB/s peak.
        assert spec.hbm_streaming_bandwidth == pytest.approx(409.6e9)
        assert spec.hbm_streaming_bandwidth < spec.hbm_peak_bandwidth

    def test_resource_totals_match_fig13_percentages(self):
        # Fig. 13 reports 520K LUT = 39.93%, 3533 DSP = 39.15%, etc.
        resources = DEFAULT_U280.resources
        assert 520_000 / resources.lut == pytest.approx(0.3993, abs=0.002)
        assert 3533 / resources.dsp == pytest.approx(0.3915, abs=0.002)
        assert 1192 / resources.bram_36k == pytest.approx(0.5913, abs=0.002)
        assert 104 / resources.uram == pytest.approx(0.1083, abs=0.002)

    def test_slr_budget_is_a_third(self):
        slr = DEFAULT_U280.slr_resources
        assert slr.dsp == DEFAULT_U280.resources.dsp // 3

    def test_negative_resources_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourceBudget(lut=-1, ff=0, bram_36k=0, uram=0, dsp=0)


class TestCapacityHelpers:
    def test_kv_cache_bytes_formula(self):
        # 48 layers x 6 local heads x 64 dims x 1024 tokens x 2 tensors x 2 B.
        expected = 48 * 2 * 6 * 1024 * 64 * 2
        assert kv_cache_bytes(48, 6, 64, 1024) == expected

    def test_kv_cache_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            kv_cache_bytes(-1, 1, 1, 1)
