"""Tests for the Aurora ring-link model."""

import pytest

from repro.core.calibration import IDEAL_CALIBRATION
from repro.core.router import RouterModel
from repro.errors import ConfigurationError
from repro.fpga.aurora import AURORA_ENCODING_EFFICIENCY, AuroraLinkModel
from repro.isa.instructions import RouterInstruction
from repro.isa.opcodes import RouterOpcode


class TestAuroraLink:
    def test_encoding_overhead_is_about_3_percent(self):
        assert 1.0 - AURORA_ENCODING_EFFICIENCY == pytest.approx(0.0303, abs=0.001)

    def test_effective_bandwidth_below_line_rate(self):
        link = AuroraLinkModel()
        assert link.effective_bandwidth_bytes < 100e9 / 8
        assert link.effective_bandwidth_bytes == pytest.approx(100e9 / 8 * 64 / 66)

    def test_hop_time_has_latency_floor(self):
        link = AuroraLinkModel(per_hop_latency_s=2e-6)
        assert link.hop_seconds(0) == pytest.approx(2e-6)
        assert link.hop_seconds(12_000) > link.hop_seconds(0)

    def test_single_device_all_gather_is_free(self):
        link = AuroraLinkModel()
        assert link.ring_all_gather_seconds(10_000, 1) == 0.0

    def test_all_gather_scales_with_hops(self):
        link = AuroraLinkModel()
        two = link.ring_all_gather_seconds(4096, 2)
        four = link.ring_all_gather_seconds(4096, 4)
        assert four > two

    def test_all_gather_cycles_conversion(self):
        # The router charges a sync the ring all-gather time in 200 MHz
        # kernel cycles (no setup overhead under the ideal calibration).
        router = RouterModel(num_devices=4, calibration=IDEAL_CALIBRATION)
        link = AuroraLinkModel(per_hop_latency_s=IDEAL_CALIBRATION.aurora_hop_latency_s)
        sync = RouterInstruction(RouterOpcode.SYNC, dst="full", src="part",
                                 payload_elements=1536)
        seconds = link.ring_all_gather_seconds(3072, 4)
        cycles = router.instruction_timing(sync).occupancy_cycles
        assert seconds > 0
        assert cycles == pytest.approx(seconds * 200e6)

    def test_negative_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            AuroraLinkModel().hop_seconds(-1)

    def test_invalid_device_count_rejected(self):
        with pytest.raises(ConfigurationError):
            AuroraLinkModel().ring_all_gather_seconds(1024, 0)

