"""Tests for resource estimation (Fig. 8b / Fig. 13) and SLR floorplanning."""

import pytest

from repro.fpga.floorplan import plan_floorplan
from repro.fpga.resources import (
    ResourceUsage,
    TILE_DESIGN_POINTS,
    design_space_resource_sweep,
    estimate_core_resources,
    estimate_mpu,
    mpu_dsp_count,
)
from repro.fpga.u280 import DEFAULT_U280


class TestMPUEstimates:
    def test_dsp_count_formula_matches_paper(self):
        # Sec. V-C: 3 x (d x l) DSPs for the MFU; Fig. 13 reports 3136 for the
        # MPU including the SFU_M operators.
        assert mpu_dsp_count(64, 16) == 3 * 64 * 16 + 4 * 16
        assert estimate_mpu(64, 16).dsp == 3136

    def test_mpu_resources_anchor_to_fig13(self):
        usage = estimate_mpu(64, 16)
        assert usage.lut == pytest.approx(170_000, rel=0.05)
        assert usage.ff == pytest.approx(381_000, rel=0.12)

    def test_per_lane_hardware_grows_with_l(self):
        # Fig. 8b: with the MAC count fixed, larger l needs more resources.
        wide = estimate_mpu(16, 64)
        narrow = estimate_mpu(64, 16)
        assert wide.lut > narrow.lut
        assert wide.dsp > narrow.dsp

    def test_d64_l16_is_cheapest_of_the_best_performers(self):
        # The paper picks d=64 because among the equally fast points it uses
        # the least hardware.
        candidates = {(16, 64), (32, 32), (64, 16)}
        luts = {point: estimate_mpu(*point).lut for point in candidates}
        assert min(luts, key=luts.get) == (64, 16)


class TestCoreReport:
    def test_all_components_present(self):
        report = estimate_core_resources()
        assert set(report.components) == {
            "register_file", "mpu", "vpu", "dma", "router", "interconnect", "control",
        }

    def test_totals_match_fig13_within_tolerance(self):
        report = estimate_core_resources()
        total = report.total
        assert total.lut == pytest.approx(520_000, rel=0.05)
        assert total.dsp == pytest.approx(3533, rel=0.02)
        assert total.bram_36k == pytest.approx(1192, rel=0.10)
        assert total.uram == pytest.approx(104, rel=0.05)

    def test_core_fits_the_device(self):
        report = estimate_core_resources()
        assert report.total.fits(report.spec.resources)
        utilization = report.utilization()["total"]
        assert all(value < 1.0 for value in utilization.values())
        assert utilization["lut"] == pytest.approx(0.40, abs=0.05)

    def test_oversized_design_rejected(self):
        report = estimate_core_resources(d=64, l=256)
        assert not report.total.fits(report.spec.resources)

    def test_design_space_sweep_covers_all_points(self):
        sweep = design_space_resource_sweep()
        assert set(sweep) == set(TILE_DESIGN_POINTS)

    def test_resource_usage_addition(self):
        total = ResourceUsage(lut=1, dsp=2) + ResourceUsage(lut=3, dsp=4, bram_36k=1)
        assert total.lut == 4 and total.dsp == 6 and total.bram_36k == 1


class TestFloorplan:
    def test_default_design_is_routable(self):
        result = plan_floorplan(d=64, l=16)
        assert result.feasible

    def test_dma_and_some_lanes_live_in_slr0(self):
        result = plan_floorplan()
        assert "dma" in result.assignments[0].components
        assert result.lanes_in_slr0 > 0

    def test_lane_counts_cover_all_lanes(self):
        result = plan_floorplan(d=64, l=16)
        assert sum(slr.mpu_lanes for slr in result.assignments) == 16

    def test_wider_lane_designs_need_more_crossings(self):
        narrow = plan_floorplan(d=64, l=16)
        wide = plan_floorplan(d=16, l=64)
        assert wide.crossing_signals >= narrow.crossing_signals

    def test_sll_budget_from_spec(self):
        result = plan_floorplan()
        assert result.sll_budget == DEFAULT_U280.sll_per_crossing * 2
