"""SLR floorplanning model (paper Sec. VI).

The U280 is a three-die device.  The HBM controller is physically attached to
the bottom die (SLR0), and the DFX core's 32x512-bit datapath makes die
crossings expensive: the number of super-long-lines (SLLs) between adjacent
dies bounds how much of the matrix unit can live away from the HBM.  The
paper's solution is to split the design into kernels, keep the DMA and as many
MPU lanes as possible in SLR0, and spill the remaining lanes upward.

This module reproduces that placement reasoning as a small analytical model:
it assigns components to SLRs, counts die-crossing signals, and reports
whether the placement meets the SLL budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fpga.resources import ResourceUsage, estimate_core_resources
from repro.fpga.u280 import DEFAULT_U280, U280Spec

#: Fraction of an SLR's resources the placer is willing to fill before
#: routing congestion makes timing closure impractical.
SLR_FILL_LIMIT = 0.70


@dataclass(frozen=True)
class SLRAssignment:
    """Components and MPU lanes placed in one super logic region."""

    slr_index: int
    components: tuple[str, ...]
    mpu_lanes: int
    usage: ResourceUsage


@dataclass(frozen=True)
class FloorplanResult:
    """Outcome of the SLR placement heuristic."""

    spec: U280Spec
    d: int
    l: int
    assignments: tuple[SLRAssignment, ...]
    crossing_signals: int
    sll_budget: int

    @property
    def feasible(self) -> bool:
        """True when the die-crossing signal count fits the SLL budget."""
        return self.crossing_signals <= self.sll_budget

    @property
    def lanes_in_slr0(self) -> int:
        """MPU lanes co-located with the HBM controller."""
        return self.assignments[0].mpu_lanes


def plan_floorplan(d: int = 64, l: int = 16, spec: U280Spec = DEFAULT_U280) -> FloorplanResult:
    """Place one DFX core across the U280's three SLRs.

    Heuristic mirroring Sec. VI: the DMA (HBM-facing) always goes to SLR0;
    MPU lanes fill SLR0 up to the fill limit; remaining lanes, the VPU,
    register file, router, and control spill to SLR1/SLR2.  Each lane placed
    outside SLR0 must receive its ``d``-wide FP16 operands across a die
    boundary; control and result buses add a fixed overhead per crossing.
    """
    report = estimate_core_resources(d=d, l=l, spec=spec)
    slr_budget = spec.slr_resources

    dma_usage = report.components["dma"]
    # The AXI interconnect / memory-subsystem buffering spans all three dies
    # (each SLR has its own HBM/DDR switch segment), so its cost is spread
    # evenly rather than piled onto SLR0.
    interconnect_total = report.components["interconnect"]
    interconnect_usage = ResourceUsage(
        lut=interconnect_total.lut / spec.num_slr,
        ff=interconnect_total.ff / spec.num_slr,
        bram_36k=interconnect_total.bram_36k / spec.num_slr,
        uram=interconnect_total.uram / spec.num_slr,
        dsp=interconnect_total.dsp / spec.num_slr,
    )
    mpu_usage = report.components["mpu"]
    per_lane_usage = ResourceUsage(
        lut=mpu_usage.lut / l,
        ff=mpu_usage.ff / l,
        bram_36k=mpu_usage.bram_36k / l,
        uram=0.0,
        dsp=mpu_usage.dsp / l,
    )

    # SLR0: DMA + memory interconnect first, then as many lanes as fit.
    slr0_base = dma_usage + interconnect_usage
    lanes_in_slr0 = 0
    slr0_usage = slr0_base
    for _ in range(l):
        candidate = slr0_usage + per_lane_usage
        utilization = candidate.utilization(slr_budget)
        if max(utilization.values()) > SLR_FILL_LIMIT:
            break
        slr0_usage = candidate
        lanes_in_slr0 += 1
    lanes_elsewhere = l - lanes_in_slr0

    # SLR1: remaining lanes plus the vector pipeline.
    slr1_usage = (
        report.components["vpu"] + report.components["register_file"] + interconnect_usage
    )
    lanes_in_slr1 = 0
    for _ in range(lanes_elsewhere):
        candidate = slr1_usage + per_lane_usage
        if max(candidate.utilization(slr_budget).values()) > SLR_FILL_LIMIT:
            break
        slr1_usage = candidate
        lanes_in_slr1 += 1
    lanes_in_slr2 = lanes_elsewhere - lanes_in_slr1

    slr2_usage = (
        report.components["router"] + report.components["control"] + interconnect_usage
    )
    for _ in range(lanes_in_slr2):
        slr2_usage = slr2_usage + per_lane_usage

    assignments = (
        SLRAssignment(0, ("dma", "interconnect", "mpu-lanes"), lanes_in_slr0, slr0_usage),
        SLRAssignment(1, ("vpu", "register_file", "mpu-lanes"), lanes_in_slr1, slr1_usage),
        SLRAssignment(2, ("router", "control", "mpu-lanes"), lanes_in_slr2, slr2_usage),
    )

    # Die-crossing signals: every lane outside SLR0 needs a d-wide FP16 operand
    # bus (d * 16 bits) plus a 16-bit result lane; control adds a fixed bus.
    lane_crossing_bits = (lanes_in_slr1 + lanes_in_slr2) * (d * 16 + 16)
    control_crossing_bits = 2_000
    crossing_signals = lane_crossing_bits + control_crossing_bits
    sll_budget = spec.sll_per_crossing * (spec.num_slr - 1)

    return FloorplanResult(
        spec=spec,
        d=d,
        l=l,
        assignments=assignments,
        crossing_signals=crossing_signals,
        sll_budget=sll_budget,
    )
