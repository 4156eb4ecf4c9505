"""Matrix processing unit timing model (paper Sec. V-C, Fig. 10a).

The MPU contains ``l`` lanes of tree MACs, each taking a ``d``-deep vector per
cycle, so it retires one ``d x l`` weight tile per cycle when the HBM can feed
it.  Because there is no input batching, weights cannot be reused across
requests: every token row re-streams the weight tiles from HBM, which makes
the per-row cost the maximum of the compute time and the streaming time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.tiling import TilingConfig
from repro.fpga.u280 import DEFAULT_U280, U280Spec
from repro.isa.instructions import MatrixInstruction
from repro.isa.opcodes import MemorySpace

#: Pipeline latencies of the FP16 operators (paper Sec. V-C).
FP16_MULTIPLIER_LATENCY = 6
FP16_ADDER_LATENCY = 11


@dataclass(frozen=True)
class MatrixTiming:
    """Timing of one matrix instruction."""

    occupancy_cycles: float
    latency_cycles: float
    compute_cycles: float
    stream_cycles: float


@dataclass(frozen=True)
class MPUModel:
    """Cycle model of the matrix processing unit (MFU + SFU_M)."""

    tiling: TilingConfig = TilingConfig()
    spec: U280Spec = DEFAULT_U280
    calibration: Calibration = DEFAULT_CALIBRATION

    # ------------------------------------------------------------------ pieces
    @property
    def pipeline_depth_cycles(self) -> int:
        """Fill latency of the multiplier + adder-tree + SFU pipeline."""
        adder_tree_depth = max(1, math.ceil(math.log2(max(2, self.tiling.d))))
        return (
            FP16_MULTIPLIER_LATENCY
            + adder_tree_depth * FP16_ADDER_LATENCY
            + self.calibration.pipeline_fill_cycles_mpu
        )

    def streaming_bytes_per_cycle(self) -> float:
        """Effective weight bytes the DMA can deliver per kernel cycle."""
        return (
            self.spec.hbm_bytes_per_kernel_cycle * self.calibration.hbm_efficiency
        )

    # ------------------------------------------------------------------ timing
    def instruction_timing(self, instruction: MatrixInstruction) -> MatrixTiming:
        """Cycle timing of one matrix instruction.

        Compute cost: one cycle per ``d x l`` tile, repeated for every token
        row (weights are re-streamed per row; Sec. V-B).  Streaming cost: the
        instruction's weight bytes through the effective HBM bandwidth (or DDR
        for the rare DDR-resident operand).  The per-row cost is the max of
        the two; a fixed issue overhead covers operand collection and
        microcode generation.
        """
        tiles_per_row = self.tiling.tiles_for(instruction.in_dim, instruction.out_dim)
        compute_per_row = float(tiles_per_row)

        weight_bytes_per_row = instruction.weight_bytes()
        if instruction.weight_space is MemorySpace.DDR:
            bytes_per_cycle = (
                self.spec.ddr_peak_bandwidth
                * self.calibration.ddr_efficiency
                / self.spec.kernel_frequency_hz
            )
        else:
            bytes_per_cycle = self.streaming_bytes_per_cycle()
        # ``weight_reuse_rows`` rows share one streaming pass: the batched
        # cohort engine multicasts a weight tile to every lockstep row, so its
        # per-row streaming cost shrinks by the reuse factor.  The default of
        # 1 is the paper's no-input-batching appliance, where every row
        # re-streams the full weight matrix from HBM.
        stream_per_row = (
            weight_bytes_per_row / bytes_per_cycle / instruction.weight_reuse_rows
        )

        per_row = max(compute_per_row, stream_per_row)
        occupancy = instruction.rows * per_row + self.calibration.matrix_issue_cycles
        # Small matrix operands (the per-head Score / Score x Value products)
        # cannot hide the multiply/adder-tree/SFU pipeline behind streaming, so
        # the drain shows up as occupancy rather than being overlapped.
        if tiles_per_row < self.tiling.d:
            occupancy += self.pipeline_depth_cycles
        latency = occupancy + self.pipeline_depth_cycles
        return MatrixTiming(
            occupancy_cycles=occupancy,
            latency_cycles=latency,
            compute_cycles=instruction.rows * compute_per_row,
            stream_cycles=instruction.rows * stream_per_row,
        )
