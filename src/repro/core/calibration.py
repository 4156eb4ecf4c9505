"""Calibration constants for the DFX timing simulator.

Everything that can be derived from the paper is derived from the paper
(clock frequencies, datapath widths, pipeline depths, sync counts).  The
constants in this module cover effects the paper does not quantify —
sustained HBM efficiency, per-instruction issue overhead, host hand-off per
token — and are the only "fitted" parts of the DFX model.  Their defaults are
chosen so the simulated per-token latencies land close to the paper's
measured values (Fig. 14/18); the paper scorecard that
``scripts/run_all_experiments.py`` prints shows the remaining gaps.

All constants are grouped in one frozen dataclass so experiments can run
sensitivity sweeps over them (see
:func:`repro.analysis.experiments.run_dataflow_ablation`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import CalibrationError, check_number


@dataclass(frozen=True)
class Calibration:
    """Fitted constants of the DFX performance model.

    Attributes:
        hbm_efficiency: Sustained fraction of the 32x512-bit-per-cycle HBM
            streaming peak achieved while reading weight tiles.
        hbm_write_efficiency: Sustained fraction of peak for KV-cache writes.
        ddr_efficiency: Sustained fraction of the DDR peak bandwidth.
        matrix_issue_cycles: Fixed overhead per matrix instruction (operand
            collection, microcode generation, buffer turnaround).
        vector_issue_cycles: Fixed overhead per vector instruction.
        dma_setup_cycles: Fixed overhead per DMA descriptor.
        router_setup_cycles: Fixed overhead per ring synchronization, on top
            of the per-hop Aurora latency.
        aurora_hop_latency_s: Latency of one ring hop (transceiver + framing
            + router buffering), excluding serialization.
        host_overhead_per_token_s: Host/PCIe hand-off per generated token
            (kick-off, done signal, token readback).
        pipeline_fill_cycles_mpu: Depth of the MPU pipeline (multiplier,
            adder tree, SFU) charged once per dependent chain.
        pipeline_fill_cycles_vpu: Depth of the VPU pipeline.
    """

    hbm_efficiency: float = 0.47
    hbm_write_efficiency: float = 0.60
    ddr_efficiency: float = 0.70
    matrix_issue_cycles: int = 72
    vector_issue_cycles: int = 36
    dma_setup_cycles: int = 20
    router_setup_cycles: int = 96
    aurora_hop_latency_s: float = 2.2e-6
    host_overhead_per_token_s: float = 35.0e-6
    pipeline_fill_cycles_mpu: int = 40
    pipeline_fill_cycles_vpu: int = 12

    def __post_init__(self) -> None:
        for name in ("hbm_efficiency", "hbm_write_efficiency", "ddr_efficiency"):
            check_number(name, getattr(self, name), 0.0, 1.0, open_low=True,
                         error=CalibrationError)
        for name in (
            "matrix_issue_cycles",
            "vector_issue_cycles",
            "dma_setup_cycles",
            "router_setup_cycles",
            "pipeline_fill_cycles_mpu",
            "pipeline_fill_cycles_vpu",
        ):
            check_number(name, getattr(self, name), 0, integer=True,
                         error=CalibrationError)
        for name in ("aurora_hop_latency_s", "host_overhead_per_token_s"):
            check_number(name, getattr(self, name), 0.0, error=CalibrationError)

    def with_overrides(self, **overrides: object) -> "Calibration":
        """Return a copy with selected constants replaced (for sweeps)."""
        return replace(self, **overrides)  # type: ignore[arg-type]


#: Default calibration used by :class:`repro.core.appliance.DFXAppliance`.
DEFAULT_CALIBRATION = Calibration()

#: An idealized calibration: no issue overheads, perfect memory efficiency.
#: Used by the dataflow ablation to show where the real time goes.
IDEAL_CALIBRATION = Calibration(
    hbm_efficiency=1.0,
    hbm_write_efficiency=1.0,
    ddr_efficiency=1.0,
    matrix_issue_cycles=0,
    vector_issue_cycles=0,
    dma_setup_cycles=0,
    router_setup_cycles=0,
    aurora_hop_latency_s=0.0,
    host_overhead_per_token_s=0.0,
    pipeline_fill_cycles_mpu=0,
    pipeline_fill_cycles_vpu=0,
)
