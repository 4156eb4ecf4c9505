"""Xilinx Alveo U280 device model (paper Sec. VI).

The U280 is a chiplet-based (multi-die) FPGA with three super logic regions
(SLRs), 8 GB of HBM2 exposed through 32 pseudo-channels, and a 32 GB DDR4
channel.  DFX runs the kernel at 200 MHz and the memory interface at 410 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import check_number
from repro.utils.units import GIBI, GIGA


@dataclass(frozen=True)
class ResourceBudget:
    """Available programmable-logic resources of a device or region."""

    lut: int
    ff: int
    bram_36k: float
    uram: int
    dsp: int

    def __post_init__(self) -> None:
        for name in ("lut", "ff", "uram", "dsp"):
            check_number(name, getattr(self, name), 0, integer=True)
        check_number("bram_36k", self.bram_36k, 0.0)

    def scaled(self, fraction: float) -> "ResourceBudget":
        """Budget scaled by ``fraction`` (used for per-SLR budgets)."""
        return ResourceBudget(
            lut=int(self.lut * fraction),
            ff=int(self.ff * fraction),
            bram_36k=self.bram_36k * fraction,
            uram=int(self.uram * fraction),
            dsp=int(self.dsp * fraction),
        )


@dataclass(frozen=True)
class U280Spec:
    """Alveo U280 hardware specification used by DFX.

    Defaults match the published U280 datasheet figures that make the paper's
    utilization percentages (Fig. 13) come out exactly.
    """

    name: str = "xilinx-alveo-u280"
    #: Programmable-logic resource totals.
    resources: ResourceBudget = field(
        default_factory=lambda: ResourceBudget(
            lut=1_303_680, ff=2_607_360, bram_36k=2016, uram=960, dsp=9024
        )
    )
    #: Kernel (core) clock frequency in Hz (paper: 200 MHz).
    kernel_frequency_hz: float = 200e6
    #: HBM memory-interface frequency in Hz (paper: 410 MHz).
    memory_frequency_hz: float = 410e6
    #: Number of HBM pseudo-channels the DMA attaches to.
    hbm_channels: int = 32
    #: Bits delivered per HBM channel per kernel cycle (512-bit AXI data path).
    hbm_channel_bits: int = 512
    #: HBM capacity in bytes (8 GB).
    hbm_capacity_bytes: int = 8 * GIBI
    #: Theoretical peak HBM bandwidth in bytes/s (paper: 460 GB/s).
    hbm_peak_bandwidth: float = 460 * GIGA
    #: DDR capacity in bytes (one 32 GB channel is used).
    ddr_capacity_bytes: int = 32 * GIBI
    #: Theoretical peak DDR bandwidth in bytes/s (paper: 38 GB/s).
    ddr_peak_bandwidth: float = 38 * GIGA
    #: Number of super logic regions (dies).
    num_slr: int = 3
    #: Super-long-line routes between adjacent SLRs (U280: 23,040 per crossing).
    sll_per_crossing: int = 23_040
    #: QSFP28 network ports available for the ring.
    qsfp_ports: int = 2
    #: Per-port network bandwidth in bits/s (100 Gb/s).
    qsfp_bandwidth_bits: float = 100 * GIGA
    #: PCIe Gen3 x16 host bandwidth in bytes/s (paper: 16 GB/s).
    pcie_bandwidth: float = 16 * GIGA
    #: Board power while running DFX, in watts (paper Sec. VII-B: 45 W).
    board_power_watts: float = 45.0
    #: Retail price used in the cost analysis (Table II).
    unit_price_usd: float = 7_795.0

    # ------------------------------------------------------------------ derived
    @property
    def hbm_bytes_per_kernel_cycle(self) -> int:
        """Bytes the DMA can ingest per kernel cycle with all channels busy."""
        return self.hbm_channels * self.hbm_channel_bits // 8

    @property
    def slr_resources(self) -> ResourceBudget:
        """Approximate per-SLR resource budget (even split across dies)."""
        return self.resources.scaled(1.0 / self.num_slr)


#: Default device spec shared across the library.
DEFAULT_U280 = U280Spec()
