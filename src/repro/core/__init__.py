"""The DFX accelerator model: tiling, unit timing models, scheduler, compute
core, device, appliance, and the functional interpreter."""

from repro.core.calibration import Calibration, DEFAULT_CALIBRATION, IDEAL_CALIBRATION
from repro.core.tiling import (
    TILE_DESIGN_POINTS,
    TilingConfig,
    design_space_mha_sweep,
    multi_head_attention_gflops,
)
from repro.core.mpu import MPUModel, MatrixTiming
from repro.core.vpu import VPUModel, VectorTiming
from repro.core.dma import DMAModel, DMATiming
from repro.core.router import RouterModel, RouterTiming
from repro.core.scoreboard import Scoreboard
from repro.core.scheduler import InstructionTrace, ProgramTiming, TimingScheduler
from repro.core.compute_core import ComputeCore, TokenStepTiming
from repro.core.device import FPGADevice, MemoryFootprint
from repro.core.appliance import DFXAppliance, DFX_PLATFORM
from repro.core.functional import (
    DFXFunctionalSimulator,
    FunctionalCore,
    LinkedProgram,
    link_program,
)

__all__ = [
    "Calibration",
    "DEFAULT_CALIBRATION",
    "IDEAL_CALIBRATION",
    "TILE_DESIGN_POINTS",
    "TilingConfig",
    "design_space_mha_sweep",
    "multi_head_attention_gflops",
    "MPUModel",
    "MatrixTiming",
    "VPUModel",
    "VectorTiming",
    "DMAModel",
    "DMATiming",
    "RouterModel",
    "RouterTiming",
    "Scoreboard",
    "InstructionTrace",
    "ProgramTiming",
    "TimingScheduler",
    "ComputeCore",
    "TokenStepTiming",
    "FPGADevice",
    "MemoryFootprint",
    "DFXAppliance",
    "DFX_PLATFORM",
    "DFXFunctionalSimulator",
    "FunctionalCore",
    "LinkedProgram",
    "link_program",
]
