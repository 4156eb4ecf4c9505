"""FPGA hardware substrate: Alveo U280 spec (capacities, bandwidths, board
power), KV-cache sizing, the Aurora ring link, resource estimation, and SLR
floorplanning."""

from repro.fpga.u280 import DEFAULT_U280, ResourceBudget, U280Spec
from repro.fpga.memory import kv_cache_bytes
from repro.fpga.aurora import AURORA_ENCODING_EFFICIENCY, AuroraLinkModel
from repro.fpga.resources import (
    CORE_COMPONENTS,
    CoreResourceReport,
    ResourceUsage,
    TILE_DESIGN_POINTS,
    design_space_resource_sweep,
    estimate_core_resources,
    estimate_mpu,
    mpu_dsp_count,
)
from repro.fpga.floorplan import FloorplanResult, SLRAssignment, plan_floorplan

__all__ = [
    "DEFAULT_U280",
    "ResourceBudget",
    "U280Spec",
    "kv_cache_bytes",
    "AURORA_ENCODING_EFFICIENCY",
    "AuroraLinkModel",
    "CORE_COMPONENTS",
    "CoreResourceReport",
    "ResourceUsage",
    "TILE_DESIGN_POINTS",
    "design_space_resource_sweep",
    "estimate_core_resources",
    "estimate_mpu",
    "mpu_dsp_count",
    "FloorplanResult",
    "SLRAssignment",
    "plan_floorplan",
]
