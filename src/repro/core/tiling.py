"""Weight tiling scheme (paper Sec. V-B, Fig. 8/9).

Weights are stored in HBM as ``d x l`` tiles: ``d`` is the tile (row) depth fed
to each tree MAC and ``l`` is the number of lanes (columns computed in
parallel).  One tile — ``d*l`` FP16 values, 2 KiB for the chosen (64, 16) — is
exactly what the 32x512-bit HBM interface delivers per cycle, so the MPU and
the memory interface are balanced by construction.

The module also reproduces the design-space exploration of Fig. 8a: with the
MAC count fixed at 1024, points with ``d`` larger than the attention head
dimension waste rows when computing ``Q x K^T`` and points with ``l`` larger
than the head dimension waste lanes when computing ``Score x Value``, which is
why (64, 16), (32, 32), and (16, 64) tie for performance and (8, 128) /
(128, 8) fall behind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.fpga.resources import TILE_DESIGN_POINTS
from repro.model.config import GPT2Config

#: The tile shape DFX standardizes on.
DEFAULT_TILE = (64, 16)


@dataclass(frozen=True)
class TilingConfig:
    """A (d, l) tile shape with FP16 data."""

    d: int = 64
    l: int = 16
    data_bits: int = 16

    def __post_init__(self) -> None:
        if self.d <= 0 or self.l <= 0:
            raise ConfigurationError(f"tile dims must be positive, got ({self.d}, {self.l})")
        if self.data_bits <= 0:
            raise ConfigurationError("data_bits must be positive")

    # ------------------------------------------------------------------ sizing
    @property
    def macs_per_cycle(self) -> int:
        """Multiply-accumulates performed per cycle (d * l)."""
        return self.d * self.l

    @property
    def tile_elements(self) -> int:
        """Weight elements per tile."""
        return self.d * self.l

    @property
    def tile_bytes(self) -> int:
        """Bytes per tile."""
        return self.tile_elements * self.data_bits // 8

    def tiles_for(self, in_dim: int, out_dim: int) -> int:
        """Tiles needed to cover an ``in_dim x out_dim`` weight matrix."""
        if in_dim <= 0 or out_dim <= 0:
            raise ConfigurationError("matrix dims must be positive")
        return math.ceil(in_dim / self.d) * math.ceil(out_dim / self.l)

    def effective_rows(self, in_dim: int) -> int:
        """MAC rows actually used when the contraction dim is ``in_dim``."""
        return min(self.d, in_dim)

    def effective_lanes(self, out_dim: int) -> int:
        """Lanes actually used when the output dim is ``out_dim``."""
        return min(self.l, out_dim)

    def utilization(self, in_dim: int, out_dim: int) -> float:
        """Fraction of the d*l MACs doing useful work for this matrix shape."""
        last_row = in_dim % self.d or self.d
        last_lane = out_dim % self.l or self.l
        full_row_tiles = in_dim // self.d
        full_lane_tiles = out_dim // self.l
        useful = (
            full_row_tiles * self.d + (1 if in_dim % self.d else 0) * last_row
        ) * (
            full_lane_tiles * self.l + (1 if out_dim % self.l else 0) * last_lane
        )
        return useful / (self.tiles_for(in_dim, out_dim) * self.macs_per_cycle)


def multi_head_attention_gflops(
    tiling: TilingConfig,
    config: GPT2Config,
    kv_length: int = 64,
    kernel_frequency_hz: float = 200e6,
) -> float:
    """Achieved GFLOP/s of the multi-head-attention kernels for a tile shape.

    Reproduces the Fig. 8a comparison: per head, ``Q x K^T`` contracts over
    ``head_dim`` (underutilized when ``d > head_dim``) and ``Score x Value``
    produces ``head_dim`` columns (underutilized when ``l > head_dim``).
    """
    head_dim = config.head_dim
    # Q x K^T: in_dim = head_dim, out_dim = kv_length.
    score_tiles = tiling.tiles_for(head_dim, kv_length)
    score_flops = 2.0 * head_dim * kv_length
    # Score x Value: in_dim = kv_length, out_dim = head_dim.
    context_tiles = tiling.tiles_for(kv_length, head_dim)
    context_flops = 2.0 * kv_length * head_dim
    total_cycles = score_tiles + context_tiles
    total_flops = score_flops + context_flops
    flops_per_second = total_flops / total_cycles * kernel_frequency_hz
    return flops_per_second / 1e9


def design_space_mha_sweep(
    config: GPT2Config, kv_length: int = 64
) -> dict[tuple[int, int], float]:
    """Fig. 8a: multi-head-attention GFLOP/s for every candidate tile shape."""
    return {
        (d, l): multi_head_attention_gflops(TilingConfig(d, l), config, kv_length)
        for d, l in TILE_DESIGN_POINTS
    }


@dataclass(frozen=True)
class LoadingDirection:
    """Weight loading direction trade-off (paper Fig. 9).

    The horizontal direction maximizes input reuse but needs one partial-sum
    buffer per output column; the vertical direction needs a single buffer but
    no input reuse; DFX's zigzag over ``d x d`` blocks balances both.
    """

    name: str
    partial_sum_buffers: int
    input_reuse_factor: float


def loading_direction_tradeoffs(
    tiling: TilingConfig, config: GPT2Config
) -> tuple[LoadingDirection, ...]:
    """Buffer-count / reuse comparison of the three loading directions."""
    emb = config.n_embd
    return (
        LoadingDirection(
            name="horizontal",
            partial_sum_buffers=math.ceil(emb / tiling.l),
            input_reuse_factor=emb / tiling.d,
        ),
        LoadingDirection(
            name="vertical",
            partial_sum_buffers=1,
            input_reuse_factor=1.0,
        ),
        LoadingDirection(
            name="zigzag",
            partial_sum_buffers=math.ceil(tiling.d / tiling.l),
            input_reuse_factor=tiling.d / tiling.l,
        ),
    )
