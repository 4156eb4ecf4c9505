"""Projections to larger GPT models (the paper's "applicable to GPT-3" claim).

Sec. II-A argues the DFX acceleration strategy carries over to GPT-3 because
the model structure is identical, only larger.  This module builds GPT-3-style
configurations, sizes the cluster each one needs (HBM capacity for the weight
partition plus the KV cache), and projects per-token latency and throughput
with the same appliance simulator used for the paper models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.appliance import DFXAppliance
from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.errors import PartitioningError, check_number
from repro.fpga.memory import kv_cache_bytes
from repro.fpga.u280 import DEFAULT_U280, U280Spec
from repro.model.config import GPT2Config
from repro.parallel.partitioner import build_partition_plan
from repro.workloads import Workload

#: GPT-3 family configurations (Brown et al., 2020), head dim fixed at 64-128.
GPT3_1_3B = GPT2Config(name="gpt3-1.3b", n_layer=24, n_embd=2048, n_head=32,
                       n_positions=2048)
GPT3_2_7B = GPT2Config(name="gpt3-2.7b", n_layer=32, n_embd=2560, n_head=32,
                       n_positions=2048)
GPT3_6_7B = GPT2Config(name="gpt3-6.7b", n_layer=32, n_embd=4096, n_head=32,
                       n_positions=2048)
GPT3_13B = GPT2Config(name="gpt3-13b", n_layer=40, n_embd=5120, n_head=40,
                      n_positions=2048)

#: The projection sweep used by the example and the scorecard.
GPT3_FAMILY: tuple[GPT2Config, ...] = (GPT3_1_3B, GPT3_2_7B, GPT3_6_7B, GPT3_13B)


@dataclass(frozen=True)
class ClusterSizing:
    """How many FPGAs a model needs and why."""

    config: GPT2Config
    num_devices: int
    weight_bytes_per_device: int
    kv_cache_bytes_per_device: int
    #: HBM capacity of the device the model was sized against.
    hbm_capacity_bytes: int

    @property
    def hbm_bytes_per_device(self) -> int:
        return self.weight_bytes_per_device + self.kv_cache_bytes_per_device

    @property
    def hbm_utilization(self) -> float:
        """Fraction of each device's HBM the partition occupies."""
        return self.hbm_bytes_per_device / self.hbm_capacity_bytes


def minimum_cluster_size(
    config: GPT2Config,
    max_context_tokens: int | None = None,
    spec: U280Spec = DEFAULT_U280,
    candidate_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    hbm_headroom: float = 0.9,
) -> ClusterSizing:
    """Smallest cluster whose per-device HBM footprint fits with headroom.

    Args:
        config: Model configuration to place.
        max_context_tokens: KV-cache depth to provision for (defaults to the
            model's full context window).
        spec: Device specification.
        candidate_sizes: Cluster sizes to consider, in increasing order; sizes
            that do not divide the head count are skipped.
        hbm_headroom: Fraction of HBM allowed to be used (the remainder is
            left for activations, instruction buffers, and fragmentation).

    Raises:
        ConfigurationError: if an argument is out of range.
        PartitioningError: if no candidate size fits.
    """
    check_number("hbm_headroom", hbm_headroom, 0.0, 1.0, open_low=True)
    for size in candidate_sizes:
        check_number("candidate_sizes", size, 1, integer=True)
    if max_context_tokens is None:
        max_tokens = config.n_positions
    else:
        max_tokens = check_number("max_context_tokens", max_context_tokens, 1, integer=True)
    for size in candidate_sizes:
        if config.n_head % size != 0:
            continue
        plan = build_partition_plan(config, size)
        weights = plan.device_weight_bytes()
        kv = kv_cache_bytes(
            n_layer=config.n_layer,
            n_head_local=config.n_head // size,
            head_dim=config.head_dim,
            max_tokens=max_tokens,
        )
        if weights + kv <= hbm_headroom * spec.hbm_capacity_bytes:
            return ClusterSizing(
                config=config,
                num_devices=size,
                weight_bytes_per_device=weights,
                kv_cache_bytes_per_device=kv,
                hbm_capacity_bytes=spec.hbm_capacity_bytes,
            )
    raise PartitioningError(
        f"{config.name} does not fit any candidate cluster size {candidate_sizes} "
        f"within {hbm_headroom:.0%} of HBM"
    )


@dataclass(frozen=True)
class ModelProjection:
    """Projected DFX performance for one (larger-than-paper) model."""

    sizing: ClusterSizing
    workload: Workload
    latency_ms: float
    tokens_per_second: float
    per_token_generation_ms: float

    @property
    def config(self) -> GPT2Config:
        return self.sizing.config


def project_model(
    config: GPT2Config,
    workload: Workload = Workload(64, 64),
    calibration: Calibration = DEFAULT_CALIBRATION,
    max_context_tokens: int | None = None,
) -> ModelProjection:
    """Size the cluster for ``config`` and project its DFX performance."""
    sizing = minimum_cluster_size(config, max_context_tokens=max_context_tokens)
    appliance = DFXAppliance(
        config,
        num_devices=sizing.num_devices,
        calibration=calibration,
        check_capacity=False,
    )
    result = appliance.run(workload)
    per_token_s = appliance.per_token_generation_seconds(workload.total_tokens)
    return ModelProjection(
        sizing=sizing,
        workload=workload,
        latency_ms=result.latency_ms,
        tokens_per_second=result.tokens_per_second,
        per_token_generation_ms=per_token_s * 1e3,
    )


def project_family(
    configs: tuple[GPT2Config, ...] = GPT3_FAMILY,
    workload: Workload = Workload(64, 64),
    calibration: Calibration = DEFAULT_CALIBRATION,
    max_context_tokens: int | None = 1024,
) -> list[ModelProjection]:
    """Project the whole GPT-3-style family (skipping models that cannot fit)."""
    projections = []
    for config in configs:
        try:
            projections.append(
                project_model(config, workload, calibration, max_context_tokens)
            )
        except PartitioningError:
            continue
    return projections
