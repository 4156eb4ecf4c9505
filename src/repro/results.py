"""Result containers shared by the DFX simulator and the baseline models.

Both the DFX appliance simulator and the GPU/TPU analytical models report an
:class:`InferenceResult` per workload, so the analysis layer (speedups,
throughput, energy efficiency, breakdowns) is platform-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import check_number
from repro.workloads import Workload

# Breakdown phase labels (paper Fig. 4 and Fig. 15 categories).
PHASE_SELF_ATTENTION = "self_attention"
PHASE_FFN = "feed_forward_network"
PHASE_LAYERNORM = "layernorm"
PHASE_RESIDUAL = "residual"
PHASE_SYNC = "synchronization"
PHASE_EMBEDDING = "embedding"
PHASE_LM_HEAD = "lm_head"
PHASE_OTHER = "other"

#: Phases reported in the DFX latency breakdown (Fig. 15).
DFX_BREAKDOWN_PHASES: tuple[str, ...] = (
    PHASE_SELF_ATTENTION,
    PHASE_FFN,
    PHASE_SYNC,
    PHASE_LAYERNORM,
    PHASE_RESIDUAL,
)

#: Phases reported in the GPU breakdown (Fig. 4).
GPU_BREAKDOWN_PHASES: tuple[str, ...] = (
    PHASE_LAYERNORM,
    PHASE_SELF_ATTENTION,
    PHASE_RESIDUAL,
    PHASE_FFN,
)


@dataclass
class StageLatency:
    """Latency of one stage (summarization or generation) with its breakdown."""

    latency_ms: float
    breakdown_ms: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_number("latency_ms", self.latency_ms, 0.0)

    def merge(self, other: "StageLatency") -> "StageLatency":
        """Return a new stage latency combining this one and ``other``."""
        merged = dict(self.breakdown_ms)
        for phase, value in other.breakdown_ms.items():
            merged[phase] = merged.get(phase, 0.0) + value
        return StageLatency(self.latency_ms + other.latency_ms, merged)


@dataclass
class InferenceResult:
    """End-to-end result of one text-generation request on one platform.

    Attributes:
        platform: e.g. ``"dfx"``, ``"gpu-appliance"``, ``"tpu"``.
        model_name: Model configuration label (``"gpt2-1.5b"``).
        workload: The [input:output] request shape.
        num_devices: Number of accelerators used.
        summarization: Summarization-stage latency and breakdown.
        generation: Generation-stage latency and breakdown.
        total_power_watts: Appliance accelerator power draw while running.
        flops: Total floating-point operations performed for the request.
    """

    platform: str
    model_name: str
    workload: Workload
    num_devices: int
    summarization: StageLatency
    generation: StageLatency
    total_power_watts: float = 0.0
    flops: float = 0.0

    # ------------------------------------------------------------------ totals
    @property
    def latency_ms(self) -> float:
        """End-to-end latency in milliseconds."""
        return self.summarization.latency_ms + self.generation.latency_ms

    @property
    def latency_s(self) -> float:
        """End-to-end latency in seconds."""
        return self.latency_ms / 1_000.0

    @property
    def breakdown_ms(self) -> dict[str, float]:
        """Combined per-phase latency across both stages (milliseconds)."""
        return self.summarization.merge(self.generation).breakdown_ms

    def breakdown_fractions(self) -> dict[str, float]:
        """Per-phase share of the accounted latency (sums to 1.0)."""
        breakdown = self.breakdown_ms
        accounted = sum(breakdown.values())
        if accounted <= 0:
            return {phase: 0.0 for phase in breakdown}
        return {phase: value / accounted for phase, value in breakdown.items()}

    # ----------------------------------------------------------------- metrics
    @property
    def tokens_per_second(self) -> float:
        """Output tokens divided by end-to-end latency (paper's throughput)."""
        if self.latency_s == 0:
            return 0.0
        return self.workload.output_tokens / self.latency_s

    @property
    def energy_joules(self) -> float:
        """Accelerator energy for the request (power × latency)."""
        return self.total_power_watts * self.latency_s

    @property
    def tokens_per_joule(self) -> float:
        """Energy efficiency: output tokens per joule."""
        if self.energy_joules == 0:
            return 0.0
        return self.workload.output_tokens / self.energy_joules

    @property
    def gflops(self) -> float:
        """Achieved GFLOP/s over the whole request."""
        if self.latency_s == 0:
            return 0.0
        return self.flops / self.latency_s / 1e9

    @property
    def summarization_gflops(self) -> float:
        """Achieved GFLOP/s during the summarization stage only.

        Uses the summarization share of total FLOPs, which is proportional to
        the number of prompt tokens processed.
        """
        if self.summarization.latency_ms <= 0 or self.workload.total_tokens == 0:
            return 0.0
        share = self.workload.input_tokens / self.workload.total_tokens
        return (self.flops * share) / (self.summarization.latency_ms / 1e3) / 1e9

    @property
    def generation_gflops(self) -> float:
        """Achieved GFLOP/s during the generation stage only."""
        if self.generation.latency_ms <= 0 or self.workload.total_tokens == 0:
            return 0.0
        share = self.workload.output_tokens / self.workload.total_tokens
        return (self.flops * share) / (self.generation.latency_ms / 1e3) / 1e9
