"""Calibrated analytical model of the V100 GPU appliance baseline.

The GPU appliance is the paper's *measured* baseline (Megatron-LM on up to
four V100s), not its contribution, so we reproduce it with a parametric
latency model whose coefficients are fitted to the paper's published
measurements (Fig. 3, Fig. 4, Fig. 14).  The model captures the two behaviours
the paper builds its argument on:

* the **generation stage is overhead-bound**: each token pays a fixed
  per-layer cost (kernel launches, small-matrix underutilization, NCCL
  all-reduces) of ~1.5 ms regardless of model width, so every additional
  output token adds ~n_layer x 1.5 ms;
* the **summarization stage is cheap at the margin**: additional input tokens
  ride along in the already-launched kernels, adding only ~0.02 ms each.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.specs import DEFAULT_V100, GPUSpec
from repro.errors import ConfigurationError, check_number
from repro.model.config import GPT2Config
from repro.results import (
    InferenceResult,
    PHASE_FFN,
    PHASE_LAYERNORM,
    PHASE_LM_HEAD,
    PHASE_RESIDUAL,
    PHASE_SELF_ATTENTION,
    StageLatency,
)
from repro.workloads import Workload

#: Platform label used in results.
GPU_PLATFORM = "gpu-appliance"

#: Measured per-layer latency breakdown on the GPU (paper Fig. 4).
GPU_LAYER_TIME_FRACTIONS: dict[str, float] = {
    PHASE_LAYERNORM: 0.099,
    PHASE_SELF_ATTENTION: 0.565,
    PHASE_RESIDUAL: 0.129,
    PHASE_FFN: 0.207,
}


@dataclass(frozen=True)
class GPUCalibration:
    """Fitted coefficients of the GPU latency model.

    Attributes:
        kernel_overhead_per_layer_ms: Fixed per-layer cost of one decoder
            layer's kernel sequence at batch 1 (launch + sync dominated).
        per_layer_width_coeff_ms: Width-dependent kernel time per layer,
            multiplied by the embedding dimension.
        allreduce_ms: Latency of one NCCL all-reduce at these payload sizes;
            Megatron performs two per decoder layer when model parallel.
        weight_bandwidth_efficiency: Fraction of HBM2 peak achieved when
            reading weights during the generation stage.
        marginal_input_token_ms: Extra summarization cost per input token
            (fixed part; the FLOP-proportional part is added separately).
        marginal_input_tflops: Effective TFLOP/s applied to the incremental
            FLOPs of additional input tokens.
        lm_head_base_ms: Per-token LM head + sampling + host cost on 1 GPU.
        lm_head_per_extra_gpu_ms: Additional per-token cost per extra GPU
            (vocabulary-parallel logits gather and host synchronization).
    """

    kernel_overhead_per_layer_ms: float = 1.40
    per_layer_width_coeff_ms: float = 5.0e-5
    allreduce_ms: float = 0.05
    weight_bandwidth_efficiency: float = 0.65
    marginal_input_token_ms: float = 0.008
    marginal_input_tflops: float = 120.0
    lm_head_base_ms: float = 0.2
    lm_head_per_extra_gpu_ms: float = 2.7


DEFAULT_GPU_CALIBRATION = GPUCalibration()


class GPUAppliance:
    """Analytical latency/energy model of an N-GPU Megatron-LM appliance."""

    def __init__(
        self,
        config: GPT2Config,
        num_devices: int = 4,
        spec: GPUSpec = DEFAULT_V100,
        calibration: GPUCalibration = DEFAULT_GPU_CALIBRATION,
    ) -> None:
        check_number("num_devices", num_devices, 1, integer=True)
        if config.n_head % num_devices != 0:
            raise ConfigurationError(
                f"{config.name}: {config.n_head} heads cannot be tensor-parallelized "
                f"across {num_devices} GPUs"
            )
        self.config = config
        self.num_devices = num_devices
        self.spec = spec
        self.calibration = calibration

    # ----------------------------------------------------------------- pieces
    def per_layer_ms(self) -> float:
        """Per-token cost of one decoder layer during the generation stage."""
        cal = self.calibration
        emb = self.config.n_embd
        weight_bytes = 12 * emb * emb * 2 / self.num_devices
        bandwidth = self.spec.memory_bandwidth * cal.weight_bandwidth_efficiency
        weight_ms = weight_bytes / bandwidth * 1e3
        allreduce_ms = 2 * cal.allreduce_ms if self.num_devices > 1 else 0.0
        return (
            cal.kernel_overhead_per_layer_ms
            + cal.per_layer_width_coeff_ms * emb
            + weight_ms
            + allreduce_ms
        )

    def lm_head_ms(self) -> float:
        """Per-token LM head, sampling, and host-synchronization cost."""
        cal = self.calibration
        return cal.lm_head_base_ms + (self.num_devices - 1) * cal.lm_head_per_extra_gpu_ms

    def per_token_generation_ms(self) -> float:
        """Latency of one generation-stage iteration."""
        return self.config.n_layer * self.per_layer_ms() + self.lm_head_ms()

    def summarization_ms(self, input_tokens: int) -> float:
        """Latency of the summarization stage for ``input_tokens`` tokens.

        The first token's pass costs the same fixed per-layer overhead as a
        generation step; each additional prompt token adds only a small
        marginal cost because it rides in the same kernels.
        """
        check_number("input_tokens", input_tokens, 1, integer=True)
        cal = self.calibration
        base = self.per_token_generation_ms()
        extra_tokens = input_tokens - 1
        flops_per_token = 2.0 * 12 * self.config.n_embd**2 * self.config.n_layer
        marginal_flop_ms = flops_per_token / (cal.marginal_input_tflops * 1e12) * 1e3
        return base + extra_tokens * (cal.marginal_input_token_ms + marginal_flop_ms)

    # ------------------------------------------------------------------ FLOPs
    def request_flops(self, workload: Workload) -> float:
        """Model FLOPs for one request (used for achieved-GFLOPS reporting)."""
        emb = self.config.n_embd
        per_token_dense = 2.0 * 12 * emb * emb * self.config.n_layer
        lm_head = 2.0 * emb * self.config.vocab_size
        total = 0.0
        context = 0
        for _ in range(workload.input_tokens):
            context += 1
            total += per_token_dense + 4.0 * emb * context * self.config.n_layer
        total += lm_head
        for _ in range(workload.output_tokens - 1):
            context += 1
            total += per_token_dense + 4.0 * emb * context * self.config.n_layer
            total += lm_head
        return total

    def operation_count_fractions(self) -> dict[str, float]:
        """Share of raw operations per phase (the right bar of Fig. 4)."""
        emb = self.config.n_embd
        attention_ops = 2.0 * 4 * emb * emb
        ffn_ops = 2.0 * 8 * emb * emb
        layernorm_ops = 2.0 * 8 * emb
        residual_ops = 2.0 * emb
        total = attention_ops + ffn_ops + layernorm_ops + residual_ops
        return {
            PHASE_LAYERNORM: layernorm_ops / total,
            PHASE_SELF_ATTENTION: attention_ops / total,
            PHASE_RESIDUAL: residual_ops / total,
            PHASE_FFN: ffn_ops / total,
        }

    # ------------------------------------------------------------------ batching
    def batched_per_token_generation_ms(self, batch_size: int) -> float:
        """Per-request generation cost per token when ``batch_size`` requests share kernels.

        Batching amortizes the fixed per-layer kernel overhead across the
        batch but adds compute/bandwidth that grows with the batch; with the
        small per-token math of GPT-2 the fixed overhead dominates, which is
        why batching helps GPU *throughput* substantially (Sec. III-A).
        """
        check_number("batch_size", batch_size, 1, integer=True)
        fixed = self.config.n_layer * self.per_layer_ms() + self.lm_head_ms()
        # Compute term: the batch's extra rows ride through the same kernels at
        # the marginal-input cost used for the summarization stage.
        flops_per_token = 2.0 * 12 * self.config.n_embd**2 * self.config.n_layer
        marginal_ms = flops_per_token / (self.calibration.marginal_input_tflops * 1e12) * 1e3
        batch_ms = fixed + (batch_size - 1) * (marginal_ms + self.calibration.marginal_input_token_ms)
        return batch_ms / batch_size

    def batched_request_latency_ms(
        self, workload: Workload, batch_size: int, batch_gather_ms: float = 0.0
    ) -> float:
        """End-to-end latency of one request inside a batch of ``batch_size``.

        ``batch_gather_ms`` models the time spent waiting to fill the batch
        from independent user requests — the reason the paper says datacenters
        prefer running non-batched despite the throughput gain (Sec. III-A).
        """
        check_number("batch_gather_ms", batch_gather_ms, 0.0)
        per_token = self.batched_per_token_generation_ms(batch_size)
        generation = (workload.output_tokens - 1) * per_token * batch_size
        # All batched requests finish together: the batch's generation time is
        # batch_size * per-request-share; summarization is shared similarly.
        summarization = self.summarization_ms(workload.input_tokens)
        return batch_gather_ms + summarization + generation

    # --------------------------------------------------------------------- run
    def _layer_breakdown(self, layer_ms_total: float) -> dict[str, float]:
        return {
            phase: layer_ms_total * fraction
            for phase, fraction in GPU_LAYER_TIME_FRACTIONS.items()
        }

    def run(self, workload: Workload) -> InferenceResult:
        """Model one text-generation request on the GPU appliance."""
        summarization_ms = self.summarization_ms(workload.input_tokens)
        generation_iterations = workload.output_tokens - 1
        generation_ms = generation_iterations * self.per_token_generation_ms()

        summ_layers_ms = summarization_ms - self.lm_head_ms()
        summ_breakdown = self._layer_breakdown(max(summ_layers_ms, 0.0))
        summ_breakdown[PHASE_LM_HEAD] = self.lm_head_ms()

        gen_layers_ms = generation_iterations * self.config.n_layer * self.per_layer_ms()
        gen_breakdown = self._layer_breakdown(gen_layers_ms)
        gen_breakdown[PHASE_LM_HEAD] = generation_iterations * self.lm_head_ms()

        return InferenceResult(
            platform=GPU_PLATFORM,
            model_name=self.config.name,
            workload=workload,
            num_devices=self.num_devices,
            summarization=StageLatency(summarization_ms, summ_breakdown),
            generation=StageLatency(generation_ms, gen_breakdown),
            total_power_watts=self.num_devices * self.spec.average_power_watts,
            flops=self.request_flops(workload),
        )

    def run_many(self, workloads: list[Workload]) -> list[InferenceResult]:
        """Run a list of workloads (the Fig. 14 grid)."""
        return [self.run(workload) for workload in workloads]
