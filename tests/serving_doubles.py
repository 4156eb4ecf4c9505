"""Shared backend test doubles for the serving test modules.

Each double is a platform model with ``run(workload)`` that serves as its
own :class:`~repro.backends.base.AnalyticBackend` (it wraps ``self``), so
the serving layer takes it as a backend instance named after its class.
"""

from repro.backends import AnalyticBackend
from repro.results import InferenceResult, StageLatency
from repro.workloads import Workload


class FixedLatencyPlatform(AnalyticBackend):
    """Test double: every request takes exactly ``latency_s`` seconds."""

    def __init__(self, latency_s: float, power_watts: float = 100.0):
        self.latency_s = latency_s
        self.power_watts = power_watts
        super().__init__(self)

    def run(self, workload: Workload) -> InferenceResult:
        return InferenceResult(
            platform="fixed",
            model_name="test",
            workload=workload,
            num_devices=1,
            summarization=StageLatency(self.latency_s * 1e3 / 2),
            generation=StageLatency(self.latency_s * 1e3 / 2),
            total_power_watts=self.power_watts,
        )


class TokenProportionalPlatform(AnalyticBackend):
    """Test double: service time is ``output_tokens * seconds_per_token``."""

    def __init__(self, seconds_per_token: float = 0.1):
        self.seconds_per_token = seconds_per_token
        super().__init__(self)

    def run(self, workload: Workload) -> InferenceResult:
        latency_ms = workload.output_tokens * self.seconds_per_token * 1e3
        return InferenceResult(
            platform="proportional",
            model_name="test",
            workload=workload,
            num_devices=1,
            summarization=StageLatency(0.0),
            generation=StageLatency(latency_ms),
            total_power_watts=10.0,
        )


class BatchableTokenPlatform(AnalyticBackend):
    """Test double with the GPU batching interface.

    Mirrors the GPU baseline's shape: each decode step pays a fixed
    overhead regardless of batch size plus a marginal cost per extra
    batched row, so batching amortizes the fixed part.  Unbatched service
    time is ``output_tokens * fixed_ms_per_token`` milliseconds, and
    ``batched_request_latency_ms(w, 1)`` equals it exactly.
    """

    def __init__(self, fixed_ms_per_token: float = 100.0,
                 marginal_ms_per_token: float = 10.0,
                 power_watts: float = 50.0):
        self.fixed_ms_per_token = fixed_ms_per_token
        self.marginal_ms_per_token = marginal_ms_per_token
        self.power_watts = power_watts
        super().__init__(self)

    def batched_per_token_generation_ms(self, batch_size: int) -> float:
        """Per-request share of one decode step at ``batch_size``."""
        return (
            self.fixed_ms_per_token
            + (batch_size - 1) * self.marginal_ms_per_token
        ) / batch_size

    def batched_request_latency_ms(
        self, workload: Workload, batch_size: int, batch_gather_ms: float = 0.0
    ) -> float:
        step_ms = self.batched_per_token_generation_ms(batch_size) * batch_size
        return batch_gather_ms + workload.output_tokens * step_ms

    def run(self, workload: Workload) -> InferenceResult:
        return InferenceResult(
            platform="batchable",
            model_name="test",
            workload=workload,
            num_devices=1,
            summarization=StageLatency(0.0),
            generation=StageLatency(self.batched_request_latency_ms(workload, 1)),
            total_power_watts=self.power_watts,
        )
