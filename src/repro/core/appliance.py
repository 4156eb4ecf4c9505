"""DFX appliance: end-to-end text-generation latency on a multi-FPGA cluster.

This is the top-level entry point of the performance model: given a GPT-2
configuration, a device count, and a workload, it simulates the summarization
stage (one pass over the prompt) and every generation-stage iteration (one
token at a time with a growing KV cache) and reports an
:class:`~repro.results.InferenceResult` with per-phase breakdowns, throughput,
energy, and achieved FLOP/s.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.compute_core import TokenStepTiming
from repro.core.device import FPGADevice
from repro.core.scheduler import ProgramTiming
from repro.core.tiling import TilingConfig
from repro.errors import ConfigurationError, check_number
from repro.fpga.u280 import DEFAULT_U280, U280Spec
from repro.model.config import GPT2Config
from repro.parallel.partitioner import build_partition_plan
from repro.results import InferenceResult, StageLatency
from repro.workloads import Workload

#: Platform label used in results.
DFX_PLATFORM = "dfx"


def _stage_latency(
    timings: list[ProgramTiming],
    stage_seconds: float,
) -> StageLatency:
    """Convert accumulated program timings into a stage latency + breakdown.

    The per-phase breakdown distributes the stage's wall-clock time according
    to each phase's share of unit-occupancy cycles (overlap between units
    means occupancy does not sum exactly to the critical path, so shares are
    normalized before scaling).
    """
    merged: dict[str, float] = {}
    for timing in timings:
        for tag, cycles in timing.cycles_by_tag.items():
            merged[tag] = merged.get(tag, 0.0) + cycles
    accounted = sum(merged.values())
    stage_ms = stage_seconds * 1e3
    if accounted <= 0:
        return StageLatency(latency_ms=stage_ms, breakdown_ms={})
    breakdown = {
        tag: stage_ms * cycles / accounted for tag, cycles in merged.items()
    }
    return StageLatency(latency_ms=stage_ms, breakdown_ms=breakdown)


class DFXAppliance:
    """The DFX server appliance: CPUs plus a homogeneous FPGA cluster.

    The cluster is a ring of identical FPGAs, each running the identical
    instruction stream on an equal slice of the model (paper Sec. IV-B), and
    the ring synchronizations are part of every device's program, so device
    0's step latency is the cluster's step latency.
    """

    def __init__(
        self,
        config: GPT2Config,
        num_devices: int = 4,
        spec: U280Spec = DEFAULT_U280,
        calibration: Calibration = DEFAULT_CALIBRATION,
        tiling: TilingConfig | None = None,
        check_capacity: bool = True,
    ) -> None:
        self.config = config
        self.num_devices = num_devices
        self.spec = spec
        self.calibration = calibration
        self.device = FPGADevice(
            config=config,
            plan=build_partition_plan(config, num_devices),
            device_id=0,
            spec=spec,
            calibration=calibration,
            tiling=tiling,
        )
        if check_capacity:
            self.device.check_capacity()

    def _request_steps(
        self, workload: Workload, batch: int
    ) -> Iterator[tuple[bool, TokenStepTiming]]:
        """Yield ``(generating, step)`` for every token step of one request.

        Summarization streams the prompt through the same single-token
        (matrix-vector) datapath one position after another — DFX has no
        batched matrix-matrix path, which is why the paper measures the same
        ~constant GFLOP/s in both stages (Fig. 17) and a summarization cost
        that grows linearly with the prompt length (Fig. 14).  Generation
        then runs one iteration per further token with a growing KV cache.
        Every step carries ``batch`` lockstep streams.
        """
        if workload.total_tokens > self.config.n_positions:
            raise ConfigurationError(
                f"workload {workload.label} exceeds the model's context window "
                f"({self.config.n_positions} tokens)"
            )
        token_step = self.device.core.token_step
        for past_length in range(workload.total_tokens - 1):
            yield past_length >= workload.input_tokens, token_step(batch, past_length)

    # ---------------------------------------------------------------------- run
    def run(self, workload: Workload) -> InferenceResult:
        """Simulate one text-generation request and return its result."""
        frequency = self.spec.kernel_frequency_hz
        host_overhead = self.calibration.host_overhead_per_token_s
        summarization_timings: list[ProgramTiming] = []
        generation_timings: list[ProgramTiming] = []
        # One host hand-off starts summarization; each generation step adds one.
        summarization_seconds = host_overhead
        generation_seconds = 0.0
        total_flops = 0.0
        for generating, step in self._request_steps(workload, batch=1):
            if generating:
                generation_timings.append(step.timing)
                generation_seconds += step.seconds(frequency) + host_overhead
            else:
                summarization_timings.append(step.timing)
                summarization_seconds += step.seconds(frequency)
            total_flops += step.flops_per_device * self.num_devices

        return InferenceResult(
            platform=DFX_PLATFORM,
            model_name=self.config.name,
            workload=workload,
            num_devices=self.num_devices,
            summarization=_stage_latency(summarization_timings, summarization_seconds),
            generation=_stage_latency(generation_timings, generation_seconds),
            total_power_watts=self.num_devices * self.spec.board_power_watts,
            flops=total_flops,
        )

    # ---------------------------------------------------------------- utilities
    def per_token_generation_seconds(self, context_length: int) -> float:
        """Latency of a single generation-stage iteration at a given context."""
        check_number(
            "context_length", context_length, 0, self.config.n_positions,
            integer=True,
        )
        step = self.device.core.token_step(1, context_length)
        return (
            step.seconds(self.spec.kernel_frequency_hz)
            + self.calibration.host_overhead_per_token_s
        )

    def batched_request_seconds(self, workload: Workload, batch: int) -> float:
        """Per-request latency when ``batch`` identical requests run as one
        lockstep cohort on the batched functional engine.

        The same steps as :meth:`run`, but each step carries ``batch`` rows
        that share one weight stream, and the host hand-off is paid once per
        cohort step instead of once per stream.  All streams finish together,
        so the cohort's wall clock *is* the per-request latency.
        """
        check_number("batch", batch, 1, integer=True)
        frequency = self.spec.kernel_frequency_hz
        host_overhead = self.calibration.host_overhead_per_token_s
        seconds = host_overhead
        for generating, step in self._request_steps(workload, batch):
            if generating:
                seconds += step.seconds(frequency) + host_overhead
            else:
                seconds += step.seconds(frequency)
        return seconds

    def run_many(self, workloads: list[Workload]) -> list[InferenceResult]:
        """Run a list of workloads (the Fig. 14 grid) and return all results."""
        return [self.run(workload) for workload in workloads]
