"""One DFX compute core: compiler + functional units + timing scheduler.

A compute core is the per-FPGA accelerator of Fig. 7.  This class wires the
compiler (which knows the device's partition of the model) to the unit timing
models and the scheduler, and prices one token step per step shape, which the
appliance sums into end-to-end latencies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.dma import DMAModel
from repro.core.mpu import MPUModel
from repro.core.router import RouterModel
from repro.core.scheduler import ProgramTiming, TimingScheduler
from repro.core.tiling import TilingConfig
from repro.core.vpu import VPUModel
from repro.fpga.u280 import DEFAULT_U280, U280Spec
from repro.isa.compiler import DFXCompiler
from repro.model.config import GPT2Config
from repro.parallel.partitioner import PartitionPlan


@dataclass(frozen=True)
class TokenStepTiming:
    """Timing of one full token step (embedding + all layers + LM head)."""

    batch: int
    past_length: int
    timing: ProgramTiming
    flops_per_device: float

    def seconds(self, frequency_hz: float) -> float:
        """Wall-clock seconds of the step."""
        return self.timing.seconds(frequency_hz)


class ComputeCore:
    """Timing model of one DFX compute core executing its model partition."""

    def __init__(
        self,
        config: GPT2Config,
        plan: PartitionPlan,
        device_id: int = 0,
        spec: U280Spec = DEFAULT_U280,
        calibration: Calibration = DEFAULT_CALIBRATION,
        tiling: TilingConfig | None = None,
    ) -> None:
        self.config = config
        self.plan = plan
        self.device_id = device_id
        self.spec = spec
        self.calibration = calibration
        self.tiling = tiling or TilingConfig()
        self.compiler = DFXCompiler(config, plan, device_id)
        self.scheduler = TimingScheduler(
            mpu=MPUModel(tiling=self.tiling, spec=spec, calibration=calibration),
            vpu=VPUModel(calibration=calibration),
            dma=DMAModel(spec=spec, calibration=calibration),
            router=RouterModel(
                num_devices=plan.num_devices, spec=spec, calibration=calibration
            ),
        )
        self._steps: dict[tuple[int, int], TokenStepTiming] = {}

    def token_step(self, batch: int, past_length: int) -> TokenStepTiming:
        """Timing of one lockstep token step of ``batch`` streams on this device.

        Every stream advances by one token: the embedding handles ``batch``
        rows, the ``n_layer`` identical decoder layers (timed once and scaled)
        stream their weights once and multicast them across the cohort, and
        the LM head scores every stream's last row against one WTE pass.
        ``batch == 1`` is the single-stream step.  Memoized per
        ``(batch, past_length)``: returned timings are shared across calls
        and must not be mutated by callers.
        """
        key = (batch, past_length)
        step = self._steps.get(key)
        if step is None:
            step = self._steps[key] = self._time_step(batch, past_length)
        return step

    def _time_step(self, batch: int, past_length: int) -> TokenStepTiming:
        """Uncached token-step timing (see :meth:`token_step`)."""
        embedding = self.compiler.compile_embedding(batch)
        layer = self.compiler.compile_batched_decoder_step(batch, past_length)
        lm_head = self.compiler.compile_batched_lm_head(batch)
        time_program = self.scheduler.time_program
        n_layer = self.config.n_layer
        timing = time_program(embedding).merged(
            time_program(layer).scaled(n_layer)
        ).merged(time_program(lm_head))
        flops = (
            embedding.total_flops()
            + layer.total_flops() * n_layer
            + lm_head.total_flops()
        )
        return TokenStepTiming(
            batch=batch, past_length=past_length, timing=timing,
            flops_per_device=flops,
        )
