"""DFX runtime: functional text generation with simulated appliance timing.

On the real appliance a single call does both things at once: the FPGAs
produce the output tokens *and* the wall clock tells you how long it took.
This module recreates that experience in software by pairing the functional
cluster simulator (which produces the actual tokens, bit-faithfully in FP16 +
LUT-GELU) with the timing simulator (which estimates what the hardware would
have taken), so examples and services can call one API and get both text and
latency.

The runtime is intentionally small: it owns one functional simulator (built
on first use and reset before each call, so weights, compiled programs and KV
arenas stay warm across requests), a timing appliance, and a tokenizer, and
exposes ``generate`` / ``generate_text`` / ``generate_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.appliance import DFXAppliance
from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.functional import DFXFunctionalSimulator
from repro.errors import ConfigurationError, ExecutionError
from repro.model.config import GPT2Config
from repro.model.numerics import FP16_DFX, Numerics
from repro.model.tokenizer import SyntheticTokenizer
from repro.model.weights import GPT2Weights, generate_weights
from repro.results import InferenceResult
from repro.workloads import Workload


@dataclass
class RuntimeGeneration:
    """Result of one runtime generation call: the tokens and the simulated cost."""

    input_token_ids: list[int]
    output_token_ids: list[int]
    timing: InferenceResult
    text: str | None = None

    @property
    def workload(self) -> Workload:
        """The request shape that was executed."""
        return self.timing.workload

    @property
    def simulated_latency_ms(self) -> float:
        """Simulated end-to-end appliance latency."""
        return self.timing.latency_ms

    @property
    def simulated_tokens_per_second(self) -> float:
        """Simulated generation throughput."""
        return self.timing.tokens_per_second


@dataclass
class RuntimeBatchGeneration:
    """Result of one batched runtime call: per-stream tokens + batch cost.

    All streams decode together on the functional engine, one decode set per
    step, so the batch has one wall clock rather than per-stream latencies.
    ``latency_s`` prices the *dominant* request shape at the full batch size
    — the standard static-batching bound.
    """

    input_token_ids: list[list[int]]
    output_token_ids: list[list[int]]
    batch_size: int
    workload: Workload
    latency_s: float

    @property
    def total_output_tokens(self) -> int:
        """Generated tokens summed over all streams."""
        return sum(len(tokens) for tokens in self.output_token_ids)

    @property
    def aggregate_tokens_per_second(self) -> float:
        """Batch-level generation throughput (all streams together)."""
        if self.latency_s <= 0:
            return 0.0
        return self.total_output_tokens / self.latency_s


class DFXRuntime:
    """Text generation on a simulated DFX cluster, with timing attached.

    Args:
        config: Model configuration.  Functional execution is quadratic-ish in
            model size, so use the paper models only for timing and the
            ``GPT2_TEST_*`` configurations when you actually want tokens.
        num_devices: FPGAs in the cluster.
        weights: Optional pre-built weights (synthetic weights are generated
            from ``seed`` when omitted).
        numerics: Numeric mode of the functional path (DFX FP16 by default).
        calibration: Timing-model calibration.
        seed: Seed for synthetic weights.
    """

    def __init__(
        self,
        config: GPT2Config,
        num_devices: int = 4,
        weights: GPT2Weights | None = None,
        numerics: Numerics = FP16_DFX,
        calibration: Calibration = DEFAULT_CALIBRATION,
        seed: int = 0,
    ) -> None:
        if weights is not None and weights.config != config:
            raise ConfigurationError("weights were generated for a different config")
        self.config = config
        self.num_devices = num_devices
        self.weights = weights or generate_weights(config, seed=seed)
        self.numerics = numerics
        self.tokenizer = SyntheticTokenizer(vocab_size=config.vocab_size)
        self.appliance = DFXAppliance(
            config,
            num_devices=num_devices,
            calibration=calibration,
            check_capacity=False,
        )
        self._engine: DFXFunctionalSimulator | None = None

    # ---------------------------------------------------------------- internals
    def _reset_engine(self) -> DFXFunctionalSimulator:
        """The one functional simulator behind every call, with an empty cache.

        It is built on first use; later calls only reset its KV cache, so
        weights, compiled programs, linked segments and the KV arenas stay
        warm across requests.
        """
        if self._engine is None:
            self._engine = DFXFunctionalSimulator(
                self.weights, num_devices=self.num_devices, numerics=self.numerics
            )
        else:
            self._engine.reset_cache()
        return self._engine

    # ------------------------------------------------------------------ public
    def generate(
        self, input_token_ids: list[int], max_new_tokens: int
    ) -> RuntimeGeneration:
        """Generate tokens functionally and attach the simulated timing.

        The engine checks the request before it runs anything.
        """
        output_tokens = self._reset_engine().generate(
            list(input_token_ids), max_new_tokens
        )
        workload = Workload(
            input_tokens=len(input_token_ids), output_tokens=max_new_tokens
        )
        return RuntimeGeneration(
            input_token_ids=list(input_token_ids),
            output_token_ids=output_tokens,
            timing=self.appliance.run(workload),
        )

    def generate_text(self, prompt: str, max_new_tokens: int) -> RuntimeGeneration:
        """Tokenize ``prompt``, generate, detokenize, and attach timing."""
        input_ids = self.tokenizer.encode(prompt)
        generation = self.generate(input_ids, max_new_tokens)
        generation.text = self.tokenizer.decode(generation.output_token_ids)
        return generation

    def generate_batch(
        self,
        prompts: list[list[int]],
        max_new_tokens: int | list[int],
    ) -> RuntimeBatchGeneration:
        """Generate many streams concurrently, one decode set per step.

        Each step runs shared ops once for every stream and attention once
        per past-length group.  Per-stream outputs are bit-identical to
        calling :meth:`generate` stream by stream; the attached cost is the
        batch's wall clock at the dominant request shape.  The engine
        checks every request before it runs anything.
        """
        if len(prompts) == 0:
            raise ExecutionError("prompts must not be empty")
        inputs = [list(prompt) for prompt in prompts]
        outputs = self._reset_engine().generate_batch(inputs, max_new_tokens)
        # Each stream decodes exactly its budget.
        workload = Workload(
            input_tokens=max(len(prompt) for prompt in inputs),
            output_tokens=max(len(tokens) for tokens in outputs),
        )
        latency_s = self.appliance.batched_request_seconds(workload, len(prompts))
        return RuntimeBatchGeneration(
            input_token_ids=inputs,
            output_token_ids=outputs,
            batch_size=len(prompts),
            workload=workload,
            latency_s=latency_s,
        )
