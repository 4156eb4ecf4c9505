"""Concrete :class:`~repro.backends.base.Backend` adapters.

One adapter per execution platform the repo grows:

* :class:`DFXClusterBackend` — the paper's appliance, via the analytic
  :class:`~repro.core.appliance.DFXAppliance` timing simulator (unbatched,
  Sec. III-A).
* :class:`DFXRuntimeBackend` — functional-sim-in-the-loop, via
  :class:`~repro.runtime.DFXRuntime`: timing estimates from the same
  appliance model *plus* real token generation through the bit-faithful
  functional cluster simulator (``capabilities().generates_tokens``).
  Batch-capable: the batched functional engine runs ``B`` concurrent
  streams per compiled program, and ``batched_estimate`` prices them with
  the appliance's lockstep-cohort cost model.
* :class:`GPUApplianceBackend` — the calibrated Megatron-LM V100 baseline,
  batch-capable through its ``batched_request_latency_ms`` cost model.
* :class:`TPUBackend` — the calibrated single-device cloud-TPU baseline.

Each constructor accepts either a prebuilt platform instance (``appliance=``
/ ``runtime=`` / ...) or the pieces to build one (``config`` — a
:class:`~repro.model.config.GPT2Config` or preset name — and ``devices``),
so the registry's ``make_backend("dfx", devices=4)`` and a hand-built
appliance land on the same adapter.
"""

from __future__ import annotations

from repro.backends.base import (
    AnalyticBackend,
    BackendCapabilities,
    UNBOUNDED_BATCH_SIZE,
)
from repro.baselines.gpu import GPUAppliance
from repro.baselines.tpu import TPUBaseline
from repro.core.appliance import DFXAppliance
from repro.errors import ConfigurationError
from repro.model.config import GPT2Config, GPT2_1_5B, GPT2_TEST_TINY, from_preset
from repro.results import InferenceResult
from repro.workloads import Workload


def _resolve_config(config: GPT2Config | str) -> GPT2Config:
    """Accept a config object or a preset name (``"1.5b"``, ``"test-tiny"``)."""
    if isinstance(config, str):
        return from_preset(config)
    if isinstance(config, GPT2Config):
        return config
    raise ConfigurationError(
        f"config must be a GPT2Config or preset name, got {type(config).__name__}"
    )


class DFXClusterBackend(AnalyticBackend):
    """The DFX multi-FPGA cluster through the analytic timing simulator."""

    def __init__(
        self,
        config: GPT2Config | str = GPT2_1_5B,
        devices: int = 4,
        *,
        appliance: DFXAppliance | None = None,
        name: str = "dfx",
        num_units: int = 1,
        **appliance_kwargs,
    ) -> None:
        if appliance is None:
            appliance = DFXAppliance(
                _resolve_config(config), num_devices=devices, **appliance_kwargs
            )
        elif appliance_kwargs:
            raise ConfigurationError(
                "pass either a prebuilt appliance or its build arguments, not both"
            )
        # DFX serves text generation unbatched (Sec. III-A): max_batch_size
        # stays 1 and only the singleton passthrough is priced.  ``num_units``
        # is how many independent such clusters one backend instance stands
        # for — the paper's 4U host carries two (Sec. VI; the "dfx-4u"
        # registry preset) — consumed by the serving layer's
        # ``num_clusters=None`` default.
        super().__init__(
            appliance, name=name, max_batch_size=1, num_units=num_units
        )

    @property
    def appliance(self) -> DFXAppliance:
        return self.platform


class GPUApplianceBackend(AnalyticBackend):
    """The calibrated V100 GPU appliance, batch-capable."""

    def __init__(
        self,
        config: GPT2Config | str = GPT2_1_5B,
        devices: int = 4,
        *,
        appliance: GPUAppliance | None = None,
        name: str = "gpu",
        max_batch_size: int | None = None,
        **appliance_kwargs,
    ) -> None:
        if appliance is None:
            appliance = GPUAppliance(
                _resolve_config(config), num_devices=devices, **appliance_kwargs
            )
        elif appliance_kwargs:
            raise ConfigurationError(
                "pass either a prebuilt appliance or its build arguments, not both"
            )
        super().__init__(appliance, name=name, max_batch_size=max_batch_size)

    @property
    def appliance(self) -> GPUAppliance:
        return self.platform


class TPUBackend(AnalyticBackend):
    """The calibrated single-device cloud-TPU baseline (paper Fig. 17)."""

    def __init__(
        self,
        config: GPT2Config | str = GPT2_1_5B,
        devices: int = 1,
        *,
        baseline: TPUBaseline | None = None,
        name: str = "tpu",
        **baseline_kwargs,
    ) -> None:
        if devices != 1:
            raise ConfigurationError(
                f"the TPU baseline models a single device, got devices={devices}"
            )
        if baseline is None:
            baseline = TPUBaseline(_resolve_config(config), **baseline_kwargs)
        elif baseline_kwargs:
            raise ConfigurationError(
                "pass either a prebuilt baseline or its build arguments, not both"
            )
        super().__init__(baseline, name=name, max_batch_size=1)

    @property
    def baseline(self) -> TPUBaseline:
        return self.platform


class DFXRuntimeBackend:
    """Functional-sim-in-the-loop: the :class:`~repro.runtime.DFXRuntime`.

    Estimates come from the same analytic appliance model as
    :class:`DFXClusterBackend`; :meth:`generate`
    additionally produces the actual output tokens through the bit-faithful
    functional cluster simulator.  Functional execution is quadratic-ish in
    model size, so the default config is the tiny test model — use the
    ``GPT2_TEST_*`` presets whenever you actually want tokens.

    The runtime (and its synthetic weights) is built lazily on the first
    :meth:`generate` call: estimate-only consumers — the serving layer, the
    capacity sweeps, ``cli serve`` — never pay for weight generation, so
    the adapter stays usable at paper model sizes for timing studies.
    """

    def __init__(
        self,
        config: GPT2Config | str = GPT2_TEST_TINY,
        devices: int = 4,
        *,
        runtime=None,
        name: str = "dfx-sim",
        **runtime_kwargs,
    ) -> None:
        if runtime is not None and runtime_kwargs:
            raise ConfigurationError(
                "pass either a prebuilt runtime or its build arguments, not both"
            )
        self._runtime = runtime
        self._build_args = (_resolve_config(config), devices, runtime_kwargs)
        self.name = name
        if runtime is not None:
            self._appliance = runtime.appliance
            num_devices = runtime.num_devices
        else:
            # The same timing appliance the runtime would own (the rest of
            # the runtime kwargs — weights, numerics, seed — only matter to
            # the functional path, deferred until the runtime is built).
            num_devices = devices
            appliance_kwargs = {}
            if "calibration" in runtime_kwargs:
                appliance_kwargs["calibration"] = runtime_kwargs["calibration"]
            self._appliance = DFXAppliance(
                self._build_args[0],
                num_devices=devices,
                check_capacity=False,
                **appliance_kwargs,
            )
        self._capabilities = BackendCapabilities(
            platform=name,
            supports_batching=True,
            max_batch_size=UNBOUNDED_BATCH_SIZE,
            num_devices=num_devices,
            generates_tokens=True,
        )
        # Batch pricing rides the analytic adapter over a shim that exposes
        # the appliance's lockstep-cohort cost model: one weight stream per
        # step shared by the whole cohort, so batches above 1 are priced by
        # the same arithmetic the batched functional engine executes (not by
        # silently repricing the batch as one unbatched request).
        self._analytic = AnalyticBackend(_BatchedSimPlatform(self), name=name)

    @property
    def runtime(self):
        """The functional runtime, built (with weights) on first use."""
        if self._runtime is None:
            # Imported here so estimate-only use doesn't pay for the
            # functional-simulator stack.
            from repro.runtime import DFXRuntime

            config, devices, kwargs = self._build_args
            self._runtime = DFXRuntime(config, num_devices=devices, **kwargs)
        return self._runtime

    # ------------------------------------------------------------------ protocol
    def estimate(self, workload: Workload) -> InferenceResult:
        """Timing estimate without functional execution (any model size)."""
        return self._appliance.run(workload)

    def batched_estimate(self, workloads, batch_size=None):
        return self._analytic.batched_estimate(workloads, batch_size)

    def capabilities(self) -> BackendCapabilities:
        return self._capabilities

    # ------------------------------------------------------------- functional
    def generate(self, input_token_ids: list[int], max_new_tokens: int):
        """Functionally generate tokens with simulated timing attached."""
        return self.runtime.generate(input_token_ids, max_new_tokens)

    def generate_text(self, prompt: str, max_new_tokens: int):
        """Tokenize, generate, detokenize, and attach timing."""
        return self.runtime.generate_text(prompt, max_new_tokens)

    def generate_batch(self, prompts, max_new_tokens):
        """Functionally generate many streams as one lockstep batch."""
        return self.runtime.generate_batch(prompts, max_new_tokens)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DFXRuntimeBackend({self.name!r})"


class _BatchedSimPlatform:
    """Adapter shim: the runtime backend's appliance as a batchable platform.

    Exposes ``run()`` (the singleton estimate) plus the GPU-style
    ``batched_request_latency_ms`` hook, priced by the appliance's
    lockstep-cohort model (`batched_request_seconds`).  Lives on the adapter,
    not on :class:`~repro.core.appliance.DFXAppliance`, so the plain ``dfx``
    analytic backend keeps the paper's unbatched serving semantics.
    """

    def __init__(self, backend) -> None:
        self._backend = backend

    def run(self, workload: Workload) -> InferenceResult:
        return self._backend.estimate(workload)

    def batched_request_latency_ms(self, workload: Workload, batch_size: int) -> float:
        seconds = self._backend._appliance.batched_request_seconds(
            workload, batch_size
        )
        return seconds * 1e3
