"""The unified appliance API: the :class:`Backend` protocol and its vocabulary.

Every execution platform in the repo — the DFX analytic cluster simulator,
the DFX functional-sim-in-the-loop runtime, the calibrated GPU appliance,
the TPU baseline — answers the same three questions:

* :meth:`Backend.estimate` — what does one request cost end to end?
* :meth:`Backend.batched_estimate` — what does a *batch* of requests cost
  (gathered batches and continuous decode-slot admissions alike)?
* :meth:`Backend.capabilities` — what can this platform actually do
  (batching, device count, energy reporting, functional token generation)?

The serving subsystem (oracle, front ends, batch cost models), the
analysis drivers, the CLI, and the perf benches all consume this protocol —
as a backend instance or a registry name, nothing else — so a new platform
integrates once: implement the three methods, register a factory in
:mod:`repro.backends.registry`, and every consumer picks it up.

:class:`AnalyticBackend` is the adapter half: it wraps a platform model
exposing ``run(workload) -> InferenceResult`` (the interface every
appliance and baseline timing model speaks) and derives batch pricing from
the platform's GPU-style batching hooks when present.  The DFX, GPU and
TPU adapters in :mod:`repro.backends.adapters` are built on it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from repro.errors import ConfigurationError, check_number
from repro.results import InferenceResult
from repro.workloads import Workload

#: Advertised ``max_batch_size`` of a batch-capable backend whose cost model
#: declares no architectural cap (the GPU baseline's batching arithmetic is
#: defined for any size).  A named sentinel rather than an invented limit, so
#: legacy call sites batching beyond any guessed cap keep working.
UNBOUNDED_BATCH_SIZE = sys.maxsize


def dominant_workload(workloads: Sequence[Workload]) -> Workload:
    """The shape that bounds a gathered batch: max input x max output.

    Batched requests ride the same kernels, so the batch runs as long as
    its longest prompt and longest generation; shorter members simply pad
    (the standard static-batching cost).
    """
    if not workloads:
        raise ConfigurationError("a batch needs at least one workload")
    return Workload(
        input_tokens=max(w.input_tokens for w in workloads),
        output_tokens=max(w.output_tokens for w in workloads),
    )


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do, declared once and trusted by every consumer.

    Attributes:
        platform: Result platform label (``"dfx"``, ``"gpu-appliance"``, ...).
        supports_batching: Whether :meth:`Backend.batched_estimate` accepts
            batch sizes above 1.  Must be consistent with ``max_batch_size``
            (enforced at construction) — the backend-contract test suite
            holds every registered backend to this declaration.
        max_batch_size: Largest batch ``batched_estimate`` prices (1 when
            unbatched; :data:`UNBOUNDED_BATCH_SIZE` when the cost model
            declares no cap).
        num_devices: Accelerators inside one backend instance (FPGAs in the
            cluster, GPUs in the appliance).
        num_units: Independent serving units one instance represents; the
            serving layer multiplies this by ``num_clusters``.
        supports_energy: Whether estimates carry a real power draw (energy
            hooks); synthetic test doubles may say no.
        generates_tokens: Whether the backend can functionally produce
            output tokens (``generate``), not just price them — true for
            the functional-sim runtime backend.
    """

    platform: str
    supports_batching: bool = False
    max_batch_size: int = 1
    num_devices: int = 1
    num_units: int = 1
    supports_energy: bool = True
    generates_tokens: bool = False

    def __post_init__(self) -> None:
        check_number("max_batch_size", self.max_batch_size, 1, integer=True)
        check_number("num_devices", self.num_devices, 1, integer=True)
        check_number("num_units", self.num_units, 1, integer=True)
        if self.supports_batching != (self.max_batch_size > 1):
            raise ConfigurationError(
                "capabilities must be honest: supports_batching requires "
                "max_batch_size > 1 (and vice versa), got "
                f"supports_batching={self.supports_batching}, "
                f"max_batch_size={self.max_batch_size}"
            )


@dataclass(frozen=True)
class BatchEstimate:
    """Cost of one batch on one backend.

    ``energy_joules`` is the *whole-appliance* energy over the batch's
    wall clock (power x latency); continuous-batching consumers divide it
    by the concurrency to get one decode stream's share.
    """

    workload: Workload
    batch_size: int
    latency_s: float
    energy_joules: float

    def __post_init__(self) -> None:
        check_number("batch_size", self.batch_size, 1, integer=True)
        check_number("latency_s", self.latency_s, 0.0)
        check_number("energy_joules", self.energy_joules, 0.0)


@runtime_checkable
class Backend(Protocol):
    """One appliance API for serving, analysis, the CLI, and the perf benches."""

    name: str

    def estimate(self, workload: Workload) -> InferenceResult:
        """End-to-end result of one unbatched request."""
        ...  # pragma: no cover - protocol

    def batched_estimate(
        self, workloads: Sequence[Workload], batch_size: int | None = None
    ) -> BatchEstimate:
        """Cost of serving ``workloads`` together as one batch.

        The batch is priced at the dominant member shape.  ``batch_size``
        defaults to ``len(workloads)``; continuous-batching callers pass a
        single workload with an explicit concurrency instead.  A batch of
        one must match :meth:`estimate` exactly (the singleton passthrough
        every backend supports); sizes above 1 require
        ``capabilities().supports_batching``.
        """
        ...  # pragma: no cover - protocol

    def capabilities(self) -> BackendCapabilities:
        """Declared capabilities (validated by the backend-contract tests)."""
        ...  # pragma: no cover - protocol


def is_backend(candidate: object) -> bool:
    """Whether ``candidate`` already speaks the :class:`Backend` protocol."""
    return (
        callable(getattr(candidate, "estimate", None))
        and callable(getattr(candidate, "batched_estimate", None))
        and callable(getattr(candidate, "capabilities", None))
    )


class AnalyticBackend:
    """Adapter: any platform model with ``run(workload)`` as a :class:`Backend`.

    When the wrapped platform also exposes the GPU-style batching
    hook (``batched_request_latency_ms``), batch pricing is derived from it
    and the capabilities advertise batching — with no declared cap
    (:data:`UNBOUNDED_BATCH_SIZE`), because the hook itself has none;
    otherwise only the batch-of-1 singleton passthrough works, matching
    :meth:`estimate` exactly.
    """

    def __init__(
        self,
        platform,
        name: str | None = None,
        *,
        max_batch_size: int | None = None,
        num_units: int = 1,
        supports_energy: bool = True,
        generates_tokens: bool = False,
    ) -> None:
        if not callable(getattr(platform, "run", None)):
            raise ConfigurationError(
                f"{type(platform).__name__} is not a platform model: it lacks "
                f"the run(workload) method"
            )
        self.platform = platform
        self.name = name or type(platform).__name__
        batchable = callable(getattr(platform, "batched_request_latency_ms", None))
        if max_batch_size is None:
            max_batch_size = UNBOUNDED_BATCH_SIZE if batchable else 1
        if max_batch_size > 1 and not batchable:
            raise ConfigurationError(
                f"{self.name} cannot price batches: it lacks the "
                f"'batched_request_latency_ms' method of the batching cost model"
            )
        self._capabilities = BackendCapabilities(
            platform=self.name,
            supports_batching=max_batch_size > 1,
            max_batch_size=max_batch_size,
            num_devices=int(getattr(platform, "num_devices", 1)),
            num_units=num_units,
            supports_energy=supports_energy,
            generates_tokens=generates_tokens,
        )
        # Memoized per workload shape: the calibrated models' draw is
        # constant, but the protocol doesn't promise that for every
        # platform, so power must not leak across shapes.
        self._power_watts: dict[Workload, float] = {}

    # ------------------------------------------------------------------ protocol
    def estimate(self, workload: Workload) -> InferenceResult:
        return self.platform.run(workload)

    def batched_estimate(
        self, workloads: Sequence[Workload], batch_size: int | None = None
    ) -> BatchEstimate:
        shape = dominant_workload(workloads)
        size = len(workloads) if batch_size is None else batch_size
        check_number("batch_size", size, 1, integer=True)
        if size < len(workloads):
            raise ConfigurationError(
                f"batch_size {size} cannot hold {len(workloads)} workloads"
            )
        if size == 1:
            # Singleton passthrough: exactly the unbatched estimate, so
            # batch-of-1 serving reproduces the unbatched simulator bit for
            # bit on every backend.
            result = self.estimate(shape)
            return BatchEstimate(
                workload=shape,
                batch_size=1,
                latency_s=result.latency_s,
                energy_joules=result.energy_joules,
            )
        capabilities = self.capabilities()
        if not capabilities.supports_batching:
            raise ConfigurationError(
                f"{self.name} does not support batching (requested batch of {size})"
            )
        if size > capabilities.max_batch_size:
            raise ConfigurationError(
                f"{self.name} caps batches at {capabilities.max_batch_size}, "
                f"got {size}"
            )
        latency_s = self.platform.batched_request_latency_ms(shape, size) / 1e3
        # The appliance draws its full power for the batch's wall clock,
        # priced at the dominant shape the batch actually runs as.
        energy_joules = self._power(shape) * latency_s
        return BatchEstimate(
            workload=shape, batch_size=size,
            latency_s=latency_s, energy_joules=energy_joules,
        )

    def capabilities(self) -> BackendCapabilities:
        return self._capabilities

    # ------------------------------------------------------------------ helpers
    def _power(self, workload: Workload) -> float:
        if workload not in self._power_watts:
            self._power_watts[workload] = float(
                self.platform.run(workload).total_power_watts
            )
        return self._power_watts[workload]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
