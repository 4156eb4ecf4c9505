"""Unified backend layer: one appliance API for every execution platform.

* ``base``     — the :class:`Backend` protocol, :class:`BackendCapabilities`,
  :class:`BatchEstimate`, and the generic :class:`AnalyticBackend` adapter
  over a ``run(workload)`` platform model, which the adapters build on.
* ``adapters`` — concrete adapters: DFX analytic cluster, DFX functional-sim
  runtime, GPU appliance, TPU baseline.
* ``registry`` — ``make_backend("dfx", devices=4)`` string-keyed factories,
  mirroring ``SCHEDULERS``/``BATCH_POLICIES``; ``register_backend`` to add
  one.
"""

from repro.backends.base import (
    AnalyticBackend,
    Backend,
    BackendCapabilities,
    BatchEstimate,
    UNBOUNDED_BATCH_SIZE,
    dominant_workload,
    is_backend,
)
from repro.backends.adapters import (
    DFXClusterBackend,
    DFXRuntimeBackend,
    GPUApplianceBackend,
    TPUBackend,
)
from repro.backends.registry import (
    BACKENDS,
    available_backends,
    make_backend,
    register_backend,
)

__all__ = [
    "AnalyticBackend",
    "Backend",
    "BackendCapabilities",
    "BatchEstimate",
    "UNBOUNDED_BATCH_SIZE",
    "dominant_workload",
    "is_backend",
    "DFXClusterBackend",
    "DFXRuntimeBackend",
    "GPUApplianceBackend",
    "TPUBackend",
    "BACKENDS",
    "available_backends",
    "make_backend",
    "register_backend",
]
