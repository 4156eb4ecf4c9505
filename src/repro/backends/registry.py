"""String-keyed backend registry, mirroring ``SCHEDULERS``/``BATCH_POLICIES``.

``make_backend("dfx", devices=4)`` is the one-line entry point the serving
layer, the analysis drivers, the CLI, and the perf benches share.  Adding a
backend: write an adapter implementing the :class:`~repro.backends.base.\
Backend` protocol, then :func:`register_backend` a factory under a unique
name — every consumer (including the backend-contract test suite) picks it
up from the registry.
"""

from __future__ import annotations

from typing import Callable

from repro.backends.adapters import (
    DFXClusterBackend,
    DFXRuntimeBackend,
    GPUApplianceBackend,
    TPUBackend,
)
from repro.backends.base import Backend, is_backend
from repro.errors import ConfigurationError

def _dfx_4u_preset(*args, **kwargs) -> DFXClusterBackend:
    """The paper's 4U server appliance: two independent 4-FPGA DFX clusters
    behind one host (Sec. VI).  ``num_clusters=None`` serving consumers
    read the two units from its capabilities, so fault campaigns and fleet
    plans can spell the host shape by name instead of plumbing counts.
    """
    kwargs.setdefault("name", "dfx-4u")
    kwargs.setdefault("num_units", 2)
    return DFXClusterBackend(*args, **kwargs)


#: Registry of backend factories by name.  Factories accept ``config``
#: (a GPT2Config or preset name) and ``devices`` plus adapter-specific
#: keyword arguments.
BACKENDS: dict[str, Callable[..., Backend]] = {
    "dfx": DFXClusterBackend,
    "dfx-4u": _dfx_4u_preset,
    "dfx-sim": DFXRuntimeBackend,
    "gpu": GPUApplianceBackend,
    "tpu": TPUBackend,
}


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(BACKENDS)


def register_backend(name: str, factory: Callable[..., Backend]) -> None:
    """Register a backend factory under ``name`` (must be unused)."""
    if not name:
        raise ConfigurationError("backend name must be non-empty")
    if name in BACKENDS:
        raise ConfigurationError(f"backend {name!r} is already registered")
    BACKENDS[name] = factory


def make_backend(spec: str | Backend, **kwargs) -> Backend:
    """Resolve a backend name (or pass a backend instance through).

    ``make_backend("dfx", devices=4)`` builds the default-config DFX
    cluster adapter; keyword arguments go to the registered factory.  A
    :class:`Backend` instance passes through unchanged (keyword arguments
    are then rejected — they would be silently ignored).
    """
    if isinstance(spec, str):
        if spec not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {spec!r}; available: {available_backends()}"
            )
        return BACKENDS[spec](**kwargs)
    if is_backend(spec):
        if kwargs:
            raise ConfigurationError(
                "keyword arguments are only valid with a backend name, "
                f"got a {type(spec).__name__} instance plus {sorted(kwargs)}"
            )
        return spec
    raise ConfigurationError(
        f"backend must be a registry name or a Backend instance, "
        f"got {type(spec).__name__}"
    )
