"""Off-chip memory sizing: the Key/Value cache's HBM footprint.

The DFX dataflow streams weight tiles from HBM (32 channels x 512 bits per
kernel cycle) and keeps each device's slice of the Key/Value cache there
beside its weights.  The timing model prices the streams through
``repro.core.calibration`` and the device capacity check lives in
``repro.core.device``; this module sizes the cache they both read.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def kv_cache_bytes(
    n_layer: int, n_head_local: int, head_dim: int, max_tokens: int, bytes_per_element: int = 2
) -> int:
    """HBM bytes needed for one device's Key+Value cache at ``max_tokens``."""
    if min(n_layer, n_head_local, head_dim, max_tokens) < 0:
        raise ConfigurationError("kv cache dimensions must be non-negative")
    per_layer = 2 * n_head_local * max_tokens * head_dim * bytes_per_element
    return n_layer * per_layer
