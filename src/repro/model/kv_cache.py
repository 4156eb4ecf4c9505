"""Key/Value cache for incremental GPT-2 decoding.

During the summarization stage the cache is filled with one row per input
token; during the generation stage every iteration appends a single row per
layer (paper Sec. II-A).  The cache is the reason the generation stage is
memory-bound: each new token must read all previous Keys and Values.

**Fast path / bit-exactness contract:** appends land in preallocated
``(n_head, capacity, head_dim)`` arrays with a logical length, doubling the
capacity when it runs out, so an *n*-token generation run costs O(n) row
copies instead of the O(n²) of a per-token ``np.concatenate``.  The public
``keys`` / ``values`` views expose exactly the logical prefix — bit-identical
to the array the concatenating implementation would have produced — and
``memory_bytes`` reports the logical (not allocated) footprint, which is what
the paper's HBM sizing arguments are about.  Callers that know the final
sequence length (the text-generation driver does) can reserve it up front via
``KVCache.empty(..., capacity=...)`` and never pay a regrowth copy.

**Storage dtype:** a cache stores rows in the dtype it is built with.
``GPT2Model.new_cache`` builds FP32 caches for the FP16 modes, so
attention's FP32 upcast of a cached row is a no-op; the rows still hold
FP16 values, widened exactly.  ``memory_bytes`` counts elements at
``bytes_per_element`` (default 2), so it reports the FP16 footprint
whatever the storage dtype.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError
from repro.model.config import GPT2Config

#: Smallest per-layer capacity allocated on the first append.
_MIN_CAPACITY = 8


class LayerKVCache:
    """Cached Key and Value tensors for a single decoder layer.

    Both logical tensors have shape ``(n_head, seq_len, head_dim)``; they are
    views into capacity arrays of shape ``(n_head, capacity, head_dim)`` that
    grow by doubling (amortized-O(1) appends).
    """

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        if keys.shape != values.shape:
            raise ExecutionError(
                f"key/value shape mismatch: {keys.shape} vs {values.shape}"
            )
        self._keys = keys
        self._values = values
        self._length = int(keys.shape[1])

    @classmethod
    def empty(
        cls,
        n_head: int,
        head_dim: int,
        dtype: np.dtype = np.float32,
        capacity: int = 0,
    ) -> "LayerKVCache":
        """An empty cache, optionally with ``capacity`` rows preallocated."""
        cache = cls(
            keys=np.zeros((n_head, 0, head_dim), dtype=dtype),
            values=np.zeros((n_head, 0, head_dim), dtype=dtype),
        )
        if capacity > 0:
            cache._grow(capacity)
        return cache

    # -------------------------------------------------------------- properties
    @property
    def keys(self) -> np.ndarray:
        """``(n_head, seq_len, head_dim)`` cached Keys (logical view)."""
        return self._keys[:, : self._length, :]

    @property
    def values(self) -> np.ndarray:
        """``(n_head, seq_len, head_dim)`` cached Values (logical view)."""
        return self._values[:, : self._length, :]

    @property
    def seq_len(self) -> int:
        """Number of cached token positions."""
        return self._length

    @property
    def capacity(self) -> int:
        """Allocated token-position capacity (>= seq_len)."""
        return int(self._keys.shape[1])

    # ----------------------------------------------------------------- updates
    def _grow(self, minimum: int) -> None:
        """Reallocate the capacity arrays to hold at least ``minimum`` rows."""
        n_head, capacity, head_dim = self._keys.shape
        new_capacity = max(capacity * 2, minimum, _MIN_CAPACITY)
        for attribute in ("_keys", "_values"):
            old = getattr(self, attribute)
            grown = np.empty((n_head, new_capacity, head_dim), dtype=old.dtype)
            grown[:, : self._length, :] = old[:, : self._length, :]
            setattr(self, attribute, grown)

    def append(self, new_keys: np.ndarray, new_values: np.ndarray) -> None:
        """Append one or more new token positions to the cache."""
        if new_keys.shape != new_values.shape:
            raise ExecutionError(
                f"key/value shape mismatch: {new_keys.shape} vs {new_values.shape}"
            )
        if new_keys.shape[0] != self._keys.shape[0] or new_keys.shape[2] != self._keys.shape[2]:
            raise ExecutionError(
                "appended keys must match cache head count and head dimension"
            )
        rows = new_keys.shape[1]
        needed = self._length + rows
        if needed > self._keys.shape[1]:
            self._grow(needed)
        self._keys[:, self._length : needed, :] = new_keys
        self._values[:, self._length : needed, :] = new_values
        self._length = needed


@dataclass
class KVCache:
    """Per-layer Key/Value caches for a whole model."""

    config: GPT2Config
    layers: list[LayerKVCache] = field(default_factory=list)

    @classmethod
    def empty(
        cls,
        config: GPT2Config,
        dtype: np.dtype = np.float32,
        capacity: int = 0,
    ) -> "KVCache":
        """Create an empty cache (zero cached positions) for ``config``.

        ``capacity`` preallocates that many token positions per layer so a
        generation run of known length never regrows (the O(n²) the DFX
        hardware avoids by reserving HBM space per request, Sec. V-B).
        """
        layers = [
            LayerKVCache.empty(
                config.n_head, config.head_dim, dtype=dtype, capacity=capacity
            )
            for _ in range(config.n_layer)
        ]
        return cls(config=config, layers=layers)

    @property
    def seq_len(self) -> int:
        """Number of cached positions (identical across layers)."""
        if not self.layers:
            return 0
        return self.layers[0].seq_len

    def layer(self, index: int) -> LayerKVCache:
        """Return the cache for decoder layer ``index``."""
        if not 0 <= index < len(self.layers):
            raise ExecutionError(
                f"layer index {index} out of range for {len(self.layers)} layers"
            )
        return self.layers[index]

    def memory_bytes(self, bytes_per_element: int = 2) -> int:
        """Logical bytes held by the cache at the given element size.

        Counts the cached positions, not the preallocated capacity — the
        quantity the paper's HBM budget (Sec. V-B) is concerned with.
        """
        total_elements = sum(
            int(np.prod(layer.keys.shape)) + int(np.prod(layer.values.shape))
            for layer in self.layers
        )
        return total_elements * bytes_per_element
