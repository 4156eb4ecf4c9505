"""Functional building blocks of the GPT-2 decoder layer.

Every function takes and returns plain NumPy arrays and is parameterized by a
:class:`~repro.model.numerics.Numerics` mode so the same code path serves the
FP32 gold standard, the FP16 GPU reference, and the FP16 DFX pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.model.numerics import FP32_EXACT, Numerics

#: Value used to mask future positions before softmax; the paper uses the
#: closest representable value to -inf so the masked entries become zero
#: after softmax.
MASK_VALUE = -1.0e4


def linear(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    numerics: Numerics = FP32_EXACT,
) -> np.ndarray:
    """Affine projection ``x @ weight + bias`` (the ISA's Conv1D)."""
    if x.shape[-1] != weight.shape[0]:
        raise ExecutionError(
            f"linear: input dim {x.shape[-1]} does not match weight rows {weight.shape[0]}"
        )
    return numerics.add(numerics.matmul(x, weight), bias)


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
    numerics: Numerics = FP32_EXACT,
) -> np.ndarray:
    """Layer normalization ``gamma * (x - mean) / std + beta`` over the last axis."""
    x32 = np.asarray(x, dtype=np.float32)
    mean = x32.mean(axis=-1, keepdims=True)
    variance = x32.var(axis=-1, keepdims=True)
    normalized = (x32 - mean) / np.sqrt(variance + eps)
    return numerics.cast(normalized * gamma + beta)


def softmax(x: np.ndarray, axis: int = -1, numerics: Numerics = FP32_EXACT) -> np.ndarray:
    """Numerically stable softmax: subtract the row max before exponentiating.

    Mirrors the DFX instruction sequence ReduMax -> sub -> exp -> accum ->
    recip -> mul (Algorithm 1, lines 9-10).
    """
    x32 = np.asarray(x, dtype=np.float32)
    shifted = x32 - x32.max(axis=axis, keepdims=True)
    exponentials = np.exp(shifted)
    return numerics.cast(exponentials / exponentials.sum(axis=axis, keepdims=True))


def causal_mask(query_len: int, key_len: int) -> np.ndarray:
    """Boolean mask, True where attention is allowed (lower triangular).

    The query occupies the *last* ``query_len`` positions of a ``key_len``-long
    context, which is how the generation stage sees a single new token
    attending to every cached position.
    """
    if query_len > key_len:
        raise ExecutionError(
            f"query_len ({query_len}) cannot exceed key_len ({key_len})"
        )
    offset = key_len - query_len
    query_positions = np.arange(query_len)[:, None] + offset
    key_positions = np.arange(key_len)[None, :]
    return key_positions <= query_positions


def split_heads(x: np.ndarray, n_head: int) -> np.ndarray:
    """Reshape ``(seq, n_embd)`` to ``(n_head, seq, head_dim)``."""
    seq_len, n_embd = x.shape
    if n_embd % n_head != 0:
        raise ExecutionError(f"embedding {n_embd} not divisible by {n_head} heads")
    head_dim = n_embd // n_head
    return x.reshape(seq_len, n_head, head_dim).transpose(1, 0, 2)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """Reshape ``(n_head, seq, head_dim)`` back to ``(seq, n_embd)``."""
    n_head, seq_len, head_dim = x.shape
    return x.transpose(1, 0, 2).reshape(seq_len, n_head * head_dim)


def scaled_dot_product_attention(
    query: np.ndarray,
    key: np.ndarray,
    value: np.ndarray,
    causal: bool = True,
    numerics: Numerics = FP32_EXACT,
) -> np.ndarray:
    """Multi-head attention core: ``softmax(mask(Q K^T / sqrt(d))) V``.

    Args:
        query: ``(n_head, q_len, head_dim)``.
        key: ``(n_head, k_len, head_dim)``.
        value: ``(n_head, k_len, head_dim)``.
        causal: Apply the lower-triangular mask (MaskedMM).
        numerics: Precision mode.

    Returns:
        ``(n_head, q_len, head_dim)`` attention output.
    """
    if query.ndim != 3 or key.ndim != 3 or value.ndim != 3:
        raise ExecutionError("attention expects 3-D (n_head, seq, head_dim) tensors")
    if key.shape != value.shape:
        raise ExecutionError(f"key/value shape mismatch: {key.shape} vs {value.shape}")
    n_head, q_len, head_dim = query.shape
    k_len = key.shape[1]

    scale = 1.0 / np.sqrt(head_dim)
    scores = np.einsum(
        "hqd,hkd->hqk",
        np.asarray(query, dtype=np.float32),
        np.asarray(key, dtype=np.float32),
    ) * scale

    if causal:
        allowed = causal_mask(q_len, k_len)
        scores = np.where(allowed[None, :, :], scores, MASK_VALUE)

    probabilities = softmax(scores, axis=-1, numerics=numerics)
    context = np.einsum(
        "hqk,hkd->hqd",
        np.asarray(probabilities, dtype=np.float32),
        np.asarray(value, dtype=np.float32),
    )
    return numerics.cast(context)
