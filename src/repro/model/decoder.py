"""Functional GPT-2 decoder layer (paper Fig. 2 / Algorithm 1).

One decoder layer is: LayerNorm -> self-attention (with KV cache append) ->
residual -> LayerNorm -> feed-forward network with GELU -> residual.  GPT-2
uses the *pre-norm* arrangement, which is what Algorithm 1 in the paper
describes (LayerNorm before self-attention and before the FFN).
"""

from __future__ import annotations

import numpy as np

from repro.model.config import GPT2Config
from repro.model.kv_cache import LayerKVCache
from repro.model.layers import (
    layer_norm,
    linear,
    merge_heads,
    scaled_dot_product_attention,
    split_heads,
)
from repro.model.numerics import FP32_EXACT, Numerics
from repro.model.weights import DecoderLayerWeights


def self_attention(
    hidden: np.ndarray,
    weights: DecoderLayerWeights,
    cache: LayerKVCache,
    config: GPT2Config,
    numerics: Numerics = FP32_EXACT,
) -> np.ndarray:
    """Multi-head self-attention with KV-cache update.

    Args:
        hidden: ``(seq, n_embd)`` layer-normalized input.
        weights: This layer's weights.
        cache: Layer KV cache; new Keys/Values for ``hidden`` are appended.
        config: Model configuration.
        numerics: Precision mode.

    Returns:
        ``(seq, n_embd)`` attention output after the output projection.
    """
    qkv = linear(hidden, weights.w_qkv, weights.b_qkv, numerics)
    query, key, value = np.split(qkv, 3, axis=-1)

    query_heads = split_heads(query, config.n_head)
    key_heads = split_heads(key, config.n_head)
    value_heads = split_heads(value, config.n_head)

    cache.append(key_heads, value_heads)

    context = scaled_dot_product_attention(
        query_heads, cache.keys, cache.values, causal=True, numerics=numerics
    )
    merged = merge_heads(context)
    return linear(merged, weights.w_attn_proj, weights.b_attn_proj, numerics)


def feed_forward(
    hidden: np.ndarray,
    weights: DecoderLayerWeights,
    numerics: Numerics = FP32_EXACT,
) -> np.ndarray:
    """Two-layer FFN with GELU: ``GELU(x W1 + b1) W2 + b2``."""
    inner = linear(hidden, weights.w_ffn1, weights.b_ffn1, numerics)
    activated = numerics.activation(inner)
    return linear(activated, weights.w_ffn2, weights.b_ffn2, numerics)


def decoder_layer_forward(
    hidden: np.ndarray,
    weights: DecoderLayerWeights,
    cache: LayerKVCache,
    config: GPT2Config,
    numerics: Numerics = FP32_EXACT,
) -> np.ndarray:
    """Run one pre-norm decoder layer on ``hidden`` (``(seq, n_embd)``)."""
    normed1 = layer_norm(
        hidden, weights.ln1_gamma, weights.ln1_beta, config.layer_norm_eps, numerics
    )
    attention_output = self_attention(normed1, weights, cache, config, numerics)
    hidden = numerics.add(hidden, attention_output)

    normed2 = layer_norm(
        hidden, weights.ln2_gamma, weights.ln2_beta, config.layer_norm_eps, numerics
    )
    ffn_output = feed_forward(normed2, weights, numerics)
    return numerics.add(hidden, ffn_output)
