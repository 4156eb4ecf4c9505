"""Functional GPT-2 model: token embedding, decoder stack, LM head.

This is the reference model the DFX functional interpreter is verified
against, and the substrate for the accuracy experiments.  It supports the two
stages the paper describes:

* **summarization**: a batch of input tokens is processed in one forward pass,
  filling the KV cache and producing the first output token;
* **generation**: one token at a time, appending one row per layer to the KV
  cache.

The oracle imports nothing from the engine's packages and shares none of
its weight staging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExecutionError
from repro.model.config import GPT2Config
from repro.model.decoder import decoder_layer_forward
from repro.model.kv_cache import KVCache
from repro.model.layers import layer_norm
from repro.model.numerics import FP32_EXACT, Numerics
from repro.model.weights import GPT2Weights, generate_weights


def check_integer_tokens(token_ids: np.ndarray) -> None:
    """Reject token ids of a non-integer dtype instead of truncating them.

    A cast to ``int64`` would run ``1.9`` as ``1`` and ``True`` as ``1``.  The
    reference model and the functional engine share this check and its
    message.
    """
    if token_ids.dtype.kind not in "iu":
        raise ExecutionError(f"token ids must be integers, got dtype {token_ids.dtype}")


@dataclass
class ForwardResult:
    """Output of a single model forward pass.

    Attributes:
        logits: ``(seq, vocab_size)`` LM-head logits for each input position.
        next_token_id: Greedy (argmax) token predicted from the last position.
        hidden_states: ``(seq, n_embd)`` final hidden states (post final norm).
    """

    logits: np.ndarray
    next_token_id: int
    hidden_states: np.ndarray


class GPT2Model:
    """Functional GPT-2 with pluggable numerics (FP32 / FP16-GPU / FP16-DFX)."""

    def __init__(
        self,
        weights: GPT2Weights,
        numerics: Numerics = FP32_EXACT,
    ) -> None:
        self.config: GPT2Config = weights.config
        self.numerics = numerics
        # Round the weights to the mode's dtype once, then hold them, and
        # every cached K/V row, widened to at least FP32.  Every op upcasts
        # its operands to FP32 and FP16 -> FP32 is exact, so in the FP16
        # modes no forward converts a weight or a cached row again.
        self._storage_dtype = np.promote_types(numerics.dtype, np.float32)
        self.weights = weights.astype(numerics.dtype).astype(self._storage_dtype)

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_config(
        cls,
        config: GPT2Config,
        numerics: Numerics = FP32_EXACT,
        seed: int = 0,
    ) -> "GPT2Model":
        """Build a model with synthetic weights for ``config``."""
        return cls(generate_weights(config, seed=seed), numerics=numerics)

    # ------------------------------------------------------------------ pieces
    def embed(self, token_ids: np.ndarray, position_offset: int = 0) -> np.ndarray:
        """Token embedding: WTE[token] + WPE[position] (paper Sec. II-A)."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 1:
            raise ExecutionError(f"token_ids must be 1-D, got shape {token_ids.shape}")
        if token_ids.size == 0:
            raise ExecutionError("token_ids must contain at least one token")
        check_integer_tokens(token_ids)
        if np.any(token_ids < 0) or np.any(token_ids >= self.config.vocab_size):
            raise ExecutionError("token id out of vocabulary range")
        positions = np.arange(position_offset, position_offset + token_ids.size)
        if positions[-1] >= self.config.n_positions:
            raise ExecutionError(
                f"sequence length {positions[-1] + 1} exceeds maximum context "
                f"{self.config.n_positions}"
            )
        token_vectors = self.weights.wte[token_ids]
        position_vectors = self.weights.wpe[positions]
        return self.numerics.add(token_vectors, position_vectors)

    def lm_head(self, hidden: np.ndarray) -> np.ndarray:
        """Project hidden states onto the vocabulary using WTE transposed."""
        return self.numerics.matmul(hidden, self.weights.wte.T)

    # ----------------------------------------------------------------- forward
    def forward(
        self,
        token_ids: np.ndarray,
        cache: KVCache | None = None,
    ) -> ForwardResult:
        """Run a forward pass over ``token_ids``, updating ``cache`` in place.

        With an empty (or ``None``) cache this is the summarization stage;
        with a pre-filled cache and a single token it is one generation-stage
        iteration.
        """
        if cache is None:
            cache = self.new_cache()
        if cache.config.n_layer != self.config.n_layer:
            raise ExecutionError("cache was built for a different model configuration")

        hidden = self.embed(np.asarray(token_ids), position_offset=cache.seq_len)

        for layer_index in range(self.config.n_layer):
            hidden = decoder_layer_forward(
                hidden,
                self.weights.layers[layer_index],
                cache.layer(layer_index),
                self.config,
                self.numerics,
            )

        hidden = layer_norm(
            hidden,
            self.weights.ln_f_gamma,
            self.weights.ln_f_beta,
            self.config.layer_norm_eps,
            self.numerics,
        )
        logits = self.lm_head(hidden)
        next_token = int(np.argmax(logits[-1]))
        return ForwardResult(
            logits=logits, next_token_id=next_token, hidden_states=hidden
        )

    # -------------------------------------------------------------- convenience
    def new_cache(self, capacity: int = 0) -> KVCache:
        """Create an empty KV cache that stores rows widened to at least FP32.

        ``capacity`` preallocates that many token positions per layer, so
        decoding a request of known total length never regrows the cache.
        """
        return KVCache.empty(self.config, dtype=self._storage_dtype, capacity=capacity)
