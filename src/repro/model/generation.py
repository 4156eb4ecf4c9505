"""Text-generation driver: summarization stage + generation stage.

Implements the two-stage loop of paper Fig. 1/2: the summarization stage runs
the whole input context through the model once and produces the first output
token; the generation stage then iterates, feeding each produced token back in
and appending to the KV cache, until the requested number of output tokens has
been produced (or an end-of-text token is emitted).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError, check_number
from repro.model.gpt2 import GPT2Model
from repro.model.kv_cache import KVCache
from repro.model.tokenizer import END_OF_TEXT_TOKEN_ID, SyntheticTokenizer


@dataclass
class GenerationResult:
    """Outcome of one text-generation request.

    Attributes:
        input_token_ids: The prompt tokens (summarization-stage input).
        output_token_ids: Generated tokens, in order.
        summarization_logits: Logits from the last prompt position.
        kv_cache_length: Final KV-cache length (input + output tokens).
    """

    input_token_ids: list[int]
    output_token_ids: list[int] = field(default_factory=list)
    summarization_logits: np.ndarray | None = None
    kv_cache_length: int = 0

    @property
    def total_tokens(self) -> int:
        """Input plus generated token count."""
        return len(self.input_token_ids) + len(self.output_token_ids)


class TextGenerator:
    """Greedy / temperature-sampled text generation over a functional model."""

    def __init__(
        self,
        model: GPT2Model,
        tokenizer: SyntheticTokenizer | None = None,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer or SyntheticTokenizer(
            vocab_size=model.config.vocab_size
        )
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ tokens
    def generate_tokens(
        self,
        input_token_ids: list[int],
        max_new_tokens: int,
        temperature: float = 0.0,
        stop_at_end_of_text: bool = False,
    ) -> GenerationResult:
        """Generate up to ``max_new_tokens`` tokens after ``input_token_ids``.

        ``temperature == 0`` selects the argmax token (the LM head's reduce-max
        path on DFX); positive temperatures sample from the softmax.
        """
        if len(input_token_ids) == 0:
            raise ExecutionError("input_token_ids must not be empty")
        check_number("max_new_tokens", max_new_tokens, 0, integer=True,
                     error=ExecutionError)
        check_number("temperature", temperature, 0.0, error=ExecutionError)
        total = len(input_token_ids) + max_new_tokens
        if total > self.model.config.n_positions:
            raise ExecutionError(
                f"requested sequence of {total} tokens exceeds the model's "
                f"context window of {self.model.config.n_positions}"
            )

        # The request's total length is known up front, so the KV cache is
        # preallocated once and decode never pays a regrowth copy.
        cache: KVCache = self.model.new_cache(capacity=total)
        result = GenerationResult(input_token_ids=list(input_token_ids))

        # Summarization stage: full prompt in one pass.
        forward = self.model.forward(np.asarray(input_token_ids), cache)
        result.summarization_logits = forward.logits[-1].copy()
        if max_new_tokens == 0:
            result.kv_cache_length = cache.seq_len
            return result

        next_token = self._select_token(forward.logits[-1], temperature)
        result.output_token_ids.append(next_token)

        # Generation stage: one token per iteration.
        for _ in range(max_new_tokens - 1):
            if stop_at_end_of_text and next_token == END_OF_TEXT_TOKEN_ID:
                break
            forward = self.model.forward(np.asarray([next_token]), cache)
            next_token = self._select_token(forward.logits[-1], temperature)
            result.output_token_ids.append(next_token)

        result.kv_cache_length = cache.seq_len
        return result

    # -------------------------------------------------------------------- text
    def generate_text(
        self, prompt: str, max_new_tokens: int, temperature: float = 0.0
    ) -> tuple[str, GenerationResult]:
        """Tokenize ``prompt``, generate, and detokenize the generated suffix."""
        input_ids = self.tokenizer.encode(prompt)
        result = self.generate_tokens(input_ids, max_new_tokens, temperature)
        return self.tokenizer.decode(result.output_token_ids), result

    # ---------------------------------------------------------------- internals
    def _select_token(self, logits: np.ndarray, temperature: float) -> int:
        if temperature == 0.0:
            return int(np.argmax(logits))
        scaled = np.asarray(logits, dtype=np.float64) / temperature
        scaled -= scaled.max()
        probabilities = np.exp(scaled)
        probabilities /= probabilities.sum()
        return int(self._rng.choice(len(probabilities), p=probabilities))
