"""Tests for the two-stage text-generation driver."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.model.config import GPT2_TEST_TINY
from repro.model.generation import TextGenerator
from repro.model.tokenizer import SyntheticTokenizer


@pytest.fixture(scope="module")
def generator(request):
    tiny_model = request.getfixturevalue("tiny_model")
    return TextGenerator(tiny_model, SyntheticTokenizer(vocab_size=GPT2_TEST_TINY.vocab_size))


class TestTokenGeneration:
    def test_produces_requested_number_of_tokens(self, generator):
        result = generator.generate_tokens([5, 9, 12], max_new_tokens=6)
        assert len(result.output_token_ids) == 6
        assert result.total_tokens == 9

    def test_kv_cache_length_tracks_summarization_and_generation(self, generator):
        result = generator.generate_tokens([5, 9, 12, 3], max_new_tokens=4)
        # Summarization caches the 4 prompt tokens; each generation iteration
        # (3 of them) caches one more; the final token is never fed back.
        assert result.kv_cache_length == 4 + 3

    def test_greedy_generation_is_deterministic(self, generator):
        first = generator.generate_tokens([7, 8, 9], max_new_tokens=5)
        second = generator.generate_tokens([7, 8, 9], max_new_tokens=5)
        assert first.output_token_ids == second.output_token_ids

    def test_greedy_matches_manual_decode_loop(self, generator, tiny_model):
        prompt = [11, 22, 33]
        result = generator.generate_tokens(prompt, max_new_tokens=3)
        cache = tiny_model.new_cache()
        out = tiny_model.forward(np.asarray(prompt), cache)
        expected = [out.next_token_id]
        for _ in range(2):
            out = tiny_model.forward(np.asarray([expected[-1]]), cache)
            expected.append(out.next_token_id)
        assert result.output_token_ids == expected

    def test_zero_new_tokens_runs_only_summarization(self, generator):
        result = generator.generate_tokens([4, 5], max_new_tokens=0)
        assert result.output_token_ids == []
        assert result.summarization_logits is not None

    def test_sampled_generation_respects_seed(self, tiny_model):
        first = TextGenerator(tiny_model, seed=3).generate_tokens(
            [4, 5, 6], max_new_tokens=5, temperature=1.0
        )
        second = TextGenerator(tiny_model, seed=3).generate_tokens(
            [4, 5, 6], max_new_tokens=5, temperature=1.0
        )
        assert first.output_token_ids == second.output_token_ids


class TestValidation:
    def test_empty_prompt_rejected(self, generator):
        with pytest.raises(ExecutionError):
            generator.generate_tokens([], max_new_tokens=1)

    def test_context_overflow_rejected(self, generator):
        prompt = list(range(3, GPT2_TEST_TINY.n_positions))
        with pytest.raises(ExecutionError):
            generator.generate_tokens(prompt, max_new_tokens=10)

    def test_negative_temperature_rejected(self, generator):
        with pytest.raises(ExecutionError):
            generator.generate_tokens([1, 2], max_new_tokens=2, temperature=-0.5)


class TestTextInterface:
    def test_generate_text_round_trip(self, generator):
        text, result = generator.generate_text("hello my name is", max_new_tokens=4)
        assert isinstance(text, str)
        assert len(result.output_token_ids) == 4
        assert len(result.input_token_ids) == 4
