"""Unit and integration tests for the functional GPT-2 model."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.model.config import GPT2_TEST_TINY
from repro.model.gpt2 import GPT2Model
from repro.model.kv_cache import KVCache
from repro.model.layers import softmax
from repro.model.numerics import FP16_DFX, FP16_GPU, FP32_EXACT


class TestForwardShapes:
    def test_logits_shape(self, tiny_model):
        result = tiny_model.forward(np.array([1, 2, 3]))
        assert result.logits.shape == (3, GPT2_TEST_TINY.vocab_size)
        assert result.hidden_states.shape == (3, GPT2_TEST_TINY.n_embd)

    def test_next_token_is_argmax_of_last_position(self, tiny_model):
        result = tiny_model.forward(np.array([5, 6, 7]))
        assert result.next_token_id == int(np.argmax(result.logits[-1]))

    def test_probabilities_sum_to_one(self, tiny_model):
        result = tiny_model.forward(np.array([5, 6, 7]))
        assert np.all(np.isfinite(result.logits))
        probabilities = softmax(result.logits[-1].astype(np.float32))
        assert float(probabilities.sum()) == pytest.approx(1.0, abs=1e-4)
        assert int(np.argmax(probabilities)) == result.next_token_id


class TestKVCacheEquivalence:
    """Incremental decoding with the cache must match a full re-run."""

    def test_incremental_matches_full_forward(self, tiny_model):
        tokens = np.array([3, 14, 15, 9, 26])
        full = tiny_model.forward(tokens)

        cache = tiny_model.new_cache()
        tiny_model.forward(tokens[:3], cache)
        tiny_model.forward(tokens[3:4], cache)
        incremental = tiny_model.forward(tokens[4:5], cache)

        np.testing.assert_allclose(
            incremental.logits[-1], full.logits[-1], rtol=1e-4, atol=1e-4
        )
        assert cache.seq_len == len(tokens)

    def test_cache_grows_by_step_size(self, tiny_model):
        cache = tiny_model.new_cache()
        tiny_model.forward(np.array([1, 2, 3, 4]), cache)
        assert cache.seq_len == 4
        tiny_model.forward(np.array([5]), cache)
        assert cache.seq_len == 5


class TestValidation:
    def test_token_out_of_vocab_rejected(self, tiny_model):
        with pytest.raises(ExecutionError):
            tiny_model.forward(np.array([GPT2_TEST_TINY.vocab_size]))

    def test_empty_input_rejected(self, tiny_model):
        with pytest.raises(ExecutionError):
            tiny_model.forward(np.array([], dtype=np.int64))

    def test_context_overflow_rejected(self, tiny_model):
        too_long = np.zeros(GPT2_TEST_TINY.n_positions + 1, dtype=np.int64)
        with pytest.raises(ExecutionError):
            tiny_model.forward(too_long)

    def test_foreign_cache_rejected(self, tiny_model, small_weights):
        foreign_cache = KVCache.empty(small_weights.config)
        with pytest.raises(ExecutionError):
            tiny_model.forward(np.array([1]), foreign_cache)


class TestNumericsModes:
    def test_fp16_pipelines_close_to_fp32(self, tiny_weights):
        tokens = np.array([10, 20, 30])
        fp32 = GPT2Model(tiny_weights, FP32_EXACT).forward(tokens)
        fp16_gpu = GPT2Model(tiny_weights, FP16_GPU).forward(tokens)
        fp16_dfx = GPT2Model(tiny_weights, FP16_DFX).forward(tokens)
        assert fp16_gpu.logits.dtype == np.float16
        np.testing.assert_allclose(
            fp16_gpu.logits[-1].astype(np.float32), fp32.logits[-1], atol=0.05
        )
        np.testing.assert_allclose(
            fp16_dfx.logits[-1].astype(np.float32),
            fp16_gpu.logits[-1].astype(np.float32),
            atol=0.01,
        )

    def test_gpu_and_dfx_pipelines_usually_agree_on_argmax(self, tiny_weights):
        # The paper reports near-identical accuracy; on random contexts the two
        # FP16 pipelines should almost always pick the same token.
        gpu_model = GPT2Model(tiny_weights, FP16_GPU)
        dfx_model = GPT2Model(tiny_weights, FP16_DFX)
        rng = np.random.default_rng(0)
        agreements = 0
        trials = 10
        for _ in range(trials):
            tokens = rng.integers(3, GPT2_TEST_TINY.vocab_size, size=8)
            if gpu_model.forward(tokens).next_token_id == dfx_model.forward(tokens).next_token_id:
                agreements += 1
        assert agreements >= trials - 1

    def test_from_config_constructor(self):
        model = GPT2Model.from_config(GPT2_TEST_TINY, seed=5)
        assert model.config is GPT2_TEST_TINY
        result = model.forward(np.array([1, 2]))
        assert np.all(np.isfinite(result.logits.astype(np.float64)))
