"""Unit and integration tests for the functional GPT-2 model."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.model.config import GPT2_TEST_TINY
from repro.model.decoder import decoder_layer_forward
from repro.model.gelu import gelu_exact, gelu_lut
from repro.model.gpt2 import GPT2Model
from repro.model.kv_cache import KVCache
from repro.model.layers import layer_norm, softmax
from repro.model.numerics import FP16_DFX, FP16_GPU, FP32_EXACT, Numerics
from repro.model.weights import DecoderLayerWeights, GPT2Weights


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


def _widened(weights: GPT2Weights) -> GPT2Weights:
    """float64 weights float32 cannot hold: each value times ``1 + 2**-40``."""

    def widen(array: np.ndarray) -> np.ndarray:
        return array.astype(np.float64) * (1.0 + 2.0**-40)

    return GPT2Weights(
        config=weights.config,
        wte=widen(weights.wte),
        wpe=widen(weights.wpe),
        layers=[
            DecoderLayerWeights(
                **{name: widen(getattr(layer, name)) for name in layer.__dataclass_fields__}
            )
            for layer in weights.layers
        ],
        ln_f_gamma=widen(weights.ln_f_gamma),
        ln_f_beta=widen(weights.ln_f_beta),
    )


class TestStagingOracle:
    """``GPT2Model`` holds its rounded weights and K/V rows widened to at
    least FP32; its outputs must equal, bit for bit, a forward that stages
    nothing: the same ops on weights rounded to the mode's dtype and a K/V
    cache of the mode's dtype."""

    MODES = {
        "FP16_DFX": FP16_DFX,
        "FP16_GPU": FP16_GPU,
        "FP32_EXACT": FP32_EXACT,
        "fp64": Numerics("fp64", np.dtype(np.float64), gelu_exact, accumulate_fp32=False),
        "fp16-accumulate": Numerics(
            "fp16-accumulate", np.dtype(np.float16), gelu_lut, accumulate_fp32=False
        ),
    }
    # A prefill, then single tokens past the unreserved cache's first two
    # capacities (8 and 16 positions).
    CHUNKS = [[5, 111, 42, 7]] + [[token] for token in range(30, 44)]

    @staticmethod
    def unstaged_forward(weights: GPT2Weights, numerics: Numerics) -> list:
        rounded = weights.astype(numerics.dtype)
        config = weights.config
        cache = KVCache.empty(config, dtype=numerics.dtype)
        outputs = []
        for chunk in TestStagingOracle.CHUNKS:
            positions = np.arange(cache.seq_len, cache.seq_len + len(chunk))
            hidden = numerics.add(rounded.wte[chunk], rounded.wpe[positions])
            for layer, layer_cache in zip(rounded.layers, cache.layers):
                hidden = decoder_layer_forward(hidden, layer, layer_cache, config, numerics)
            hidden = layer_norm(
                hidden, rounded.ln_f_gamma, rounded.ln_f_beta,
                config.layer_norm_eps, numerics,
            )
            outputs.append((numerics.matmul(hidden, rounded.wte.T), hidden))
        return outputs

    @staticmethod
    def model_forward(model: GPT2Model, cache: KVCache) -> list:
        outputs = []
        for chunk in TestStagingOracle.CHUNKS:
            result = model.forward(np.asarray(chunk), cache)
            outputs.append((result.logits, result.hidden_states))
        return outputs

    @pytest.fixture(params=sorted(MODES))
    def case(self, request, tiny_weights):
        weights = _widened(tiny_weights) if request.param == "fp64" else tiny_weights
        return weights, self.MODES[request.param]

    def test_widened_weights_are_not_float32(self, tiny_weights):
        widened = _widened(tiny_weights)
        assert not np.array_equal(widened.wte.astype(np.float32), widened.wte)
        assert not np.array_equal(
            widened.ln_f_gamma.astype(np.float32), widened.ln_f_gamma
        )

    def test_staged_model_matches_unstaged_forward(self, case):
        weights, numerics = case
        expected = self.unstaged_forward(weights, numerics)
        model = GPT2Model(weights, numerics)
        own_cache = model.new_cache()
        # A caller-built cache of the mode's dtype gives the same outputs.
        caller_cache = KVCache.empty(weights.config, dtype=numerics.dtype)
        for cache in (own_cache, caller_cache):
            got = self.model_forward(model, cache)
            for (logits, hidden), (want_logits, want_hidden) in zip(got, expected):
                assert logits.dtype == want_logits.dtype == numerics.dtype
                assert np.array_equal(logits, want_logits)
                assert np.array_equal(hidden, want_hidden)
        # The cache reports the FP16 footprint whatever dtype it stores.
        assert own_cache.memory_bytes() == caller_cache.memory_bytes() == (
            2 * 2 * weights.config.n_layer * weights.config.n_embd * own_cache.seq_len
        )

    def test_model_holds_weights_and_rows_widened_to_fp32(self, case):
        weights, numerics = case
        model = GPT2Model(weights, numerics)
        storage = np.promote_types(numerics.dtype, np.float32)
        assert model.weights.wte.dtype == storage
        assert model.weights.layers[0].w_qkv.dtype == storage
        assert model.new_cache(capacity=4).layer(0).keys.dtype == storage
