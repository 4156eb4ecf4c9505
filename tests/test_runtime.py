"""Tests for the DFX runtime (functional generation + simulated timing)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.model.config import GPT2_TEST_SMALL, GPT2_TEST_TINY
from repro.model.gpt2 import GPT2Model
from repro.model.numerics import FP16_DFX
from repro.model.weights import generate_weights
from repro.runtime import DFXRuntime
from repro.workloads import Workload


@pytest.fixture(scope="module")
def runtime():
    return DFXRuntime(GPT2_TEST_TINY, num_devices=2, seed=5)


class TestGeneration:
    def test_generation_matches_reference_model(self, runtime):
        reference = GPT2Model(runtime.weights, numerics=FP16_DFX)
        prompt = [11, 22, 33]
        cache = reference.new_cache()
        out = reference.forward(np.asarray(prompt), cache)
        expected = [out.next_token_id]
        for _ in range(3):
            out = reference.forward(np.asarray([expected[-1]]), cache)
            expected.append(out.next_token_id)

        generation = runtime.generate(prompt, max_new_tokens=4)
        assert generation.output_token_ids == expected

    def test_timing_attached_and_consistent_with_workload(self, runtime):
        generation = runtime.generate([1, 2, 3, 4], max_new_tokens=6)
        assert generation.workload == Workload(4, 6)
        assert generation.simulated_latency_ms > 0
        assert generation.simulated_tokens_per_second > 0
        assert generation.timing.platform == "dfx"

    def test_requests_are_independent(self, runtime):
        first = runtime.generate([5, 6, 7], max_new_tokens=3)
        second = runtime.generate([5, 6, 7], max_new_tokens=3)
        assert first.output_token_ids == second.output_token_ids

    def test_generate_text_round_trip(self, runtime):
        generation = runtime.generate_text("hello dfx appliance", max_new_tokens=3)
        assert generation.text is not None
        assert len(generation.output_token_ids) == 3
        assert len(generation.input_token_ids) == 3

    def test_estimate_only_accepts_paper_scale_workloads(self, runtime):
        result = runtime.estimate_only(Workload(64, 64))
        assert result.latency_ms > 0


class TestValidation:
    def test_empty_prompt_rejected(self, runtime):
        with pytest.raises(ExecutionError):
            runtime.generate([], max_new_tokens=2)

    def test_non_positive_new_tokens_rejected(self, runtime):
        with pytest.raises(ExecutionError):
            runtime.generate([1, 2], max_new_tokens=0)

    def test_mismatched_weights_rejected(self):
        wrong_weights = generate_weights(GPT2_TEST_SMALL, seed=0)
        with pytest.raises(ConfigurationError):
            DFXRuntime(GPT2_TEST_TINY, num_devices=2, weights=wrong_weights)

    @pytest.mark.parametrize(
        "prompt, budget",
        [([-5, 4], 2), ([GPT2_TEST_TINY.vocab_size], 2),
         ([1] * (GPT2_TEST_TINY.n_positions - 2), 5)],
        ids=["negative", "past-vocab", "past-context"],
    )
    def test_unservable_request_rejected(self, runtime, prompt, budget):
        with pytest.raises(ExecutionError):
            runtime.generate(prompt, max_new_tokens=budget)
        with pytest.raises(ExecutionError):
            runtime.generate_batch([[1, 2], prompt], [3, budget])
        # The shared simulator stays usable after a rejected request.
        assert runtime.generate([5, 6, 7], 3).output_token_ids == (
            runtime.generate_batch([[5, 6, 7]], 3).output_token_ids[0]
        )
