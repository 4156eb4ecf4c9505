"""Tests for the DFX runtime (functional generation + simulated timing)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.model.config import GPT2_TEST_SMALL, GPT2_TEST_TINY
from repro.core.functional import DFXFunctionalSimulator
from repro.model.generation import TextGenerator
from repro.model.gpt2 import GPT2Model
from repro.model.numerics import FP16_DFX
from repro.model.weights import generate_weights
from repro.runtime import DFXRuntime
from repro.workloads import Workload


@pytest.fixture(scope="module")
def runtime():
    return DFXRuntime(GPT2_TEST_TINY, num_devices=2, seed=5)


@pytest.fixture(scope="module")
def engine():
    weights = generate_weights(GPT2_TEST_TINY, seed=5)
    return DFXFunctionalSimulator(weights, num_devices=2)


@pytest.fixture(scope="module")
def reference():
    weights = generate_weights(GPT2_TEST_TINY, seed=5)
    return TextGenerator(GPT2Model(weights, numerics=FP16_DFX))


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

    def test_batch_cost_spans_the_longest_prompt_and_budget(self, runtime):
        # Each stream decodes exactly its budget; the lockstep batch is
        # priced at its longest prompt and budget, at the full batch size.
        batch = runtime.generate_batch([[1, 2, 3], [4, 5]], [2, 5])
        assert [len(tokens) for tokens in batch.output_token_ids] == [2, 5]
        assert batch.workload == Workload(3, 5)
        assert batch.batch_size == 2
        assert batch.latency_s == runtime.appliance.batched_request_seconds(
            Workload(3, 5), 2
        )

    def test_generate_text_round_trip(self, runtime):
        generation = runtime.generate_text("hello dfx appliance", max_new_tokens=3)
        assert generation.text is not None
        assert len(generation.output_token_ids) == 3
        assert len(generation.input_token_ids) == 3

    def test_estimate_only_accepts_paper_scale_workloads(self, runtime):
        # Timing alone runs at paper scale: no weights are touched.
        result = runtime.appliance.run(Workload(64, 64))
        assert result.workload == Workload(64, 64)
        assert result.num_devices == 2
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


class TestBudgetValidation:
    """``max_new_tokens`` must be an integer: NumPy integers work everywhere,
    and a non-integral budget fails with an error naming the field."""

    PROMPTS = [[1, 2, 3], [4, 5]]

    def test_numpy_integer_budget_is_one_budget_per_prompt(self, runtime, engine):
        expected = engine.generate_batch(self.PROMPTS, 2)
        assert engine.generate_batch(self.PROMPTS, np.int64(2)) == expected
        batch = runtime.generate_batch(self.PROMPTS, np.int64(2))
        assert batch.output_token_ids == runtime.generate_batch(
            self.PROMPTS, 2
        ).output_token_ids
        assert all(len(tokens) == 2 for tokens in batch.output_token_ids)

    ENTRY_POINTS = {
        "engine-generate": lambda rt, eng, ref, b: eng.generate([1, 2], b),
        "engine-generate_batch": lambda rt, eng, ref, b: eng.generate_batch([[1, 2]], b),
        "runtime-generate": lambda rt, eng, ref, b: rt.generate([1, 2], b),
        "runtime-generate_batch": lambda rt, eng, ref, b: rt.generate_batch([[1, 2]], b),
        "reference-generate_tokens": lambda rt, eng, ref, b: ref.generate_tokens([1, 2], b),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("budget", [2.5, np.float64(2.0)], ids=["2.5", "float-2"])
    def test_non_integral_budget_rejected(self, runtime, engine, reference, entry, budget):
        call = self.ENTRY_POINTS[entry]
        with pytest.raises(ExecutionError, match="max_new_tokens"):
            call(runtime, engine, reference, budget)

    @pytest.mark.parametrize("entry", ["engine-generate_batch", "runtime-generate_batch"])
    def test_budget_list_must_match_prompts(self, runtime, engine, reference, entry):
        # Each entry point batches the one prompt [1, 2].
        call = self.ENTRY_POINTS[entry]
        for budgets in ([2, 3], []):
            with pytest.raises(ExecutionError, match="max_new_tokens"):
                call(runtime, engine, reference, budgets)


def _fresh_generate(engine, prompt):
    """``engine.generate`` from an empty cache; a second call extends the first's."""
    engine.reset_cache()
    return engine.generate(prompt, 3)


class TestArrayPrompts:
    """A NumPy-array prompt generates what the same list prompt does at
    every entry point, and an empty prompt still fails with
    ``ExecutionError``.  A truthiness test used to reject ``np.array([0])``
    as empty and raise NumPy's own ``ValueError`` on longer arrays."""

    SINGLE = {
        "engine-generate": lambda rt, eng, ref, p: _fresh_generate(eng, p),
        "runtime-generate": lambda rt, eng, ref, p: rt.generate(p, 3).output_token_ids,
        "reference-generate_tokens":
            lambda rt, eng, ref, p: ref.generate_tokens(p, 3).output_token_ids,
    }
    BATCH = {
        "engine-generate_batch": lambda rt, eng, ref, ps: eng.generate_batch(ps, 3),
        "runtime-generate_batch":
            lambda rt, eng, ref, ps: rt.generate_batch(ps, 3).output_token_ids,
    }
    EMPTY = {"list": [], "array": np.array([], dtype=np.int64)}

    @pytest.mark.parametrize("entry", sorted(SINGLE))
    @pytest.mark.parametrize("prompt", [[0], [3, 4]], ids=["token-0", "two-tokens"])
    def test_array_prompt_generates_like_list(self, runtime, engine, reference,
                                              entry, prompt):
        call = self.SINGLE[entry]
        expected = call(runtime, engine, reference, prompt)
        assert call(runtime, engine, reference, np.array(prompt)) == expected

    @pytest.mark.parametrize("entry", sorted(BATCH))
    def test_array_batch_generates_like_list(self, runtime, engine, reference, entry):
        call = self.BATCH[entry]
        prompts = [[3, 4], [0, 7]]
        expected = call(runtime, engine, reference, prompts)
        assert call(runtime, engine, reference, np.array(prompts)) == expected
        ragged = [[0], [3, 4]]
        assert call(runtime, engine, reference, [np.array(p) for p in ragged]) == (
            call(runtime, engine, reference, ragged)
        )

    @pytest.mark.parametrize("entry", sorted(SINGLE))
    @pytest.mark.parametrize("empty", sorted(EMPTY))
    def test_empty_prompt_rejected(self, runtime, engine, reference, entry, empty):
        with pytest.raises(ExecutionError):
            self.SINGLE[entry](runtime, engine, reference, self.EMPTY[empty])

    @pytest.mark.parametrize("entry", sorted(BATCH))
    @pytest.mark.parametrize("empty", sorted(EMPTY))
    def test_empty_prompt_in_batch_rejected(self, runtime, engine, reference,
                                            entry, empty):
        with pytest.raises(ExecutionError):
            self.BATCH[entry](runtime, engine, reference, [[1, 2], self.EMPTY[empty]])
