"""Integration tests: the functional DFX simulator vs the reference GPT-2.

These are the strongest correctness tests in the suite: they verify that the
compiler + partitioner + instruction semantics reproduce the reference model's
outputs through the whole pipeline (embedding, every decoder layer with KV
caching and four ring syncs, final norm, LM head) on 1, 2, and 4 devices.
"""

import numpy as np
import pytest

from repro.core.functional import DFXFunctionalSimulator, FunctionalCore
from repro.errors import ExecutionError
from repro.isa.compiler import DFXCompiler
from repro.isa.instructions import MatrixInstruction, RouterInstruction, VectorInstruction
from repro.isa.opcodes import MatrixOpcode, RouterOpcode, VectorOpcode
from repro.isa.program import Program
from repro.model.config import GPT2_TEST_TINY
from repro.model.gpt2 import GPT2Model
from repro.model.generation import TextGenerator
from repro.model.layers import MASK_VALUE, causal_mask
from repro.model.numerics import FP16_DFX, FP32_EXACT
from repro.parallel.partitioner import build_partition_plan


@pytest.fixture(scope="module")
def reference(request):
    weights = request.getfixturevalue("tiny_weights")
    return GPT2Model(weights, numerics=FP16_DFX)


class TestFunctionalCorePrimitives:
    def test_vector_ops(self):
        core = FunctionalCore(numerics=FP32_EXACT)
        core.registers["a"] = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        core.execute_instruction(
            VectorInstruction(VectorOpcode.ACCUM, dst="sum", src1="a", length=3)
        )
        assert core.registers["sum"][0, 0] == pytest.approx(6.0)
        core.execute_instruction(
            VectorInstruction(VectorOpcode.MUL, dst="scaled", src1="a", immediate=2.0, length=3)
        )
        np.testing.assert_allclose(core.registers["scaled"], [[2.0, 4.0, 6.0]])

    def test_reading_undefined_register_fails(self):
        core = FunctionalCore()
        with pytest.raises(ExecutionError):
            core.execute_instruction(
                VectorInstruction(VectorOpcode.EXP, dst="y", src1="missing", length=4)
            )

    def test_sync_without_handler_fails(self):
        core = FunctionalCore()
        core.registers["part"] = np.zeros((1, 4), dtype=np.float32)
        with pytest.raises(ExecutionError):
            core.execute_instruction(
                RouterInstruction(RouterOpcode.SYNC, dst="full", src="part",
                                  payload_elements=8)
            )

    @pytest.mark.parametrize("rows", [3, 1])
    def test_masked_mm_reads_its_causal_past_from_the_score(self, rng, rows):
        # Row i of 3 query rows over 7 keys attends keys 0 .. 4 + i; a single
        # query row attends every key, so its mask excludes nothing.
        core = FunctionalCore(numerics=FP16_DFX)
        core.registers["q"] = rng.normal(size=(rows, 4)).astype(np.float16)
        core.memory["keys"] = rng.normal(size=(7, 4)).astype(np.float16)
        for opcode, dst in ((MatrixOpcode.MM, "scores"), (MatrixOpcode.MASKED_MM, "masked")):
            core.execute_instruction(
                MatrixInstruction(opcode, dst=dst, input_operand="q",
                                  weight_operand="keys", rows=rows, in_dim=4,
                                  out_dim=7, transpose_weight=True)
            )
        scores = core.registers["scores"]
        expected = np.where(causal_mask(rows, 7), scores, MASK_VALUE)
        assert core.registers["masked"].dtype == np.float16
        assert np.array_equal(core.registers["masked"], expected)
        if rows == 1:
            assert np.array_equal(core.registers["masked"], scores)

    def test_split_at_syncs(self):
        plan = build_partition_plan(GPT2_TEST_TINY, 2)
        program = DFXCompiler(GPT2_TEST_TINY, plan, 0).compile_decoder_layer(1, 0)
        segments = program.segments()
        assert sum(1 for segment in segments if segment.sync is not None) == 4
        # Instruction count is preserved across the split.
        total = sum(len(segment.instructions) for segment in segments) + 4
        assert total == len(program)


class TestSimulatorMatchesReference:
    @pytest.mark.parametrize("num_devices", [1, 2, 4])
    def test_summarization_logits_match(self, tiny_weights, reference, num_devices):
        simulator = DFXFunctionalSimulator(tiny_weights, num_devices=num_devices,
                                           numerics=FP16_DFX)
        tokens = np.array([5, 111, 42, 7])
        expected = reference.forward(tokens)
        logits, next_token = simulator.forward(tokens)
        assert next_token == expected.next_token_id
        np.testing.assert_allclose(
            logits, expected.logits[-1].astype(np.float32), atol=5e-3, rtol=1e-2
        )

    def test_generation_stage_matches_reference(self, tiny_weights, reference):
        simulator = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        prompt = [9, 10, 11]
        cache = reference.new_cache()
        expected_first = reference.forward(np.asarray(prompt), cache)
        expected_tokens = [expected_first.next_token_id]
        for _ in range(3):
            out = reference.forward(np.asarray([expected_tokens[-1]]), cache)
            expected_tokens.append(out.next_token_id)

        generated = simulator.generate(prompt, max_new_tokens=4)
        assert generated == expected_tokens
        assert simulator.kv_cache_length == len(prompt) + 3

    def test_device_count_does_not_change_results(self, tiny_weights):
        tokens = np.array([3, 14, 159, 26])
        single = DFXFunctionalSimulator(tiny_weights, 1, FP16_DFX).forward(tokens)
        quad = DFXFunctionalSimulator(tiny_weights, 4, FP16_DFX).forward(tokens)
        assert single[1] == quad[1]
        np.testing.assert_allclose(single[0], quad[0], atol=5e-3)

    def test_kv_cache_persists_between_calls(self, tiny_weights):
        simulator = DFXFunctionalSimulator(tiny_weights, num_devices=2)
        simulator.forward(np.array([1, 2, 3]))
        assert simulator.kv_cache_length == 3
        simulator.forward(np.array([4]))
        assert simulator.kv_cache_length == 4

    def test_invalid_inputs_rejected(self, tiny_weights):
        simulator = DFXFunctionalSimulator(tiny_weights, num_devices=2)
        with pytest.raises(ExecutionError):
            simulator.forward(np.array([]))
        with pytest.raises(ExecutionError):
            simulator.generate([1, 2], max_new_tokens=0)


class TestBoundaryValidation:
    """Bad token ids and context overflows fail at the engine boundary with
    the reference model's ``ExecutionError``, before any forward runs."""

    VOCAB = GPT2_TEST_TINY.vocab_size
    CONTEXT = GPT2_TEST_TINY.n_positions

    @pytest.fixture()
    def simulator(self, tiny_weights):
        return DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)

    @pytest.mark.parametrize(
        "tokens",
        [[-1, 2], [VOCAB], [[1, 2]], [], [1] * (CONTEXT + 1)],
        ids=["negative", "past-vocab", "2-d", "empty", "past-context"],
    )
    def test_forward_fails_like_reference_embed(self, simulator, reference, tokens):
        with pytest.raises(ExecutionError) as expected:
            reference.forward(np.asarray(tokens, dtype=np.int64))
        with pytest.raises(ExecutionError) as raised:
            simulator.forward(np.asarray(tokens, dtype=np.int64))
        assert str(raised.value) == str(expected.value)
        assert simulator.kv_cache_length == 0

    NON_INTEGER_ENTRY_POINTS = {
        "engine-forward": lambda sim, ref, ids: sim.forward(np.asarray(ids)),
        "engine-generate": lambda sim, ref, ids: sim.generate(ids, 2),
        "engine-generate_batch": lambda sim, ref, ids: sim.generate_batch([ids], 2),
        "reference-forward": lambda sim, ref, ids: ref.forward(np.asarray(ids)),
        "reference-generate_tokens": (
            lambda sim, ref, ids: TextGenerator(ref).generate_tokens(ids, 2)
        ),
    }

    @pytest.mark.parametrize("entry", sorted(NON_INTEGER_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "tokens",
        [[1.5, 2.7], [np.float16(1.9), np.float16(2.2)], [True, False]],
        ids=["float64", "float16", "bool"],
    )
    def test_non_integer_token_ids_rejected(self, simulator, reference, entry, tokens):
        # A cast to int64 would silently run ids [1, 2] (or 1, 0 for bools).
        call = self.NON_INTEGER_ENTRY_POINTS[entry]
        with pytest.raises(ExecutionError, match="token ids must be integers"):
            call(simulator, reference, tokens)
        assert simulator.kv_cache_length == 0

    def test_chunk_past_context_leaves_cache_untouched(self, simulator):
        simulator.forward(np.ones(self.CONTEXT - 2, dtype=np.int64))
        with pytest.raises(ExecutionError, match="exceeds maximum context"):
            simulator.forward(np.ones(3, dtype=np.int64))
        assert simulator.kv_cache_length == self.CONTEXT - 2
        simulator.forward(np.ones(2, dtype=np.int64))
        assert simulator.kv_cache_length == self.CONTEXT

    @pytest.mark.parametrize(
        "prompt, budget",
        [([-1, 2], 3), ([VOCAB, 2], 3), ([1] * (CONTEXT - 2), 5)],
        ids=["negative", "past-vocab", "past-context"],
    )
    def test_generate_rejects_what_reference_rejects(
        self, simulator, reference, prompt, budget
    ):
        with pytest.raises(ExecutionError):
            TextGenerator(reference).generate_tokens(prompt, budget)
        with pytest.raises(ExecutionError):
            simulator.generate(prompt, budget)
        assert simulator.kv_cache_length == 0

    def test_generate_counts_cached_positions_against_context(self, simulator):
        simulator.forward(np.ones(self.CONTEXT - 4, dtype=np.int64))
        with pytest.raises(ExecutionError, match="context window"):
            simulator.generate([1, 2], 3)
        assert simulator.kv_cache_length == self.CONTEXT - 4

    @pytest.mark.parametrize(
        "prompt, budget",
        [([-1, 2], 3), ([VOCAB, 2], 3), ([1] * (CONTEXT - 2), 5)],
        ids=["negative", "past-vocab", "past-context"],
    )
    def test_generate_batch_rejects_before_any_step(
        self, simulator, prompt, budget
    ):
        simulator.forward(np.array([1, 2, 3]))
        with pytest.raises(ExecutionError):
            simulator.generate_batch([[1, 2, 3], prompt], [4, budget])
        # A rejected batch leaves the earlier forward's cache as it was.
        assert simulator.kv_cache_length == 3
