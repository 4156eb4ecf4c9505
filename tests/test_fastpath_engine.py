"""Tests for the fast-path execution engine.

Covers the compiled-program cache (each distinct shape compiles at most once
per ``generate()``), immutability of cached programs under execution, the
bit-exactness contract between the linked fast path and the per-instruction
slow path (single streams and batched cohorts), KV arena growth inside the
functional cores, and warm-cache reuse via ``reset_cache``.
"""

import numpy as np
import pytest

from repro.core.functional import (
    BatchedFunctionalCore,
    BatchedKV,
    BatchedKVPool,
    DFXFunctionalSimulator,
    FunctionalCore,
    link_program,
)
from repro.isa.compiler import DFXCompiler
from repro.isa.instructions import MatrixInstruction
from repro.isa.opcodes import MatrixOpcode
from repro.model.config import GPT2_TEST_TINY
from repro.model.numerics import FP16_DFX
from repro.parallel.partitioner import build_partition_plan


@pytest.fixture()
def simulator(tiny_weights):
    return DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)


class TestProgramCache:
    def test_compile_at_most_once_per_shape_during_generate(self, simulator):
        simulator.generate([5, 111, 42], max_new_tokens=16)
        counts = simulator.compiler.compile_counts
        assert counts, "expected the compiler to record compilations"
        over_compiled = {name: n for name, n in counts.items() if n > 1}
        assert not over_compiled, f"recompiled program shapes: {over_compiled}"
        # The whole generation stage rides on one decode-step program.
        assert counts["decoder-step[device=0]"] == 1

    def test_cache_returns_identical_objects(self, simulator):
        compiler = simulator.compiler
        assert compiler.compile_decoder_layer(3, 5) is compiler.compile_decoder_layer(3, 5)
        assert compiler.compile_embedding(2) is compiler.compile_embedding(2)
        assert compiler.compile_lm_head() is compiler.compile_lm_head()
        assert compiler.compile_decoder_step() is compiler.compile_decoder_step()

    def test_distinct_shapes_get_distinct_programs(self, simulator):
        compiler = simulator.compiler
        assert compiler.compile_decoder_layer(1, 0) is not compiler.compile_decoder_layer(1, 1)
        assert compiler.compile_decoder_layer(2, 0) is not compiler.compile_decoder_layer(1, 0)

    def test_cached_programs_not_mutated_by_execution(self, simulator):
        compiler = simulator.compiler
        before = {
            "step": tuple(compiler.compile_decoder_step().instructions),
            "embedding": tuple(compiler.compile_embedding(3).instructions),
            "lm_head": tuple(compiler.compile_lm_head().instructions),
            "layer": tuple(compiler.compile_decoder_layer(3, 0).instructions),
        }
        simulator.forward(np.array([4, 8, 15]))
        simulator.forward(np.array([16]))
        after = {
            "step": tuple(compiler.compile_decoder_step().instructions),
            "embedding": tuple(compiler.compile_embedding(3).instructions),
            "lm_head": tuple(compiler.compile_lm_head().instructions),
            "layer": tuple(compiler.compile_decoder_layer(3, 0).instructions),
        }
        assert before == after

    def test_decode_step_has_no_mask_and_four_syncs(self, simulator):
        program = simulator.compiler.compile_decoder_step()
        assert program.sync_count() == 4
        masked = [
            instruction
            for instruction in program.matrix_instructions()
            if instruction.opcode is MatrixOpcode.MASKED_MM
        ]
        assert masked, "decode step still uses the MaskedMM datapath"
        assert all(not instruction.apply_mask for instruction in masked)

    def test_segments_are_memoized_until_append(self):
        plan = build_partition_plan(GPT2_TEST_TINY, 2)
        program = DFXCompiler(GPT2_TEST_TINY, plan, 0).compile_decoder_layer(1, 0)
        first = program.segments()
        assert program.segments() is first
        program.append(
            MatrixInstruction(
                MatrixOpcode.MM, dst="x", input_operand="hidden_out",
                weight_operand="w_ffn2", rows=1, in_dim=2, out_dim=2,
            )
        )
        assert program.segments() is not first


class TestFastSlowBitExactness:
    """The linked fast path must match per-instruction execution bit for bit."""

    def _stage(self, simulator, hidden):
        registers = {"hidden": hidden.copy()}
        memory = dict(simulator._layer_memory[0][0])
        return FunctionalCore(numerics=FP16_DFX, registers=registers, memory=memory)

    def test_segment_execution_matches_instruction_execution(self, tiny_weights, rng):
        # One device, so the identity sync handler preserves program widths.
        simulator = DFXFunctionalSimulator(tiny_weights, num_devices=1, numerics=FP16_DFX)
        program = simulator.compiler.compile_decoder_layer(4, 0)
        hidden = rng.normal(size=(4, GPT2_TEST_TINY.n_embd)).astype(np.float16)

        fast = self._stage(simulator, hidden)
        slow = self._stage(simulator, hidden)

        def sync_handler(sync, local):
            # Single-device stand-in: the gather is the identity.
            return FP16_DFX.cast(np.concatenate([local], axis=-1))

        fast.execute(program, sync_handler)
        for instruction in program.instructions:
            slow.execute_instruction(instruction, sync_handler)

        assert set(slow.registers) <= set(fast.registers)
        for name, value in slow.registers.items():
            np.testing.assert_array_equal(
                fast.registers[name], value, err_msg=f"register {name}"
            )
        for name, value in slow.memory.items():
            np.testing.assert_array_equal(
                fast.memory[name], value, err_msg=f"memory {name}"
            )

    @pytest.mark.parametrize("batch", [1, 2])
    def test_cohort_matches_slow_path_per_stream(self, tiny_weights, rng, batch):
        # A cohort on arena KV runs the linked code once for all its streams;
        # each stream's registers and KV slice must equal the slow path run
        # on that stream alone.  A cohort of one runs without the batch axis.
        simulator = DFXFunctionalSimulator(tiny_weights, num_devices=1, numerics=FP16_DFX)
        program = simulator.compiler.compile_decoder_layer(4, 0)
        streams = rng.normal(size=(batch, 4, GPT2_TEST_TINY.n_embd)).astype(np.float16)

        def sync_handler(sync, local):
            return FP16_DFX.cast(np.concatenate([local], axis=-1))

        pool = BatchedKVPool(np.float32)
        pool.ensure(slots=batch, capacity=4)
        cohort = BatchedFunctionalCore(
            numerics=FP16_DFX,
            registers={"hidden": streams[0] if batch == 1 else streams},
            memory=dict(simulator._layer_memory[0][0]),
            slot_lo=0,
            slot_hi=batch,
            kv_pool=pool,
        )
        cohort.execute(program, sync_handler)

        for stream in range(batch):
            slow = self._stage(simulator, streams[stream])
            for instruction in program.instructions:
                slow.execute_instruction(instruction, sync_handler)
            assert set(slow.registers) <= set(cohort.registers)
            for name, value in slow.registers.items():
                fast = cohort.registers[name]
                if fast.ndim == value.ndim + 1:
                    fast = fast[stream]
                assert fast.dtype == value.dtype, name
                assert np.array_equal(fast, value), f"stream {stream} register {name}"
            kv_names = [name for name in slow.memory if name.startswith("kv.")]
            assert kv_names
            for name in kv_names:
                arena = cohort.memory[name]
                assert type(arena) is BatchedKV
                assert np.array_equal(
                    arena.view(stream, stream + 1), slow.memory[name]
                ), f"stream {stream} KV {name}"

    def test_program_outputs_visible_on_every_core(self, simulator):
        simulator.forward(np.array([1, 2, 3]))
        for layer_cores in simulator._layer_cores:
            outputs = [core.registers["hidden_out"] for core in layer_cores]
            for other in outputs[1:]:
                np.testing.assert_array_equal(outputs[0], other)


class TestKVGrowthInCores:
    def test_store_kv_uses_arena_buffers(self, simulator):
        simulator.forward(np.array([7, 8]))
        memory = simulator._layer_memory[0][0]
        kv_buffers = [v for k, v in memory.items() if k.startswith("kv.")]
        assert kv_buffers, "expected KV buffers after a forward pass"
        assert all(type(buffer) is BatchedKV for buffer in kv_buffers)
        assert all(buffer.lengths[0] == 2 for buffer in kv_buffers)

    def test_generate_reserves_full_capacity_up_front(self, simulator):
        simulator.generate([1, 2, 3], max_new_tokens=8)
        memory = simulator._layer_memory[0][0]
        buffer = next(v for k, v in memory.items() if k.startswith("kv."))
        assert buffer.capacity >= 3 + 8
        assert buffer.lengths[0] == 3 + 8 - 1  # last token is never fed back

    def test_reset_cache_keeps_capacity_and_matches_fresh_run(self, tiny_weights):
        warm = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        first = warm.generate([9, 10, 11], max_new_tokens=6)
        warm.reset_cache()
        assert warm.kv_cache_length == 0
        again = warm.generate([9, 10, 11], max_new_tokens=6)
        fresh = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        assert again == first == fresh.generate([9, 10, 11], max_new_tokens=6)

    def test_warm_generate_reserves_existing_buffers(self, simulator):
        # A short run leaves small warm buffers; a longer run after
        # reset_cache must re-reserve them up front rather than doubling
        # inside the decode loop.
        simulator.generate([1, 2], max_new_tokens=2)
        simulator.reset_cache()
        simulator.generate([1, 2, 3], max_new_tokens=20)
        memory = simulator._layer_memory[0][0]
        buffer = next(v for k, v in memory.items() if k.startswith("kv."))
        assert buffer.capacity >= 23

    def test_forward_decode_regrows_arenas_geometrically(self, simulator, tiny_weights):
        # forward() has no up-front reserve: decoding token by token past the
        # arena capacity must regrow it by doubling, not row by row.
        _, token = simulator.forward(np.array([1, 2, 3]))
        tokens = [token]
        capacities = [simulator._pool.capacity]
        for _ in range(29):
            _, token = simulator.forward(np.array([token]))
            tokens.append(token)
            capacities.append(simulator._pool.capacity)
        assert capacities[-1] >= 3 + 29
        grown = sorted(set(capacities))
        assert len(grown) <= 3
        assert all(later >= 2 * earlier for earlier, later in zip(grown, grown[1:]))
        memory = simulator._layer_memory[0][0]
        buffer = next(v for k, v in memory.items() if k.startswith("kv."))
        assert buffer.capacity == capacities[-1]
        assert buffer.lengths[0] == 3 + 29
        fresh = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        assert tokens == fresh.generate([1, 2, 3], max_new_tokens=30)


class TestScatterOwnership:
    def test_scatter_allocates_once_then_writes_in_place(self):
        core = FunctionalCore(numerics=FP16_DFX)
        core.registers["probs"] = np.ones((1, 4), dtype=np.float16)
        core.memory["values"] = np.eye(4, dtype=np.float16)
        instruction = MatrixInstruction(
            MatrixOpcode.MM, dst="attn", input_operand="probs",
            weight_operand="values", rows=1, in_dim=4, out_dim=4,
            dst_col_offset=0, dst_total_cols=8,
        )
        core.execute_instruction(instruction)
        first_buffer = core.registers["attn"]
        second = MatrixInstruction(
            MatrixOpcode.MM, dst="attn", input_operand="probs",
            weight_operand="values", rows=1, in_dim=4, out_dim=4,
            dst_col_offset=4, dst_total_cols=8,
        )
        core.execute_instruction(second)
        # Exclusively-owned buffer is reused in place, both halves populated.
        assert core.registers["attn"] is first_buffer
        np.testing.assert_array_equal(
            core.registers["attn"][0, :4], core.registers["attn"][0, 4:]
        )

    def test_scatter_copies_foreign_buffers(self):
        core = FunctionalCore(numerics=FP16_DFX)
        foreign = np.zeros((1, 8), dtype=np.float16)
        core.registers["attn"] = foreign
        core.registers["probs"] = np.ones((1, 4), dtype=np.float16)
        core.memory["values"] = np.eye(4, dtype=np.float16)
        instruction = MatrixInstruction(
            MatrixOpcode.MM, dst="attn", input_operand="probs",
            weight_operand="values", rows=1, in_dim=4, out_dim=4,
            dst_col_offset=0, dst_total_cols=8,
        )
        core.execute_instruction(instruction)
        # The foreign array must not be mutated in place.
        np.testing.assert_array_equal(foreign, np.zeros((1, 8), dtype=np.float16))
        assert core.registers["attn"] is not foreign


class TestBatchedEngine:
    """The batched multi-stream engine vs the sequential oracle."""

    PROMPTS = [[1, 2, 3], [4, 5], [6, 7, 8, 9], [10, 11], [3, 1, 4]]
    BUDGETS = [5, 3, 7, 1, 4]

    def _sequential(self, tiny_weights, prompts, budgets):
        outputs = []
        for prompt, budget in zip(prompts, budgets):
            fresh = DFXFunctionalSimulator(
                tiny_weights, num_devices=2, numerics=FP16_DFX
            )
            outputs.append(fresh.generate(list(prompt), budget))
        return outputs

    def test_ragged_batch_bit_identical_to_sequential(self, simulator, tiny_weights):
        batched = simulator.generate_batch(self.PROMPTS, self.BUDGETS)
        assert batched == self._sequential(tiny_weights, self.PROMPTS, self.BUDGETS)

    def test_batch_of_one_matches_unbatched(self, simulator, tiny_weights):
        batched = simulator.generate_batch([[9, 10, 11]], 6)
        fresh = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        assert batched == [fresh.generate([9, 10, 11], 6)]

    def test_batch_of_one_compiles_no_batched_programs(self, simulator):
        simulator.generate_batch([[1, 2, 3]], 4)
        batched_names = [
            name for name in simulator.compiler.compile_counts
            if name.startswith("batched-")
        ]
        assert not batched_names, batched_names

    def test_cohort_join_mid_decode(self, simulator, tiny_weights):
        session = simulator.batched_session()
        first = session.admit([1, 2, 3], 6)
        second = session.admit([7, 8, 9], 6)
        session.step()  # prefill both as one cohort
        session.step()
        late = session.admit([4, 5, 6], 4)
        session.step()  # late stream prefills while the cohort decodes
        # Equal prompt lengths mean equal pasts two steps later: one cohort.
        while session.step():
            if len(session.cohort_sizes) == 1 and session.active_streams == 3:
                break
        session.run()
        expected = self._sequential(
            tiny_weights, [[1, 2, 3], [7, 8, 9], [4, 5, 6]], [6, 6, 4]
        )
        assert [session.outputs(s) for s in (first, second, late)] == expected

    def test_cohorts_merge_when_pasts_equalize(self, simulator):
        session = simulator.batched_session()
        session.admit([1, 2], 8)
        session.admit([3, 4], 8)
        session.step()  # cohort of 2 prefills at past 2
        # A 3-token prompt prefills at past 3 — exactly where the existing
        # cohort lands after this step's decode, so the two must merge.
        session.admit([5, 6, 7], 6)
        session.step()
        assert session.active_streams == 3
        assert session.cohort_sizes == [3]

    def test_randomized_sweep_bit_identical(self, tiny_weights, rng):
        simulator = DFXFunctionalSimulator(
            tiny_weights, num_devices=2, numerics=FP16_DFX
        )
        for _ in range(3):
            count = int(rng.integers(2, 6))
            prompts = [
                rng.integers(
                    0, GPT2_TEST_TINY.vocab_size, size=int(rng.integers(1, 7))
                ).tolist()
                for _ in range(count)
            ]
            budgets = [int(rng.integers(1, 8)) for _ in range(count)]
            batched = simulator.generate_batch(prompts, budgets)
            assert batched == self._sequential(tiny_weights, prompts, budgets)

    def test_arena_buffers_reused_across_sessions(self, tiny_weights):
        simulator = DFXFunctionalSimulator(
            tiny_weights, num_devices=2, numerics=FP16_DFX
        )
        first = simulator.generate_batch(self.PROMPTS, self.BUDGETS)
        pool = simulator._pool
        arenas_before = [id(arena.data) for arena in pool.arenas]
        bytes_before = simulator.batched_kv_memory_bytes
        again = simulator.generate_batch(self.PROMPTS, self.BUDGETS)
        assert again == first
        # Same-shaped rerun fits the warm arenas: no reallocation at all.
        assert [id(arena.data) for arena in pool.arenas] == arenas_before
        assert simulator.batched_kv_memory_bytes == bytes_before

    def test_reclaim_releases_arena_memory_and_stays_correct(self, tiny_weights):
        simulator = DFXFunctionalSimulator(
            tiny_weights, num_devices=2, numerics=FP16_DFX
        )
        first = simulator.generate_batch(self.PROMPTS, self.BUDGETS)
        assert simulator.batched_kv_memory_bytes > 0
        simulator.reclaim_batched_kv()
        assert simulator.batched_kv_memory_bytes == 0
        assert simulator.generate_batch(self.PROMPTS, self.BUDGETS) == first

    def test_session_resets_forward_cache(self, tiny_weights):
        # forward() and sessions share one KV store, so opening a session
        # resets the forward() cache, and the next generate starts clean.
        simulator = DFXFunctionalSimulator(
            tiny_weights, num_devices=2, numerics=FP16_DFX
        )
        simulator.generate([5, 6, 7], 4)
        assert simulator.kv_cache_length > 0
        session = simulator.batched_session()
        assert simulator.kv_cache_length == 0
        session.admit([1, 2, 3], 5)
        session.run()
        fresh = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        assert simulator.generate([5, 6, 7], 4) == fresh.generate([5, 6, 7], 4)


class TestLinkedProgramStructure:
    def test_link_is_memoized_per_numerics_and_sharing_key(self, simulator):
        program = simulator.compiler.compile_decoder_step()
        plain = link_program(program, FP16_DFX)
        assert link_program(program, FP16_DFX) is plain
        shared = link_program(
            program, FP16_DFX,
            frozenset(("hidden",)), simulator._replicated_layer_names,
        )
        assert shared is not plain
        assert link_program(
            program, FP16_DFX,
            frozenset(("hidden",)), simulator._replicated_layer_names,
        ) is shared

    def test_shared_prefix_covers_layernorm(self, simulator):
        program = simulator.compiler.compile_decoder_step()
        linked = link_program(
            program, FP16_DFX,
            frozenset(("hidden",)), simulator._replicated_layer_names,
        )
        # Segment 0 starts with LayerNorm 1 — replicated across devices, so
        # it must be hoisted into the shared prefix.
        first = linked.segments[0]
        assert first.prefix is not None
        assert "lnorm1" in first.shared_out
