"""Tests for the DFX compiler (Algorithm 1 lowering)."""

import pytest

from repro.errors import CompilationError
from repro.isa.compiler import DFXCompiler, kv_key_buffer, kv_value_buffer
from repro.isa.opcodes import DMAOpcode, MatrixOpcode, RouterOpcode
from repro.isa.validation import validate_layer_program, validate_program
from repro.model.config import GPT2_1_5B, GPT2_TEST_TINY
from repro.parallel.partitioner import build_partition_plan
from repro.results import PHASE_LAYERNORM, PHASE_RESIDUAL, PHASE_SELF_ATTENTION, PHASE_SYNC


@pytest.fixture(scope="module")
def compiler_1_5b():
    plan = build_partition_plan(GPT2_1_5B, 4)
    return DFXCompiler(GPT2_1_5B, plan, device_id=0)


@pytest.fixture(scope="module")
def compiler_tiny():
    plan = build_partition_plan(GPT2_TEST_TINY, 2)
    return DFXCompiler(GPT2_TEST_TINY, plan, device_id=0)


class TestDecoderLayerProgram:
    def test_exactly_four_syncs_per_layer(self, compiler_1_5b):
        program = compiler_1_5b.compile_decoder_layer(rows=1, past_length=32)
        assert program.sync_count() == 4

    def test_sync_payloads_match_algorithm1(self, compiler_1_5b):
        program = compiler_1_5b.compile_decoder_layer(rows=1, past_length=0)
        payloads = [sync.payload_elements for sync in program.router_instructions()]
        assert payloads == [GPT2_1_5B.n_embd, GPT2_1_5B.n_embd,
                            GPT2_1_5B.ffn_dim, GPT2_1_5B.n_embd]

    def test_value_projection_comes_before_key_and_query(self, compiler_1_5b):
        # Sec. V-B "Transpose Scheme": Value is computed first so its HBM-side
        # transpose is hidden behind the Key and Query projections.
        program = compiler_1_5b.compile_decoder_layer(rows=1, past_length=0)
        conv_targets = [
            instr.dst for instr in program.matrix_instructions()
            if instr.opcode is MatrixOpcode.CONV1D
        ]
        assert conv_targets.index("value_local") < conv_targets.index("key_local")
        assert conv_targets.index("key_local") < conv_targets.index("query_local")

    def test_one_masked_mm_per_local_head(self, compiler_1_5b):
        plan = build_partition_plan(GPT2_1_5B, 4)
        program = compiler_1_5b.compile_decoder_layer(rows=1, past_length=10)
        masked = [i for i in program.matrix_instructions()
                  if i.opcode is MatrixOpcode.MASKED_MM]
        assert len(masked) == plan.device(0).num_heads
        for instr in masked:
            assert instr.in_dim == GPT2_1_5B.head_dim
            assert instr.out_dim == 11  # past 10 + 1 new token
            assert instr.apply_redu_max

    def test_kv_cache_store_per_local_head(self, compiler_1_5b):
        plan = build_partition_plan(GPT2_1_5B, 4)
        local_heads = plan.device(0).num_heads
        program = compiler_1_5b.compile_decoder_layer(rows=1, past_length=0)
        stores = [i for i in program.instructions if i.opcode is DMAOpcode.STORE_KV]
        assert len(stores) == 2 * local_heads  # keys and values
        destinations = {store.dst for store in stores}
        assert kv_key_buffer(0) in destinations
        assert kv_value_buffer(local_heads - 1) in destinations

    def test_gelu_applied_only_to_first_ffn_layer(self, compiler_1_5b):
        program = compiler_1_5b.compile_decoder_layer(rows=1, past_length=0)
        gelu_targets = [i.dst for i in program.matrix_instructions() if i.apply_gelu]
        assert gelu_targets == ["ffn1_local"]

    def test_phase_tags_present(self, compiler_1_5b):
        program = compiler_1_5b.compile_decoder_layer(rows=1, past_length=0)
        tags = program.tag_counts()
        for phase in (PHASE_LAYERNORM, PHASE_SELF_ATTENTION, PHASE_RESIDUAL, PHASE_SYNC):
            assert tags.get(phase, 0) > 0
        assert tags[PHASE_RESIDUAL] == 2

    def test_program_is_statically_valid(self, compiler_1_5b):
        program = compiler_1_5b.compile_decoder_layer(rows=4, past_length=16)
        report = validate_layer_program(program, expected_syncs=4)
        assert report.is_valid, report.errors

    def test_flops_scale_with_rows(self, compiler_tiny):
        single = compiler_tiny.compile_decoder_layer(rows=1, past_length=0).total_flops()
        double = compiler_tiny.compile_decoder_layer(rows=2, past_length=0).total_flops()
        assert double > 1.8 * single

    def test_weight_bytes_match_partition(self, compiler_1_5b):
        plan = build_partition_plan(GPT2_1_5B, 4)
        program = compiler_1_5b.compile_decoder_layer(rows=1, past_length=0)
        conv_weight_bytes = sum(
            i.weight_bytes() for i in program.matrix_instructions()
            if i.opcode is MatrixOpcode.CONV1D
        )
        emb = GPT2_1_5B.n_embd
        expected = (3 * emb * emb // 4 + emb * emb // 4 + 8 * emb * emb // 4) * 2
        assert conv_weight_bytes == expected

    def test_invalid_arguments_rejected(self, compiler_tiny):
        with pytest.raises(CompilationError):
            compiler_tiny.compile_decoder_layer(rows=0, past_length=0)
        with pytest.raises(CompilationError):
            compiler_tiny.compile_decoder_layer(rows=1, past_length=-1)


class TestEmbeddingAndLMHead:
    def test_embedding_program_outputs_hidden(self, compiler_tiny):
        program = compiler_tiny.compile_embedding(rows=3)
        assert program.outputs == ("hidden",)
        report = validate_program(program)
        assert report.is_valid, report.errors

    def test_embedding_rejects_bad_rows(self, compiler_tiny):
        with pytest.raises(CompilationError):
            compiler_tiny.compile_embedding(rows=0)

    def test_lm_head_scores_device_vocab_slice(self, compiler_1_5b):
        plan = build_partition_plan(GPT2_1_5B, 4)
        program = compiler_1_5b.compile_lm_head()
        logits_mm = [i for i in program.matrix_instructions() if i.dst == "logits_local"]
        assert len(logits_mm) == 1
        assert logits_mm[0].out_dim == plan.device(0).vocab_rows
        assert logits_mm[0].transpose_weight

    def test_lm_head_gathers_full_vocabulary(self, compiler_1_5b):
        program = compiler_1_5b.compile_lm_head()
        syncs = program.router_instructions()
        assert len(syncs) == 1
        assert syncs[0].payload_elements == GPT2_1_5B.vocab_size

    def test_lm_head_is_valid(self, compiler_1_5b):
        report = validate_program(compiler_1_5b.compile_lm_head())
        assert report.is_valid, report.errors

    def test_compile_token_step_bundles_three_programs(self, compiler_tiny):
        step = compiler_tiny.compile_token_step(rows=1, past_length=5)
        assert step.embedding.outputs == ("hidden",)
        assert step.decoder_layer.sync_count() == 4
        assert step.lm_head.outputs == ("logits",)

    def test_mismatched_plan_rejected(self):
        plan = build_partition_plan(GPT2_TEST_TINY, 2)
        with pytest.raises(CompilationError):
            DFXCompiler(GPT2_1_5B, plan, device_id=0)


class TestBatchedPrograms:
    def test_batch_one_delegates_to_unbatched_programs(self, compiler_tiny):
        assert (compiler_tiny.compile_batched_decoder_step(1, 8)
                is compiler_tiny.compile_decoder_layer(1, 8))
        assert compiler_tiny.compile_batched_lm_head(1) is compiler_tiny.compile_lm_head()

    def test_batched_programs_are_memoized(self, compiler_tiny):
        assert (compiler_tiny.compile_batched_decoder_step(4, 8)
                is compiler_tiny.compile_batched_decoder_step(4, 8))
        assert (compiler_tiny.compile_batched_lm_head(4)
                is compiler_tiny.compile_batched_lm_head(4))

    def test_shared_weights_multicast_but_kv_streams_do_not(self, compiler_tiny):
        # The six model matmuls stream their weights once per cohort step
        # (weight reuse across the batch rows); the per-stream KV matmuls
        # cannot share anything, which is exactly the paper's Sec. III-A
        # argument for why batching helps less as the context grows.
        program = compiler_tiny.compile_batched_decoder_step(4, past_length=8)
        for instruction in program.matrix_instructions():
            assert instruction.rows == 4
            if instruction.weight_operand.startswith("kv."):
                assert instruction.weight_reuse_rows == 1
            else:
                assert instruction.weight_reuse_rows == 4

    def test_batched_lm_head_scores_all_streams_in_one_pass(self, compiler_tiny):
        program = compiler_tiny.compile_batched_lm_head(4)
        (head,) = program.matrix_instructions()
        assert head.rows == 4
        assert head.weight_reuse_rows == 4

    def test_batched_layer_program_validates(self, compiler_tiny):
        program = compiler_tiny.compile_batched_decoder_step(4, past_length=8)
        validate_program(program)
        assert program.sync_count() == 4

    def test_invalid_batch_rejected(self, compiler_tiny):
        with pytest.raises(CompilationError):
            compiler_tiny.compile_batched_decoder_step(0, 8)
        with pytest.raises(CompilationError):
            compiler_tiny.compile_batched_lm_head(0)
