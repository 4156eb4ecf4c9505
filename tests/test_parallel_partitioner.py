"""Tests for intra-layer model parallelism (paper Sec. IV-B, Fig. 6)."""

import numpy as np
import pytest

from repro.errors import PartitioningError
from repro.isa.compiler import DFXCompiler
from repro.model.config import GPT2_1_5B, GPT2_345M, GPT2_TEST_TINY
from repro.model.weights import generate_weights
from repro.parallel.partitioner import (
    build_partition_plan,
    partition_layer_weights,
    partition_model_weights,
)
from repro.parallel.sync import layer_sync_schedule


class TestPlanStructure:
    @pytest.mark.parametrize("num_devices", [1, 2, 4])
    def test_heads_divided_evenly(self, num_devices):
        plan = build_partition_plan(GPT2_1_5B, num_devices)
        for device in plan.devices:
            assert device.num_heads == GPT2_1_5B.n_head // num_devices
        all_heads = [head for device in plan.devices for head in device.head_ids]
        assert all_heads == list(range(GPT2_1_5B.n_head))

    def test_column_splits(self):
        plan = build_partition_plan(GPT2_1_5B, 4)
        device = plan.device(0)
        assert device.qkv_output_dim == GPT2_1_5B.n_embd // 4
        assert device.ffn1_output_dim == GPT2_1_5B.ffn_dim // 4
        assert device.ffn2_output_dim == GPT2_1_5B.n_embd // 4

    def test_vocab_rows_cover_full_vocabulary(self):
        plan = build_partition_plan(GPT2_1_5B, 4)
        assert sum(device.vocab_rows for device in plan.devices) == GPT2_1_5B.vocab_size

    def test_uneven_head_split_rejected(self):
        # The unadjusted OpenAI 1.5B model (25 heads) cannot split over 4 devices,
        # which is exactly why the paper changes it to 24.
        original_1_5b = GPT2_1_5B.scaled(name="gpt2-1.5b-25heads", n_embd=1600, n_head=25)
        with pytest.raises(PartitioningError):
            build_partition_plan(original_1_5b, 4)

    def test_invalid_device_count(self):
        with pytest.raises(PartitioningError):
            build_partition_plan(GPT2_345M, 0)

    def test_device_index_bounds(self):
        plan = build_partition_plan(GPT2_345M, 2)
        with pytest.raises(PartitioningError):
            plan.device(2)

    def test_sync_schedule_counts(self):
        plan = build_partition_plan(GPT2_1_5B, 4)
        schedule = layer_sync_schedule(plan)
        assert len(schedule) == 4
        payloads = tuple(point.payload_elements for point in schedule)
        assert payloads == (GPT2_1_5B.n_embd, GPT2_1_5B.n_embd,
                            GPT2_1_5B.ffn_dim, GPT2_1_5B.n_embd)
        # Every device's compiled layer all-gathers exactly these payloads.
        for device_id in range(plan.num_devices):
            program = DFXCompiler(GPT2_1_5B, plan, device_id).compile_decoder_layer(1, 0)
            assert program.sync_count() == 4
            compiled = tuple(i.payload_elements for i in program.router_instructions())
            assert compiled == payloads


class TestMemorySizing:
    def test_per_device_weights_shrink_with_devices(self):
        one = build_partition_plan(GPT2_1_5B, 1).device_weight_bytes()
        four = build_partition_plan(GPT2_1_5B, 4).device_weight_bytes()
        assert four < one
        assert four == pytest.approx(one / 4, rel=0.05)

    def test_1_5b_partition_fits_8gb_hbm_only_when_split(self):
        single = build_partition_plan(GPT2_1_5B, 1).device_weight_bytes()
        quad = build_partition_plan(GPT2_1_5B, 4).device_weight_bytes()
        assert quad < 8 * 2**30
        assert single < 8 * 2**30  # weights alone fit, but barely
        assert single / 2**30 > 2.5


class TestWeightSlicing:
    @pytest.fixture(scope="class")
    def setup(self):
        weights = generate_weights(GPT2_TEST_TINY, seed=0)
        plan = build_partition_plan(GPT2_TEST_TINY, 2)
        return weights, plan

    def test_qkv_head_slices_cover_matrix(self, setup):
        weights, plan = setup
        layer = weights.layers[0]
        emb = GPT2_TEST_TINY.n_embd
        slices = [
            partition_layer_weights(layer, GPT2_TEST_TINY, plan.device(d))
            for d in range(2)
        ]
        # Reassemble the Q block from the two devices and compare.
        q_dim = plan.device(0).qkv_output_dim
        q_full = np.concatenate([s.w_qkv[:, :q_dim] for s in slices], axis=1)
        np.testing.assert_array_equal(q_full, layer.w_qkv[:, :emb])

    def test_ffn_column_slices_cover_matrix(self, setup):
        weights, plan = setup
        layer = weights.layers[0]
        slices = [
            partition_layer_weights(layer, GPT2_TEST_TINY, plan.device(d))
            for d in range(2)
        ]
        ffn1_full = np.concatenate([s.w_ffn1 for s in slices], axis=1)
        np.testing.assert_array_equal(ffn1_full, layer.w_ffn1)
        proj_full = np.concatenate([s.w_attn_proj for s in slices], axis=1)
        np.testing.assert_array_equal(proj_full, layer.w_attn_proj)

    def test_layer_norm_parameters_replicated(self, setup):
        weights, plan = setup
        layer = weights.layers[0]
        for device_id in range(2):
            sliced = partition_layer_weights(layer, GPT2_TEST_TINY, plan.device(device_id))
            np.testing.assert_array_equal(sliced.ln1_gamma, layer.ln1_gamma)
            np.testing.assert_array_equal(sliced.ln2_beta, layer.ln2_beta)

    def test_partition_model_weights_covers_all_layers(self, setup):
        weights, plan = setup
        device_layers = partition_model_weights(weights, plan, 0)
        assert len(device_layers) == GPT2_TEST_TINY.n_layer

    def test_single_device_partition_is_identity(self):
        weights = generate_weights(GPT2_TEST_TINY, seed=0)
        plan = build_partition_plan(GPT2_TEST_TINY, 1)
        sliced = partition_layer_weights(weights.layers[0], GPT2_TEST_TINY, plan.device(0))
        np.testing.assert_array_equal(sliced.w_ffn1, weights.layers[0].w_ffn1)
        np.testing.assert_array_equal(sliced.w_attn_proj, weights.layers[0].w_attn_proj)
