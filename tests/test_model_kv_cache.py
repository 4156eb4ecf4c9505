"""Unit tests for the Key/Value cache."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.model.config import GPT2_TEST_TINY
from repro.model.kv_cache import KVCache, LayerKVCache


class TestLayerCache:
    def _empty(self, n_head=4, head_dim=16):
        return LayerKVCache(
            keys=np.zeros((n_head, 0, head_dim), dtype=np.float32),
            values=np.zeros((n_head, 0, head_dim), dtype=np.float32),
        )

    def test_append_grows_sequence(self):
        cache = self._empty()
        cache.append(np.ones((4, 3, 16)), np.ones((4, 3, 16)))
        assert cache.seq_len == 3
        cache.append(np.ones((4, 1, 16)), np.ones((4, 1, 16)))
        assert cache.seq_len == 4

    def test_append_shape_mismatch_rejected(self):
        cache = self._empty()
        with pytest.raises(ExecutionError):
            cache.append(np.ones((4, 1, 16)), np.ones((4, 2, 16)))
        with pytest.raises(ExecutionError):
            cache.append(np.ones((2, 1, 16)), np.ones((2, 1, 16)))

    def test_appended_values_preserved(self):
        cache = self._empty(n_head=1, head_dim=2)
        first = np.array([[[1.0, 2.0]]], dtype=np.float32)
        second = np.array([[[3.0, 4.0]]], dtype=np.float32)
        cache.append(first, first)
        cache.append(second, second)
        np.testing.assert_array_equal(cache.keys[0, 0], [1.0, 2.0])
        np.testing.assert_array_equal(cache.keys[0, 1], [3.0, 4.0])


class TestGrowthSemantics:
    """Amortized-O(1) growth: capacity doubling behind logical views."""

    def _empty(self, n_head=4, head_dim=16):
        return LayerKVCache(
            keys=np.zeros((n_head, 0, head_dim), dtype=np.float32),
            values=np.zeros((n_head, 0, head_dim), dtype=np.float32),
        )

    def test_capacity_doubles_and_length_tracks_logically(self):
        cache = self._empty()
        capacities = []
        for _ in range(20):
            cache.append(np.ones((4, 1, 16)), np.ones((4, 1, 16)))
            capacities.append(cache.capacity)
        assert cache.seq_len == 20
        assert all(cap >= length + 1 for length, cap in enumerate(capacities))
        # Growth is geometric: few distinct capacities, each at least double
        # its predecessor once past the initial allocation.
        distinct = sorted(set(capacities))
        assert len(distinct) <= 4
        assert all(b >= 2 * a for a, b in zip(distinct, distinct[1:]))

    def test_mixed_multi_row_and_single_row_appends(self):
        cache = self._empty(n_head=2, head_dim=4)
        rng = np.random.default_rng(3)
        chunks = [3, 1, 1, 5, 1, 2]
        all_keys, all_values = [], []
        for rows in chunks:
            keys = rng.normal(size=(2, rows, 4)).astype(np.float32)
            values = rng.normal(size=(2, rows, 4)).astype(np.float32)
            cache.append(keys, values)
            all_keys.append(keys)
            all_values.append(values)
        assert cache.seq_len == sum(chunks)
        np.testing.assert_array_equal(cache.keys, np.concatenate(all_keys, axis=1))
        np.testing.assert_array_equal(cache.values, np.concatenate(all_values, axis=1))

    def test_views_are_stable_values_after_regrowth(self):
        cache = self._empty(n_head=1, head_dim=2)
        first = np.array([[[1.0, 2.0]]], dtype=np.float32)
        cache.append(first, first)
        snapshot = cache.keys.copy()
        for _ in range(50):  # force several regrowths
            cache.append(first * 3, first * 3)
        np.testing.assert_array_equal(cache.keys[:, :1, :], snapshot)

    def test_preallocated_capacity_avoids_regrowth(self):
        cache = LayerKVCache.empty(4, 16, dtype=np.float16, capacity=32)
        assert cache.seq_len == 0
        assert cache.capacity >= 32
        buffer_id = id(cache._keys)
        for _ in range(32):
            cache.append(
                np.ones((4, 1, 16), dtype=np.float16),
                np.ones((4, 1, 16), dtype=np.float16),
            )
        assert id(cache._keys) == buffer_id  # never reallocated
        assert cache.seq_len == 32

    def test_memory_bytes_reports_logical_not_capacity(self):
        config = GPT2_TEST_TINY
        cache = KVCache.empty(config, dtype=np.float16, capacity=64)
        assert cache.memory_bytes() == 0  # capacity alone holds no tokens
        for layer in cache.layers:
            layer.append(
                np.zeros((config.n_head, 3, config.head_dim), dtype=np.float16),
                np.zeros((config.n_head, 3, config.head_dim), dtype=np.float16),
            )
        logical = config.n_layer * 2 * config.n_head * 3 * config.head_dim * 2
        assert cache.memory_bytes() == logical

    def test_shape_mismatch_errors_preserved_after_growth(self):
        cache = self._empty()
        cache.append(np.ones((4, 4, 16)), np.ones((4, 4, 16)))
        with pytest.raises(ExecutionError):
            cache.append(np.ones((4, 1, 16)), np.ones((4, 2, 16)))
        with pytest.raises(ExecutionError):
            cache.append(np.ones((2, 1, 16)), np.ones((2, 1, 16)))
        with pytest.raises(ExecutionError):
            cache.append(np.ones((4, 1, 8)), np.ones((4, 1, 8)))


class TestModelCache:
    def test_empty_cache_structure(self):
        cache = KVCache.empty(GPT2_TEST_TINY)
        assert len(cache.layers) == GPT2_TEST_TINY.n_layer
        assert cache.seq_len == 0

    def test_layer_index_bounds(self):
        cache = KVCache.empty(GPT2_TEST_TINY)
        with pytest.raises(ExecutionError):
            cache.layer(GPT2_TEST_TINY.n_layer)

    def test_memory_bytes_grows_with_context(self):
        config = GPT2_TEST_TINY
        cache = KVCache.empty(config, dtype=np.float16)
        assert cache.memory_bytes() == 0
        for layer in cache.layers:
            layer.append(
                np.zeros((config.n_head, 10, config.head_dim), dtype=np.float16),
                np.zeros((config.n_head, 10, config.head_dim), dtype=np.float16),
            )
        expected = config.n_layer * 2 * config.n_head * 10 * config.head_dim * 2
        assert cache.memory_bytes() == expected

    def test_per_token_kv_footprint_1_5b(self):
        # One token adds a 1536-wide FP16 row to K and to V in each of the 48
        # layers: ~0.3 MB per token, the quantity Sec. V-B's transpose scheme
        # is designed around (the paper quotes ~0.31 MB for the Value side of
        # its 1.5B configuration).
        from repro.model.config import GPT2_1_5B

        per_token_bytes = 2 * GPT2_1_5B.n_layer * GPT2_1_5B.n_embd * 2
        assert per_token_bytes == 294_912
        assert 0.25e6 < per_token_bytes < 0.35e6
