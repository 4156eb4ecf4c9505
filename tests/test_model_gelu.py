"""Unit tests for the GELU variants, especially the DFX lookup table (Sec. V-C)."""

import numpy as np
import pytest

from repro.model import gelu


def _table_grid(table, points=20001):
    low, high = table.input_range
    return np.linspace(low, high, points, dtype=np.float32)


def _max_error(table):
    """Largest absolute gap to the tanh GELU the table samples."""
    grid = _table_grid(table)
    return float(np.max(np.abs(table(grid) - gelu.gelu_tanh(grid))))


class TestReferenceGelus:
    def test_exact_gelu_known_values(self):
        # GELU(0) = 0; GELU(x) -> x for large x; GELU(-x) -> 0 for large x.
        assert gelu.gelu_exact(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-7)
        assert gelu.gelu_exact(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-4)
        assert gelu.gelu_exact(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-4)

    def test_tanh_approximation_close_to_exact(self):
        grid = np.linspace(-6, 6, 2001).astype(np.float32)
        max_error = float(np.max(np.abs(gelu.gelu_tanh(grid) - gelu.gelu_exact(grid))))
        assert max_error < 5e-3

    def test_gelu_is_monotone_on_positive_axis(self):
        grid = np.linspace(0, 8, 100)
        values = gelu.gelu_tanh(grid)
        assert np.all(np.diff(values) >= 0)


class TestLookupTable:
    def test_default_table_has_2048_samples_over_minus8_8(self):
        table = gelu.GeluLookupTable()
        assert table.samples == gelu.DFX_GELU_LUT_SAMPLES == 2048
        assert table.input_range == (-8.0, 8.0)

    def test_fp16_mse_is_zero_as_paper_claims(self):
        # "We sample 2048 inputs that achieve a mean squared error of 0 in
        #  half-precision floating-point" (Sec. V-C).
        table = gelu.GeluLookupTable()
        grid = _table_grid(table)
        approx = table(grid).astype(np.float16).astype(np.float64)
        exact = gelu.gelu_tanh(grid).astype(np.float16).astype(np.float64)
        assert float(np.mean((approx - exact) ** 2)) == pytest.approx(0.0, abs=1e-7)

    def test_max_error_against_tanh_small(self):
        assert _max_error(gelu.GeluLookupTable()) < 1e-3

    def test_out_of_range_behaviour(self):
        table = gelu.GeluLookupTable()
        assert table(np.array([100.0]))[0] == pytest.approx(100.0)
        assert table(np.array([-100.0]))[0] == pytest.approx(0.0, abs=1e-6)

    def test_fewer_samples_increase_error(self):
        coarse = gelu.GeluLookupTable(samples=32)
        fine = gelu.GeluLookupTable(samples=2048)
        assert _max_error(coarse) > _max_error(fine)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            gelu.GeluLookupTable(samples=1)
        with pytest.raises(ValueError):
            gelu.GeluLookupTable(input_range=(3.0, -3.0))

    def test_module_level_lut_matches_default_table(self):
        grid = np.linspace(-2, 2, 17).astype(np.float32)
        np.testing.assert_array_equal(gelu.gelu_lut(grid), gelu.DEFAULT_GELU_LUT(grid))

    def test_lut_matches_tanh_in_fp16_on_activations(self):
        rng = np.random.default_rng(0)
        activations = rng.normal(scale=2.0, size=4096).astype(np.float32)
        lut_fp16 = gelu.gelu_lut(activations).astype(np.float16)
        tanh_fp16 = gelu.gelu_tanh(activations).astype(np.float16)
        mismatch = np.mean(lut_fp16 != tanh_fp16)
        assert mismatch < 0.05  # the paper reports negligible divergence
