"""Tests for the numeric execution modes (repro.model.numerics)."""

import numpy as np
import pytest

from repro.model import gelu
from repro.model.numerics import FP16_DFX, FP16_GPU, FP32_EXACT, Numerics

FP16_MODES = [FP16_DFX, FP16_GPU]


class TestCast:
    @pytest.mark.parametrize("numerics", FP16_MODES, ids=lambda n: n.name)
    def test_fp16_modes_round_to_float16(self, numerics):
        result = numerics.cast(np.array([1.0, 2.5, -3.25]))
        assert result.dtype == np.float16

    def test_exact_mode_keeps_float32(self):
        assert FP32_EXACT.cast(np.array([1.0 / 3.0])).dtype == np.float32

    def test_rounds_to_half_precision_grid(self):
        # 1/3 is not representable in binary16; rounding must change the value.
        value = float(FP16_DFX.cast(1.0 / 3.0))
        assert value != 1.0 / 3.0
        assert abs(value - 1.0 / 3.0) < 1e-3
        assert value == float(np.float16(1.0 / 3.0))

    def test_overflow_saturates_to_inf(self):
        with np.errstate(over="ignore"):
            assert np.isinf(FP16_DFX.cast(1e9))
        # 65504 is the largest finite binary16 value.
        assert float(FP16_DFX.cast(65504.0)) == 65504.0


class TestArithmetic:
    def test_matmul_matches_float32_within_tolerance(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 16)).astype(np.float16)
        b = rng.normal(size=(16, 4)).astype(np.float16)
        reference = a.astype(np.float32) @ b.astype(np.float32)
        result = FP16_DFX.matmul(a, b)
        assert result.dtype == np.float16
        np.testing.assert_allclose(result.astype(np.float32), reference, atol=2e-2)

    def test_matmul_rounds_once_after_float32_accumulation(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 64)).astype(np.float16)
        b = rng.normal(size=(64, 8)).astype(np.float16)
        expected = (a.astype(np.float32) @ b.astype(np.float32)).astype(np.float16)
        np.testing.assert_array_equal(FP16_DFX.matmul(a, b), expected)

    def test_add_rounds_to_fp16(self):
        # 2 + 2^-10 lies halfway between two binary16 neighbours of 2.0
        # (spacing 2^-9); round-half-to-even keeps 2.0.
        a = np.array([1.0009765625], dtype=np.float32)
        b = np.array([1.0], dtype=np.float32)
        result = FP16_DFX.add(a, b)
        assert result.dtype == np.float16
        assert float(result[0]) == 2.0

    def test_exact_mode_keeps_the_fp16_rounding_error(self):
        # The gold standard must not round: the same sum stays exact in fp32.
        a = np.array([1.0009765625], dtype=np.float32)
        b = np.array([1.0], dtype=np.float32)
        assert float(FP32_EXACT.add(a, b)[0]) == 2.0009765625


class TestActivation:
    GRID = np.linspace(-6.0, 6.0, 257, dtype=np.float32)

    @pytest.mark.parametrize(
        "numerics, reference",
        [
            (FP16_DFX, gelu.gelu_lut),
            (FP16_GPU, gelu.gelu_tanh),
            (FP32_EXACT, gelu.gelu_exact),
        ],
        ids=["dfx-lut", "gpu-tanh", "fp32-exact"],
    )
    def test_activation_is_the_mode_gelu_rounded(self, numerics, reference):
        expected = reference(self.GRID).astype(numerics.dtype)
        np.testing.assert_array_equal(numerics.activation(self.GRID), expected)

    def test_paper_pipelines_differ_only_in_gelu(self):
        # Sec. VII-A: both FP16 pipelines share precision rules; only the
        # GELU implementation differs.
        assert FP16_DFX.dtype == FP16_GPU.dtype == np.float16
        assert FP16_DFX.accumulate_fp32 == FP16_GPU.accumulate_fp32
        assert FP16_DFX.gelu is not FP16_GPU.gelu

    def test_custom_mode_uses_its_own_gelu(self):
        relu = Numerics(name="relu16", dtype=np.dtype(np.float16),
                        gelu=lambda x: np.maximum(x, 0.0))
        result = relu.activation(np.array([-1.0, 0.5], dtype=np.float32))
        assert result.dtype == np.float16
        np.testing.assert_array_equal(result, np.array([0.0, 0.5], dtype=np.float16))
