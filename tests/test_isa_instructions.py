"""Tests for the DFX ISA instruction dataclasses."""

import pytest

from repro.errors import ProgramValidationError
from repro.isa.instructions import (
    DMAInstruction,
    MatrixInstruction,
    RouterInstruction,
    VectorInstruction,
)
from repro.isa.opcodes import (
    DMAOpcode,
    InstructionClass,
    MatrixOpcode,
    MemorySpace,
    RouterOpcode,
    VectorOpcode,
)


class TestMatrixInstruction:
    def _conv1d(self, **kwargs):
        defaults = dict(
            opcode=MatrixOpcode.CONV1D,
            dst="out",
            input_operand="x",
            weight_operand="w",
            bias_operand="b",
            rows=1,
            in_dim=64,
            out_dim=32,
        )
        defaults.update(kwargs)
        return MatrixInstruction(**defaults)

    def test_classification_and_operands(self):
        instr = self._conv1d()
        assert instr.instruction_class is InstructionClass.COMPUTE_MATRIX
        assert set(instr.source_operands()) == {"x", "w", "b"}
        assert instr.destination_operands() == ("out",)

    def test_flops_counts_mac_and_bias(self):
        instr = self._conv1d(rows=2)
        assert instr.flops() == 2 * 2 * 64 * 32 + 2 * 32

    def test_weight_bytes(self):
        assert self._conv1d().weight_bytes() == 64 * 32 * 2

    def test_redu_max_requires_destination(self):
        with pytest.raises(ProgramValidationError):
            self._conv1d(apply_redu_max=True)

    def test_positive_dims_required(self):
        with pytest.raises(ProgramValidationError):
            self._conv1d(in_dim=0)
        with pytest.raises(ProgramValidationError):
            self._conv1d(rows=0)

    def test_redu_max_adds_destination(self):
        instr = self._conv1d(apply_redu_max=True, redu_max_dst="max")
        assert "max" in instr.destination_operands()


class TestVectorInstruction:
    def test_binary_op_needs_operand_or_immediate(self):
        with pytest.raises(ProgramValidationError):
            VectorInstruction(VectorOpcode.ADD, dst="y", src1="a", length=8)
        ok = VectorInstruction(VectorOpcode.ADD, dst="y", src1="a", immediate=1.0, length=8)
        assert ok.flops() == 8

    def test_unary_ops_do_not_need_second_operand(self):
        instr = VectorInstruction(VectorOpcode.EXP, dst="y", src1="a", length=16, rows=2)
        assert instr.flops() == 32
        assert instr.instruction_class is InstructionClass.COMPUTE_VECTOR

    def test_load_store_have_zero_flops(self):
        load = VectorInstruction(VectorOpcode.LOAD, dst="y", src1="gamma", length=8)
        assert load.flops() == 0.0

    def test_invalid_length(self):
        with pytest.raises(ProgramValidationError):
            VectorInstruction(VectorOpcode.EXP, dst="y", src1="a", length=0)


class TestDMAInstruction:
    def test_operands(self):
        instr = DMAInstruction(DMAOpcode.LOAD_WEIGHT, dst="buf", src="w_ffn1",
                               size_bytes=1024, memory=MemorySpace.HBM)
        assert instr.instruction_class is InstructionClass.DMA
        assert instr.source_operands() == ("w_ffn1",)
        assert instr.destination_operands() == ("buf",)

    def test_register_space_rejected(self):
        with pytest.raises(ProgramValidationError):
            DMAInstruction(DMAOpcode.LOAD_BIAS, dst="b", src="bias",
                           memory=MemorySpace.REGISTER)

    def test_negative_size_rejected(self):
        with pytest.raises(ProgramValidationError):
            DMAInstruction(DMAOpcode.LOAD_BIAS, dst="b", src="bias", size_bytes=-1)


class TestRouterInstruction:
    def test_payload_bytes(self):
        sync = RouterInstruction(RouterOpcode.SYNC, dst="full", src="part",
                                 payload_elements=1536, rows=2)
        assert sync.payload_bytes() == 1536 * 2 * 2
        assert sync.instruction_class is InstructionClass.ROUTER

    def test_positive_payload_required(self):
        with pytest.raises(ProgramValidationError):
            RouterInstruction(RouterOpcode.SYNC, dst="d", src="s", payload_elements=0)

    def test_instructions_carry_phase_tags(self):
        sync = RouterInstruction(RouterOpcode.SYNC, dst="d", src="s",
                                 payload_elements=4, tag="synchronization")
        assert sync.tag == "synchronization"


class TestWeightReuseRows:
    def _mm(self, rows, reuse):
        return MatrixInstruction(
            opcode=MatrixOpcode.MM, dst="out", input_operand="x",
            weight_operand="w", rows=rows, in_dim=4, out_dim=4,
            weight_reuse_rows=reuse,
        )

    def test_defaults_to_no_reuse(self):
        assert self._mm(rows=3, reuse=1).weight_reuse_rows == 1

    def test_reuse_must_divide_rows(self):
        self._mm(rows=8, reuse=4)
        with pytest.raises(ProgramValidationError):
            self._mm(rows=8, reuse=3)

    def test_reuse_must_be_positive(self):
        with pytest.raises(ProgramValidationError):
            self._mm(rows=4, reuse=0)
