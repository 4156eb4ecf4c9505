"""Tests for the Program container."""

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
    RouterOpcode,
    VectorOpcode,
)
from repro.isa.program import Program
from repro.isa.validation import validate_program


def _sample_program() -> Program:
    program = Program(name="sample", inputs=("x",), outputs=("y",))
    program.extend([
        DMAInstruction(DMAOpcode.LOAD_WEIGHT, dst="dma.w", src="w", size_bytes=64,
                       tag="feed_forward_network"),
        MatrixInstruction(MatrixOpcode.CONV1D, dst="h", input_operand="x",
                          weight_operand="w", bias_operand="b", rows=1,
                          in_dim=8, out_dim=4, tag="feed_forward_network"),
        VectorInstruction(VectorOpcode.ADD, dst="y", src1="h", src2="x_slice",
                          length=4, tag="residual"),
        RouterInstruction(RouterOpcode.SYNC, dst="y_full", src="y",
                          payload_elements=8, tag="synchronization"),
    ])
    return program


class TestProgramViews:
    def test_length_and_iteration(self):
        program = _sample_program()
        assert len(program) == 4
        assert len(list(iter(program))) == 4

    def test_typed_views(self):
        program = _sample_program()
        assert len(program.matrix_instructions()) == 1
        assert len(program.router_instructions()) == 1

    def test_by_tag(self):
        program = _sample_program()
        assert program.tag_counts() == {
            "feed_forward_network": 2, "residual": 1, "synchronization": 1,
        }
        assert "nonexistent" not in program.tag_counts()

    def test_class_and_tag_counts(self):
        program = _sample_program()
        counts = program.instruction_class_counts()
        assert counts[InstructionClass.COMPUTE_MATRIX] == 1
        assert counts[InstructionClass.DMA] == 1
        assert program.tag_counts()["feed_forward_network"] == 2


class TestProgramStats:
    def test_total_flops(self):
        program = _sample_program()
        expected = (2 * 8 * 4 + 4) + 4  # conv1d + residual add
        assert program.total_flops() == expected

    def test_total_weight_bytes(self):
        assert _sample_program().total_weight_bytes() == 8 * 4 * 2

    def test_sync_count(self):
        assert _sample_program().sync_count() == 1

    def test_defined_buffers(self):
        # Every buffer the program reads is defined before use and its
        # declared output is produced, given the residual input as live-in.
        program = _sample_program()
        assert validate_program(program, live_in={"x", "x_slice"}).is_valid
        report = validate_program(program, live_in={"x"})
        assert not report.is_valid
        assert any("'x_slice'" in error for error in report.errors)

    def test_summary_mentions_name_and_counts(self):
        summary = _sample_program().summary()
        assert "sample" in summary
        assert "4 instructions" in summary

