"""Exhaustive oracles for the FP16 unary-op lookup tables.

In a float16 mode every unary FP16 op is one lookup in a table of its FP32
expression at all 65,536 float16 inputs (``repro.model.numerics.fp16_table``):
GELU through ``Numerics.activation`` (the engine's fused GELU and the
reference decoder's), and, in the linker, EXP, RECIP, RECIP_SQRT, ADD/SUB/MUL
with an immediate and the matrix ``scale``.

The oracle compares each lookup with the FP32 expression it replaces on every
input, laid out four ways: shuffled, as a strided view, as a 4-D block and in
chunks of 1-33 elements.  A NumPy kernel whose answer depended on where an
element sits (SIMD body or tail, contiguous or strided) would disagree with
the bulk-built table.  Bit patterns must match on every non-NaN input; NaN
inputs must give NaN (NaN payloads already vary with array length).

The wiring guard pins which linked instructions look up, that a linked
segment widens each register once and reads the FP32 image wherever it
widened before, and that tables are built once per process, not per
simulator, program or link.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.functional import DFXFunctionalSimulator, FunctionalCore, link_program
from repro.isa.compiler import DFXCompiler
from repro.isa.instructions import MatrixInstruction, VectorInstruction
from repro.isa.opcodes import MatrixOpcode, VectorOpcode
from repro.isa.program import Program
from repro.model import numerics as numerics_module
from repro.model.config import GPT2_TEST_SMALL, GPT2_TEST_TINY
from repro.model.gelu import gelu_lut, gelu_tanh
from repro.model.generation import TextGenerator
from repro.model.gpt2 import GPT2Model
from repro.model.numerics import FP16_DFX, FP16_GPU, FP32_EXACT, Numerics
from repro.parallel.partitioner import build_partition_plan
from repro.runtime import DFXRuntime

F16 = np.float16
F32 = np.float32

#: Every float16 value; element ``i`` has bit pattern ``i``.
ALL_FP16 = np.arange(1 << 16, dtype=np.uint16).view(F16)


#: A user-defined float16 mode with an elementwise lambda GELU.
CUSTOM_FP16 = Numerics(
    name="fp16-custom",
    dtype=np.dtype(F16),
    gelu=lambda x: x * F32(0.5) + np.abs(x) * F32(0.5),
)
FP64_CUSTOM = Numerics(name="fp64-custom", dtype=np.dtype(np.float64), gelu=gelu_tanh)


def chunks(values):
    """``values`` split into consecutive chunks of 1, 2, ..., 33, 1, 2, ... elements."""
    pieces, start, size = [], 0, 1
    while start < values.size:
        pieces.append(values[start : start + size])
        start += size
        size = size % 33 + 1
    return pieces


def layouts():
    """The 65,536 inputs four ways: ``(name, inputs, pieces)``.

    ``pieces`` is how the FP32 expression sees the inputs (one call per
    piece); the lookup always sees ``inputs`` whole.
    """
    shuffled = np.random.default_rng(20).permutation(ALL_FP16)
    base = np.zeros(3 * shuffled.size, dtype=F16)
    base[1::3] = shuffled
    strided = base[1::3]
    block = shuffled[::-1].reshape(4, 8, 16, 128)
    return [
        ("shuffled", shuffled, [shuffled]),
        ("strided", strided, [strided]),
        ("4d", block, [block]),
        ("chunks", ALL_FP16, chunks(ALL_FP16)),
    ]


def assert_same_bits(inputs, actual, expected, label):
    """Equal bit patterns on non-NaN inputs; NaN on both sides for NaN inputs."""
    assert actual.shape == expected.shape and actual.dtype == expected.dtype, label
    nan = np.isnan(inputs)
    differ = actual[~nan].view(np.uint16) != expected[~nan].view(np.uint16)
    assert not differ.any(), f"{label}: {np.count_nonzero(differ)} non-NaN inputs differ"
    assert np.isnan(actual[nan]).all() and np.isnan(expected[nan]).all(), label


def assert_lookup_matches(lookup, expression):
    """``lookup`` equals ``expression`` on all inputs in every layout."""
    for name, inputs, pieces in layouts():
        actual = lookup(inputs)
        assert actual.dtype == F16 and actual.shape == inputs.shape, name
        with np.errstate(all="ignore"):
            expected = np.concatenate([expression(piece).ravel() for piece in pieces])
        assert_same_bits(inputs.ravel(), actual.ravel(), expected, name)


def linked_table(instruction):
    """The table the FP16 linker indexes for ``instruction``'s one unary op."""
    (segment,) = link_program(Program("probe", [instruction]), FP16_DFX).segments
    (name,) = re.findall(r"(_k\d+)\.take\(", segment.body.__source__)
    return segment.body.__globals__[name]


def lookup_of(table):
    return lambda x: table.take(x.view(np.uint16))


def emitted_constants():
    """The immediate ops ``(opcode, value)`` and the matrix scales that
    test-tiny and test-small programs emit."""
    immediates, scales = set(), set()
    for config in (GPT2_TEST_TINY, GPT2_TEST_SMALL):
        for program in programs(config):
            for instruction in program.instructions:
                if isinstance(instruction, VectorInstruction):
                    if instruction.immediate is not None:
                        immediates.add((instruction.opcode, instruction.immediate))
                elif isinstance(instruction, MatrixInstruction):
                    if instruction.scale is not None:
                        scales.add(instruction.scale)
    return sorted(immediates, key=lambda case: (case[0].value, case[1])), sorted(scales)


def programs(config):
    """The decode step, one causal prefill layer and the LM head of ``config``
    on 4 devices."""
    compiler = DFXCompiler(config, build_partition_plan(config, num_devices=4))
    return (
        compiler.compile_decoder_step(),
        compiler.compile_decoder_layer(5, 3),
        compiler.compile_lm_head(),
    )


IMMEDIATES, SCALES = emitted_constants()

VECTOR_EXPRESSIONS = {
    VectorOpcode.EXP: lambda x: np.exp(x, dtype=F32).astype(F16),
    VectorOpcode.RECIP: lambda x: np.divide(F32(1.0), x, dtype=F32).astype(F16),
    VectorOpcode.RECIP_SQRT: lambda x: np.divide(
        F32(1.0), np.sqrt(x, dtype=F32), dtype=F32
    ).astype(F16),
}

BINARY_UFUNCS = {
    VectorOpcode.ADD: np.add,
    VectorOpcode.SUB: np.subtract,
    VectorOpcode.MUL: np.multiply,
}


class TestActivationTable:
    @pytest.mark.parametrize(
        "numerics, gelu",
        [(FP16_DFX, gelu_lut), (FP16_GPU, gelu_tanh), (CUSTOM_FP16, CUSTOM_FP16.gelu)],
        ids=["fp16-dfx", "fp16-gpu", "fp16-custom"],
    )
    def test_lookup_matches_fp32_expression(self, numerics, gelu):
        assert_lookup_matches(
            numerics.activation, lambda x: gelu(x.astype(F32)).astype(F16)
        )

    @pytest.mark.parametrize(
        "numerics", [FP16_DFX, FP16_GPU, CUSTOM_FP16, FP32_EXACT], ids=lambda n: n.name
    )
    def test_float32_input_keeps_the_fp32_path(self, numerics):
        # Values between FP16 neighbours: rounding them to FP16 before the
        # GELU would change the answer.
        x = np.random.default_rng(3).normal(scale=3.0, size=(3, 257)).astype(F32)
        assert not np.array_equal(x.astype(F16).astype(F32), x)
        expected = numerics.gelu(x).astype(numerics.dtype)
        result = numerics.activation(x)
        assert result.dtype == numerics.dtype
        assert np.array_equal(result, expected)

    @pytest.mark.parametrize("numerics", [FP32_EXACT, FP64_CUSTOM], ids=lambda n: n.name)
    def test_other_dtype_mode_keeps_the_fp32_path_on_float16_input(self, numerics):
        x = np.random.default_rng(4).normal(size=(2, 65)).astype(F16)
        result = numerics.activation(x)
        assert result.dtype == numerics.dtype
        assert np.array_equal(result, numerics.gelu(x.astype(F32)).astype(numerics.dtype))

    @pytest.mark.parametrize(
        "numerics", [FP16_DFX, FP16_GPU, CUSTOM_FP16, FP32_EXACT], ids=lambda n: n.name
    )
    @pytest.mark.parametrize(
        "x",
        [
            np.array(0.75, dtype=F16),
            F16(-1.5),
            np.empty((0,), dtype=F16),
            np.empty((4, 0, 3), dtype=F16),
        ],
        ids=["0-d", "scalar", "empty", "empty-3d"],
    )
    def test_zero_d_and_empty_inputs_keep_type_and_shape(self, numerics, x):
        expected = numerics.gelu(np.asarray(x, dtype=F32)).astype(numerics.dtype)
        result = numerics.activation(x)
        assert type(result) is type(expected)
        assert result.shape == expected.shape and result.dtype == expected.dtype
        assert np.array_equal(result, expected)


class TestLinkerTables:
    @pytest.mark.parametrize("opcode", list(VECTOR_EXPRESSIONS), ids=lambda o: o.value)
    def test_operand_only_ops(self, opcode):
        table = linked_table(VectorInstruction(opcode, dst="y", src1="x"))
        assert_lookup_matches(lookup_of(table), VECTOR_EXPRESSIONS[opcode])

    def test_programs_emit_every_immediate_opcode(self):
        assert {VectorOpcode.ADD, VectorOpcode.MUL} <= {op for op, _ in IMMEDIATES}
        assert SCALES

    @pytest.mark.parametrize(
        "opcode, immediate",
        IMMEDIATES
        + [(VectorOpcode.SUB, value) for _, value in IMMEDIATES]
        + [(VectorOpcode.MUL, -0.0), (VectorOpcode.ADD, 0.0)],
        ids=str,
    )
    def test_immediate_ops(self, opcode, immediate):
        instruction = VectorInstruction(opcode, dst="y", src1="x", immediate=immediate)
        ufunc, constant = BINARY_UFUNCS[opcode], F32(immediate)
        assert_lookup_matches(
            lookup_of(linked_table(instruction)),
            lambda x: ufunc(x, constant, dtype=F32).astype(F16),
        )

    @pytest.mark.parametrize("scale", SCALES, ids=str)
    def test_attention_scale(self, scale):
        instruction = MatrixInstruction(
            MatrixOpcode.MM, dst="y", input_operand="x", weight_operand="w",
            in_dim=1, out_dim=1, scale=scale,
        )
        constant = F32(scale)
        assert_lookup_matches(
            lookup_of(linked_table(instruction)),
            lambda x: np.multiply(x, constant, dtype=F32).astype(F16),
        )

    def test_signed_zero_immediates_get_their_own_tables(self):
        positive = linked_table(
            VectorInstruction(VectorOpcode.MUL, dst="y", src1="x", immediate=0.0)
        )
        negative = linked_table(
            VectorInstruction(VectorOpcode.MUL, dst="y", src1="x", immediate=-0.0)
        )
        one = np.array([1.0], dtype=F16)
        assert not np.signbit(lookup_of(positive)(one)[0])
        assert np.signbit(lookup_of(negative)(one)[0])

    @pytest.mark.parametrize("opcode", list(VECTOR_EXPRESSIONS) + [VectorOpcode.MUL])
    def test_linked_code_matches_slow_path_on_stacked_and_empty_registers(self, opcode):
        immediate = 0.125 if opcode is VectorOpcode.MUL else None
        instruction = VectorInstruction(opcode, dst="y", src1="x", immediate=immediate)
        (segment,) = link_program(Program("probe", [instruction]), FP16_DFX).segments
        for name, inputs, _ in layouts()[1:3] + [("empty", np.empty((2, 0), F16), None)]:
            fast = FunctionalCore(numerics=FP16_DFX, registers={"x": inputs})
            slow = FunctionalCore(numerics=FP16_DFX, registers={"x": inputs})
            segment.body(fast)
            with np.errstate(all="ignore"):
                slow.execute_instruction(instruction)
            assert_same_bits(inputs, fast.registers["y"], slow.registers["y"], name)


def linked_source(program, numerics):
    return "\n".join(
        segment.body.__source__
        for segment in link_program(program, numerics).segments
        if segment.body is not None
    )


def lookup_count(source):
    return len(re.findall(r"_k\d+\.take\(", source))


def unary_instruction_count(program):
    unary = {VectorOpcode.EXP, VectorOpcode.RECIP, VectorOpcode.RECIP_SQRT}
    count = 0
    for instruction in program.instructions:
        if isinstance(instruction, VectorInstruction):
            count += instruction.opcode in unary or (
                instruction.opcode in BINARY_UFUNCS and instruction.src2 is None
            )
        elif isinstance(instruction, MatrixInstruction):
            count += instruction.scale is not None
    return count


#: ``image = _asarray(source, dtype=_f32)``: (image, source).
WIDEN = re.compile(r"^ *(_t\d+) = _asarray\((_\w+), dtype=_f32\)$", re.M)
ROW_MAX = re.compile(r"^ *(_t\d+) = (_\w+)\.max\(axis=-1, keepdims=True\)$", re.M)
SLICE = re.compile(r"^ *(_t\d+) = (_t\d+)\[\.\.\., \d+:\d+\]$", re.M)
MATMUL_OPERAND = re.compile(r"= \((_\w+) @ _\w+\)")
ACCUM_OPERAND = re.compile(r"= (_\w+)\.sum\(axis=-1, keepdims=True\)")
BINARY = re.compile(r"^ *(_r\d+) = _np\.(?:add|subtract|multiply)\((_\w+), (_\w+),", re.M)


def register_names(source):
    """Variable -> register name in one linked segment's source."""
    names = dict(re.findall(r"(_r\d+) = _registers\.get\('([^']+)'\)", source))
    stored = re.findall(r"_registers\['([^']+)'\] = (_r\d+)", source)
    names.update((var, name) for name, var in stored)
    # A register assigned straight from a matrix result names that result.
    for var, temp in re.findall(r"^ *(_r\d+) = (_t\d+)$", source, re.M):
        names[temp] = names[var]
    return names


def redu_max_count(program):
    return sum(
        isinstance(i, MatrixInstruction) and i.apply_redu_max and bool(i.redu_max_dst)
        for i in program.instructions
    )


class TestWiring:
    @pytest.mark.parametrize("numerics", [FP16_DFX, FP16_GPU], ids=lambda n: n.name)
    def test_fp16_programs_look_up_every_unary_op(self, numerics):
        for program in programs(GPT2_TEST_SMALL):
            text = linked_source(program, numerics)
            for expression in ("_np.exp(", "_np.sqrt(", "_np.divide(_one"):
                assert expression not in text, (program.name, expression)
            assert lookup_count(text) == unary_instruction_count(program) > 0, program.name

    @pytest.mark.parametrize("numerics", [FP16_DFX, FP16_GPU], ids=lambda n: n.name)
    def test_fp16_segments_widen_each_register_once(self, numerics):
        for program in programs(GPT2_TEST_SMALL):
            row_maxes = 0
            for index, segment in enumerate(link_program(program, numerics).segments):
                if segment.body is None:
                    continue
                source = segment.body.__source__
                label = (program.name, index)
                images = dict(WIDEN.findall(source))
                names = register_names(source)
                widened = [names[var] for var in images.values()]
                assert len(set(widened)) == len(widened), (label, widened)
                maxima = dict(ROW_MAX.findall(source))
                assert set(maxima.values()) <= set(images), label
                row_maxes += len(maxima)
                slices = dict(SLICE.findall(source))
                for operand in MATMUL_OPERAND.findall(source):
                    assert slices.get(operand, operand) in images, (label, operand)
                for operand in ACCUM_OPERAND.findall(source):
                    assert operand in images, (label, operand)
                # Softmax SUB reads the score image and the FP32 max, softmax
                # MUL the exp image, and LayerNorm SUB its input's image.
                for dst, left, right in BINARY.findall(source):
                    name = names[dst]
                    if name.endswith(".shifted"):
                        assert left in images and right in maxima, (label, name)
                    elif name.endswith(".centered") or name.startswith("probs."):
                        assert left in images, (label, name)
            assert row_maxes == redu_max_count(program) > 0, program.name

    def test_fp32_exact_programs_keep_the_expressions(self):
        for program in programs(GPT2_TEST_SMALL):
            text = linked_source(program, FP32_EXACT)
            counts = {
                opcode: sum(
                    isinstance(i, VectorInstruction) and i.opcode is opcode
                    for i in program.instructions
                )
                for opcode in VECTOR_EXPRESSIONS
            }
            assert lookup_count(text) == 0, program.name
            assert text.count("_np.exp(") == counts[VectorOpcode.EXP]
            assert text.count("_np.sqrt(") == counts[VectorOpcode.RECIP_SQRT]
            assert text.count("_np.divide(_one") == (
                counts[VectorOpcode.RECIP] + counts[VectorOpcode.RECIP_SQRT]
            )

    def test_tables_are_built_once_per_process(self, small_weights):
        def run(numerics):
            simulator = DFXFunctionalSimulator(
                small_weights, num_devices=4, numerics=numerics
            )
            simulator.generate([1, 2, 3, 4, 5], 2)
            runtime = DFXRuntime(
                GPT2_TEST_SMALL, num_devices=2, weights=small_weights, numerics=numerics
            )
            runtime.generate([1, 2, 3], 2)
            reference = TextGenerator(GPT2Model(small_weights, numerics=numerics))
            reference.generate_tokens([1, 2, 3], 2)

        def assert_unchanged(built, label):
            assert tables.keys() == built.keys(), label
            assert all(tables[key] is table for key, table in built.items()), label

        tables = numerics_module._FP16_TABLES
        before = dict(tables)
        run(FP32_EXACT)
        assert_unchanged(before, "fp32-exact")
        for numerics in (FP16_DFX, FP16_GPU):
            run(numerics)
        built = dict(tables)
        assert built
        for numerics in (FP16_DFX, FP16_GPU):
            run(numerics)
            assert_unchanged(built, numerics.name)
        assert all(not table.flags.writeable for table in built.values())
