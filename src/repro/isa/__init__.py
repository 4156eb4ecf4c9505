"""DFX instruction set: opcodes, instruction dataclasses, programs, compiler,
and static program validation."""

from repro.isa.opcodes import (
    DMAOpcode,
    InstructionClass,
    MatrixOpcode,
    MemorySpace,
    RouterOpcode,
    VectorOpcode,
)
from repro.isa.instructions import (
    DMAInstruction,
    Instruction,
    MatrixInstruction,
    RouterInstruction,
    VectorInstruction,
)
from repro.isa.program import Program
from repro.isa.compiler import (
    CompiledToken,
    DFXCompiler,
    kv_key_buffer,
    kv_value_buffer,
)
from repro.isa.validation import (
    ValidationReport,
    validate_layer_program,
    validate_program,
)

__all__ = [
    "DMAOpcode",
    "InstructionClass",
    "MatrixOpcode",
    "MemorySpace",
    "RouterOpcode",
    "VectorOpcode",
    "DMAInstruction",
    "Instruction",
    "MatrixInstruction",
    "RouterInstruction",
    "VectorInstruction",
    "Program",
    "CompiledToken",
    "DFXCompiler",
    "kv_key_buffer",
    "kv_value_buffer",
    "ValidationReport",
    "validate_layer_program",
    "validate_program",
]
