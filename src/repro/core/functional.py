"""Functional (bit-level-behaviour) execution of DFX programs.

The timing simulator answers "how long does the program take"; this module
answers "does the compiled program compute the right thing".  A
:class:`FunctionalCore` interprets DFX instructions against NumPy buffers;
:class:`DFXFunctionalSimulator` runs a whole cluster in lockstep, resolving
each ring synchronization by gathering the devices' partial vectors in
device order (the router's reorder unit, Fig. 11).

One set of instruction semantics has two implementations:

* the **slow path** (:meth:`FunctionalCore.execute_instruction`) dispatches on
  instruction type per instruction — simple, and the specification the fast
  path is audited against;
* the **fast path** (:func:`link_program` + :class:`LinkedProgram`) links a
  program once: each sync-free instruction run is compiled into a single
  generated Python function with buffer names lowered to locals and constant
  operands pre-bound, so lockstep layer execution pays no per-instruction
  dispatch.  A simulator links its three programs (embedding, decoder
  layer, LM head) once, when it is built.

Every device of a cluster runs the same instruction stream on an equal
shard, so the simulator runs all of them on **one device-stacked core**,
which runs the embedding and every decoder layer: as on DFX's one compute
core, only the memory it reads changes from layer to layer.  Each sharded
buffer (weights, biases, KV arenas, and every register computed from them)
carries a leading device axis; values every device shares (the hidden
state, LayerNorms, residuals, every sync output) carry none, so
broadcasting runs each of them once per layer.  A linked body thus runs
once per step for all devices, and a ring sync is one concatenation over
the device axis.  Registers are ``(batch, rows, cols)`` when shared and
``(devices, batch, rows, cols)`` per device.

The simulator has one engine.  Every forward runs a *decode set* of
streams whose KV caches live in the slot arenas of a :class:`BatchedKVPool`,
grouped by past length, each group in a contiguous slot range (Orca's
selective batching): everything but attention runs once at the full batch,
and the attention region (KV appends, scores, softmax, ``.V``) once per
group.  :meth:`DFXFunctionalSimulator.forward` is a set of one stream in
slot 0, and :meth:`DFXFunctionalSimulator.generate_batch` decodes all its
streams as one set per step.  The linked code only ever addresses the
*last* axes of a buffer (``[..., a:b]`` column slices, ``swapaxes(-1, -2)``
transposes, ``shape[-2:]`` mask extents) and reads every extent from its
operands, so the same code runs every device count, batch size, prompt
length and past.

**Bit-exactness contract:** the fast path must produce bit-identical buffers
to the slow path.  Every fast-path shortcut is a proven identity: generated
code fuses the slow path's FP16→FP32 conversion chains into ufunc
``dtype=float32`` calls that convert elementwise identically; in a float16
mode each unary op (EXP, RECIP, RECIP_SQRT, ADD/SUB/MUL with an immediate,
the matrix ``scale`` and the fused GELU) is one ``take`` from a table of that
op's FP32 expression evaluated at all 65,536 FP16 inputs, which is the op
itself because the op maps each FP16 input to one FP16 output elementwise
(``tests/test_fp16_tables.py`` checks every input in four layouts); a linked
segment widens a register to FP32 at most once, and every FP32 read of it
(matmul operands, ``ACCUM``, the row max, and binary ops where it exists)
shares that *image* (widening is exact, so one image serves every read);
the row max reduces the FP32 image, as the slow path does, and that FP32
max is the image of the rounded max; the causal mask selects in FP16
(FP16→FP32→FP16 round-trips are exact and the mask value is an FP16 value)
and is skipped only when it admits every key (a single query row always
attends to the whole cache); the KV cache appends in place into a
preallocated arena slot whose logical view holds exactly the rows the slow
path's ``np.concatenate`` produces, and moves behind shared ops that touch
nothing attention uses; persistent weights are staged upcast to
the FP32 accumulation dtype (exact, since they were already quantized); the
output-scatter path writes in place only into buffers it exclusively owns;
and a stacked matmul over the device and batch axes calls the same BLAS
kernel for each 2-D slice as the 2-D matmul of one device and one stream
does (neither axis is ever flattened into rows, which would change the
kernel).  Elementwise ops and last-axis reductions ignore leading axes,
and attention never mixes streams of different pasts.
The fast-vs-slow comparisons and the slow-path lockstep oracle in
``tests/test_fastpath_engine.py`` and the golden pin in
``tests/test_functional_golden.py`` hold the engine to this contract.

The simulator is verified against the reference :class:`repro.model.GPT2Model`
in the integration tests: with the same weights and numerics it must produce
matching logits, which exercises the compiler, the partitioner, the KV-cache
handling, and the value-first reordering end to end.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.errors import ExecutionError, check_number
from repro.isa.compiler import DFXCompiler
from repro.isa.instructions import (
    DMAInstruction,
    Instruction,
    MatrixInstruction,
    RouterInstruction,
    VectorInstruction,
)
from repro.isa.opcodes import DMAOpcode, MatrixOpcode, VectorOpcode
from repro.isa.program import Program
from repro.model.config import GPT2Config
from repro.model.gpt2 import check_integer_tokens
from repro.model.layers import MASK_VALUE, causal_mask
from repro.model.numerics import FP16_DFX, Numerics, fp16_table
from repro.model.weights import GPT2Weights
from repro.parallel.partitioner import (
    DeviceLayerWeights,
    PartitionPlan,
    build_partition_plan,
    partition_model_weights,
)

#: Type of the callback the cluster provides to resolve ring synchronizations.
SyncHandler = Callable[[RouterInstruction, np.ndarray], np.ndarray]

#: Type of a linked (pre-bound) instruction handler.
Handler = Callable[["FunctionalCore"], None]

#: Smallest per-slot KV-cache capacity (rows) of an arena.
_KV_MIN_CAPACITY = 8


class BatchedKV:
    """One ``(layer, head)`` KV cache of every device and stream.

    Rows live in a preallocated ``(devices, slots, capacity, cols)`` array:
    the leading axis is the device that owns the head shard, and each slot
    belongs to one generation stream and carries its own logical ``length``.
    A *past-length group* occupies a contiguous slot range ``[lo, hi)`` whose
    slots all hold the same length, so the group's cache is the zero-copy
    view ``data[:, lo:hi, :length]``.  Appends write in place; the arena
    only reallocates when :class:`BatchedKVPool` grows it.  Lengths are a
    plain list: every token step reads and bumps them, and Python ints are
    several times cheaper to index there than NumPy scalars.
    """

    __slots__ = ("data", "lengths")

    def __init__(
        self, devices: int, cols: int, dtype: np.dtype, slots: int, capacity: int
    ) -> None:
        capacity = max(int(capacity), _KV_MIN_CAPACITY)
        self.data = np.empty((devices, slots, capacity, cols), dtype=dtype)
        self.lengths = [0] * slots

    @property
    def slots(self) -> int:
        return int(self.data.shape[1])

    @property
    def capacity(self) -> int:
        return int(self.data.shape[2])

    def view(self, lo: int, hi: int) -> np.ndarray:
        """The group's caches, no copy: ``(devices, hi - lo, length, cols)``."""
        return self.data[:, lo:hi, : self.lengths[lo]]

    def append(self, lo: int, hi: int, rows: np.ndarray) -> None:
        """Append ``rows``, shaped like :meth:`view`, to every group slot."""
        length = self.lengths[lo]
        end = length + rows.shape[-2]
        self.data[:, lo:hi, length:end] = rows
        self.lengths[lo:hi] = [end] * (hi - lo)

    def ensure(self, slots: int, capacity: int) -> None:
        """Grow the arena to at least ``(slots, capacity)``, keeping contents."""
        devices, old_slots, old_capacity, cols = self.data.shape
        if slots <= old_slots and capacity <= old_capacity:
            return
        grown = np.empty(
            (devices, max(slots, old_slots), max(capacity, old_capacity), cols),
            dtype=self.data.dtype,
        )
        grown[:, :old_slots, :old_capacity] = self.data
        self.data = grown
        self.lengths += [0] * (grown.shape[1] - old_slots)

    def move_slot(self, dst: int, src: int) -> None:
        """Move slot ``src``'s rows and length to slot ``dst`` (compaction)."""
        length = self.lengths[dst] = self.lengths[src]
        self.data[:, dst, :length] = self.data[:, src, :length]


class BatchedKVPool:
    """All KV arenas of a simulator, grown and recycled together.

    Every ``(layer, head)`` cache buffer is one :class:`BatchedKV` (all
    devices on its leading axis) registered here; the pool keeps them
    dimensioned identically so one slot index means "this stream" in every
    arena.  Slot storage persists across calls, so the pool holds the
    high-water mark of the largest batch and the longest stream it served:
    a batch sizes it once, before its first forward, and
    :meth:`DFXFunctionalSimulator.forward` grows it as a decode outgrows it.
    """

    def __init__(self, dtype: np.dtype) -> None:
        self.dtype = np.dtype(dtype)
        self.slots = 0
        self.capacity = _KV_MIN_CAPACITY
        self.arenas: list[BatchedKV] = []

    def new_arena(self, devices: int, cols: int) -> BatchedKV:
        arena = BatchedKV(devices, cols, self.dtype, self.slots, self.capacity)
        self.arenas.append(arena)
        return arena

    def ensure(self, slots: int = 0, capacity: int = 0) -> None:
        """Grow every arena to at least ``slots`` x ``capacity`` rows."""
        if slots <= self.slots and capacity <= self.capacity:
            return
        self.slots = max(self.slots, int(slots))
        self.capacity = max(self.capacity, int(capacity))
        for arena in self.arenas:
            arena.ensure(self.slots, self.capacity)

    def clear_slots(self, lo: int, hi: int) -> None:
        """Reset the logical length of a recycled slot range to zero."""
        for arena in self.arenas:
            arena.lengths[lo:hi] = [0] * (hi - lo)

    def clear_all(self) -> None:
        for arena in self.arenas:
            arena.lengths = [0] * len(arena.lengths)

    def move_slot(self, dst: int, src: int) -> None:
        for arena in self.arenas:
            arena.move_slot(dst, src)

    def memory_bytes(self) -> int:
        return sum(arena.data.nbytes for arena in self.arenas)


@dataclass
class FunctionalCore:
    """Interprets DFX instructions against NumPy buffers.

    Attributes:
        numerics: Precision mode (FP16 + LUT GELU for the DFX pipeline).
        registers: The register file: buffer name -> array whose last two
            axes are ``(rows, length)``.  Instruction semantics act on those
            two axes only, so any leading axes (the engine's device and
            batch axes) ride through unchanged.
        memory: Off-chip memory: weights, KV cache, embedding rows.
    """

    numerics: Numerics = FP16_DFX
    registers: dict[str, np.ndarray] = field(default_factory=dict)
    memory: dict[str, np.ndarray] = field(default_factory=dict)
    # Output-scatter buffers this core allocated itself and may mutate in
    # place (identity-checked against the register file before reuse).
    _scatter_buffers: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False
    )

    # ------------------------------------------------------------------ helpers
    def _read_register(self, name: str) -> np.ndarray:
        if name not in self.registers:
            raise ExecutionError(f"register buffer {name!r} read before definition")
        return self.registers[name]

    def _read_any(self, name: str) -> np.ndarray:
        value = self.registers.get(name)
        if value is not None:
            return value
        value = self.memory.get(name)
        if value is None:
            raise ExecutionError(f"buffer {name!r} not found in registers or memory")
        return value

    @staticmethod
    def _as_2d(array: np.ndarray) -> np.ndarray:
        return array if array.ndim == 2 else array.reshape(1, -1)

    def _scatter_value(
        self,
        dst: str,
        current: np.ndarray | None,
        result: np.ndarray,
        total_cols: int,
        col_offset: int,
    ) -> np.ndarray:
        """Write ``result`` into the column window of the ``dst`` accumulator.

        ``current`` is the register's present value (or ``None``).  Allocates
        the ``(..., rows, total_cols)`` buffer on first touch and then writes
        in place for every further head: copying is only needed when the
        register holds an array this core did not allocate itself (and might
        therefore alias another buffer).  Either way the buffer holds the
        mode's dtype, as every register an instruction writes does.  Returns
        the buffer to store back in ``dst``.  Leading device and batch axes of
        ``result`` ride through.
        """
        shape = result.shape[:-1] + (total_cols,)
        if current is None or current.shape != shape:
            buffer = np.zeros(shape, dtype=self.numerics.dtype)
            self._scatter_buffers[dst] = buffer
        elif self._scatter_buffers.get(dst) is current:
            buffer = current
        else:
            buffer = current.astype(self.numerics.dtype)
            self._scatter_buffers[dst] = buffer
        buffer[..., col_offset : col_offset + result.shape[-1]] = result
        return buffer

    def _scatter_write(
        self, dst: str, result: np.ndarray, total_cols: int, col_offset: int
    ) -> None:
        """Scatter ``result`` into ``registers[dst]`` (slow-path entry)."""
        self.registers[dst] = self._scatter_value(
            dst, self.registers.get(dst), result, total_cols, col_offset
        )

    def _append_kv(self, dst: str, source: np.ndarray) -> None:
        """Append KV rows to ``memory[dst]``: the reference concatenation."""
        buffer = self.memory.get(dst)
        self.memory[dst] = (
            source.copy() if buffer is None else np.concatenate([buffer, source])
        )

    # -------------------------------------------------------------- instructions
    def _execute_matrix(self, instruction: MatrixInstruction) -> None:
        operand = self._as_2d(self._read_register(instruction.input_operand))
        if instruction.input_col_count is not None:
            start = instruction.input_col_offset
            operand = operand[:, start : start + instruction.input_col_count]

        weight = self._read_any(instruction.weight_operand)
        if instruction.opcode is MatrixOpcode.MASKED_MM or instruction.transpose_weight:
            weight = weight.T

        result = self.numerics.matmul(operand, weight)
        if instruction.bias_operand:
            result = self.numerics.add(result, self._read_any(instruction.bias_operand))
        if instruction.scale is not None:
            result = self.numerics.cast(
                np.asarray(result, dtype=np.float32) * instruction.scale
            )
        if instruction.opcode is MatrixOpcode.MASKED_MM:
            # Both extents come from the score: its rows are the newest
            # queries of a context as long as its columns.
            allowed = causal_mask(*result.shape[-2:])
            result = self.numerics.cast(
                np.where(allowed, np.asarray(result, dtype=np.float32), MASK_VALUE)
            )
        if instruction.apply_gelu:
            result = self.numerics.activation(result)
        if instruction.apply_redu_max and instruction.redu_max_dst:
            self.registers[instruction.redu_max_dst] = self.numerics.cast(
                np.asarray(result, dtype=np.float32).max(axis=-1, keepdims=True)
            )

        if instruction.dst_total_cols is not None:
            self._scatter_write(
                instruction.dst,
                result,
                instruction.dst_total_cols,
                instruction.dst_col_offset,
            )
        else:
            self.registers[instruction.dst] = result

    def _execute_vector(self, instruction: VectorInstruction) -> None:
        opcode = instruction.opcode
        if opcode is VectorOpcode.LOAD:
            self.registers[instruction.dst] = self.numerics.cast(
                self._read_any(instruction.src1)
            )
            return
        if opcode is VectorOpcode.STORE:
            self.memory[instruction.dst] = self._read_register(instruction.src1).copy()
            return

        left = np.asarray(self._read_register(instruction.src1), dtype=np.float32)
        if opcode is VectorOpcode.ACCUM:
            result = left.sum(axis=-1, keepdims=True)
        elif opcode is VectorOpcode.EXP:
            result = np.exp(left)
        elif opcode is VectorOpcode.RECIP:
            result = 1.0 / left
        elif opcode is VectorOpcode.RECIP_SQRT:
            result = 1.0 / np.sqrt(left)
        else:
            if instruction.src2 is not None:
                right = np.asarray(self._read_register(instruction.src2), dtype=np.float32)
            elif instruction.immediate is not None:
                right = np.float32(instruction.immediate)
            else:  # pragma: no cover - guarded by instruction validation
                raise ExecutionError(f"{opcode.value} missing second operand")
            if opcode is VectorOpcode.ADD:
                result = left + right
            elif opcode is VectorOpcode.SUB:
                result = left - right
            elif opcode is VectorOpcode.MUL:
                result = left * right
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unsupported vector opcode {opcode.value}")
        self.registers[instruction.dst] = self.numerics.cast(result)

    def _execute_dma(self, instruction: DMAInstruction) -> None:
        opcode = instruction.opcode
        if opcode is DMAOpcode.LOAD_WEIGHT:
            # Weights are streamed straight into the matrix unit; the compiled
            # matrix instruction reads them from memory directly.
            if instruction.src not in self.memory and instruction.src not in self.registers:
                raise ExecutionError(f"weight buffer {instruction.src!r} missing")
            return
        if opcode in (DMAOpcode.LOAD_EMBEDDING, DMAOpcode.LOAD_BIAS):
            self.registers[instruction.dst] = self.numerics.cast(
                self._read_any(instruction.src)
            )
            return
        if opcode is DMAOpcode.STORE_KV:
            source = self._as_2d(self._read_register(instruction.src))
            if instruction.col_count is not None:
                start = instruction.col_offset
                source = source[:, start : start + instruction.col_count]
            self._append_kv(instruction.dst, source)
            return
        if opcode is DMAOpcode.STORE_OUTPUT:
            self.memory[instruction.dst] = self._read_register(instruction.src).copy()
            return
        raise ExecutionError(f"unsupported DMA opcode {opcode.value}")  # pragma: no cover

    # ------------------------------------------------------------------ execute
    def execute(self, program: Program, sync_handler: SyncHandler | None = None) -> None:
        """Execute ``program``; ring syncs are resolved through ``sync_handler``."""
        linked = link_program(program, self.numerics)
        for body, sync, _ in linked.segments:
            if body is not None:
                body(self)
            if sync is not None:
                if sync_handler is None:
                    raise ExecutionError(
                        "router instruction encountered without a sync handler"
                    )
                local = self._read_register(sync.src)
                self.registers[sync.dst] = sync_handler(sync, local)

    def execute_instruction(
        self, instruction: Instruction, sync_handler: SyncHandler | None = None
    ) -> None:
        """Execute a single instruction (slow-path dispatch)."""
        if isinstance(instruction, MatrixInstruction):
            self._execute_matrix(instruction)
        elif isinstance(instruction, VectorInstruction):
            self._execute_vector(instruction)
        elif isinstance(instruction, DMAInstruction):
            self._execute_dma(instruction)
        elif isinstance(instruction, RouterInstruction):
            if sync_handler is None:
                raise ExecutionError(
                    "router instruction encountered without a sync handler"
                )
            local = self._read_register(instruction.src)
            self.registers[instruction.dst] = sync_handler(instruction, local)
        else:  # pragma: no cover - defensive
            raise ExecutionError(f"unknown instruction type {type(instruction).__name__}")


@dataclass
class BatchedFunctionalCore(FunctionalCore):
    """A :class:`FunctionalCore` that runs every device of a cluster at once.

    Its memory is one layer's device-stacked buffers at a time, and each
    per-device register carries a leading device axis, so one linked body
    advances every device at once (see the module docstring).
    The core runs one decode set at a time, whose KV caches live in the
    :class:`BatchedKV` arenas of ``kv_pool``: ``groups`` lists its
    past-length groups' slot ranges ``(lo, hi)`` in batch order, and
    ``slot_lo``/``slot_hi`` name the group executing; the fast path reads
    them when it unwraps a KV operand.  Every other instruction semantic is
    shape-polymorphic, so only the KV append differs from the plain core.
    """

    slot_lo: int = 0
    slot_hi: int = 0
    groups: Sequence[tuple[int, int]] = ()
    kv_pool: BatchedKVPool | None = None

    def _append_kv(self, dst: str, source: np.ndarray) -> None:
        """Append each device's and stream's KV rows to its arena slot.

        ``source`` is ``(devices, batch, rows, cols)``; the append is in place.
        """
        arena = self.memory.get(dst)
        if type(arena) is not BatchedKV:
            if self.kv_pool is None:
                raise ExecutionError(
                    f"KV append to {dst!r} without an arena pool"
                )
            arena = self.kv_pool.new_arena(source.shape[0], source.shape[-1])
            self.memory[dst] = arena
        arena.append(self.slot_lo, self.slot_hi, source)

    def run_groups(self, segment: LinkedSegment) -> None:
        """Run an attention body once per group, on the group's batch rows.

        Each group's outputs are copied out before the next group runs: the
        body's scatter reuses its buffer whenever a group's shape repeats.
        """
        if len(self.groups) == 1:
            self.slot_lo, self.slot_hi = self.groups[0]
            segment.body(self)
            return
        reads, writes = segment.group_io
        registers = self.registers
        inputs = [(name, registers[name]) for name in reads]
        outputs: dict[str, list[np.ndarray]] = {name: [] for name in writes}
        start = 0
        for lo, hi in self.groups:
            self.slot_lo, self.slot_hi = lo, hi
            for name, value in inputs:
                registers[name] = value[..., start : start + hi - lo, :, :]
            segment.body(self)
            for name, parts in outputs.items():
                parts.append(registers[name].copy())
            start += hi - lo
        registers.update(inputs)
        for name, parts in outputs.items():
            registers[name] = np.concatenate(parts, axis=-3)


# ----------------------------------------------------------------- linking pass
class _SegmentCompiler:
    """Compiles one sync-free instruction run into a single Python function.

    This is the linking pass: buffer *names* become function-local variables,
    constant operands (dtypes, scales, bound numerics methods) become default
    parameters, and the per-instruction dispatch disappears entirely.  The
    generated code emits exactly the NumPy expressions of the slow path (or a
    proven-identical fusion or lookup table of them — see the module
    docstring), so the fast path stays bit-exact.

    Register reads are materialized lazily at their first use site (with the
    slow path's "read before definition" error), and every register written
    by the segment is stored back to the core's register file in the
    epilogue, so state observed between segments — by ring syncs and by
    callers of :meth:`FunctionalCore.execute` — is unchanged.
    """

    _BASE_NAMESPACE = {
        "_np": np,
        "_asarray": np.asarray,
        "_f32": np.dtype(np.float32),
        "_one": np.float32(1.0),
        "_MASK_VALUE": MASK_VALUE,
        "_causal_mask": causal_mask,
        "ExecutionError": ExecutionError,
        "BatchedKV": BatchedKV,
    }

    _BINARY_UFUNCS = {
        VectorOpcode.ADD: "_np.add",
        VectorOpcode.SUB: "_np.subtract",
        VectorOpcode.MUL: "_np.multiply",
    }

    #: FP32-path text of the operand-only vector ops (see ``unary``).
    _UNARY_EXPRESSIONS = {
        VectorOpcode.EXP: "_np.exp({x}, dtype=_f32).astype({out})",
        VectorOpcode.RECIP: "_np.divide(_one, {x}, dtype=_f32).astype({out})",
        VectorOpcode.RECIP_SQRT: (
            "_np.divide(_one, _np.sqrt({x}, dtype=_f32), dtype=_f32).astype({out})"
        ),
    }

    def __init__(self, numerics: Numerics) -> None:
        self.numerics = numerics
        self.lines: list[str] = []
        self.consts: dict[str, object] = {}
        self.registers_vars: dict[str, str] = {}
        self.defined: set[str] = set()
        self.loaded: set[str] = set()
        self.temp_count = 0
        # Each register's FP32 image, keyed by register name and invalidated
        # when the register is rewritten (see image()).  Widening is pure, so
        # reuse is bit-exact.
        self._images: dict[str, str] = {}
        self.out_dtype = self.const(numerics.dtype)
        compute = np.dtype(np.float32) if numerics.accumulate_fp32 else numerics.dtype
        self.compute_dtype = self.const(compute)
        # In a float16 mode every unary op is one table lookup (see unary()).
        self.index_dtype = (
            self.const(np.dtype(np.uint16)) if numerics.dtype == np.float16 else None
        )

    # ---------------------------------------------------------------- plumbing
    def const(self, value: object) -> str:
        name = f"_k{len(self.consts)}"
        self.consts[name] = value
        return name

    def temp(self) -> str:
        self.temp_count += 1
        return f"_t{self.temp_count}"

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def _register_var(self, register: str) -> str:
        if register not in self.registers_vars:
            self.registers_vars[register] = f"_r{len(self.registers_vars)}"
        return self.registers_vars[register]

    def _invalidate(self, register: str) -> None:
        """Drop the FP32 image of ``register``."""
        self._images.pop(register, None)

    def read_register(self, register: str) -> str:
        """Variable holding ``register``, loading it on first read."""
        var = self._register_var(register)
        if register in self.defined or register in self.loaded:
            return var
        message = self.const(f"register buffer {register!r} read before definition")
        self.emit(f"{var} = _registers.get({register!r})")
        self.emit(f"if {var} is None:")
        self.emit(f"    raise ExecutionError({message})")
        self.loaded.add(register)
        return var

    def read_any(self, name: str) -> str:
        """Variable holding a register-or-memory operand (weights, biases)."""
        if name in self.defined or name in self.loaded:
            return self._register_var(name)
        var = self.temp()
        message = self.const(f"buffer {name!r} not found in registers or memory")
        self.emit(f"{var} = _registers.get({name!r})")
        self.emit(f"if {var} is None:")
        self.emit(f"    {var} = _memory.get({name!r})")
        self.emit(f"    if {var} is None:")
        self.emit(f"        raise ExecutionError({message})")
        # A KV arena reads as the executing group's view (only a
        # BatchedFunctionalCore's memory holds arenas).
        self.emit(f"    if {var}.__class__ is BatchedKV:")
        self.emit(f"        {var} = {var}.view(core.slot_lo, core.slot_hi)")
        return var

    def write_register(self, register: str) -> str:
        var = self._register_var(register)
        self.defined.add(register)
        self._invalidate(register)
        return var

    def widen(self, source: str) -> str:
        """Emit ``source`` widened to FP32 into a new temp; returns the temp.

        ``asarray`` widens as the slow path does, keeping the input's layout,
        so reductions and BLAS see the slow path's operands.
        """
        out = self.temp()
        self.emit(f"{out} = _asarray({source}, dtype=_f32)")
        return out

    def image(self, register: str) -> str:
        """Variable holding ``register`` widened to FP32, once per segment.

        Every FP32 read of a register shares it: matmul operands, ``ACCUM``,
        and binary ops where an image exists.  Widening before column
        slicing is elementwise, so all heads share one widening.
        """
        image = self._images.get(register)
        if image is None:
            image = self._images[register] = self.widen(self.read_register(register))
        return image

    def as_compute(self, register: str) -> str:
        """Variable holding ``register`` in the compute dtype: its image when
        the compute dtype is FP32, else one ``asarray`` per use."""
        if self.numerics.accumulate_fp32:
            return self.image(register)
        base = self.read_register(register)
        out = self.temp()
        self.emit(f"{out} = _asarray({base}, dtype={self.compute_dtype})")
        return out

    def unary(
        self,
        var: str,
        source: str,
        expression: str,
        constant: np.float32 | None = None,
        produced: bool = True,
    ) -> None:
        """Emit ``var = expression(source)`` for an elementwise unary op.

        ``expression`` is the FP32 path's text, with ``{x}`` for the operand,
        ``{c}`` for ``constant`` and ``{out}`` for the output dtype.  In a
        float16 mode the op is instead one lookup in the table of that exact
        text at every FP16 input (:func:`~repro.model.numerics.fp16_table`),
        keyed by the text and the constant's bit pattern.  An operand the
        segment has not ``produced`` may hold any dtype; only float16 indexes.
        """
        if self.index_dtype is None:
            c = None if constant is None else self.const(constant)
            self.emit(f"{var} = {expression.format(x=source, c=c, out=self.out_dtype)}")
            return
        text = expression.format(x="_x", c="_c", out="_out")
        # By bit pattern: -0.0 and 0.0 get their own tables, NaN finds its own.
        key = (text, None if constant is None else constant.tobytes())

        def evaluate(inputs: np.ndarray) -> np.ndarray:
            namespace = dict(self._BASE_NAMESPACE, _c=constant, _out=self.numerics.dtype)
            return eval(text, namespace, {"_x": inputs})  # noqa: S307

        table = self.const(fp16_table(key, evaluate))
        lookup = f"{table}.take({source}.view({self.index_dtype}))"
        if not produced:
            c = None if constant is None else self.const(constant)
            fp32 = expression.format(x=source, c=c, out=self.out_dtype)
            lookup = f"{lookup} if {source}.dtype is {self.out_dtype} else {fp32}"
        self.emit(f"{var} = {lookup}")

    # ------------------------------------------------------------ instructions
    def add_matrix(self, instruction: MatrixInstruction) -> None:
        operand = self.as_compute(instruction.input_operand)
        if instruction.input_col_count is not None:
            start = instruction.input_col_offset
            stop = start + instruction.input_col_count
            sliced = self.temp()
            self.emit(f"{sliced} = {operand}[..., {start}:{stop}]")
            operand = sliced
        weight = self.read_any(instruction.weight_operand)
        transpose = (
            instruction.opcode is MatrixOpcode.MASKED_MM or instruction.transpose_weight
        )
        if transpose:
            transposed = self.temp()
            # Swaps the last two axes of stacked weights and KV views alike.
            self.emit(f"{transposed} = {weight}.swapaxes(-1, -2)")
            weight = transposed
        result = self.temp()
        # Persistent weights are staged in the compute dtype already; the
        # guard skips a no-op asarray call on the hot path.  The converted
        # value lands in a fresh temp so a register-sourced weight is never
        # rebound (the epilogue must store the original register value).
        converted = self.temp()
        self.emit(
            f"{converted} = {weight} if {weight}.dtype is {self.compute_dtype}"
            f" else _asarray({weight}, dtype={self.compute_dtype})"
        )
        self.emit(
            f"{result} = ({operand} @ {converted}).astype({self.out_dtype})"
        )
        if instruction.bias_operand:
            bias = self.read_any(instruction.bias_operand)
            self.emit(
                f"{result} = _np.add({result}, {bias}, dtype=_f32)"
                f".astype({self.out_dtype})"
            )
        if instruction.scale is not None:
            self.unary(
                result,
                result,
                "_np.multiply({x}, {c}, dtype=_f32).astype({out})",
                np.float32(instruction.scale),
            )
        if instruction.opcode is MatrixOpcode.MASKED_MM:
            # The slow path's mask, from the score's extents.  A single query
            # row attends every key, so the masked product equals the
            # unmasked one bit for bit and the select is skipped.
            self.emit(f"_rows, _cols = {result}.shape[-2:]")
            self.emit("if _rows > 1:")
            self.emit("    _allowed = _causal_mask(_rows, _cols)")
            if self.index_dtype is None:
                cast = self.const(self.numerics.cast)
                self.emit(
                    f"    {result} = {cast}(_np.where(_allowed,"
                    f" _asarray({result}, dtype=_f32), _MASK_VALUE))"
                )
            else:
                # FP16 -> FP32 -> FP16 round-trips are exact and the mask
                # value is an FP16 value, so the select runs in FP16.
                fill = self.const(np.float16(np.float32(MASK_VALUE)))
                self.emit(f"    {result} = _np.where(_allowed, {result}, {fill})")
        if instruction.apply_gelu:
            activation = self.const(self.numerics.activation)
            self.emit(f"{result} = {activation}({result})")
        image = None
        if instruction.apply_redu_max and instruction.redu_max_dst:
            # The slow path's expression: the max of the FP32 image, rounded.
            # A max of FP16 values is one of them, so the FP32 max is the
            # image of the rounded register.
            image = self.widen(result)
            row_max = self.temp()
            self.emit(f"{row_max} = {image}.max(axis=-1, keepdims=True)")
            redu = self.write_register(instruction.redu_max_dst)
            self.emit(f"{redu} = {row_max}.astype({self.out_dtype})")
            self._images[instruction.redu_max_dst] = row_max
        if instruction.dst_total_cols is not None:
            dst = instruction.dst
            if dst in self.defined or dst in self.loaded:
                current = self._register_var(dst)
            else:
                current = f"_registers.get({dst!r})"
            var = self.write_register(dst)
            self.emit(
                f"{var} = _scatter_value({dst!r}, {current}, {result},"
                f" {instruction.dst_total_cols}, {instruction.dst_col_offset})"
            )
        else:
            self.emit(f"{self.write_register(instruction.dst)} = {result}")
            if image is not None:
                self._images[instruction.dst] = image

    def add_vector(self, instruction: VectorInstruction) -> None:
        opcode = instruction.opcode
        if opcode is VectorOpcode.LOAD:
            # LayerNorm gamma/beta loads re-cast the same static array every
            # step; memoize the cast per source-array identity (no handler
            # ever mutates a register array in place, so sharing is safe).
            source = self.read_any(instruction.src1)
            cache = self.const({})
            var = self.write_register(instruction.dst)
            self.emit(f"_entry = {cache}.get(id({source}))")
            self.emit(f"if _entry is not None and _entry[0] is {source}:")
            self.emit(f"    {var} = _entry[1]")
            self.emit("else:")
            self.emit(f"    {var} = _asarray({source}).astype({self.out_dtype})")
            self.emit(f"    {cache}[id({source})] = ({source}, {var})")
            return
        if opcode is VectorOpcode.STORE:
            source = self.read_register(instruction.src1)
            self.emit(f"_memory[{instruction.dst!r}] = {source}.copy()")
            return
        if opcode is VectorOpcode.ACCUM:
            image = self.image(instruction.src1)
            var = self.write_register(instruction.dst)
            self.emit(
                f"{var} = {image}.sum(axis=-1, keepdims=True).astype({self.out_dtype})"
            )
            return
        source = self.read_register(instruction.src1)
        produced = instruction.src1 in self.defined
        expression = self._UNARY_EXPRESSIONS.get(opcode)
        if expression is not None:
            var = self.write_register(instruction.dst)
            self.unary(var, source, expression, produced=produced)
            return
        try:
            ufunc = self._BINARY_UFUNCS[opcode]
        except KeyError:  # pragma: no cover - defensive
            raise ExecutionError(f"unsupported vector opcode {opcode.value}") from None
        if instruction.src2 is None:
            self.unary(
                self.write_register(instruction.dst),
                source,
                f"{ufunc}({{x}}, {{c}}, dtype=_f32).astype({{out}})",
                np.float32(instruction.immediate),
                produced=produced,
            )
            return
        # An operand's FP32 image, where one exists, spares the ufunc its
        # cast; the register itself otherwise (widening a single-read operand
        # costs more than the ufunc's own cast on decode rows).
        left = self._images.get(instruction.src1, source)
        right = self._images.get(instruction.src2, self.read_register(instruction.src2))
        var = self.write_register(instruction.dst)
        self.emit(
            f"{var} = {ufunc}({left}, {right}, dtype=_f32).astype({self.out_dtype})"
        )

    def add_dma(self, instruction: DMAInstruction) -> None:
        opcode = instruction.opcode
        if opcode is DMAOpcode.LOAD_WEIGHT:
            src = instruction.src
            if src in self.defined or src in self.loaded:
                return  # Present as a segment local: the check cannot fail.
            message = self.const(f"weight buffer {src!r} missing")
            self.emit(f"if {src!r} not in _memory and {src!r} not in _registers:")
            self.emit(f"    raise ExecutionError({message})")
            return
        if opcode in (DMAOpcode.LOAD_EMBEDDING, DMAOpcode.LOAD_BIAS):
            source = self.read_any(instruction.src)
            var = self.write_register(instruction.dst)
            self.emit(f"{var} = _asarray({source}).astype({self.out_dtype})")
            return
        if opcode is DMAOpcode.STORE_KV:
            source = self.read_register(instruction.src)
            if instruction.col_count is not None:
                start = instruction.col_offset
                stop = start + instruction.col_count
                sliced = self.temp()
                self.emit(f"{sliced} = {source}[..., {start}:{stop}]")
                source = sliced
            self.emit(f"_append_kv({instruction.dst!r}, {source})")
            return
        if opcode is DMAOpcode.STORE_OUTPUT:
            source = self.read_register(instruction.src)
            self.emit(f"_memory[{instruction.dst!r}] = {source}.copy()")
            return
        raise ExecutionError(  # pragma: no cover - defensive
            f"unsupported DMA opcode {opcode.value}"
        )

    def add_instruction(self, instruction: Instruction) -> None:
        if isinstance(instruction, MatrixInstruction):
            self.add_matrix(instruction)
        elif isinstance(instruction, VectorInstruction):
            self.add_vector(instruction)
        elif isinstance(instruction, DMAInstruction):
            self.add_dma(instruction)
        else:
            raise ExecutionError(
                f"cannot link instruction type {type(instruction).__name__}"
            )

    # ----------------------------------------------------------------- assembly
    def build(self, label: str) -> Handler:
        """Assemble, exec, and return the segment function."""
        params = "".join(f", {name}={name}" for name in self.consts)
        helpers = "".join(f", {name}={name}" for name in self._BASE_NAMESPACE)
        body_text = "\n".join(self.lines)
        header = [
            f"def _segment(core{params}{helpers}):",
            "    _registers = core.registers",
        ]
        if "_memory" in body_text:
            header.append("    _memory = core.memory")
        if "_scatter_value(" in body_text:
            header.append("    _scatter_value = core._scatter_value")
        if "_append_kv(" in body_text:
            header.append("    _append_kv = core._append_kv")
        epilogue = [
            f"    _registers[{register!r}] = {var}"
            for register, var in self.registers_vars.items()
            if register in self.defined
        ]
        source = "\n".join(header + self.lines + epilogue) or "pass"
        namespace: dict[str, object] = dict(self._BASE_NAMESPACE)
        namespace.update(self.consts)
        exec(compile(source, f"<linked:{label}>", "exec"), namespace)  # noqa: S102
        segment = namespace["_segment"]
        segment.__source__ = source  # aid debugging / inspection
        return segment


def _compile_segment(
    instructions: Sequence[Instruction], numerics: Numerics
) -> _SegmentCompiler:
    """Lower one sync-free instruction run; ``build`` returns its handler."""
    compiler = _SegmentCompiler(numerics)
    for instruction in instructions:
        compiler.add_instruction(instruction)
    return compiler


def _split_attention(
    instructions: tuple[Instruction, ...],
) -> tuple[list[Instruction], list[Instruction]]:
    """Split a sync-free run into its shared ops and its attention region.

    The region, every KV append and whatever reads the KV cache or a value
    the region computed, runs after the shared ops; that moves an append
    past later shared ops, sound only if they write nothing it uses.
    """
    tainted = {
        instruction.dst
        for instruction in instructions
        if isinstance(instruction, DMAInstruction)
        and instruction.opcode is DMAOpcode.STORE_KV
    }
    shared: list[Instruction] = []
    region: list[Instruction] = []
    used: set[str] = set()  # what the region has read or written so far
    for instruction in instructions:
        sources = set(instruction.source_operands())
        writes = set(instruction.destination_operands())
        if (writes | sources) & tainted:
            region.append(instruction)
            tainted |= writes
            used |= sources | writes
        elif writes & used:
            raise ExecutionError(f"cannot link {instruction.dst!r} before attention")
        else:
            shared.append(instruction)
    return shared, region


class LinkedSegment(NamedTuple):
    """One sync-free run of a linked program.

    ``body`` is the run's generated handler (``None`` when the run is
    empty); ``sync`` is the ring synchronization that ends it (``None``
    when none does).  On a device-stacked core the body advances every
    device at once.  An attention body runs once per past-length group
    (:meth:`BatchedFunctionalCore.run_groups`); its ``group_io`` names the
    per-stream registers it reads and those it writes that later code reads.
    """

    body: Handler | None
    sync: RouterInstruction | None
    group_io: tuple[tuple[str, ...], tuple[str, ...]] | None = None


@dataclass(frozen=True)
class LinkedProgram:
    """A program lowered to bound handlers, split at the ring syncs."""

    name: str
    segments: tuple[LinkedSegment, ...]


def link_program(program: Program, numerics: Numerics) -> LinkedProgram:
    """Lower ``program`` to a :class:`LinkedProgram` for ``numerics``.

    A run that appends to the KV cache links as its shared ops and then its
    attention body (:func:`_split_attention`).  The generated code captures
    the numerics' bound methods and tables, so a linked program serves only
    the numerics it was linked for.
    """
    segments: list[LinkedSegment] = []
    end = 0  # where the current run's sync sits in the program
    for index, run in enumerate(program.segments()):
        label = f"{program.name}#{index}"
        end += len(run.instructions)
        shared, attention = _split_attention(run.instructions)
        if shared or not attention:
            body = _compile_segment(shared, numerics).build(label) if shared else None
            segments.append(LinkedSegment(body, None if attention else run.sync))
        if attention:
            compiler = _compile_segment(attention, numerics)
            later = {
                name
                for instruction in program.instructions[end:]
                for name in instruction.source_operands()
            }
            group_io = (
                tuple(sorted(compiler.loaded)),
                tuple(sorted(compiler.defined & later)),
            )
            body = compiler.build(f"{label}.attention")
            segments.append(LinkedSegment(body, run.sync, group_io))
        end += 1
    return LinkedProgram(name=program.name, segments=tuple(segments))


class DFXFunctionalSimulator:
    """Lockstep functional simulation of a whole DFX cluster.

    Produces logits (and greedy tokens) that can be compared against the
    reference GPT-2 model built from the same weights.  Token steps run on the
    fast path: the simulator links the three programs of
    ``compile_token_step(1, 0)`` once, when it is built, and they serve
    every prefill and decode step, since every extent they use comes from
    their operands.

    The embedding and every decoder layer run on one
    :class:`BatchedFunctionalCore`, whose memory is ``_layer_memory[i]``
    (every device's shard stacked on a leading axis) while layer ``i`` runs.
    The LM head runs on one core per run of consecutive devices with equal
    vocabulary shards: one core when the vocabulary divides evenly, two when
    the last device takes a remainder.  One :class:`BatchedKVPool` serves
    every call:
    :meth:`forward` and :meth:`generate` run a decode set of one stream in
    arena slot 0, and :meth:`generate_batch` decodes many streams as one
    decode set per step, so it resets the :meth:`forward` cache.
    """

    def __init__(
        self,
        weights: GPT2Weights,
        num_devices: int = 2,
        numerics: Numerics = FP16_DFX,
    ) -> None:
        self.config: GPT2Config = weights.config
        self.numerics = numerics
        self.num_devices = num_devices
        self.plan: PartitionPlan = build_partition_plan(self.config, num_devices)
        self.compiler = DFXCompiler(self.config, self.plan, device_id=0)
        self.weights = weights.astype(numerics.dtype)
        # Persistent memory is staged in the matmul accumulation dtype.  The
        # weights were already quantized by ``weights.astype``, so the upcast
        # is exact; it hoists the per-instruction ``asarray(..., float32)``
        # out of the token loop, and the KV arenas skip the conversion of
        # their appended (already quantized) register rows the same way.
        self._staged_dtype = np.dtype(
            np.float32 if numerics.accumulate_fp32 else numerics.dtype
        )
        self._past_length = 0
        self._pool = BatchedKVPool(self._staged_dtype)

        # One device-stacked memory per decoder layer.
        self._layer_memory: list[dict[str, np.ndarray]] = [
            {} for _ in range(self.config.n_layer)
        ]
        for device_id in range(num_devices):
            device_layers = partition_model_weights(self.weights, self.plan, device_id)
            for memory, layer in zip(self._layer_memory, device_layers):
                self._stage_layer(memory, device_id, layer)
        # One core runs the embedding and every layer: its registers are
        # reused layer after layer (every program defines its registers
        # before reading them, and scatter accumulators are fully overwritten).
        self._core = BatchedFunctionalCore(numerics=numerics, kv_pool=self._pool)
        self._lm_cores = self._build_lm_cores()
        # Every program reads its extents from its operands, so one step's
        # programs serve every prompt length, past and batch size.
        step = self.compiler.compile_token_step(1, 0)
        self._embedding = link_program(step.embedding, numerics)
        self._layer = link_program(step.decoder_layer, numerics)
        self._lm_head = link_program(step.lm_head, numerics)

    # ------------------------------------------------------------------ binding
    def _stack(
        self, memory: dict[str, np.ndarray], name: str, index: int, count: int,
        shard: np.ndarray,
    ) -> None:
        """Write ``shard`` as entry ``index`` of the stacked ``memory[name]``.

        The buffer is ``(count, 1, rows, cols)`` (a 1-D bias becomes one row),
        so it broadcasts against a batch's ``(batch, rows, cols)`` registers;
        it is allocated on the first shard and filled in place after that.
        """
        stacked = memory.get(name)
        if stacked is None:
            shape = (count, 1) + np.atleast_2d(shard).shape
            stacked = memory[name] = np.empty(shape, dtype=self._staged_dtype)
        stacked[index, 0] = shard

    def _stage_layer(
        self, memory: dict[str, np.ndarray], device_id: int, layer: DeviceLayerWeights
    ) -> None:
        """Stage one device's shard of a decoder layer into its stacked memory.

        The partitioner replicates the LayerNorm parameters, so they are kept
        once, with no device axis.
        """
        qkv_dim = layer.w_qkv.shape[1] // 3
        shards = {
            "w_query": layer.w_qkv[:, 0 * qkv_dim : 1 * qkv_dim],
            "w_key": layer.w_qkv[:, 1 * qkv_dim : 2 * qkv_dim],
            "w_value": layer.w_qkv[:, 2 * qkv_dim : 3 * qkv_dim],
            "b_query": layer.b_qkv[0 * qkv_dim : 1 * qkv_dim],
            "b_key": layer.b_qkv[1 * qkv_dim : 2 * qkv_dim],
            "b_value": layer.b_qkv[2 * qkv_dim : 3 * qkv_dim],
            "w_attn_proj": layer.w_attn_proj,
            "b_attn_proj": layer.b_attn_proj,
            "w_ffn1": layer.w_ffn1,
            "b_ffn1": layer.b_ffn1,
            "w_ffn2": layer.w_ffn2,
            "b_ffn2": layer.b_ffn2,
        }
        for name, shard in shards.items():
            self._stack(memory, name, device_id, self.num_devices, shard)
        if device_id == 0:
            for name in ("ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta"):
                memory[name] = np.asarray(getattr(layer, name), dtype=self._staged_dtype)

    def _build_lm_cores(self) -> list[FunctionalCore]:
        """One LM-head core per run of consecutive equal-shaped WTE shards.

        The shards are never padded to one shape: extra columns would move
        other columns between BLAS's blocked and tail kernels and change
        their last bits.
        """
        base_rows = self.config.vocab_size // self.num_devices
        layer_norm = {
            name: np.asarray(getattr(self.weights, name), dtype=self._staged_dtype)
            for name in ("ln_f_gamma", "ln_f_beta")
        }
        cores = []
        runs = itertools.groupby(
            range(self.num_devices), key=lambda device: self.plan.device(device).vocab_rows
        )
        for rows, run in runs:
            devices = list(run)
            memory = dict(layer_norm)
            for index, device_id in enumerate(devices):
                start = device_id * base_rows
                self._stack(
                    memory, "wte_part", index, len(devices),
                    self.weights.wte[start : start + rows],
                )
            cores.append(
                FunctionalCore(numerics=self.numerics, registers={}, memory=memory)
            )
        return cores

    # ------------------------------------------------------------------- syncing
    def _run_lockstep(
        self, linked: LinkedProgram, cores: Sequence[FunctionalCore]
    ) -> None:
        """Run ``linked`` on every core, resolving syncs by all-gather.

        Each sync concatenates every core's per-device slices of the source
        register along the last axis, in device order, and hands the one
        gathered array to every core.
        """
        dtype = self.numerics.dtype
        for segment in linked.segments:
            body, sync, group_io = segment
            if body is not None:
                for core in cores:
                    if group_io is None:
                        body(core)
                    else:
                        core.run_groups(segment)
            if sync is None:
                continue
            src = sync.src
            parts = [part for core in cores for part in core._read_register(src)]
            # The concatenation is fresh and the parts already carry the
            # register dtype, so the cast can skip its defensive copy.
            gathered = np.concatenate(parts, axis=-1).astype(dtype, copy=False)
            for core in cores:
                core.registers[sync.dst] = gathered

    # ------------------------------------------------------------------- forward
    def _forward_cohort(
        self, token_ids: np.ndarray, groups: Sequence[tuple[int, int, int]]
    ) -> np.ndarray:
        """One lockstep forward over a decode set of past-length groups.

        ``token_ids`` is ``(batch, rows)``: each stream's token rows for this
        step.  ``groups`` lists ``(past, lo, hi)`` in batch order: the streams
        in arena slots ``[lo, hi)`` are the next ``hi - lo`` batch rows, all
        ``past`` positions in.  Returns the FP32 logits of every stream's
        last position, ``(batch, vocab)``.
        """
        rows = token_ids.shape[-1]
        positions = np.array(
            [range(past, past + rows) for past, lo, hi in groups for _ in range(lo, hi)]
        )

        # Token embedding (identical on every device; computed via the program).
        core = self._core
        core.memory = {
            "wte_rows": self.weights.wte[token_ids],
            "wpe_rows": self.weights.wpe[positions],
        }
        self._run_lockstep(self._embedding, (core,))

        # Decoder layers, every device at once, each from its own memory.
        core.groups = [(lo, hi) for _, lo, hi in groups]
        registers = core.registers
        for memory in self._layer_memory:
            core.memory = memory
            self._run_lockstep(self._layer, (core,))
            # No handler mutates a register array in place, so the hidden
            # state is shared by reference rather than copied.
            registers["hidden"] = registers["hidden_out"]

        # LM head on the last position only.
        cores = self._lm_cores
        last_hidden = registers["hidden"][..., -1:, :]
        for core in cores:
            core.registers["hidden_last"] = last_hidden
        self._run_lockstep(self._lm_head, cores)
        return np.asarray(cores[0].registers["logits"], dtype=np.float32)[..., 0, :]

    def _check_tokens(self, token_ids: np.ndarray, past: int) -> None:
        """Reject what :meth:`repro.model.GPT2Model.embed` rejects.

        The conditions and messages are the reference model's, so the
        engine and the reference fail alike on the same input.
        """
        if token_ids.ndim != 1:
            raise ExecutionError(f"token_ids must be 1-D, got shape {token_ids.shape}")
        if token_ids.size == 0:
            raise ExecutionError("token_ids must contain at least one token")
        check_integer_tokens(token_ids)
        # Python min/max: a decode step checks one id, where NumPy's
        # reductions cost more than the list round trip.
        ids = token_ids.tolist()
        if min(ids) < 0 or max(ids) >= self.config.vocab_size:
            raise ExecutionError("token id out of vocabulary range")
        if past + token_ids.size > self.config.n_positions:
            raise ExecutionError(
                f"sequence length {past + token_ids.size} exceeds maximum "
                f"context {self.config.n_positions}"
            )

    def _check_request(self, prompt: list[int], max_new_tokens: int, past: int) -> None:
        """Reject an unservable request before any forward runs.

        Rejects what :meth:`repro.model.TextGenerator.generate_tokens`
        rejects, for a request that starts ``past`` cached positions in.
        """
        check_number("max_new_tokens", max_new_tokens, 1, integer=True,
                     error=ExecutionError)
        tokens = np.asarray(prompt)
        self._check_tokens(tokens, past)
        total = past + tokens.size + max_new_tokens
        if total > self.config.n_positions:
            raise ExecutionError(
                f"requested sequence of {total} tokens exceeds the model's "
                f"context window of {self.config.n_positions}"
            )

    def forward(self, token_ids: np.ndarray) -> tuple[np.ndarray, int]:
        """Run one forward pass (summarization or one generation iteration).

        Returns the full-vocabulary logits of the last position and the greedy
        next-token id.  The KV cache persists across calls: the pass runs as
        a decode set of one stream in arena slot 0, whose capacity grows
        geometrically when a call outgrows it, up to the context window.
        """
        token_ids = np.asarray(token_ids)
        past = self._past_length
        self._check_tokens(token_ids, past)
        end = past + token_ids.size
        pool = self._pool
        capacity = end
        if end > pool.capacity:
            # At least doubling keeps a forward-by-forward decode without an
            # up-front reserve at amortized O(1) row copies.
            capacity = max(end, min(2 * pool.capacity, self.config.n_positions))
        pool.ensure(slots=1, capacity=capacity)
        if past == 0:
            # A batch may have left one of its streams in slot 0.
            pool.clear_slots(0, 1)
        logits = self._forward_cohort(token_ids.reshape(1, -1), ((past, 0, 1),))
        self._past_length = end
        return logits.reshape(-1), int(np.argmax(logits))

    def generate(self, input_token_ids: list[int], max_new_tokens: int) -> list[int]:
        """Greedy generation mirroring :class:`repro.model.TextGenerator`.

        The request is checked whole before the first forward, and the KV
        capacity of the whole run is reserved up front, so decode never
        regrows the arenas.
        """
        past = self._past_length
        self._check_request(input_token_ids, max_new_tokens, past)
        # The last token is never fed back, so it needs no KV row.
        self._pool.ensure(
            slots=1, capacity=past + len(input_token_ids) + max_new_tokens - 1
        )
        outputs: list[int] = []
        _, next_token = self.forward(np.asarray(input_token_ids))
        outputs.append(next_token)
        step = np.empty(1, dtype=np.int64)
        for _ in range(max_new_tokens - 1):
            step[0] = next_token
            _, next_token = self.forward(step)
            outputs.append(next_token)
        return outputs

    def reset_cache(self) -> None:
        """Clear the KV cache for a new request, keeping everything warm.

        Weights, compiled programs, linked segments, and the preallocated KV
        arenas all survive — only the logical cache length drops to zero —
        so a serving loop pays the one-time staging cost once per process,
        not once per request.
        """
        self._past_length = 0

    @property
    def kv_cache_length(self) -> int:
        """Number of token positions currently cached."""
        return self._past_length

    # ------------------------------------------------------------------ batched
    def generate_batch(
        self,
        prompts: list[list[int]],
        max_new_tokens: int | list[int],
    ) -> list[list[int]]:
        """Greedy generation of many streams, one decode set per step.

        Streams with equal prompt lengths prefill together, and each decode
        step runs every live stream as one decode set (see
        :class:`BatchedGenerationSession`).  Per-stream outputs are
        bit-identical to :meth:`generate` run stream by stream.  Every
        request is checked before the first forward, so a rejected batch
        leaves the :meth:`forward` cache as it was; an accepted one resets it.
        """
        if len(prompts) == 0:
            return []
        budgets = (
            [max_new_tokens] * len(prompts)
            if isinstance(max_new_tokens, numbers.Number)
            else list(max_new_tokens)
        )
        if len(budgets) != len(prompts):
            raise ExecutionError(
                "max_new_tokens must be an int or match the number of prompts"
            )
        for prompt, budget in zip(prompts, budgets):
            self._check_request(prompt, budget, 0)
        session = BatchedGenerationSession(self, prompts, budgets)
        while session.step():
            pass
        return [stream.outputs for stream in session.streams]

    @property
    def batched_kv_memory_bytes(self) -> int:
        """Bytes currently allocated to the KV slot arenas."""
        return self._pool.memory_bytes()


class _Stream:
    """One generation stream of a batch."""

    __slots__ = ("prompt", "remaining", "outputs")

    def __init__(self, prompt: list[int], budget: int) -> None:
        self.prompt = prompt
        self.remaining = budget
        self.outputs: list[int] = []


class _Cohort:
    """One prompt length's streams (one past-length group) in arena slots
    ``[lo, lo + len(streams))``."""

    __slots__ = ("lo", "past", "streams")

    def __init__(self, lo: int, streams: list[_Stream]) -> None:
        self.lo = lo
        self.past = 0  # cached positions: 0 until the cohort prefills
        self.streams = streams  # in slot order


class BatchedGenerationSession:
    """The state of one :meth:`DFXFunctionalSimulator.generate_batch` call.

    It is built with every prompt and budget.  Streams with equal prompt
    lengths form one cohort in their own contiguous slot range, and the
    simulator's arena pool is sized once for the whole batch, so no forward
    regrows it.  The first :meth:`step` prefills each cohort with its own
    forward, since flattening different row counts would change BLAS
    kernels.  Each later one decodes every live stream by one token in one
    decode set, in slot order, with one attention group per cohort; a
    stream whose budget is spent leaves its cohort (survivors are packed
    left).  Cohorts start at distinct prompt lengths and all advance one
    position per step, so they never share a past.  Building a session
    resets the simulator's :meth:`forward` cache, which shares the pool.
    """

    def __init__(
        self,
        simulator: DFXFunctionalSimulator,
        prompts: Sequence[list[int]],
        budgets: Sequence[int],
    ) -> None:
        self._sim = simulator
        self.streams = [
            _Stream(list(prompt), budget) for prompt, budget in zip(prompts, budgets)
        ]
        by_length: dict[int, list[_Stream]] = {}
        for stream in self.streams:
            by_length.setdefault(len(stream.prompt), []).append(stream)
        self._cohorts: list[_Cohort] = []  # in slot order
        lo = 0
        for prompt_length in sorted(by_length):
            group = by_length[prompt_length]
            self._cohorts.append(_Cohort(lo, group))
            lo += len(group)
        simulator.reset_cache()
        self._pool = simulator._pool
        self._pool.clear_all()
        self._pool.ensure(
            slots=len(self.streams),
            capacity=max(
                len(stream.prompt) + stream.remaining for stream in self.streams
            ) - 1,
        )

    @property
    def cohort_sizes(self) -> list[int]:
        """Sizes of the in-flight cohorts (slot order); for tests/metrics."""
        return [len(cohort.streams) for cohort in self._cohorts]

    def step(self) -> bool:
        """Prefill every cohort on the first call, then decode one decode set.

        Returns ``True`` while any stream has tokens left to generate.
        """
        cohorts = list(self._cohorts)
        if not cohorts:
            return False
        for decode_set in [[c] for c in cohorts] if cohorts[0].past == 0 else [cohorts]:
            rows = [
                stream.prompt if cohort.past == 0 else [stream.outputs[-1]]
                for cohort in decode_set
                for stream in cohort.streams
            ]
            logits = self._sim._forward_cohort(
                np.asarray(rows, dtype=np.int64),
                [(c.past, c.lo, c.lo + len(c.streams)) for c in decode_set],
            )
            start = 0
            for cohort in decode_set:
                stop = start + len(cohort.streams)
                cohort.past += len(rows[start])
                self._record_tokens(cohort, logits[start:stop])
                start = stop
        return bool(self._cohorts)

    def _record_tokens(self, cohort: _Cohort, logits: np.ndarray) -> None:
        """Record each stream's greedy token, then process departures."""
        for stream, token in zip(cohort.streams, np.argmax(logits, axis=-1).tolist()):
            stream.outputs.append(token)
            stream.remaining -= 1
        survivors = [stream for stream in cohort.streams if stream.remaining > 0]
        if not survivors:
            self._cohorts.remove(cohort)
        elif len(survivors) < len(cohort.streams):
            # Pack survivors left within the cohort's range: each copy moves
            # a slot to a lower, already vacated index.
            write = cohort.lo
            for slot, stream in enumerate(cohort.streams, start=cohort.lo):
                if stream.remaining > 0:
                    if slot != write:
                        self._pool.move_slot(write, slot)
                    write += 1
            cohort.streams = survivors
