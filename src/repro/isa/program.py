"""Program container: an ordered list of DFX instructions plus metadata.

Besides the raw instruction list, a :class:`Program` exposes a *segmented*
view (:meth:`Program.segments`): the instruction stream split at each router
synchronization, which the linker lowers one segment at a time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from repro.isa.instructions import (
    Instruction,
    MatrixInstruction,
    RouterInstruction,
)
from repro.isa.opcodes import InstructionClass


class ProgramSegment(NamedTuple):
    """A run of non-router instructions ending at ``sync`` (or program end).

    Unpacks as ``(instructions, sync)``; ``sync`` is ``None`` only for the
    final segment of a program that does not end with a synchronization.
    """

    instructions: tuple[Instruction, ...]
    sync: RouterInstruction | None


@dataclass
class Program:
    """An ordered sequence of instructions for one device.

    Attributes:
        name: Human-readable label, e.g. ``"decoder-layer[rows=1,past=64]"``.
        instructions: The instruction list, in program order.
        inputs: Buffer names expected to be live before execution.
        outputs: Buffer names holding the program's results.
    """

    name: str
    instructions: list[Instruction] = field(default_factory=list)
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()

    # ----------------------------------------------------------------- basics
    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def append(self, instruction: Instruction) -> None:
        """Append one instruction."""
        self.instructions.append(instruction)

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Append several instructions."""
        self.instructions.extend(instructions)

    # ------------------------------------------------------------------ views
    def segments(self) -> tuple[ProgramSegment, ...]:
        """The program split at router syncs.

        Each :class:`ProgramSegment` holds the instructions preceding one
        synchronization plus that sync; the final segment's ``sync`` is
        ``None`` when the program does not end with a router instruction.
        """
        segments: list[ProgramSegment] = []
        current: list[Instruction] = []
        for instruction in self.instructions:
            if isinstance(instruction, RouterInstruction):
                segments.append(ProgramSegment(tuple(current), instruction))
                current = []
            else:
                current.append(instruction)
        segments.append(ProgramSegment(tuple(current), None))
        return tuple(segments)

    def matrix_instructions(self) -> list[MatrixInstruction]:
        """All matrix-unit instructions, in order."""
        return [i for i in self.instructions if isinstance(i, MatrixInstruction)]

    def router_instructions(self) -> list[RouterInstruction]:
        """All router (synchronization) instructions, in order."""
        return [i for i in self.instructions if isinstance(i, RouterInstruction)]

    # ------------------------------------------------------------------ stats
    def instruction_class_counts(self) -> dict[InstructionClass, int]:
        """Instruction count per class."""
        return dict(Counter(i.instruction_class for i in self.instructions))

    def tag_counts(self) -> dict[str, int]:
        """Instruction count per phase tag."""
        return dict(Counter(i.tag for i in self.instructions))

    def total_flops(self) -> float:
        """Total floating-point operations performed by the program."""
        return float(sum(i.flops() for i in self.instructions))

    def total_weight_bytes(self) -> int:
        """Bytes of matrix weights streamed from memory by the program."""
        return sum(i.weight_bytes() for i in self.matrix_instructions())

    def sync_count(self) -> int:
        """Number of ring synchronizations in the program."""
        return len(self.router_instructions())

    def summary(self) -> str:
        """One-line summary used in logs and example output."""
        counts = self.instruction_class_counts()
        parts = ", ".join(
            f"{klass.value}={count}" for klass, count in sorted(counts.items(), key=lambda kv: kv[0].value)
        )
        return (
            f"{self.name}: {len(self.instructions)} instructions "
            f"({parts}), {self.total_flops() / 1e6:.2f} MFLOP"
        )
