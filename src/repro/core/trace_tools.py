"""Inspection tools for instruction-level timing traces.

The timing scheduler can keep a per-instruction trace (start/finish cycle and
unit).  These helpers turn that trace into the artifacts a hardware architect
actually looks at: per-unit occupancy, idle gaps, a text Gantt chart of the
first N instructions, and the phases on the critical path.  They are used by
the debugging example and by tests that pin down overlap behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scheduler import ProgramTiming
from repro.errors import ConfigurationError, check_number


@dataclass(frozen=True)
class UnitOccupancy:
    """Occupancy summary of one functional unit over a program."""

    unit: str
    busy_cycles: float
    instruction_count: int
    total_cycles: float

    @property
    def utilization(self) -> float:
        """Busy cycles over the program's critical-path cycles."""
        if self.total_cycles <= 0:
            return 0.0
        return self.busy_cycles / self.total_cycles


def unit_occupancies(timing: ProgramTiming) -> list[UnitOccupancy]:
    """Per-unit busy time for a timing result that kept traces."""
    if not timing.traces:
        raise ConfigurationError(
            "timing was produced without keep_traces=True; re-run "
            "TimingScheduler.time_program(program, keep_traces=True)"
        )
    busy: dict[str, float] = {}
    counts: dict[str, int] = {}
    for trace in timing.traces:
        busy[trace.unit] = busy.get(trace.unit, 0.0) + trace.occupancy_cycles
        counts[trace.unit] = counts.get(trace.unit, 0) + 1
    return [
        UnitOccupancy(
            unit=unit,
            busy_cycles=busy[unit],
            instruction_count=counts[unit],
            total_cycles=timing.total_cycles,
        )
        for unit in sorted(busy)
    ]


def idle_gaps(timing: ProgramTiming, unit: str) -> list[tuple[float, float]]:
    """Intervals (in cycles) during which ``unit`` sits idle between instructions."""
    traces = [trace for trace in timing.traces if trace.unit == unit]
    if not traces:
        return []
    traces.sort(key=lambda trace: trace.start_cycle)
    gaps: list[tuple[float, float]] = []
    previous_end = traces[0].finish_cycle
    for trace in traces[1:]:
        if trace.start_cycle > previous_end + 1e-9:
            gaps.append((previous_end, trace.start_cycle))
        previous_end = max(previous_end, trace.finish_cycle)
    return gaps


def render_gantt(
    timing: ProgramTiming,
    max_instructions: int = 40,
    width: int = 72,
) -> str:
    """Render a text Gantt chart of the first ``max_instructions`` instructions.

    Each row is one instruction: its unit, phase tag, and a bar spanning its
    start/finish cycles scaled to ``width`` characters.
    """
    if not timing.traces:
        raise ConfigurationError("timing has no traces; re-run with keep_traces=True")
    check_number("max_instructions", max_instructions, 1, integer=True)
    check_number("width", width, 1, integer=True)
    window = timing.traces[:max_instructions]
    horizon = max(trace.finish_cycle for trace in window)
    if horizon <= 0:
        horizon = 1.0
    lines = [f"{'idx':>4s} {'unit':>7s} {'phase':>24s}  timeline (0 .. {horizon:.0f} cycles)"]
    for trace in window:
        start_col = int(trace.start_cycle / horizon * (width - 1))
        end_col = max(start_col + 1, int(trace.finish_cycle / horizon * (width - 1)))
        bar = " " * start_col + "#" * (end_col - start_col)
        lines.append(f"{trace.index:>4d} {trace.unit:>7s} {trace.tag:>24s}  |{bar:<{width}s}|")
    return "\n".join(lines)


def critical_path_phases(timing: ProgramTiming, top: int = 3) -> list[tuple[str, float]]:
    """Phases ranked by their share of occupancy cycles (largest first)."""
    check_number("top", top, 1, integer=True)
    ranked = sorted(timing.cycles_by_tag.items(), key=lambda item: -item[1])
    total = sum(timing.cycles_by_tag.values()) or 1.0
    return [(tag, cycles / total) for tag, cycles in ranked[:top]]


def overlap_efficiency(timing: ProgramTiming) -> float:
    """How much unit-level parallelism the schedule achieved.

    Ratio of summed per-unit busy cycles to the critical-path cycles: ~1.0
    means essentially serial execution (it can dip slightly below 1.0 because
    the critical path also includes pipeline-drain latency after the last
    instruction), while values above 1.0 mean the DMA/router/VPU overlapped
    with the MPU — the paper's instruction chaining at work.
    """
    busy = sum(timing.cycles_by_unit.values())
    if timing.total_cycles <= 0:
        return 0.0
    return busy / timing.total_cycles
