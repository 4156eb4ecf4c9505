"""Per-layer tracing from outside the program.

The benchmark wraps public functions of the program's modules at run time
and restores them afterwards; the program itself carries no tracing code.
Two kinds of wrapper exist:

* **span** wrappers, for calls that happen at most a few thousand times a
  run (engine forwards, compiles, links, serves).  Each call becomes one
  in-memory span ``(group, request, parent, start_ns, end_ns, detail)``;
  ``parent`` is the index of the enclosing span and ``request`` the id the
  benchmark set before the operation, so the spans of one request share it.
* **aggregate** wrappers, for the per-event seams of the serving loop
  (a million calls a run).  They only bump a call counter and, for timed
  seams, add the wall time of the outermost call of their group, so peak
  memory is not distorted by span storage.

A group's time counts only calls not nested in another call of the same
group (``select_batch`` calling ``select`` is timed once); calls nested in
*other* groups are counted in both, so group times are inclusive.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field


class _Cell:
    """Counters of one aggregate group."""

    __slots__ = ("calls", "ns", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.ns = 0
        self.depth = 0


@dataclass
class Tracer:
    """Spans and aggregate counters of one traced run."""

    spans: list = field(default_factory=list)
    cells: dict[str, _Cell] = field(default_factory=dict)
    #: Request id stamped on every span opened from now on.
    request: int = -1
    _stack: list[int] = field(default_factory=list)

    def cell(self, group: str) -> _Cell:
        if group not in self.cells:
            self.cells[group] = _Cell()
        return self.cells[group]

    # ---------------------------------------------------------------- wrappers
    def span(self, group: str, func, detail=None):
        """Wrap ``func`` so each call records one span.

        ``detail(args, result)`` (optional) is evaluated after the call and
        stored on the span, e.g. the row count of a forward.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    group, self.request, parent, start, end,
                    detail(args, result) if detail is not None else None,
                )

        return wrapper

    def aggregate(self, group: str, func, timed: bool = True):
        """Wrap ``func`` so each call bumps ``group``'s counters."""
        cell = self.cell(group)
        clock = time.perf_counter_ns

        if not timed:
            def counter(*args, **kwargs):
                cell.calls += 1
                return func(*args, **kwargs)

            return counter

        def wrapper(*args, **kwargs):
            cell.calls += 1
            if cell.depth:
                return func(*args, **kwargs)
            cell.depth = 1
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                cell.ns += clock() - start
                cell.depth = 0

        return wrapper

    # ----------------------------------------------------------------- reading
    def span_rows(self, group: str) -> list[tuple]:
        """Spans of ``group`` not nested in another span of the same group."""
        spans = self.spans
        rows = []
        for row in spans:
            if row[0] != group:
                continue
            parent = row[2]
            while parent >= 0 and spans[parent][0] != group:
                parent = spans[parent][2]
            if parent < 0:
                rows.append(row)
        return rows

    def span_count(self, group: str) -> int:
        """Every call of ``group``, nested ones included."""
        return sum(1 for row in self.spans if row[0] == group)

    def span_seconds(self, group: str) -> float:
        """Wall seconds of ``group``'s outermost calls."""
        return sum(row[4] - row[3] for row in self.span_rows(group)) / 1e9

    def calls(self, group: str) -> int:
        cell = self.cells.get(group)
        return cell.calls if cell is not None else 0

    def seconds(self, group: str) -> float:
        cell = self.cells.get(group)
        return cell.ns / 1e9 if cell is not None else 0.0

    def dump(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "span_fields": ["group", "request", "parent", "start_ns", "end_ns",
                            "detail"],
            "spans": self.spans,
            "aggregates": {
                group: {"calls": cell.calls, "seconds": cell.ns / 1e9}
                for group, cell in sorted(self.cells.items())
            },
        }


def _rows(args, result) -> int:
    """Row count of a ``forward(token_ids)`` call."""
    return len(args[1])


def _cohorts(args, result):
    """Cohorts in flight after a batch step (``None`` once it finished)."""
    return len(args[0].cohort_sizes) if result else None


#: Span-wrapped functions: (module, class or None, attribute, group, detail).
SPAN_TARGETS = (
    ("repro.runtime", "DFXRuntime", "generate", "runtime.generate", None),
    ("repro.runtime", "DFXRuntime", "generate_batch", "runtime.generate_batch",
     None),
    ("repro.core.functional", "DFXFunctionalSimulator", "__init__",
     "runtime.simulator_build", None),
    ("repro.core.functional", "DFXFunctionalSimulator", "forward",
     "core.functional.forward", _rows),
    ("repro.core.functional", "BatchedGenerationSession", "step",
     "core.functional.batch_step", _cohorts),
    ("repro.core.functional", None, "link_program", "core.functional.link",
     None),
    *(
        ("repro.isa.compiler", "DFXCompiler", name, "isa.compiler.compile",
         None)
        for name in (
            "compile_embedding", "compile_decoder_layer", "compile_decoder_step",
            "compile_batched_decoder_step", "compile_lm_head",
            "compile_batched_lm_head", "compile_token_step",
        )
    ),
    ("repro.core.appliance", "DFXAppliance", "run", "core.appliance.timing",
     None),
    ("repro.core.appliance", "DFXAppliance", "batched_request_seconds",
     "core.appliance.timing", None),
    ("repro.model.generation", "TextGenerator", "generate_tokens",
     "model.reference", None),
    ("repro.serving.requests", None, "replay_trace", "requests.replay", None),
    ("repro.serving.server", "ApplianceServer", "serve", "serving.serve", None),
    ("repro.serving.fleet", "ApplianceFleet", "serve", "serving.serve", None),
)

#: Aggregate-wrapped per-event seams: (module, class, attribute, group, timed).
AGGREGATE_TARGETS = (
    ("repro.serving.server", "LatencyOracle", "service_time_s", "server.price",
     True),
    ("repro.serving.server", "LatencyOracle", "result_for", "server.price",
     True),
    ("repro.serving.simulator", "ServerUnit", "service_time_s",
     "simulator.estimate", False),
    ("repro.serving.simulator", "ServerUnit", "transfer_time_s",
     "network.transfer", False),
    *(
        ("repro.serving.batching", "BackendBatchCostModel", name,
         "batching.price", True)
        for name in (
            "batch_latency_s", "batch_energy_joules", "continuous_latency_s",
            "continuous_energy_joules",
        )
    ),
    ("repro.serving.calendar", "CalendarQueue", "push", "calendar.push", True),
    ("repro.serving.calendar", "CalendarQueue", "pop", "calendar.pop", True),
    *(
        ("repro.serving.server", "ReportAccumulator", name, "server.seal", True)
        for name in ("seal_dispatch", "seal_abandoned", "seal_failed",
                     "seal_failover")
    ),
    ("repro.serving.stats", "QuantileSketch", "add", "stats.sketch_add", True),
)

#: Scheduler entry points, wrapped on every policy class that defines them.
SCHEDULER_METHODS = ("select", "select_batch", "infeasible")


def _subclasses(cls) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class Installation:
    """Wrappers installed into the program's modules; ``restore`` undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        for module_name, class_name, attribute, group, detail in SPAN_TARGETS:
            owner = self._owner(module_name, class_name)
            self._replace(owner, attribute,
                          lambda f, g=group, d=detail: tracer.span(g, f, d))
        for module_name, class_name, attribute, group, timed in AGGREGATE_TARGETS:
            owner = self._owner(module_name, class_name)
            self._replace(owner, attribute,
                          lambda f, g=group, t=timed: tracer.aggregate(g, f, t))
        schedulers = importlib.import_module("repro.serving.schedulers")
        for cls in _subclasses(schedulers.SchedulingPolicy):
            for attribute in SCHEDULER_METHODS:
                if attribute in vars(cls):
                    self._replace(
                        cls, attribute,
                        lambda f: tracer.aggregate("schedulers.select", f),
                    )

    @staticmethod
    def _owner(module_name: str, class_name: str | None):
        module = importlib.import_module(module_name)
        return module if class_name is None else getattr(module, class_name)

    def _replace(self, owner, attribute: str, make_wrapper) -> None:
        original = vars(owner)[attribute]
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make_wrapper(original))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()
