"""The four benchmark workloads: set-up, one timed pass, checks and metrics.

Each workload object is built once per process (the set-up: weights,
runtime, backends, fleet, inputs and warm-up) and then runs timed passes.
A pass is a fixed, seeded amount of work, so every simulated number is a
pure function of the seed; host wall times are measured around the calls
into the program only, with tracing off unless a tracer is installed.

Host speed on a shared machine changes by tens of percent between phases
of seconds to minutes, so host times are scaled to a reference host speed
(``HostSpeed``), and host metrics are the median of many samples of equal
work: per unit of prompts or per batch call on the engine workloads, per
repeated serve of the same stream on the serve workloads.

Every metric is labelled **host** (wall time of the simulator) or
**simulated** (what the modelled DFX or fleet would take); see DESIGN.md.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from repro.core.appliance import DFXAppliance
from repro.isa.compiler import DFXCompiler
from repro.model.config import GPT2_TEST_SMALL
from repro.model.generation import TextGenerator
from repro.model.gpt2 import GPT2Model
from repro.model.numerics import FP16_DFX
from repro.model.weights import generate_weights
from repro.parallel.partitioner import build_partition_plan
from repro.runtime import DFXRuntime
from repro.serving import requests as serving_requests
from repro.serving.faults import FaultSchedule, RetryPolicy
from repro.serving.fleet import ApplianceFleet, FleetMember
from repro.serving.network import NetworkLink, NetworkModel
from repro.serving.requests import ServiceRequest
from repro.serving.server import ApplianceServer
from repro.workloads import Workload

CONFIG = GPT2_TEST_SMALL
NUM_DEVICES = 4
WEIGHT_SEED = 0


@dataclass
class PassResult:
    """What one timed pass produced."""

    #: Operations attempted and failed (exception or wrong output).
    attempted: int
    failed: int
    #: End-to-end metric values by name.
    metrics: dict[str, float]
    #: Simulated statistics and counts that form the digest.
    simulated: dict[str, object]
    #: Seconds of the timed calls at the reference host speed (tracing
    #: overhead compares these).
    wall_s: float
    #: Requests the pass offered (per-request layer ratios divide by it).
    requests: int
    errors: list[str] = field(default_factory=list)
    #: Accepted deviations worth seeing, such as near-tie divergences.
    notes: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        blob = json.dumps(self.simulated, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _failure(errors: list[str], what: str) -> None:
    """Record one failed operation with its traceback (on stderr)."""
    errors.append(what)
    print(f"FAILED {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (0 for no values)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


# --------------------------------------------------------------- host speed
#: Wall seconds of one ``calibration_kernel`` call at the reference host
#: speed.  Host times are reported as if the host ran the kernel in this
#: time.  Any fixed value would do; this one is about what the kernel
#: takes on a quiet 2-vCPU Xeon host, so scaled rates read like rates
#: measured there.
CALIBRATION_REFERENCE_S = 0.034
#: A stretch is steady when the kernel timings on either side of it differ
#: by at most this share of their mean.  The host's phases differ by 1.4x
#: or more, so a phase change inside a stretch shows.  Within a run, the
#: samples of steady stretches spread by a fifth to a third less than all
#: samples (``generate`` and reference calls, serve rounds).
STEADY_SHARE = 0.1

_CALIBRATION_MATRIX = (
    np.linspace(-1.0, 1.0, 64 * 64, dtype=np.float32).reshape(64, 64)
    .astype(np.float16)
)
_CALIBRATION_VECTOR = np.linspace(-1.0, 1.0, 256, dtype=np.float16)


class _Event:
    __slots__ = ("time_s", "kind", "value")

    def __init__(self, time_s: float, kind: int, value: int) -> None:
        self.time_s = time_s
        self.kind = kind
        self.value = value


def calibration_kernel(rounds: int = 500, events: int = 9000) -> float:
    """Fixed work that calls nothing of the program.

    It has two parts, one like each simulator: small FP16 NumPy calls with
    dict and list work between them, as in the functional engine, and a
    heap of event objects with per-kind accounting, as in the serving
    loop.  Between the fast and slow phases of a 2-vCPU host the first
    part stretched by about 1.36x, the second by 1.74x, and the engine and
    serve samples by 1.42-1.51x.  With the second part at a third of the
    kernel's time, the scaled samples of every workload moved by at most
    5% between the phases (by up to 10% at half the time, 12% without the
    second part).
    """
    vector = _CALIBRATION_VECTOR
    picked = 0
    for i in range(rounds):
        product = (_CALIBRATION_MATRIX @ vector[:64]).astype(np.float16)
        product = np.maximum(product, np.float16(0)) * np.float16(0.5)
        vector = (np.concatenate([product, vector[64:]]) if i % 2
                  else np.tanh(vector))
        table = {(i, j): j * i + k for k, j in enumerate(range(40))}
        picked += len([key for key in table if key[1] % 3 == 0])
    heap: list[tuple[float, int, _Event]] = []
    totals: dict[int, float] = {}
    now = 0.0
    for i in range(events):
        now += (i * 7919 % 101) / 100.0
        heapq.heappush(heap, (now + (i % 13) * 0.5, i, _Event(now, i % 5, i)))
        if len(heap) > 64:
            _, _, event = heapq.heappop(heap)
            totals[event.kind] = (totals.get(event.kind, 0.0)
                                  + event.time_s * 0.5 - event.value)
    return picked + sum(totals.values())


class HostSpeed:
    """Scales host wall times to the reference host speed.

    This shared host changes speed by up to 1.8x between phases of seconds
    to minutes, long enough to cover whole runs.  Timed work is cut into
    stretches of at least ``stretch_s`` seconds, and ``calibration_kernel``
    runs before and after each stretch.  The wall times measured in a
    stretch are scaled by ``CALIBRATION_REFERENCE_S`` over the mean of
    those two timings.  A phase stretches the work and the kernel alike
    and cancels out; a change to the program stretches the work alone.
    Short stretches keep phase changes inside a stretch rare, and a sample
    whose stretch met one is left out where enough others did not
    (``steady_median``).
    """

    def __init__(self, stretch_s: float = 0.0) -> None:
        self.stretch_s = stretch_s
        #: Reference seconds per wall second, by closed stretch.
        self.factors: list[float] = []
        #: Whether the kernel timings on either side of each closed stretch
        #: agree, so that the host most likely kept its speed through it.
        self.steady: list[bool] = []
        #: Every kernel timing, in order.
        self.timings: list[float] = []
        self._last = self._calibrate()
        self._begin = time.perf_counter()

    @staticmethod
    def _kernel_seconds() -> float:
        begin = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - begin

    def _calibrate(self) -> float:
        seconds = self._kernel_seconds()
        self.timings.append(seconds)
        return seconds

    def mark(self) -> int:
        """The stretch of the sample that just ended.

        Closes the stretch once it has lasted ``stretch_s``.
        """
        stretch = len(self.factors)
        if time.perf_counter() - self._begin >= self.stretch_s:
            self.close()
        return stretch

    def close(self) -> None:
        """End the open stretch and calibrate."""
        before, self._last = self._last, self._calibrate()
        mean = (before + self._last) / 2.0
        self.factors.append(CALIBRATION_REFERENCE_S / mean)
        self.steady.append(abs(before - self._last) <= STEADY_SHARE * mean)
        self._begin = time.perf_counter()

    def scaled(self, seconds: float, stretch: int) -> float:
        """``seconds`` measured in ``stretch``, at the reference speed."""
        if stretch == len(self.factors):
            self.close()
        return seconds * self.factors[stretch]

    def note(self) -> str:
        """One line on the host speed this pass met."""
        timings = sorted(self.timings)
        return (f"host speed: calibration kernel {1e3 * timings[0]:.1f}-"
                f"{1e3 * timings[-1]:.1f} ms, median "
                f"{1e3 * timings[len(timings) // 2]:.1f} ms, reference "
                f"{1e3 * CALIBRATION_REFERENCE_S:.1f} ms")

    @classmethod
    def scale_past(cls, seconds: float, calibrations: int = 5) -> float:
        """``seconds`` that just ended, scaled by the median of fresh timings."""
        timings = sorted(cls._kernel_seconds() for _ in range(calibrations))
        return seconds * CALIBRATION_REFERENCE_S / timings[calibrations // 2]


def steady_median(samples: list[tuple[float, bool]]) -> float:
    """Median of the values measured in steady stretches.

    ``samples`` are ``(value, steady)`` pairs.  Where fewer than a third of
    them, or none, are steady, the median of all of them.
    """
    steady = [value for value, is_steady in samples if is_steady]
    if not steady or 3 * len(steady) < len(samples):
        steady = [value for value, _ in samples]
    return percentile(steady, 50)


def _token_digest(streams: list[list[int]]) -> str:
    return hashlib.sha256(json.dumps(streams).encode()).hexdigest()[:16]


def _near_tie(model: GPT2Model, prompt: list[int], ours: list[int],
              theirs: list[int]) -> bool:
    """Whether two token streams first part where the reference nearly ties.

    The functional engine's FP16 logits can differ from the reference's by
    one unit in the last place, so where the reference's logits of the two
    tokens are that close, greedy decoding may pick either one and the
    streams part from there on.
    """
    for step, (mine, expected) in enumerate(zip(ours, theirs)):
        if mine != expected:
            break
    else:
        return False
    # Replay the reference's own steps: prefill, then one token at a time.
    cache = model.new_cache(capacity=len(prompt) + step)
    forward = model.forward(np.asarray(prompt), cache)
    for token in theirs[:step]:
        forward = model.forward(np.asarray([token]), cache)
    logits = forward.logits[-1]
    gap = float(logits[expected]) - float(logits[mine])
    return 0.0 <= gap <= float(np.spacing(logits[expected]))


# ------------------------------------------------------------------ engine
class EngineWorkload:
    """``generate`` and ``summarize``: the functional engine on test-small.

    Each prompt goes once through ``DFXRuntime.generate`` and once through
    the reference ``TextGenerator``, which is the correctness oracle.  Each
    group of ``batch`` prompts goes ``batch_calls`` times through one
    ``DFXRuntime.generate_batch`` call.

    ``request_p50_ms`` and ``request_p90_ms`` are simulated DFX latencies
    per request: a percentile of host call times moves with the host's slow
    spells by more than any bound the benchmark could hold.
    """

    #: Shortest stretch of calls between calibrations: one call on
    #: ``generate``, a few on ``summarize``.
    STRETCH_S = 0.5

    def __init__(self, engine_inputs: inputs.EngineInputs, batch: int,
                 batch_calls: int = 1) -> None:
        self.inputs = engine_inputs
        self.batch = batch
        self.batch_calls = batch_calls
        self.weights = generate_weights(CONFIG, seed=WEIGHT_SEED)
        # One timing model shared by every pass: its per-position program
        # caches are process state a long-running runtime keeps warm.
        self.appliance = DFXAppliance(CONFIG, num_devices=NUM_DEVICES,
                                      check_capacity=False)
        self.reference = TextGenerator(GPT2Model(self.weights, numerics=FP16_DFX))

    def runtime(self) -> DFXRuntime:
        """A fresh runtime (cold batched engine) on the shared timing model."""
        runtime = DFXRuntime(CONFIG, num_devices=NUM_DEVICES, weights=self.weights)
        runtime.appliance = self.appliance
        return runtime

    def groups(self) -> list[range]:
        """The prompts of each ``generate_batch`` call."""
        count = len(self.inputs.prompts)
        return [range(first, min(first + self.batch, count))
                for first in range(0, count, self.batch)]

    def warm_up(self) -> None:
        """Fill the timing model's caches for every shape a pass prices."""
        prompts, budgets = self.inputs.prompts, self.inputs.new_tokens
        longest = max(len(p) + n for p, n in zip(prompts, budgets))
        self.appliance.run(Workload(longest - 1, 1))
        for group in self.groups():
            self.appliance.batched_request_seconds(
                Workload(max(len(prompts[i]) for i in group),
                         max(budgets[i] for i in group)),
                len(group),
            )
        runtime = self.runtime()
        runtime.generate(list(prompts[0]), 2)
        runtime.generate_batch([list(prompts[0])], 2)
        self.reference.generate_tokens(list(prompts[0]), 2)

    def run_pass(self, tracer=None) -> PassResult:
        """Run every prompt through all three paths, interleaved.

        Each prompt goes through ``generate`` and then the reference; a
        group's ``generate_batch`` calls are spread evenly among its
        prompts.  So every kind of call is spread over the whole pass.

        Each host rate is the median of its samples, every one the same
        work: one unit of prompts (``EngineInputs.unit``) for ``generate``
        and the reference, and one call for ``generate_batch``.  Call times
        are scaled to the reference host speed (``HostSpeed``) in
        stretches of at least ``STRETCH_S``.
        """
        prompts = [list(p) for p in self.inputs.prompts]
        budgets = list(self.inputs.new_tokens)
        count = len(prompts)
        runtime = self.runtime()
        speed = HostSpeed(self.STRETCH_S)
        errors: list[str] = []
        singles: list[list[int] | None] = [None] * count
        reference: list[list[int] | None] = [None] * count
        #: Wall seconds and stretch of each call.
        single_s = [(0.0, 0)] * count
        reference_s = [(0.0, 0)] * count
        timings: list[float] = []
        #: Each ``generate_batch`` call: its group, result, wall seconds
        #: and stretch.
        batch_runs: list[tuple[range, object, tuple[float, int]]] = []

        def timed(what: str, request: int, func, *args):
            """``func(*args)``, its wall time and stretch; ``None`` if it raised."""
            if tracer is not None:
                tracer.request = request
            begin = time.perf_counter()
            try:
                result = func(*args)
            except Exception:
                _failure(errors, what)
                return None, (0.0, 0)
            seconds = time.perf_counter() - begin
            return result, (seconds, speed.mark())

        for group in self.groups():
            size = len(group)
            for done, i in enumerate(group, 1):
                generation, seconds = timed(f"generate prompt {i}", i,
                                            runtime.generate, prompts[i], budgets[i])
                if generation is not None:
                    singles[i] = generation.output_token_ids
                    single_s[i] = seconds
                    timings.append(generation.timing.latency_s)
                oracle, seconds = timed(f"reference prompt {i}", 2 * count + i,
                                        self.reference.generate_tokens,
                                        prompts[i], budgets[i])
                if oracle is not None:
                    reference[i] = oracle.output_token_ids
                    reference_s[i] = seconds
                calls = (done * self.batch_calls // size
                         - (done - 1) * self.batch_calls // size)
                for _ in range(calls):
                    result, seconds = timed(
                        f"generate_batch prompts {group.start}-{group.stop - 1}",
                        count + group.start, runtime.generate_batch,
                        [prompts[j] for j in group], [budgets[j] for j in group],
                    )
                    batch_runs.append((group, result, seconds))
        single_k = [stretch for _, stretch in single_s]
        reference_k = [stretch for _, stretch in reference_s]
        single_s = [speed.scaled(*sample) for sample in single_s]
        reference_s = [speed.scaled(*sample) for sample in reference_s]
        batch_runs = [(group, result, speed.scaled(*sample), sample[1])
                      for group, result, sample in batch_runs]
        #: Scaled seconds of every call (tracing overhead compares them).
        wall_s = (sum(single_s) + sum(reference_s)
                  + sum(seconds for _, _, seconds, _ in batch_runs))

        # Checks, one per operation that returned: single == reference
        # greedy tokens (up to a near-tie), and every stream of a batch call
        # == its single stream.  A call that raised already counts in errors.
        failed = len(errors)
        notes: list[str] = []
        for i in range(count):
            single, oracle = singles[i], reference[i]
            if single is None or oracle is None or single == oracle:
                continue
            if _near_tie(self.reference.model, prompts[i], single, oracle):
                notes.append(f"prompt {i}: functional tokens part from the "
                             f"reference at a one-ulp FP16 near-tie")
            else:
                failed += 1
                errors.append(f"prompt {i}: functional tokens != reference")
        batched: list[list[int]] = []
        batch_seconds = 0.0
        for group, result, _, _ in batch_runs:
            if result is None:
                continue
            batch_seconds += result.latency_s
            batched.extend(result.output_token_ids)
            if any(singles[i] is not None and stream != singles[i]
                   for i, stream in zip(group, result.output_token_ids)):
                failed += 1
                errors.append(f"generate_batch prompts {group.start}-"
                              f"{group.stop - 1}: a stream != its single stream")

        def unit_rates(streams, seconds, stretches) -> list[tuple[float, bool]]:
            """Tokens per second of each whole unit of prompts, and whether
            every call of the unit ran in a steady stretch."""
            unit = self.inputs.unit
            rates = []
            for first in range(0, count, unit):
                members = range(first, min(first + unit, count))
                if all(streams[i] is not None for i in members):
                    rates.append((
                        sum(len(streams[i]) for i in members)
                        / sum(seconds[i] for i in members),
                        all(speed.steady[stretches[i]] for i in members),
                    ))
            return rates

        completed = len(timings)
        dfx_ms = 1e3 * (sum(timings) + batch_seconds)
        sim_p99_s = percentile(timings, 99)
        metrics = {
            "tok_s": steady_median(unit_rates(singles, single_s, single_k)),
            "batch_tok_s": steady_median([
                (result.total_output_tokens / seconds, speed.steady[stretch])
                for _, result, seconds, stretch in batch_runs
                if result is not None
            ]),
            "ref_tok_s": steady_median(
                unit_rates(reference, reference_s, reference_k)),
            "request_p50_ms": 1e3 * percentile(timings, 50),
            "request_p90_ms": 1e3 * percentile(timings, 90),
            "dfx_ms": dfx_ms,
            "served_per_s": completed / sum(timings) if timings else 0.0,
            "sim_p99_s": sim_p99_s,
            "sim_goodput": completed / count,
        }
        simulated = {
            "dfx_ms": repr(dfx_ms),
            "sim_p99_s": repr(sim_p99_s),
            "sim_goodput": repr(completed / count),
            "completed": completed,
            "failed": count - completed,
            "retries": 0,
            "near_ties": len(notes),
            "tokens": _token_digest([s or [] for s in singles] + batched),
        }
        return PassResult(
            attempted=2 * count + len(batch_runs),
            failed=failed,
            metrics=metrics,
            simulated=simulated,
            wall_s=wall_s,
            requests=count,
            errors=errors,
            notes=notes + [speed.note()],
        )

    def instructions_per_decode_step(self) -> int:
        """Instructions every core runs for one single-row forward.

        The embedding program runs on one core; the decoder-step program
        (once per layer) and the LM head run on every device.
        """
        compiler = DFXCompiler(CONFIG, build_partition_plan(CONFIG, NUM_DEVICES))
        layer = len(compiler.compile_decoder_step().instructions)
        head = len(compiler.compile_lm_head().instructions)
        embedding = len(compiler.compile_embedding(1).instructions)
        return embedding + NUM_DEVICES * (CONFIG.n_layer * layer + head)


# ------------------------------------------------------------------ serving
def _report_queries(report, dfx_members: dict[str, int]) -> dict[str, float]:
    """The fixed set of report queries every serve pass makes (timed)."""
    utilization = report.utilization_by_appliance()
    dfx_busy_s = sum(
        utilization[name] * report.makespan_s * clusters
        for name, clusters in dfx_members.items()
    )
    return {
        "p50_s": report.response_time_percentile_s(50),
        "p90_s": report.response_time_percentile_s(90),
        "p99_s": report.response_time_percentile_s(99),
        "goodput": report.goodput_fraction,
        "completed": report.num_requests,
        "abandoned": report.num_abandoned,
        "failed": report.num_failed,
        "retries": report.num_retries,
        "offered": report.num_offered,
        "dfx_busy_s": dfx_busy_s,
        "output_tok_s": report.output_tokens_per_second,
    }


def _service_requests(arrivals: inputs.Arrivals, stop: int | None = None):
    """Make the ``ServiceRequest`` of each arrival only when it is pulled."""
    shapes = [Workload(*shape) for shape in inputs.DATACENTER_SHAPES]
    for request_id, (time_s, shape) in enumerate(zip(
        arrivals.times_s[:stop].tolist(), arrivals.shapes[:stop].tolist()
    )):
        yield ServiceRequest(
            request_id=request_id, arrival_time_s=time_s, workload=shapes[shape]
        )


class _TimedFeed:
    """Iterator wrapper adding the time spent making each request."""

    def __init__(self, feed, tracer) -> None:
        self._feed = feed
        self._cell = tracer.cell("bench.feed")

    def __iter__(self):
        return self

    def __next__(self):
        start = time.perf_counter_ns()
        try:
            return next(self._feed)
        finally:
            self._cell.calls += 1
            self._cell.ns += time.perf_counter_ns() - start


class ServeWorkload:
    """Shared pass logic of ``serve-diurnal`` and ``serve-fleet``.

    An untraced pass serves the same stream again and again, at least
    ``rounds`` times and until ``measure_s`` seconds have passed, and
    reports the median round, its time scaled to the reference host speed
    (``HostSpeed``); every round must reproduce the first one's
    statistics.  The stream, and so every simulated number, does not
    depend on how many rounds a pass makes.  A traced pass serves the
    stream once.
    """

    name = ""
    arrivals: inputs.Arrivals
    dfx_members: dict[str, int]
    rounds: int = 1
    measure_s: float = 0.0
    #: The ``ApplianceServer`` or ``ApplianceFleet`` under test.
    target: ApplianceServer | ApplianceFleet

    def serve(self, tracer):  # pragma: no cover - implemented by subclasses
        raise NotImplementedError

    def warm_up(self) -> None:
        """Serve a short prefix so every cache and code path is warm."""
        self.target.serve(list(_service_requests(self.arrivals, 400)))

    def run_pass(self, tracer=None) -> PassResult:
        offered = len(self.arrivals)
        rounds = 1 if tracer is not None else self.rounds
        measure_s = 0.0 if tracer is not None else self.measure_s
        errors: list[str] = []
        #: Scaled seconds of each round, and whether its stretch was steady.
        walls: list[tuple[float, bool]] = []
        first = None
        failed = 0
        round_index = 0
        speed = HostSpeed()
        begin = time.perf_counter()
        while round_index < rounds or time.perf_counter() - begin < measure_s:
            round_index += 1
            start = time.perf_counter()
            try:
                report = self.serve(tracer)
                query_start = time.perf_counter()
                queries = _report_queries(report, self.dfx_members)
                query_end = time.perf_counter()
            except Exception:
                _failure(errors, f"{self.name} serve, round {round_index}")
                failed += offered
                if first is None:
                    break
                continue
            stretch = speed.mark()
            walls.append((speed.scaled(query_end - start, stretch),
                          speed.steady[stretch]))
            if tracer is not None:
                cell = tracer.cell("server.report_query")
                cell.calls += 1
                cell.ns += int((query_end - query_start) * 1e9)
            accounted = queries["completed"] + queries["abandoned"] + queries["failed"]
            if accounted != offered:
                failed += abs(offered - accounted)
                errors.append(
                    f"round {round_index}: offered {offered} != completed + "
                    f"abandoned + failed = {accounted}"
                )
            if first is None:
                first = queries
            elif queries != first:
                failed += offered
                errors.append(f"round {round_index}: statistics differ from round 1")

        attempted = offered * round_index
        if first is None:
            return PassResult(attempted, failed, {}, {}, 0.0, offered, errors)
        wall_s = steady_median(walls)
        # The engine-only rates have no host call to time here; they carry
        # the fleet's simulated output tokens per second instead.
        metrics = {
            "tok_s": first["output_tok_s"],
            "batch_tok_s": first["output_tok_s"],
            "ref_tok_s": first["output_tok_s"],
            "request_p50_ms": 1e3 * first["p50_s"],
            "request_p90_ms": 1e3 * first["p90_s"],
            "dfx_ms": 1e3 * first["dfx_busy_s"],
            "served_per_s": offered / wall_s,
            "sim_p99_s": first["p99_s"],
            "sim_goodput": first["goodput"],
        }
        simulated = {
            key: repr(value) if isinstance(value, float) else value
            for key, value in first.items()
        }
        return PassResult(attempted, failed, metrics, simulated, wall_s, offered,
                          errors, [speed.note()])


class DiurnalWorkload(ServeWorkload):
    """``serve-diurnal``: a lazily fed stream, streaming accounting."""

    name = "serve-diurnal"

    def __init__(self, arrivals: inputs.Arrivals, rounds: int = 1,
                 measure_s: float = 0.0) -> None:
        self.arrivals = arrivals
        self.rounds = rounds
        self.measure_s = measure_s
        self.target = ApplianceServer("dfx", num_clusters=8, retain_records=False)
        self.dfx_members = {"dfx": 8}

    def serve(self, tracer):
        feed = _service_requests(self.arrivals)
        if tracer is not None:
            feed = _TimedFeed(feed, tracer)
        return self.target.serve(feed)


#: Fleet members: (name, backend, clusters, max batch size, rack).
FLEET_MEMBERS = (
    ("dfx-a", "dfx", 2, 1, "rack0"),
    ("gpu-a", "gpu", 1, 8, "rack0"),
    ("dfx-b", "dfx", 2, 1, "rack1"),
    ("gpu-b", "gpu", 1, 8, "rack1"),
)
#: The links of ``python -m repro.cli serve --topology``: 50 ms, 10 Gbit/s.
FLEET_LINK = NetworkLink(latency_s=0.05, bandwidth_bytes_per_s=1.25e9)
#: Per-unit mean time between failures and to repair.  A unit is down
#: MTTR / (MTBF + MTTR) = 6.25% of the time, so the faulted fleet keeps
#: 0.9375 of its capacity, above the offered load: it drains between
#: outages.  With outages twice as long and half as frequent, the backlog
#: of single outages decided whether the median request queued, and the
#: simulated p50 moved by 20% between seeds.
FLEET_MTBF_S = 900.0
FLEET_MTTR_S = 60.0
#: The fault campaign's seed, the same for every ``--seed`` (as the CLI's
#: ``--fault-seed`` is independent of the trace seed).  Seeded per run, the
#: outages fall on other stretches of traffic, and the simulated p99 moved
#: by more than half between seeds.
FLEET_FAULT_SEED = 0
#: Saturated throughput of the fleet without faults, in requests per
#: simulated second, as ``fleet_capacity_per_s`` measures it.
FLEET_CAPACITY_PER_S = 6.14
#: Offered load: 0.9 of the capacity.  The GPUs run nearly full batches,
#: and losing any one unit overloads the fleet until its repair.
FLEET_RATE_PER_S = 0.9 * FLEET_CAPACITY_PER_S


def fleet(horizon_s: float | None) -> ApplianceFleet:
    """The serve-fleet fleet; ``horizon_s=None`` leaves out the faults."""
    racks: dict[str, list[str]] = {}
    for name, _, _, _, rack in FLEET_MEMBERS:
        racks.setdefault(rack, []).append(name)
    faults = None
    if horizon_s is not None:
        faults = FaultSchedule.poisson(FLEET_MTBF_S, FLEET_MTTR_S, horizon_s,
                                       seed=FLEET_FAULT_SEED)
    return ApplianceFleet(
        [FleetMember(name, backend, clusters, batch)
         for name, backend, clusters, batch, _ in FLEET_MEMBERS],
        batch_policy="continuous",
        network=NetworkModel.star(racks, ingress="rack0", link=FLEET_LINK),
        faults=faults,
        # Three attempts with doubling backoff (the defaults), capped.
        retry_policy=None if faults is None else RetryPolicy(max_backoff_s=1.0),
    )


def fleet_capacity_per_s(requests: int = 6000, seed: int = 0) -> float:
    """Saturated throughput of the fleet without faults.

    Serves a stream offered at twice ``FLEET_CAPACITY_PER_S``, so the queue
    never empties, and returns completed requests per simulated second up
    to the last completion.
    """
    arrivals = inputs.steady_arrivals(seed, requests, 2.0 * FLEET_CAPACITY_PER_S)
    report = fleet(None).serve(list(_service_requests(arrivals)))
    return report.num_requests / max(c.finish_time_s for c in report.completed)


class FleetWorkload(ServeWorkload):
    """``serve-fleet``: a replayed JSONL log on a faulty two-rack fleet."""

    name = "serve-fleet"

    def __init__(self, arrivals: inputs.Arrivals, log_path: Path,
                 rounds: int = 1, measure_s: float = 0.0) -> None:
        self.arrivals = arrivals
        self.rounds = rounds
        self.measure_s = measure_s
        self.log_path = log_path
        inputs.write_jsonl(inputs.fleet_log_records(arrivals), log_path)
        self.target = fleet(float(arrivals.times_s[-1]))
        self.dfx_members = {
            name: clusters for name, backend, clusters, _, _ in FLEET_MEMBERS
            if backend == "dfx"
        }

    def serve(self, tracer):
        return self.target.serve(serving_requests.replay_trace(self.log_path))
