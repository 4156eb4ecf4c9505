"""Self-tests of the repository benchmark, on reduced-size workloads.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _small_workloads(tmp_path: Path) -> dict:
    """One reduced-size instance of every workload."""
    return {
        "generate": workloads.EngineWorkload(
            inputs.generate_inputs(3, 4, low=6, high=12), batch=2, batch_calls=2,
        ),
        "summarize": workloads.EngineWorkload(
            inputs.summarize_inputs(3, 2, unit=3, low=5, high=30), batch=3,
        ),
        "serve-diurnal": workloads.DiurnalWorkload(
            inputs.diurnal_arrivals(3, 1, period_s=300.0), rounds=2
        ),
        "serve-fleet": workloads.FleetWorkload(
            inputs.steady_arrivals(3, 600, workloads.FLEET_RATE_PER_S),
            tmp_path / "fleet.jsonl", rounds=2,
        ),
    }


@pytest.fixture(scope="module")
def small(tmp_path_factory) -> dict:
    built = _small_workloads(tmp_path_factory.mktemp("perfbench"))
    for workload in built.values():
        workload.warm_up()
    return built


class TestInputs:
    @pytest.mark.parametrize("make", [
        lambda seed: inputs.generate_inputs(seed, 5),
        lambda seed: inputs.summarize_inputs(seed, 5),
        lambda seed: inputs.fleet_log_records(inputs.steady_arrivals(seed, 50, 3.0)),
    ])
    def test_pure_function_of_seed(self, make):
        assert make(4) == make(4)
        assert make(4) != make(5)

    def test_diurnal_arrivals_pure_function_of_seed(self):
        first = inputs.diurnal_arrivals(4, 1, period_s=600.0)
        again = inputs.diurnal_arrivals(4, 1, period_s=600.0)
        other = inputs.diurnal_arrivals(5, 1, period_s=600.0)
        assert np.array_equal(first.times_s, again.times_s)
        assert np.array_equal(first.shapes, again.shapes)
        assert not np.array_equal(first.times_s, other.times_s)

    def test_diurnal_arrivals_cover_whole_cycles_in_order(self):
        arrivals = inputs.diurnal_arrivals(4, 2, period_s=600.0)
        assert np.all(np.diff(arrivals.times_s) >= 0)
        assert 0.0 <= arrivals.times_s[0] and arrivals.times_s[-1] <= 1200.0
        # Mean rate over whole cycles is 0.55 of the 9/s peak.
        assert abs(len(arrivals) - 0.55 * 9.0 * 1200.0) <= 1

    def test_stratified_shapes_hold_the_mix_in_every_block(self):
        shapes = inputs.stratified_shapes(np.random.default_rng(0), 300)
        for block in shapes.reshape(3, 100):
            assert np.bincount(block).tolist() == [45, 30, 15, 10]

    def test_lengths_stay_in_range(self):
        engine = inputs.summarize_inputs(9, 4)
        assert all(16 <= len(p) <= 200 for p in engine.prompts)
        assert all(6 <= n <= 10 for n in engine.new_tokens)
        assert all(
            len(p) + n <= 256
            for p, n in zip(inputs.generate_inputs(9, 40).prompts,
                            inputs.generate_inputs(9, 40).new_tokens)
        )

    def test_every_unit_is_the_same_work(self):
        engine = inputs.summarize_inputs(9, 4, unit=10)
        shapes = [
            sorted((len(p), n) for p, n in zip(engine.prompts[first:first + 10],
                                               engine.new_tokens[first:first + 10]))
            for first in range(0, 40, 10)
        ]
        assert all(shape == shapes[0] for shape in shapes)
        assert len({p for p in engine.prompts}) == 40
        assert sum(n for _, n in shapes[0]) == 80
        assert len(set(inputs.generate_inputs(9, 8).new_tokens)) == 1


class TestWorkloads:
    @pytest.mark.parametrize(
        "name", ["generate", "summarize", "serve-diurnal", "serve-fleet"]
    )
    def test_reduced_run_passes_checks_and_tracing_changes_nothing(
        self, small, name
    ):
        workload = small[name]
        untraced = workload.run_pass()
        assert untraced.failed == 0, untraced.errors
        assert untraced.attempted > 0
        assert all(value > 0 for value in untraced.metrics.values())

        tracer = tracing.Tracer()
        installation = tracing.Installation(tracer)
        try:
            traced = workload.run_pass(tracer)
        finally:
            installation.restore()
        assert traced.failed == 0, traced.errors
        assert traced.digest == untraced.digest

        instructions = (
            workload.instructions_per_decode_step()
            if name in ("generate", "summarize") else 1
        )
        metrics = run.per_layer_metrics(tracer, untraced, traced, instructions)
        assert set(metrics) == set(run.PER_LAYER)
        if name in ("generate", "summarize"):
            assert metrics["runtime.simulator_builds"] > 0
            assert metrics["core.functional.decode_step_ms"] > 0
        else:
            assert metrics["calendar.events_per_request"] > 0
            assert metrics["schedulers.calls"] > 0

    def test_fleet_rate_is_derived_from_measured_capacity(self):
        capacity = workloads.fleet_capacity_per_s(requests=3000)
        assert capacity == pytest.approx(workloads.FLEET_CAPACITY_PER_S, rel=0.02)
        assert workloads.FLEET_RATE_PER_S < capacity

    def test_a_failed_call_counts_once(self, small, monkeypatch):
        workload = small["generate"]

        def broken(prompt, budget):
            raise RuntimeError("reference down")

        monkeypatch.setattr(workload.reference, "generate_tokens", broken)
        result = workload.run_pass()
        assert result.failed == len(workload.inputs.prompts)

    def test_a_wrong_token_counts_as_failed(self, small, monkeypatch):
        workload = small["generate"]
        original = workload.reference.generate_tokens

        def corrupted(prompt, budget):
            result = original(prompt, budget)
            result.output_token_ids[-1] += 1
            return result

        monkeypatch.setattr(workload.reference, "generate_tokens", corrupted)
        result = workload.run_pass()
        assert result.failed == len(workload.inputs.prompts)

    def test_near_tie_accepts_only_a_one_ulp_gap(self, small):
        # The reference's first-token logits of this prompt (generate, seed
        # 105) tie at FP16 between tokens 301 and 381; token 652 is 15 ulps
        # below them.
        model = small["generate"].reference.model
        prompt = [420, 1020, 909, 531]
        assert workloads._near_tie(model, prompt, [381, 381], [301, 301])
        assert not workloads._near_tie(model, prompt, [652, 1], [301, 301])
        assert not workloads._near_tie(model, prompt, [301], [301, 7])


class TestTracing:
    def test_restore_puts_back_every_original(self):
        from repro.core.functional import DFXFunctionalSimulator
        from repro.serving import requests
        from repro.serving.calendar import CalendarQueue

        before = (DFXFunctionalSimulator.forward, CalendarQueue.push,
                  requests.replay_trace)
        installation = tracing.Installation(tracing.Tracer())
        assert DFXFunctionalSimulator.forward is not before[0]
        installation.restore()
        after = (DFXFunctionalSimulator.forward, CalendarQueue.push,
                 requests.replay_trace)
        assert after == before

    def test_nested_calls_of_one_group_are_timed_once(self):
        tracer = tracing.Tracer()

        def inner():
            return 1

        wrapped_inner = tracer.aggregate("g", inner)
        wrapped_outer = tracer.aggregate("g", lambda: wrapped_inner() + 1)
        assert wrapped_outer() == 2
        assert tracer.calls("g") == 2

        span_inner = tracer.span("s", inner)
        span_outer = tracer.span("s", lambda: span_inner())
        span_outer()
        assert tracer.span_count("s") == 2
        assert len(tracer.span_rows("s")) == 1


def test_launcher_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
