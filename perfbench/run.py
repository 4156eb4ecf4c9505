#!/usr/bin/env python3
"""Repository benchmark: generate, summarize, serve-diurnal and serve-fleet.

Usage (from the repository root)::

    python3 perfbench/run.py --workload generate --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
work untraced and then traced, and prints every per-layer metric plus the
tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See DESIGN.md for the
workloads, the metrics and which end-to-end metric each layer should move.

This file is a thin launcher that imports nothing heavy.  The work runs in
fresh interpreters (``--child``): one measuring process per run, so its
peak RSS is clean, plus extra set-up-only processes in untraced runs, so
``setup_s`` is the median of several set-ups, each timed from the moment
its interpreter was spawned to its first timed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where traced runs write their spans and the fleet workload its request log.
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("generate", "summarize", "serve-diurnal", "serve-fleet")
#: Set-ups per untraced run (one measuring process plus set-up-only ones).
SETUP_SAMPLES = 3
#: Fewest serves of the same stream per untraced serve pass; it goes on
#: serving for ``--seconds`` (host metrics are the median round).
SERVE_ROUNDS = 3
#: Wall budget of one child process; a run must end within 180 s.
CHILD_TIMEOUT_S = 165.0
RESULT_TAG = "PERFBENCH-RESULT "
SPAWNED_AT_ENV = "PERFBENCH_SPAWNED_AT"

#: End-to-end metrics of untraced runs: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "tok_s": "tok/s",
    "batch_tok_s": "tok/s",
    "ref_tok_s": "tok/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "dfx_ms": "ms",
    "served_per_s": "1/s",
    "sim_p99_s": "s",
    "sim_goodput": "fraction",
}
ENGINE_WORKLOADS = ("generate", "summarize")
#: End-to-end metrics that are simulated, on the engine and on the serve
#: workloads; the rest are host wall-time metrics.
SIMULATED_ENGINE = {"request_p50_ms", "request_p90_ms", "dfx_ms",
                    "served_per_s", "sim_p99_s", "sim_goodput"}
SIMULATED_SERVE = {"tok_s", "batch_tok_s", "ref_tok_s", "request_p50_ms",
                   "request_p90_ms", "dfx_ms", "sim_p99_s", "sim_goodput"}

#: Per-layer metrics of traced runs: name -> unit.
PER_LAYER = {
    "runtime.simulator_build_ms": "ms",
    "runtime.simulator_builds": "count",
    "core.functional.prefill_ms": "ms",
    "core.functional.decode_step_ms": "ms",
    "core.functional.host_ns_per_instruction": "ns",
    "core.functional.batch_step_ms": "ms",
    "core.functional.cohorts_per_step": "count",
    "core.functional.link_s": "s",
    "core.functional.link_calls": "count",
    "isa.compiler.compile_s": "s",
    "isa.compiler.compile_calls": "count",
    "core.appliance.timing_s": "s",
    "model.reference_s": "s",
    "requests.replay_s": "s",
    "bench.feed_s": "s",
    "serving.serve_s": "s",
    "schedulers.select_s": "s",
    "schedulers.calls": "count",
    "server.price_s": "s",
    "server.price_calls": "count",
    "simulator.estimates_per_request": "count/request",
    "batching.price_s": "s",
    "batching.prices_per_request": "count/request",
    "network.transfer_calls_per_request": "count/request",
    "calendar.push_s": "s",
    "calendar.pop_s": "s",
    "calendar.events_per_request": "count/request",
    "server.seal_s": "s",
    "stats.sketch_add_s": "s",
    "stats.sketch_adds_per_request": "count/request",
    "server.report_query_s": "s",
    "trace_overhead": "ratio",
}


def workload_size(workload: str, seconds: int) -> int:
    """Prompts, diurnal cycles or requests a run of ``seconds`` works through.

    The size depends on ``--seconds`` only, never on host speed, so a seed
    fixes every simulated number.  At ``--seconds 15`` a run measures
    15-40 s on a 2-vCPU host.  ``summarize`` counts units of ten prompts and
    never drops below five units.
    """
    if workload == "generate":
        return 8 * max(1, round(seconds / 15))
    if workload == "summarize":
        return max(5, round(seconds / 3))
    if workload == "serve-diurnal":
        return max(1, round(seconds / 20))
    return max(1000, round(seconds * 3200 / 3))


# ------------------------------------------------------------------- child
def _clock() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _build(workload: str, seed: int, seconds: int, log_path: Path):
    """Set up one workload: inputs, program objects and warm-up."""
    import inputs
    import workloads

    size = workload_size(workload, seconds)
    if workload == "generate":
        built = workloads.EngineWorkload(
            inputs.generate_inputs(seed, size), batch=8, batch_calls=8
        )
    elif workload == "summarize":
        engine_inputs = inputs.summarize_inputs(seed, size)
        built = workloads.EngineWorkload(engine_inputs, batch=engine_inputs.unit)
    elif workload == "serve-diurnal":
        built = workloads.DiurnalWorkload(
            inputs.diurnal_arrivals(seed, size), rounds=SERVE_ROUNDS,
            measure_s=seconds,
        )
    else:
        built = workloads.FleetWorkload(
            inputs.steady_arrivals(seed, size, workloads.FLEET_RATE_PER_S),
            log_path,
            rounds=SERVE_ROUNDS,
            measure_s=seconds,
        )
    built.warm_up()
    return built


def per_layer_metrics(tracer, untraced, traced, instructions: int) -> dict:
    """Per-layer metrics of one traced pass (see DESIGN.md)."""
    from workloads import percentile

    def durations(group: str, keep=lambda row: True) -> list[float]:
        return [(r[4] - r[3]) / 1e6 for r in tracer.span_rows(group) if keep(r)]

    decode = durations("core.functional.forward", lambda r: r[5] == 1)
    cohorts = [r[5] for r in tracer.span_rows("core.functional.batch_step")
               if r[5] is not None]
    requests = traced.requests
    return {
        "runtime.simulator_build_ms": percentile(
            durations("runtime.simulator_build"), 50),
        "runtime.simulator_builds": tracer.span_count("runtime.simulator_build"),
        "core.functional.prefill_ms": percentile(
            durations("core.functional.forward", lambda r: r[5] > 1), 50),
        "core.functional.decode_step_ms": percentile(decode, 50),
        "core.functional.host_ns_per_instruction": (
            1e6 * sum(decode) / (len(decode) * instructions) if decode else 0.0
        ),
        "core.functional.batch_step_ms": percentile(
            durations("core.functional.batch_step"), 50),
        "core.functional.cohorts_per_step": (
            sum(cohorts) / len(cohorts) if cohorts else 0.0
        ),
        "core.functional.link_s": tracer.span_seconds("core.functional.link"),
        "core.functional.link_calls": tracer.span_count("core.functional.link"),
        "isa.compiler.compile_s": tracer.span_seconds("isa.compiler.compile"),
        "isa.compiler.compile_calls": tracer.span_count("isa.compiler.compile"),
        "core.appliance.timing_s": tracer.span_seconds("core.appliance.timing"),
        "model.reference_s": tracer.span_seconds("model.reference"),
        "requests.replay_s": tracer.span_seconds("requests.replay"),
        "bench.feed_s": tracer.seconds("bench.feed"),
        "serving.serve_s": tracer.span_seconds("serving.serve"),
        "schedulers.select_s": tracer.seconds("schedulers.select"),
        "schedulers.calls": tracer.calls("schedulers.select"),
        "server.price_s": tracer.seconds("server.price"),
        "server.price_calls": tracer.calls("server.price"),
        "simulator.estimates_per_request":
            tracer.calls("simulator.estimate") / requests,
        "batching.price_s": tracer.seconds("batching.price"),
        "batching.prices_per_request": tracer.calls("batching.price") / requests,
        "network.transfer_calls_per_request":
            tracer.calls("network.transfer") / requests,
        "calendar.push_s": tracer.seconds("calendar.push"),
        "calendar.pop_s": tracer.seconds("calendar.pop"),
        "calendar.events_per_request": tracer.calls("calendar.push") / requests,
        "server.seal_s": tracer.seconds("server.seal"),
        "stats.sketch_add_s": tracer.seconds("stats.sketch_add"),
        "stats.sketch_adds_per_request":
            tracer.calls("stats.sketch_add") / requests,
        "server.report_query_s": tracer.seconds("server.report_query"),
        "trace_overhead": traced.wall_s / untraced.wall_s,
    }


def _describe(result) -> list[str]:
    lines = [
        f"operations: attempted {result.attempted}, "
        f"succeeded {result.attempted - result.failed}, failed {result.failed}",
    ]
    lines.extend(f"error: {error}" for error in result.errors)
    lines.extend(f"note: {note}" for note in result.notes)
    lines.append(
        "simulated: " + ", ".join(f"{k}={v}" for k, v in result.simulated.items())
        + f"  digest={result.digest}"
    )
    return lines


def child_main(mode: str, args) -> int:
    """Set up (and, in ``measure`` mode, run) one workload in this process."""
    OUT_DIR.mkdir(exist_ok=True)
    log_path = OUT_DIR / f"fleet-seed{args.seed}-{os.getpid()}.jsonl"
    try:
        built = _build(args.workload, args.seed, args.seconds, log_path)
        setup_s = _clock() - float(os.environ[SPAWNED_AT_ENV])
        from workloads import HostSpeed

        return _child_run(mode, args, built, HostSpeed.scale_past(setup_s))
    finally:
        log_path.unlink(missing_ok=True)


def _child_run(mode: str, args, built, setup_s: float) -> int:
    import resource

    if mode == "setup":
        print(RESULT_TAG + json.dumps({"setup_s": setup_s}))
        return 0

    engine = args.workload in ENGINE_WORKLOADS
    if engine:
        size = f"{len(built.inputs.prompts)} prompts"
    else:
        size = f"{len(built.arrivals)} requests, {built.measure_s:g} s of rounds"
    print(f"workload {args.workload}: seed {args.seed}, {size}")
    untraced = built.run_pass()
    lines = _describe(untraced)
    failed = untraced.failed
    attempted = untraced.attempted
    if args.trace:
        from tracing import Installation, Tracer

        tracer = Tracer()
        installation = Installation(tracer)
        try:
            traced = built.run_pass(tracer)
        finally:
            installation.restore()
        lines.append("traced pass:")
        lines.extend(_describe(traced))
        attempted += traced.attempted + 1
        failed += traced.failed
        if traced.digest != untraced.digest:
            failed += 1
            lines.append("error: traced digest differs from untraced digest")
        instructions = built.instructions_per_decode_step() if engine else 1
        metrics = per_layer_metrics(tracer, untraced, traced, instructions)
        units = PER_LAYER
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "digest": traced.digest,
            "per_layer": metrics,
            **tracer.dump(),
        }))
        lines.append(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = dict(untraced.metrics)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        units = END_TO_END
    for line in lines:
        print(line)
    print(RESULT_TAG + json.dumps({
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics.get(name) for name in units},
    }))
    return 0


# ---------------------------------------------------------------- launcher
def _spawn(mode: str, args) -> tuple[str, dict | None, int]:
    """Run one child to completion; return its stdout, result and exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    # One process, no threads: BLAS pools would add threads on 2 vCPUs.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        env[variable] = "1"
    env["PYTHONHASHSEED"] = "0"
    env[SPAWNED_AT_ENV] = repr(_clock())
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        return "", None, -1
    result = None
    lines = []
    for line in stdout.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        else:
            lines.append(line)
    return "\n".join(lines), result, process.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.child:
        return child_main(args.child, args)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; run "
              f"from a full checkout of the repository", file=sys.stderr)
        return 2
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            text, result, code = _spawn("setup", args)
            if code != 0 or result is None:
                print(text)
                print("error: set-up process failed", file=sys.stderr)
                return 1
            setups.append(result["setup_s"])
    text, result, code = _spawn("measure", args)
    print(text)
    if code != 0 or result is None:
        print("error: measuring process failed", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        print(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
    units = PER_LAYER if args.trace else END_TO_END
    simulated = (SIMULATED_ENGINE if args.workload in ENGINE_WORKLOADS
                 else SIMULATED_SERVE)
    for name, unit in units.items():
        label = ""
        if not args.trace:
            label = f"  [{'simulated' if name in simulated else 'host'}]"
        print(f"{name:40s} {metrics[name]:>16.6g} {unit}{label}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
