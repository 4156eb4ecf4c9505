#!/usr/bin/env python
"""Hot-path throughput benchmark and perf-regression gate.

Times greedy generation (tokens/sec) for the two decode engines the repo
cares about — the DFX functional simulator and the reference GPT-2 model —
at several generation lengths, and writes the results to a per-config file
at the repo root (``BENCH_hotpath.json`` for the tiny config,
``BENCH_hotpath_small.json`` for small).  That file is the committed perf
baseline: ``--check`` re-measures and fails (exit 1) when any engine regresses
by more than the tolerance (default 30%), which CI can run as a smoke gate.
Generation lengths also default per config — the small model's longer
context window defaults to longer decodes (64/128/240 tokens).

``--check-ratio`` is the hardware-independent companion gate: instead of the
machine-specific absolute tokens/sec floor, it compares the *ratio* of
functional-sim to reference-model throughput at each generation length
against the same ratio in the committed baseline.  Both engines run on the
same machine in the same process, so host speed cancels out and the gate
catches regressions of the functional-sim hot path relative to the
reference model even on runners much slower than the baseline machine.

Methodology: each measurement reports the best of ``--repeats`` runs on a
freshly constructed engine, after one warm-up generation that grows its KV
cache (steady-state throughput is the quantity the paper's generation-stage
analysis is about; the cache grows once per engine).

Examples::

    PYTHONPATH=src python scripts/bench_hotpath.py             # refresh baseline
    PYTHONPATH=src python scripts/bench_hotpath.py --check     # regression gate
    PYTHONPATH=src python scripts/bench_hotpath.py --tokens 16 64 --repeats 5
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.backends import available_backends, make_backend  # noqa: E402
from repro.core.functional import DFXFunctionalSimulator  # noqa: E402
from repro.model.config import GPT2_TEST_SMALL, GPT2_TEST_TINY  # noqa: E402
from repro.model.generation import TextGenerator  # noqa: E402
from repro.model.gpt2 import GPT2Model  # noqa: E402
from repro.model.numerics import FP16_DFX  # noqa: E402
from repro.model.weights import generate_weights  # noqa: E402

SCHEMA_VERSION = 1
CONFIGS = {"tiny": GPT2_TEST_TINY, "small": GPT2_TEST_SMALL}
#: Each config gets its own committed baseline file so benching one never
#: clobbers the other's CI reference numbers.
DEFAULT_OUTPUTS = {
    "tiny": REPO_ROOT / "BENCH_hotpath.json",
    "small": REPO_ROOT / "BENCH_hotpath_small.json",
}
#: Default generation lengths per config: the small model's 256-position
#: window admits much longer decodes (prompt 4 + tokens + 2 must fit), and
#: longer generations are where KV-cache growth actually shows up.
DEFAULT_TOKENS = {
    "tiny": [16, 32, 64],
    "small": [64, 128, 240],
}
PROMPT = [5, 111, 42, 7]
#: The engines the committed baseline tracks (and the default bench set).
DEFAULT_ENGINES = ("functional-sim", "reference-model")
#: Batched-engine baselines live in their own committed files: the batched
#: report has a different shape (batch column, aggregate + per-stream
#: numbers), so it must never clobber the single-stream baselines above.
DEFAULT_BATCHED_OUTPUTS = {
    "tiny": REPO_ROOT / "BENCH_hotpath_batched.json",
    "small": REPO_ROOT / "BENCH_hotpath_batched_small.json",
}
DEFAULT_BATCHES = [1, 2, 4, 8]
#: One generation length per config for the batched sweep (the batch axis is
#: the variable under study; length 32 is the committed single-stream midpoint).
DEFAULT_BATCHED_TOKENS = {"tiny": 32, "small": 64}


def _time_best(factory, new_tokens: int, repeats: int) -> float:
    """Best wall-clock seconds over ``repeats`` fresh engines (post warm-up)."""
    best = float("inf")
    for _ in range(repeats):
        generate, reset = factory()
        generate(2)  # warm-up: grow the KV cache
        reset()
        start = time.perf_counter()
        generate(new_tokens)
        best = min(best, time.perf_counter() - start)
    return best


def _functional_factory(weights, num_devices):
    def factory():
        simulator = DFXFunctionalSimulator(
            weights, num_devices=num_devices, numerics=FP16_DFX
        )
        generate = lambda n: simulator.generate(PROMPT, max_new_tokens=n)  # noqa: E731
        reset = getattr(simulator, "reset_cache", None)
        if reset is None:  # pre-optimization engine: fresh state per request
            def reset():
                simulator.__init__(weights, num_devices=num_devices, numerics=FP16_DFX)
        return generate, reset
    return factory


def _reference_factory(weights):
    def factory():
        generator = TextGenerator(GPT2Model(weights, numerics=FP16_DFX))
        # generate_tokens builds a fresh cache per call; nothing to reset.
        return (
            lambda n: generator.generate_tokens(PROMPT, max_new_tokens=n),
            lambda: None,
        )
    return factory


def _backend_factory(backend_name, weights, config, num_devices):
    """Bench a registered backend's functional generation path.

    The backend is rebuilt per repeat (like the other engines) and must
    declare ``generates_tokens`` in its capabilities — analytic backends
    have no hot path to measure.  ``dfx-sim`` measures the runtime stack:
    the runtime's one simulator, reset per request, plus the decode loop.
    """
    probe = make_backend(backend_name, config=config, devices=num_devices)
    if not probe.capabilities().generates_tokens:
        raise SystemExit(
            f"engine {backend_name!r} cannot be benchmarked: its capabilities "
            f"report generates_tokens=False (nothing executes a hot path)"
        )

    def factory():
        backend = make_backend(
            backend_name, config=config, devices=num_devices, weights=weights
        )
        # The runtime resets its simulator's KV cache at the start of every
        # request, so each generate call is already a clean run.
        return (
            lambda n: backend.generate(PROMPT, max_new_tokens=n),
            lambda: None,
        )
    return factory


def _resolve_engines(engines, weights, config, num_devices):
    """Map engine names (built-in or registered backends) to factories."""
    factories = {}
    for name in engines:
        if name == "functional-sim":
            factories[name] = _functional_factory(weights, num_devices)
        elif name == "reference-model":
            factories[name] = _reference_factory(weights)
        elif name in available_backends():
            factories[name] = _backend_factory(name, weights, config, num_devices)
        else:
            raise SystemExit(
                f"unknown engine {name!r}; built-ins: {list(DEFAULT_ENGINES)}, "
                f"registered backends: {available_backends()}"
            )
    return factories


def run_benchmark(config_name: str, tokens: list[int], repeats: int,
                  num_devices: int,
                  engines: tuple[str, ...] = DEFAULT_ENGINES) -> dict:
    """Measure every requested engine at every generation length."""
    config = CONFIGS[config_name]
    weights = generate_weights(config, seed=7)
    engines = _resolve_engines(engines, weights, config, num_devices)
    entries = []
    for engine_name, factory in engines.items():
        for new_tokens in tokens:
            if len(PROMPT) + new_tokens + 2 > config.n_positions:
                print(f"  skip {engine_name} @ {new_tokens}: exceeds context")
                continue
            seconds = _time_best(factory, new_tokens, repeats)
            rate = new_tokens / seconds
            entries.append({
                "engine": engine_name,
                "new_tokens": new_tokens,
                "seconds": round(seconds, 6),
                "tokens_per_second": round(rate, 1),
            })
            print(f"  {engine_name:16s} {new_tokens:4d} tokens: "
                  f"{seconds * 1e3:8.2f} ms  {rate:9.1f} tok/s")
    return {
        "schema": SCHEMA_VERSION,
        "config": config_name,
        "model": config.name,
        "num_devices": num_devices,
        "prompt_tokens": len(PROMPT),
        "repeats": repeats,
        "entries": entries,
    }


def run_batched_benchmark(config_name: str, batches: list[int], new_tokens: int,
                          repeats: int, num_devices: int) -> dict:
    """Measure the batched functional engine across cohort sizes.

    Every batch size runs ``batch`` identical prompts as one lockstep cohort
    through ``generate_batch`` on a fresh simulator (best of ``repeats``,
    after a warm-up that grows the KV slot arenas).  All streams finish
    together, so the cohort's wall clock *is* each stream's latency;
    aggregate tokens/sec is what batching buys.
    """
    config = CONFIGS[config_name]
    weights = generate_weights(config, seed=7)
    if len(PROMPT) + new_tokens + 2 > config.n_positions:
        raise SystemExit(
            f"{new_tokens} tokens exceeds the {config_name} context window"
        )
    entries = []
    single_rate = None
    for batch in batches:
        prompts = [list(PROMPT)] * batch
        best = float("inf")
        for _ in range(repeats):
            simulator = DFXFunctionalSimulator(
                weights, num_devices=num_devices, numerics=FP16_DFX
            )
            simulator.generate_batch(prompts, 2)  # warm-up: grow the arenas
            start = time.perf_counter()
            simulator.generate_batch(prompts, new_tokens)
            best = min(best, time.perf_counter() - start)
        aggregate = batch * new_tokens / best
        if batch == 1:
            single_rate = aggregate
        entry = {
            "batch": batch,
            "new_tokens": new_tokens,
            "seconds": round(best, 6),
            "aggregate_tokens_per_second": round(aggregate, 1),
            "per_stream_latency_ms": round(best * 1e3, 3),
            "tokens_per_second_per_stream": round(new_tokens / best, 1),
        }
        if single_rate is not None:
            entry["scaling_vs_single"] = round(aggregate / single_rate, 3)
        entries.append(entry)
        print(f"  batch {batch:3d} x {new_tokens} tokens: "
              f"{best * 1e3:8.2f} ms/stream  {aggregate:9.1f} agg tok/s"
              + (f"  ({entry['scaling_vs_single']:.2f}x single)"
                 if "scaling_vs_single" in entry else ""))
    return {
        "schema": SCHEMA_VERSION,
        "config": config_name,
        "model": config.name,
        "num_devices": num_devices,
        "prompt_tokens": len(PROMPT),
        "repeats": repeats,
        "mode": "batched",
        "entries": entries,
    }


def check_batched_regression(report: dict, committed_path: Path,
                             tolerance: float, ratio_tolerance: float) -> int:
    """Gate the batched engine on absolute floors and batching scaling.

    Two checks per committed batch size: the machine-dependent aggregate
    tokens/sec floor (``tolerance``), and the hardware-independent
    batched/single scaling ratio (``ratio_tolerance``) — batch 1 and batch N
    run on the same host in the same process, so host speed cancels out of
    the ratio and a loss of weight-stream amortization shows up anywhere.
    """
    if not committed_path.exists():
        print(f"ERROR: no committed baseline at {committed_path}")
        return 1
    committed = json.loads(committed_path.read_text())
    reference = {
        entry["batch"]: entry for entry in committed.get("entries", [])
    }
    measured = {entry["batch"]: entry for entry in report.get("entries", [])}
    failures = []
    compared = 0
    for batch, baseline in sorted(reference.items()):
        if batch not in measured:
            continue
        compared += 1
        floor = baseline["aggregate_tokens_per_second"] * (1.0 - tolerance)
        rate = measured[batch]["aggregate_tokens_per_second"]
        if rate < floor:
            failures.append(
                f"batch {batch}: {rate:.1f} agg tok/s < floor {floor:.1f} "
                f"(committed {baseline['aggregate_tokens_per_second']:.1f}, "
                f"tolerance {tolerance:.0%})"
            )
        baseline_scaling = baseline.get("scaling_vs_single")
        scaling = measured[batch].get("scaling_vs_single")
        if baseline_scaling and scaling:
            scaling_floor = baseline_scaling * (1.0 - ratio_tolerance)
            if scaling < scaling_floor:
                failures.append(
                    f"batch {batch}: scaling {scaling:.2f}x single < floor "
                    f"{scaling_floor:.2f}x (committed {baseline_scaling:.2f}x, "
                    f"tolerance {ratio_tolerance:.0%})"
                )
    if failures:
        print("BATCHED PERF REGRESSION DETECTED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    if compared == 0:
        print("ERROR: no measured batch size matches the committed baseline "
              "— nothing was checked")
        return 1
    print(f"batched perf check OK: {compared} batch sizes within "
          f"{tolerance:.0%} (absolute) / {ratio_tolerance:.0%} (scaling) "
          f"of the baseline")
    return 0


def embed_baseline(report: dict, baseline_path: Path) -> None:
    """Attach pre-optimization numbers (same schema) and speedups in place."""
    baseline = json.loads(baseline_path.read_text())
    reference = {
        (entry["engine"], entry["new_tokens"]): entry["tokens_per_second"]
        for entry in baseline.get("entries", [])
    }
    for entry in report["entries"]:
        key = (entry["engine"], entry["new_tokens"])
        if key in reference:
            entry["baseline_tokens_per_second"] = reference[key]
            entry["speedup"] = round(entry["tokens_per_second"] / reference[key], 2)


def check_regression(report: dict, committed_path: Path, tolerance: float) -> int:
    """Compare a fresh measurement against the committed baseline.

    Returns a process exit code: 0 when every engine is within ``tolerance``
    of its committed tokens/sec, 1 otherwise (or when the baseline is absent).
    """
    if not committed_path.exists():
        print(f"ERROR: no committed baseline at {committed_path}")
        return 1
    committed = json.loads(committed_path.read_text())
    reference = {
        (entry["engine"], entry["new_tokens"]): entry["tokens_per_second"]
        for entry in committed.get("entries", [])
    }
    failures = []
    compared = 0
    for entry in report["entries"]:
        key = (entry["engine"], entry["new_tokens"])
        if key not in reference:
            continue
        compared += 1
        floor = reference[key] * (1.0 - tolerance)
        if entry["tokens_per_second"] < floor:
            failures.append(
                f"{key[0]} @ {key[1]} tokens: {entry['tokens_per_second']:.1f} tok/s "
                f"< floor {floor:.1f} (committed {reference[key]:.1f}, "
                f"tolerance {tolerance:.0%})"
            )
    if failures:
        print("PERF REGRESSION DETECTED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    if compared == 0:
        print("ERROR: no measured entry matches the committed baseline "
              "(config/tokens mismatch?) — nothing was checked")
        return 1
    print(f"perf check OK: {compared} entries within {tolerance:.0%} of the baseline")
    return 0


def _engine_ratios(report: dict) -> dict[int, float]:
    """functional-sim / reference-model tokens/sec per generation length."""
    by_key = {
        (entry["engine"], entry["new_tokens"]): entry["tokens_per_second"]
        for entry in report.get("entries", [])
    }
    ratios = {}
    for engine, new_tokens in by_key:
        if engine != "functional-sim":
            continue
        reference = by_key.get(("reference-model", new_tokens))
        if reference:
            ratios[new_tokens] = by_key[(engine, new_tokens)] / reference
    return ratios


def check_ratio_regression(report: dict, committed_path: Path, tolerance: float) -> int:
    """Hardware-independent gate on the functional-vs-reference ratio.

    Compares the measured functional-sim / reference-model tokens/sec ratio
    at each generation length against the committed baseline's ratio.  Host
    speed cancels out of the ratio, so this gate holds on runners much
    slower (or faster) than the machine that refreshed the baseline.

    Returns a process exit code: 0 when every measured ratio is within
    ``tolerance`` of the committed one, 1 otherwise (or when the baseline
    is absent or shares no comparable generation length).
    """
    if not committed_path.exists():
        print(f"ERROR: no committed baseline at {committed_path}")
        return 1
    committed = _engine_ratios(json.loads(committed_path.read_text()))
    measured = _engine_ratios(report)
    failures = []
    compared = 0
    for new_tokens, baseline_ratio in sorted(committed.items()):
        if new_tokens not in measured:
            continue
        compared += 1
        floor = baseline_ratio * (1.0 - tolerance)
        if measured[new_tokens] < floor:
            failures.append(
                f"@ {new_tokens} tokens: functional/reference ratio "
                f"{measured[new_tokens]:.3f} < floor {floor:.3f} "
                f"(committed {baseline_ratio:.3f}, tolerance {tolerance:.0%})"
            )
    if failures:
        print("RELATIVE PERF REGRESSION DETECTED (functional-sim fell behind "
              "the reference model):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    if compared == 0:
        print("ERROR: no generation length has both engines in both the "
              "measurement and the committed baseline — no ratio was checked")
        return 1
    print(f"ratio check OK: {compared} functional/reference ratios within "
          f"{tolerance:.0%} of the baseline")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    def positive(value: str) -> int:
        parsed = int(value)
        if parsed <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {value}")
        return parsed

    parser.add_argument("--config", choices=sorted(CONFIGS), default="tiny")
    parser.add_argument("--batch", type=positive, nargs="+", default=None,
                        metavar="B",
                        help="bench the batched functional engine at these "
                             "cohort sizes (e.g. --batch 1 2 4 8) instead of "
                             "the single-stream engines; writes the batched "
                             "baseline (BENCH_hotpath_batched.json for tiny)")
    parser.add_argument("--tokens", type=positive, nargs="+", default=None,
                        help="generation lengths; default depends on --config "
                             f"({', '.join(f'{k}: {v}' for k, v in DEFAULT_TOKENS.items())})")
    parser.add_argument("--repeats", type=positive, default=3)
    parser.add_argument("--engines", nargs="+", default=list(DEFAULT_ENGINES),
                        metavar="ENGINE",
                        help="engines to bench: the built-ins "
                             "(functional-sim, reference-model) and/or any "
                             "registered backend name with a functional "
                             "generation path (e.g. dfx-sim)")
    parser.add_argument("--num-devices", type=int, default=4,
                        help="cluster size (default 4, the paper's primary setup)")
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the benchmark JSON (default: the "
                             "per-config committed baseline, e.g. "
                             "BENCH_hotpath.json for tiny)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="embed pre-optimization numbers from this JSON")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline instead "
                             "of overwriting it; exit 1 on regression")
    parser.add_argument("--check-ratio", action="store_true",
                        help="hardware-independent gate: compare the "
                             "functional-vs-reference tokens/sec ratio against "
                             "the committed baseline; exit 1 on regression "
                             "(combines with --check)")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional tokens/sec drop in --check mode")
    parser.add_argument("--ratio-tolerance", type=float, default=0.30,
                        help="allowed fractional drop of the functional-vs-"
                             "reference ratio in --check-ratio mode")
    args = parser.parse_args(argv)

    if args.batch is not None:
        new_tokens = (
            args.tokens[0] if args.tokens else DEFAULT_BATCHED_TOKENS[args.config]
        )
        output = args.output or DEFAULT_BATCHED_OUTPUTS[args.config]
        print(f"batched hot-path benchmark: config={args.config}, "
              f"devices={args.num_devices}, repeats={args.repeats}, "
              f"batches={args.batch}, tokens={new_tokens}")
        report = run_batched_benchmark(
            args.config, args.batch, new_tokens, args.repeats, args.num_devices
        )
        if args.check or args.check_ratio:
            return check_batched_regression(
                report, output, args.tolerance, args.ratio_tolerance
            )
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
        return 0

    committed_default = DEFAULT_OUTPUTS[args.config]
    if args.tokens is None:
        args.tokens = DEFAULT_TOKENS[args.config]
    if args.output is None:
        args.output = committed_default

    if (
        not (args.check or args.check_ratio)
        and set(args.engines) != set(DEFAULT_ENGINES)
        and args.output.resolve() in {p.resolve() for p in DEFAULT_OUTPUTS.values()}
    ):
        # The default outputs ARE the committed baselines the CI gates compare
        # against; a report missing the default engines would break --check
        # for everyone.  Checked before measuring so no work is wasted.
        print(f"ERROR: refusing to overwrite the committed baseline "
              f"{args.output.name} with a non-default engine set "
              f"{args.engines}; pass --output elsewhere")
        return 1

    print(f"hot-path benchmark: config={args.config}, "
          f"devices={args.num_devices}, repeats={args.repeats}, "
          f"engines={args.engines}")
    report = run_benchmark(args.config, args.tokens, args.repeats,
                           args.num_devices, engines=tuple(args.engines))

    if args.check or args.check_ratio:
        # One measurement feeds both gates; either failing fails the run.
        code = 0
        if args.check:
            code |= check_regression(report, args.output, args.tolerance)
        if args.check_ratio:
            code |= check_ratio_regression(report, args.output, args.ratio_tolerance)
        return code

    if args.baseline is not None:
        embed_baseline(report, args.baseline)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
