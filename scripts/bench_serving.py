#!/usr/bin/env python
"""Streaming serving-simulator benchmark and regression gate.

Serves a lazily generated diurnal request trace (1M requests by default)
through the streaming simulator core — heap-ordered event loop, online
report accounting, no retained records — and writes simulated requests/sec
plus peak RSS to ``BENCH_serving.json`` at the repo root.  That file is the
committed baseline: ``--check`` re-measures and fails (exit 1) when
throughput regresses beyond the tolerance or memory stops being flat.

Each measurement runs in a fresh subprocess so peak RSS (``ru_maxrss``) is
a clean per-run high-water mark.  Two trace lengths are measured — the full
``--limit`` and a ``--short-limit`` warm-up-sized run — and their RSS ratio
is the *memory-flatness* gate: with streaming accounting a 10x longer trace
must not grow resident memory by more than ``--flatness`` (the trace is
never materialized and the report is O(1) in the trace length), which holds
on any host speed, unlike the absolute req/s floor.

Examples::

    PYTHONPATH=src python scripts/bench_serving.py            # refresh baseline
    PYTHONPATH=src python scripts/bench_serving.py --check    # regression gate
    PYTHONPATH=src python scripts/bench_serving.py --limit 200000 --check
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SCHEMA_VERSION = 1
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_serving.json"

#: The benchmark scenario: a diurnal trace over the datacenter mix served
#: by eight DFX clusters (sustained capacity ~7.5 req/s).  The peak rate
#: oversubscribes the appliance at the top of the cycle (~1.2x) while the
#: cycle mean (~5 req/s) stays under capacity, so the queue builds through
#: every peak and drains through every trough — the realistic breathing
#: regime for the event core, and a bounded one (an always-oversubscribed
#: trace would grow the queue, and resident memory, without limit).
PEAK_RATE_PER_S = 9.0
PERIOD_S = 3600.0
SEED = 7
NUM_CLUSTERS = 8
BACKEND = "dfx"


def _probe(limit: int) -> dict:
    """Serve ``limit`` diurnal requests in-process; return the measurement.

    Runs inside the ``--probe`` subprocess so ``ru_maxrss`` is this run's
    own high-water mark, not a previous (longer) run's.
    """
    import resource
    import time

    from repro.serving.requests import DATACENTER_MIX, diurnal_trace
    from repro.serving.server import ApplianceServer

    trace = diurnal_trace(
        PEAK_RATE_PER_S,
        1e12,  # effectively unbounded window: ``limit`` ends the trace
        period_s=PERIOD_S,
        mix=DATACENTER_MIX,
        seed=SEED,
        limit=limit,
        lazy=True,
    )
    server = ApplianceServer(
        BACKEND, num_clusters=NUM_CLUSTERS, retain_records=False
    )
    start = time.perf_counter()
    report = server.serve(trace)
    wall_s = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "requests": limit,
        "completed": report.num_requests,
        "wall_s": round(wall_s, 3),
        "requests_per_second": round(report.num_requests / wall_s, 1),
        "p99_response_s": round(report.response_time_percentile_s(99), 3),
        "peak_rss_mib": round(peak_rss_mib, 1),
    }


def _probe_subprocess(limit: int) -> dict:
    """Run one measurement in a fresh interpreter and parse its JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", str(limit)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if completed.returncode != 0:
        print(completed.stdout)
        print(completed.stderr, file=sys.stderr)
        raise SystemExit(f"probe subprocess failed (limit={limit})")
    return json.loads(completed.stdout)


def run_benchmark(limit: int, short_limit: int) -> dict:
    """Measure the short and full trace lengths; derive the flatness ratio."""
    print(f"serving bench: {BACKEND} x{NUM_CLUSTERS}, diurnal "
          f"peak={PEAK_RATE_PER_S}/s period={PERIOD_S}s seed={SEED}")
    short = _probe_subprocess(short_limit)
    print(f"  {short_limit:>9,} requests: {short['wall_s']:7.2f}s  "
          f"{short['requests_per_second']:9,.0f} req/s  "
          f"RSS {short['peak_rss_mib']:6.1f} MiB")
    full = _probe_subprocess(limit)
    print(f"  {limit:>9,} requests: {full['wall_s']:7.2f}s  "
          f"{full['requests_per_second']:9,.0f} req/s  "
          f"RSS {full['peak_rss_mib']:6.1f} MiB")
    rss_ratio = full["peak_rss_mib"] / short["peak_rss_mib"]
    print(f"  RSS ratio (long/short): {rss_ratio:.3f}")
    return {
        "schema": SCHEMA_VERSION,
        "backend": BACKEND,
        "num_clusters": NUM_CLUSTERS,
        "arrivals": {
            "process": "diurnal",
            "peak_rate_per_s": PEAK_RATE_PER_S,
            "period_s": PERIOD_S,
            "mix": "datacenter",
            "seed": SEED,
        },
        "short": short,
        "full": full,
        "rss_ratio": round(rss_ratio, 3),
    }


def check_regression(
    report: dict, committed_path: Path, tolerance: float, flatness: float
) -> int:
    """Gate a fresh measurement against the committed baseline.

    Throughput is compared per-request (simulated req/s), so a ``--check``
    at a shorter ``--limit`` than the baseline's still compares fairly —
    the streaming core is O(1) amortized per event.  The flatness gate is
    absolute (and hardware-independent): the long/short RSS ratio must stay
    under ``flatness`` regardless of what the baseline machine measured.
    """
    if not committed_path.exists():
        print(f"ERROR: no committed baseline at {committed_path}")
        return 1
    committed = json.loads(committed_path.read_text())
    failures = []
    floor = committed["full"]["requests_per_second"] * (1.0 - tolerance)
    measured = report["full"]["requests_per_second"]
    if measured < floor:
        failures.append(
            f"throughput: {measured:,.0f} simulated req/s < floor {floor:,.0f} "
            f"(committed {committed['full']['requests_per_second']:,.0f}, "
            f"tolerance {tolerance:.0%})"
        )
    if report["rss_ratio"] > flatness:
        failures.append(
            f"memory: RSS grew {report['rss_ratio']:.2f}x from "
            f"{report['short']['requests']:,} to "
            f"{report['full']['requests']:,} requests "
            f"(flatness bound {flatness:.2f}x) — streaming accounting is "
            f"retaining per-request state"
        )
    if failures:
        print("SERVING PERF REGRESSION DETECTED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"serving perf check OK: {measured:,.0f} req/s "
          f"(floor {floor:,.0f}), RSS ratio {report['rss_ratio']:.2f} "
          f"(bound {flatness:.2f})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])

    def positive(value: str) -> int:
        parsed = int(value)
        if parsed <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {value}")
        return parsed

    parser.add_argument("--limit", type=positive, default=1_000_000,
                        help="full-run trace length in requests "
                             "(default: 1,000,000)")
    parser.add_argument("--short-limit", type=positive, default=100_000,
                        help="short-run trace length for the memory-"
                             "flatness ratio (default: 100,000)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the benchmark JSON")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline instead "
                             "of overwriting it; exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.50,
                        help="allowed fractional simulated-req/s drop in "
                             "--check mode (default: 0.50 — absolute req/s "
                             "is machine-dependent)")
    parser.add_argument("--flatness", type=float, default=1.30,
                        help="max allowed long/short peak-RSS ratio in "
                             "--check mode (default: 1.30)")
    parser.add_argument("--probe", type=positive, default=None,
                        metavar="LIMIT",
                        help=argparse.SUPPRESS)  # internal subprocess mode
    args = parser.parse_args(argv)

    if args.probe is not None:
        print(json.dumps(_probe(args.probe)))
        return 0
    if args.short_limit >= args.limit:
        parser.error("--short-limit must be below --limit")

    report = run_benchmark(args.limit, args.short_limit)
    if args.check:
        return check_regression(
            report, args.output, args.tolerance, args.flatness
        )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
