"""Command-line interface for the DFX reproduction.

Three subcommands cover the common entry points without writing any Python:

``run``
    Simulate one text-generation request on the DFX appliance (and optionally
    the GPU baseline) and print latency, throughput, energy, and the phase
    breakdown.  ``--json`` writes the machine-readable result to a file.

``experiment``
    Run one of the paper's experiment drivers by name (``figure14``,
    ``figure15``, ``table2``, ...) and print its rows of the paper
    scorecard: the model's value next to the paper's, the error and the
    bound.

``serve``
    Replay a request trace — synthetic Poisson / bursty / diurnal arrivals
    over a workload mix (``--arrivals``), or a recorded CSV/JSONL log via
    ``--trace`` — against any registered backend (``dfx``, ``dfx-4u``,
    ``gpu``, ``tpu``, ``dfx-sim``) and print the serving report: tail
    latencies, throughput, utilization, abandonment, batch statistics.
    ``--mtbf-s``/``--mttr-s`` inject a seeded Poisson fault process, with
    ``--retry-max`` attempts per killed request, and the report grows
    availability, goodput, and failover columns.  ``--streaming`` generates
    the synthetic trace lazily and accounts the report online (quantile
    sketches instead of retained records), so million-request traces
    (``--limit``) run in flat memory.  ``--topology RxM`` serves the trace
    on a fleet of R racks × M appliances behind one ingress rack, pricing
    ``--link-latency-s``/``--link-gbps`` transfer into off-rack dispatches,
    and the report grows transfer-time and cross-rack columns.

``dse``
    Explore appliance configurations (backend × scheduler × batch size,
    plus devices/racks when given) with the multi-objective design-space
    exploration engine and print the Pareto front over p99 latency,
    aggregate tokens/s, energy/token, and device cost.  ``--mode
    evolutionary`` (default) runs a seeded NSGA-II-style search;
    ``--mode factorial`` sweeps the whole grid.  ``--jobs N``
    parallelizes evaluation (bit-identical to serial) and
    ``--results-dir`` persists per-candidate JSON results so interrupted
    runs resume for free.

Run as a program, input the model rejects (a ``ConfigurationError`` or
``PartitioningError``) prints one ``error: ...`` line and exits with status
2; :func:`main` itself lets them propagate.

Examples::

    python -m repro.cli run --model 1.5b --devices 4 --input 64 --output 64
    python -m repro.cli run --model 345m --devices 1 --input 32 --output 256 --compare-gpu
    python -m repro.cli experiment figure18
    python -m repro.cli serve --backend dfx --clusters 2 --rate 1.5 --duration 120
    python -m repro.cli serve --backend gpu --batch-policy dynamic --trace requests.csv
    python -m repro.cli serve --backend dfx-4u --rate 1.0 --mtbf-s 40 --mttr-s 15
    python -m repro.cli serve --arrivals diurnal --rate 40 --duration 1e9 \
        --limit 1000000 --streaming --clusters 8
    python -m repro.cli serve --topology 2x2 --rate 2.0 --link-latency-s 0.05
    python -m repro.cli dse --model test-small --generations 4 --jobs 4
    python -m repro.cli dse --mode factorial --backends dfx gpu --batch-sizes 1 32
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.analysis import experiments, scorecard
from repro.analysis.export import result_to_dict, write_json
from repro.analysis.reports import format_fractions, format_table
from repro.backends import available_backends, make_backend
from repro.baselines.gpu import GPUAppliance
from repro.core.appliance import DFXAppliance
from repro.errors import ConfigurationError, PartitioningError, check_number
from repro.model.config import available_presets, from_preset
from repro.serving import (
    ARTICLE_MIX,
    CHATBOT_MIX,
    DATACENTER_MIX,
    FaultSchedule,
    FleetMember,
    NetworkLink,
    RetryPolicy,
    ServingReport,
    ServingScenario,
    replay_trace,
)
from repro.serving.batching import BATCH_POLICIES
from repro.serving.schedulers import SCHEDULERS
from repro.workloads import Workload

#: Workload mixes selectable from the serve subcommand.
SERVE_MIXES = {
    CHATBOT_MIX.name: CHATBOT_MIX,
    ARTICLE_MIX.name: ARTICLE_MIX,
    DATACENTER_MIX.name: DATACENTER_MIX,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DFX reproduction command-line interface"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="simulate one generation request")
    run_parser.add_argument("--model", default="1.5b", choices=available_presets(),
                            help="GPT-2 preset (default: 1.5b)")
    run_parser.add_argument("--devices", type=int, default=4,
                            help="number of FPGAs / GPUs (default: 4)")
    run_parser.add_argument("--input", type=int, default=64, dest="input_tokens",
                            help="prompt length in tokens (default: 64)")
    run_parser.add_argument("--output", type=int, default=64, dest="output_tokens",
                            help="tokens to generate (default: 64)")
    run_parser.add_argument("--compare-gpu", action="store_true",
                            help="also run the calibrated GPU-appliance baseline")
    run_parser.add_argument("--json", metavar="PATH", default=None,
                            help="write the DFX result as JSON to PATH")

    experiment_parser = subparsers.add_parser(
        "experiment", help="run one of the paper's experiment drivers"
    )
    experiment_parser.add_argument("name", choices=sorted(scorecard.DRIVERS),
                                   help="experiment to run")

    serve_parser = subparsers.add_parser(
        "serve", help="replay a request trace against a registered backend"
    )
    serve_parser.add_argument("--backend", default="dfx",
                              choices=available_backends(),
                              help="registered backend name (default: dfx)")
    serve_parser.add_argument("--model", default="1.5b",
                              choices=available_presets(),
                              help="GPT-2 preset (default: 1.5b; use a test-* "
                                   "preset with the dfx-sim backend)")
    serve_parser.add_argument("--devices", type=int, default=None,
                              help="accelerators per backend instance "
                                   "(default: the backend's own default)")
    serve_parser.add_argument("--clusters", type=int, default=None,
                              help="independent serving clusters (default: "
                                   "the backend's own unit count, e.g. 2 for "
                                   "dfx-4u)")
    serve_parser.add_argument("--scheduler", default="fifo",
                              choices=sorted(SCHEDULERS),
                              help="dispatch policy (default: fifo)")
    serve_parser.add_argument("--batch-policy", default="none",
                              choices=sorted(BATCH_POLICIES),
                              help="batch-formation policy (default: none)")
    serve_parser.add_argument("--max-batch-size", type=int, default=None,
                              help="per-cluster batch capacity (default: the "
                                   "policy's own size)")
    serve_parser.add_argument("--trace", metavar="PATH", default=None,
                              help="replay a recorded CSV/JSONL request log "
                                   "instead of generating a Poisson trace")
    serve_parser.add_argument("--arrivals", default="poisson",
                              choices=("poisson", "bursty", "diurnal"),
                              help="synthetic arrival process (default: "
                                   "poisson); bursty alternates rate-"
                                   "vs-silent phases, diurnal cycles the "
                                   "rate over --period-s")
    serve_parser.add_argument("--rate", type=float, default=1.0,
                              help="arrival rate in req/s: the Poisson "
                                   "mean, the bursty in-burst rate, or the "
                                   "diurnal peak (default: 1.0)")
    serve_parser.add_argument("--duration", type=float, default=60.0,
                              help="synthetic trace length in seconds "
                                   "(default: 60)")
    serve_parser.add_argument("--period-s", type=float, default=86_400.0,
                              help="diurnal cycle length in seconds "
                                   "(default: 86400 = one day)")
    serve_parser.add_argument("--limit", type=int, default=None,
                              help="cap the synthetic trace at this many "
                                   "requests (default: whatever fits the "
                                   "duration)")
    serve_parser.add_argument("--streaming", action="store_true",
                              help="generate the synthetic trace lazily and "
                                   "account the report online (flat memory "
                                   "on long traces; percentiles from "
                                   "quantile sketches)")
    serve_parser.add_argument("--mix", default=CHATBOT_MIX.name,
                              choices=sorted(SERVE_MIXES),
                              help="workload mix for synthetic traces")
    serve_parser.add_argument("--seed", type=int, default=0,
                              help="trace RNG seed (default: 0)")
    serve_parser.add_argument("--slo-s", type=float, default=None,
                              help="tag every request with this response-time "
                                   "SLO in seconds")
    serve_parser.add_argument("--patience-s", type=float, default=None,
                              help="tag every request with this queueing "
                                   "patience in seconds")
    serve_parser.add_argument("--mtbf-s", type=float, default=None,
                              help="inject a Poisson fault process with this "
                                   "per-cluster mean time between failures "
                                   "in seconds (default: no faults)")
    serve_parser.add_argument("--mttr-s", type=float, default=None,
                              help="mean time to repair in seconds; omit for "
                                   "fail-stop crashes (requires --mtbf-s)")
    serve_parser.add_argument("--fault-seed", type=int, default=0,
                              help="fault-process RNG seed, independent of "
                                   "the trace seed (default: 0)")
    serve_parser.add_argument("--retry-max", type=int, default=3,
                              help="attempts per request killed by a fault, "
                                   "1 = fail immediately (default: 3)")
    serve_parser.add_argument("--topology", metavar="RxM", default=None,
                              help="serve a multi-rack fleet instead of one "
                                   "appliance: R racks of M appliances each "
                                   "(e.g. 2x2), requests arriving at rack0; "
                                   "every other rack pays the --link-* "
                                   "transfer cost")
    serve_parser.add_argument("--link-latency-s", type=float, default=0.05,
                              help="per-link one-way propagation latency in "
                                   "seconds for --topology (default: 0.05)")
    serve_parser.add_argument("--link-gbps", type=float, default=10.0,
                              help="per-link bandwidth in Gbit/s for "
                                   "--topology; 0 = free serialization "
                                   "(default: 10)")

    dse_parser = subparsers.add_parser(
        "dse", help="multi-objective design-space exploration over "
                    "appliance configurations"
    )
    dse_parser.add_argument("--mode", default="evolutionary",
                            choices=("evolutionary", "factorial"),
                            help="candidate generator (default: evolutionary)")
    dse_parser.add_argument("--model", default="test-small",
                            choices=available_presets(),
                            help="GPT-2 preset every candidate serves "
                                 "(default: test-small)")
    dse_parser.add_argument("--backends", nargs="+", default=["dfx", "gpu"],
                            choices=available_backends(), metavar="NAME",
                            help="backend dimension levels (default: dfx gpu)")
    dse_parser.add_argument("--schedulers", nargs="+", default=["fifo", "sjf"],
                            choices=sorted(SCHEDULERS), metavar="NAME",
                            help="scheduler dimension levels "
                                 "(default: fifo sjf)")
    dse_parser.add_argument("--batch-sizes", nargs="+", type=int,
                            default=[1, 32], metavar="N",
                            help="batch-size dimension levels (default: 1 32)")
    dse_parser.add_argument("--devices", nargs="+", type=int, default=None,
                            metavar="N",
                            help="devices-per-instance dimension levels "
                                 "(default: not a dimension)")
    dse_parser.add_argument("--racks", nargs="+", type=int, default=None,
                            metavar="N",
                            help="star-topology rack-count dimension levels "
                                 "(default: not a dimension)")
    dse_parser.add_argument("--population", type=int, default=8,
                            help="evolutionary population size (default: 8)")
    dse_parser.add_argument("--generations", type=int, default=4,
                            help="evolutionary generations (default: 4)")
    dse_parser.add_argument("--seed", type=int, default=0,
                            help="search + serving RNG seed (default: 0)")
    dse_parser.add_argument("--jobs", type=int, default=1,
                            help="parallel evaluation workers; results are "
                                 "bit-identical to --jobs 1 (default: 1)")
    dse_parser.add_argument("--results-dir", metavar="PATH", default=None,
                            help="persist per-candidate JSON results here "
                                 "(and resume from them on a re-run)")
    dse_parser.add_argument("--duration", type=float, default=30.0,
                            help="serving-simulator run length per candidate "
                                 "in seconds; 0 skips serving and scores the "
                                 "analytic single-batch latency instead "
                                 "(default: 30)")
    dse_parser.add_argument("--rate", type=float, default=0.5,
                            help="serving arrival rate in req/s (default: 0.5)")
    return parser


def _command_run(args: argparse.Namespace) -> int:
    config = from_preset(args.model)
    workload = Workload(args.input_tokens, args.output_tokens)
    dfx_result = DFXAppliance(config, num_devices=args.devices).run(workload)

    rows = [[
        "DFX", dfx_result.latency_ms, dfx_result.tokens_per_second,
        dfx_result.energy_joules,
    ]]
    if args.compare_gpu:
        gpu_result = GPUAppliance(config, num_devices=args.devices).run(workload)
        rows.insert(0, [
            "GPU appliance", gpu_result.latency_ms, gpu_result.tokens_per_second,
            gpu_result.energy_joules,
        ])
        print(f"{config.name} {workload.label} on {args.devices} device(s): "
              f"speedup {gpu_result.latency_ms / dfx_result.latency_ms:.2f}x")
    print(format_table(["platform", "latency (ms)", "tokens/s", "energy (J)"], rows))
    print("\nDFX latency breakdown:")
    print(format_fractions(dfx_result.breakdown_fractions()))

    if args.json:
        path = write_json(result_to_dict(dfx_result), args.json)
        print(f"\nwrote {path}")
    return 0


def _print_serving_report(report: ServingReport, *, faults: bool = False) -> None:
    """Print one serving report as the operator-facing summary table."""
    print(f"backend {report.platform}: {report.num_clusters} cluster(s), "
          f"scheduler={report.scheduler}, batch_policy={report.batch_policy}")
    rows = [
        ["served", report.num_requests],
        ["abandoned", report.num_abandoned],
        ["makespan (s)", report.makespan_s],
        ["p50 response (s)", report.response_time_percentile_s(50)],
        ["p95 response (s)", report.response_time_percentile_s(95)],
        ["p99 response (s)", report.response_time_percentile_s(99)],
        ["mean queueing (s)", report.mean_queueing_delay_s],
        ["requests/hour", report.requests_per_hour],
        ["output tokens/s", report.output_tokens_per_second],
        ["utilization", report.utilization],
        ["energy/request (J)", report.energy_per_request_joules],
    ]
    if report.batch_policy != "none":
        rows.append(["mean batch size", report.mean_batch_size])
        rows.append(["mean gather delay (s)", report.mean_batch_gather_delay_s])
    if report.has_slo_requests:
        rows.append(["SLO attainment", report.slo_attainment])
    if report.cross_rack_members:
        rows.append(["cross-rack dispatch fraction",
                     report.cross_rack_dispatch_fraction])
        rows.append(["mean transfer (s)", report.mean_transfer_time_s])
        rows.append(["p99 transfer (s)", report.transfer_time_percentile_s(99)])
        rows.append(["cross-rack p99 response (s)",
                     report.cross_rack_response_percentile_s(99)])
    if faults or report.num_failed or report.num_retries or report.unit_downtime:
        rows.append(["availability", report.availability])
        rows.append(["goodput fraction", report.goodput_fraction])
        rows.append(["failed", report.num_failed])
        rows.append(["retries", report.num_retries])
        rows.append(["mean failover (s)", report.mean_failover_delay_s])
        for appliance, value in sorted(report.availability_by_appliance().items()):
            rows.append([f"availability[{appliance}]", value])
    print(format_table(["metric", "value"], rows))


def _command_serve(args: argparse.Namespace) -> int:
    if args.mttr_s is not None and args.mtbf_s is None:
        print("error: --mttr-s requires --mtbf-s", file=sys.stderr)
        return 2
    backend_kwargs = {"config": from_preset(args.model)}
    if args.devices is not None:
        backend_kwargs["devices"] = args.devices
    backend = make_backend(args.backend, **backend_kwargs)

    racks = None
    members = (FleetMember(backend.name, backend, args.clusters, args.max_batch_size),)
    if args.topology is not None:
        try:
            racks_text, _, per_rack_text = args.topology.lower().partition("x")
            racks, per_rack = int(racks_text), int(per_rack_text)
            if racks < 1 or per_rack < 1:
                raise ValueError
        except ValueError:
            print(f"error: --topology must be RxM with positive integers "
                  f"(e.g. 2x2), got {args.topology!r}", file=sys.stderr)
            return 2
        members = tuple(FleetMember(f"host{host}", backend) for host in range(per_rack))
    # Only exactly 0 means a free link.
    if args.link_gbps != 0:
        check_number("link_gbps", args.link_gbps, 0.0, open_low=True)
    bandwidth = args.link_gbps * 1e9 / 8.0 if args.link_gbps > 0 else None
    scenario = ServingScenario(
        members=members,
        scheduler=args.scheduler,
        batch_policy=args.batch_policy,
        racks=racks,
        link=NetworkLink(latency_s=args.link_latency_s, bandwidth_bytes_per_s=bandwidth),
        arrivals=args.arrivals,
        rate_per_s=args.rate,
        duration_s=args.duration,
        period_s=args.period_s,
        mix=SERVE_MIXES[args.mix],
        seed=args.seed,
        limit=args.limit,
        requests=replay_trace(args.trace) if args.trace is not None else None,
        slo_s=args.slo_s,
        patience_s=args.patience_s,
        streaming=args.streaming,
    )

    trace = scenario.trace()
    if args.trace is not None:
        source = args.trace
    else:
        cap = f", limit={args.limit}" if args.limit is not None else ""
        source = (f"{args.arrivals}(rate={args.rate}/s, "
                  f"duration={args.duration}s, mix={args.mix}, "
                  f"seed={args.seed}{cap})")
    if hasattr(trace, "__len__"):
        print(f"serving {len(trace)} requests from {source}")
    else:
        print(f"serving a streamed trace from {source}")

    if args.mtbf_s is not None:
        # Fault horizon: the synthetic duration, or just past the last
        # recorded arrival for a replayed log.
        if args.trace is not None:
            horizon = (trace[-1].arrival_time_s + 1.0) if trace else 1.0
        else:
            horizon = args.duration
        scenario = dataclasses.replace(
            scenario,
            faults=FaultSchedule.poisson(
                args.mtbf_s, args.mttr_s, horizon, seed=args.fault_seed
            ),
            retry_policy=RetryPolicy(max_attempts=args.retry_max),
        )
        repair = f"mttr={args.mttr_s}s" if args.mttr_s else "fail-stop"
        print(f"faults: poisson(mtbf={args.mtbf_s}s, {repair}, "
              f"seed={args.fault_seed}), retry_max={args.retry_max}")
    if racks is not None:
        bandwidth_text = (
            f"{args.link_gbps}Gbps" if bandwidth is not None else "free"
        )
        print(f"topology: {racks} rack(s) x {per_rack} appliance(s), "
              f"ingress=rack0, link latency={args.link_latency_s}s, "
              f"bandwidth={bandwidth_text}")
    report = scenario.front_end().serve(trace)
    _print_serving_report(report, faults=scenario.faults is not None)
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    title, _ = scorecard.DRIVERS[args.name]
    print(f"experiment {args.name}: {title}")
    print(scorecard.format_scores(scorecard.score([args.name])))
    return 0


def _command_dse(args: argparse.Namespace) -> int:
    result = experiments.run_design_space_exploration(
        mode=args.mode,
        config=args.model,
        backends=tuple(args.backends),
        schedulers=tuple(args.schedulers),
        batch_sizes=tuple(args.batch_sizes),
        devices=tuple(args.devices) if args.devices else None,
        racks=tuple(args.racks) if args.racks else None,
        population_size=args.population,
        generations=args.generations,
        seed=args.seed,
        jobs=args.jobs,
        results_dir=args.results_dir,
        serving_duration_s=None if args.duration == 0 else args.duration,
        arrival_rate_per_s=args.rate,
    )
    print(f"{result.mode} search over {result.space}: "
          f"{result.num_evaluated} candidate(s) evaluated "
          f"({result.num_feasible} feasible) in {result.generations} "
          f"generation(s)")
    if args.results_dir:
        print(f"results persisted to {args.results_dir}")
    if not result.front.members:
        print("no feasible candidates; the Pareto front is empty")
        return 0
    header = ["candidate"] + [
        f"{objective.name} ({objective.unit})" if objective.unit
        else objective.name
        for objective in result.front.objectives
    ]
    rows = [
        [member.candidate.key, *member.vector.values]
        for member in result.front
    ]
    print(f"Pareto front ({len(result.front)} member(s), crowding-ranked):")
    print(format_table(header, rows))
    for objective in result.front.objectives:
        best = result.front.best(objective.name)
        sense = "min" if objective.sense == "min" else "max"
        print(f"  best {objective.name} ({sense}): {best.candidate.key} "
              f"= {best.vector.value(objective.name):.4g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "dse":
        return _command_dse(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    # Bad input ends in one line and exit 2; anything else keeps its traceback.
    try:
        sys.exit(main())
    except (ConfigurationError, PartitioningError) as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
