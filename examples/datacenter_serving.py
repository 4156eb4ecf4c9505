"""Datacenter serving study: schedulers, fleet mixes, and capacity planning.

The paper positions DFX as a datacenter appliance (a 4U host carries two
4-FPGA clusters, Sec. VI).  This example exercises the event-driven serving
subsystem on the operator's real questions:

1. **Scheduling policy** — `run_scheduler_comparison`: the same two-class
   trace (interactive chat with a 6 s SLO and 30 s patience, plus
   best-effort article writing) replayed on the 4U host under FIFO,
   shortest-job-first, priority-class, and deadline-aware dispatch, with
   per-class tail latency, abandonment, and SLO-violation rates.
2. **Fleet composition** — the full host (two DFX clusters) versus a
   heterogeneous fleet that drafts the rack's GPU appliance behind the same
   queue, with per-appliance utilization.
3. **Capacity planning** — `run_serving_capacity`, which runs
   `capacity_search` on each configuration's front end: the highest
   offered load it sustains while keeping p95 response time under the SLO.
4. **The batching tradeoff (Sec. III-A)** — `run_batching_comparison`: the
   same configurations serve a sparse Poisson trace and a bursty high-rate
   trace, unbatched and under dynamic / continuous batching.  DFX wins tail
   latency where datacenters live (low load, no batch to gather); the GPU
   only reaches competitive throughput on the bursty trace once batches
   form — which is exactly why the paper serves text generation unbatched.
5. **Batch-aware capacity planning** — `run_batch_capacity_sweep`: how much
   extra SLO-compliant offered load each step of `max_batch_size` buys the
   GPU appliance.

Every run below is one `ServingScenario` — who serves, what arrives — and
each study varies one scenario along its own axis with
`dataclasses.replace`.  Every appliance comes from the unified backend
registry (`make_backend("dfx", ...)` / `make_backend("gpu", ...)`), so the
fleets and the capacity searches all consume the same `Backend` protocol.

Run with:  python examples/datacenter_serving.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import GPT2_1_5B, make_backend
from repro.analysis.reports import format_table
from repro.analysis.experiments import (
    run_batch_capacity_sweep,
    run_batching_comparison,
    run_scheduler_comparison,
    run_serving_capacity,
)
from repro.serving import (
    ARTICLE_MIX,
    CHATBOT_MIX,
    DATACENTER_MIX,
    FleetMember,
    ServingScenario,
    merge_traces,
    poisson_trace,
    with_service_levels,
)

TRACE_DURATION_S = 600.0
INTERACTIVE_RATE = 1.8      # chat requests per second (SLO-bound traffic)
BATCH_RATE = 0.7            # article requests per second (best effort)
INTERACTIVE_SLO_S = 6.0
INTERACTIVE_PATIENCE_S = 30.0
POLICIES = ("fifo", "sjf", "priority", "deadline")


def build_classed_trace(seed: int = 42):
    """Two service classes behind one queue: urgent chat + best-effort articles."""
    interactive = with_service_levels(
        poisson_trace(INTERACTIVE_RATE, TRACE_DURATION_S, CHATBOT_MIX, seed=seed),
        priority=0,
        slo_s=INTERACTIVE_SLO_S,
        patience_s=INTERACTIVE_PATIENCE_S,
        service_class="interactive",
    )
    batch = with_service_levels(
        poisson_trace(BATCH_RATE, TRACE_DURATION_S, ARTICLE_MIX, seed=seed + 1),
        priority=1,
        service_class="batch",
    )
    return merge_traces(interactive, batch)


def policy_row(policy: str, report) -> list:
    return [
        policy,
        report.num_requests,
        report.num_abandoned,
        report.response_time_percentile_s(95, service_class="interactive"),
        report.response_time_percentile_s(95, service_class="batch"),
        100 * report.slo_violation_rate,
        100 * report.utilization,
    ]


def fleet_row(label: str, report) -> list:
    utilization = report.utilization_by_appliance()
    return [
        label,
        report.num_requests,
        report.num_abandoned,
        report.response_time_percentile_s(95, service_class="interactive"),
        report.response_time_percentile_s(95, service_class="batch"),
        100 * report.slo_violation_rate,
        " ".join(f"{name}={100 * value:.0f}%" for name, value in sorted(utilization.items())),
    ]


def main() -> None:
    trace = build_classed_trace()
    interactive = sum(1 for r in trace if r.service_class == "interactive")
    print(f"== {len(trace)} requests over {TRACE_DURATION_S / 60:.0f} minutes: "
          f"{interactive} interactive (SLO {INTERACTIVE_SLO_S:.0f}s, patience "
          f"{INTERACTIVE_PATIENCE_S:.0f}s) + {len(trace) - interactive} batch ==\n")

    dfx_platform = make_backend("dfx", config=GPT2_1_5B, devices=4)
    gpu_platform = make_backend("gpu", config=GPT2_1_5B, devices=4)

    host = ServingScenario(
        members=(FleetMember("dfx-x2", dfx_platform, 2),), requests=trace
    )

    print("-- Scheduling policies on the 4U host (DFX, 2 clusters) --\n")
    comparison = run_scheduler_comparison(host, POLICIES)
    rows = [policy_row(policy, report) for policy, report in comparison.reports.items()]
    print(format_table(
        ["policy", "served", "abandoned", "p95 chat (s)", "p95 batch (s)",
         "SLO viol %", "util %"],
        rows,
    ))
    print("\nPriority and deadline dispatch shield the interactive class: chat tail "
          "latency and SLO violations drop while best-effort batch absorbs the wait.")

    print("\n-- Fleet composition under the same traffic (priority dispatch) --\n")
    dfx = FleetMember("dfx", dfx_platform, num_clusters=2)
    gpu = FleetMember("gpu", gpu_platform, num_clusters=1)
    by_priority = replace(host, scheduler="priority")
    dfx_only = replace(by_priority, members=(dfx,)).run()
    mixed = replace(by_priority, members=(dfx, gpu)).run()
    print(format_table(
        ["fleet", "served", "abandoned", "p95 chat (s)", "p95 batch (s)",
         "SLO viol %", "per-appliance util"],
        [fleet_row("DFX x2 (4U host)", dfx_only),
         fleet_row("DFX x2 + GPU appliance", mixed)],
    ))
    print("\nThe GPU appliance only sees a request when both DFX clusters are busy: "
          "the overflow it absorbs collapses the batch backlog, at the price of a "
          "slightly longer chat tail for the requests it serves itself.")

    print("\n-- Capacity under SLO: max offered load with p95 <= 8 s --\n")
    capacity = run_serving_capacity(
        ServingScenario(duration_s=240.0, mix=DATACENTER_MIX, seed=5),
        config=GPT2_1_5B,
        slo_s=8.0,
    )
    print(format_table(
        ["configuration", "max rate (req/s)", "max load (req/hour)"],
        [
            [label, plan.max_rate_per_s, plan.max_requests_per_hour]
            for label, plan in capacity.items()
        ],
    ))
    print("\nThe second DFX cluster roughly doubles SLO-compliant capacity, and "
          "drafting the GPU appliance adds the rest of the rack's headroom.")

    print("\n-- The batching tradeoff: unbatched latency vs batched throughput --\n")
    batching = run_batching_comparison(GPT2_1_5B)
    low_tails = batching.low_load_tail_latency_s()
    high_rates = batching.high_load_tokens_per_second()
    rows = []
    for label in batching.low_load:
        high = batching.high_load[label]
        rows.append([
            label,
            low_tails[label],
            high_rates[label],
            high.mean_batch_size,
            high.mean_batch_gather_delay_s,
            100 * high.utilization,
        ])
    print(format_table(
        ["configuration", "p99 low load (s)", "bursty tok/s",
         "mean batch", "gather delay (s)", "bursty util %"],
        rows,
    ))
    print(f"\nDFX serves every request alone and still holds the lowest tail "
          f"latency at low load; dynamic batching buys the GPU "
          f"{batching.gpu_batching_throughput_gain:.1f}x throughput on the bursty "
          f"trace at the price of batch-gather latency — the paper's reason "
          f"datacenters run text generation unbatched (Sec. III-A).")

    print("\n-- Batch-aware capacity: max GPU load under a p95 SLO, per batch size --\n")
    sweep = run_batch_capacity_sweep(
        ServingScenario(
            members=(FleetMember("gpu", gpu_platform, 1),), duration_s=120.0, seed=7
        ),
        slo_s=30.0, batch_sizes=(1, 2, 4, 8), batch_timeout_s=1.0,
    )
    print(format_table(
        ["max batch size", "max rate (req/s)", "max load (req/hour)",
         "mean batch @ capacity"],
        [
            [size, plan.max_rate_per_s, plan.max_requests_per_hour,
             plan.report_at_capacity.mean_batch_size
             if plan.report_at_capacity else 0.0]
            for size, plan in sweep.plans.items()
        ],
    ))
    print(f"\nBatch size {sweep.best_batch_size()} sustains "
          f"{sweep.batching_capacity_gain:.1f}x the unbatched SLO-compliant "
          f"load: the operator's other lever once the latency budget allows "
          f"gathering at all.")


if __name__ == "__main__":
    main()
