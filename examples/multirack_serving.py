"""Multi-rack fleet serving: the network's price on a region's traffic.

The paper's appliance is one 4U box; a region serves its traffic from
*racks* of such boxes behind one ingress, and the wire between racks is
not free.  This example exercises the network-aware serving subsystem on
the region planner's questions.  The whole study is one `ServingScenario`
— two hosts per rack, two racks on a star behind `rack0`, a priced link,
one Poisson trace — and each section varies it with `dataclasses.replace`:

1. **The latency tax** — `run_fleet_topology_plan`: the identical trace
   served by the 2-rack fleet under real link parameters and under a
   zero-cost network.  Off-rack dispatches pay prompt-ingress plus
   token-egress transfer, so the cross-rack p99 gap between the two runs
   is exactly the network's contribution.
2. **Network-aware routing** — `replace(scenario, link=...)`: with the
   link priced, the greedy earliest-finish load balancer only routes
   off-rack when the remote unit's compute advantage beats the transfer
   cost, so the cross-rack dispatch fraction drops as the link gets
   slower.
3. **Link faults** — `replace(scenario, faults=...)` with
   `Outage(link=...)` severs a named link: the rack behind it takes no new
   dispatches until repair (in-flight work completes), and the report
   accounts the severed window.

Run with:  python examples/multirack_serving.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import GPT2_1_5B, make_backend
from repro.analysis.experiments import run_fleet_topology_plan
from repro.analysis.reports import format_table
from repro.serving import (
    DATACENTER_MIX,
    FaultSchedule,
    FleetMember,
    NetworkLink,
    Outage,
    ServingScenario,
)

RACKS = 2
HOSTS_PER_RACK = 2
LINK_LATENCY_S = 0.25
LINK_BANDWIDTH_BYTES_PER_S = 1.25e9   # 10 Gbit/s
RATE_PER_S = 1.2
DURATION_S = 300.0


def main() -> None:
    print(f"== {RACKS} racks x {HOSTS_PER_RACK} DFX hosts, ingress at rack0, "
          f"link latency {LINK_LATENCY_S}s ==\n")
    backend = make_backend("dfx", config=GPT2_1_5B, devices=4)
    scenario = ServingScenario(
        members=tuple(
            FleetMember(f"host{host}", backend) for host in range(HOSTS_PER_RACK)
        ),
        racks=RACKS,
        link=NetworkLink(
            latency_s=LINK_LATENCY_S,
            bandwidth_bytes_per_s=LINK_BANDWIDTH_BYTES_PER_S,
        ),
        rate_per_s=RATE_PER_S,
        duration_s=DURATION_S,
        mix=DATACENTER_MIX,
        seed=3,
    )

    print("-- The latency tax: priced link vs zero-cost network --\n")
    # The latency tax is measured on its own trace draw (seed 7).
    plan = run_fleet_topology_plan(replace(scenario, seed=7))
    print(format_table(
        ["metric", "priced link", "zero-cost link"],
        [[name, priced, baseline] for name, priced, baseline in plan.summary_rows()],
    ))
    print(f"\nThe wire adds {plan.cross_rack_latency_tax_s:.3f}s to the "
          f"cross-rack p99: off-rack capacity is real capacity, but every "
          f"request it serves pays the link both ways.")

    print("\n-- Routing backs off a degrading link --\n")
    rows = []
    for latency_s in (0.0, 0.25, 1.0, 4.0):
        link = replace(scenario.link, latency_s=latency_s)
        report = replace(scenario, link=link).run()
        rows.append([
            latency_s,
            100 * report.cross_rack_dispatch_fraction,
            report.mean_transfer_time_s,
            report.response_time_percentile_s(99),
        ])
    print(format_table(
        ["link latency (s)", "cross-rack %", "mean transfer (s)", "p99 (s)"],
        rows,
    ))
    print("\nAs the link slows, the load balancer keeps more traffic on the "
          "ingress rack — off-rack dispatches only happen when the queue "
          "there is worth escaping.")

    print("\n-- A severed link partitions rack1 for a minute --\n")
    report = replace(
        scenario,
        faults=FaultSchedule.scripted(
            Outage(start_s=60.0, duration_s=60.0, link="rack1")
        ),
    ).run()
    print(format_table(
        ["metric", "value"],
        [
            ["served", report.num_requests],
            ["cross-rack dispatch fraction",
             report.cross_rack_dispatch_fraction],
            ["rack1 link severed (s)", report.downtime_by_link()["rack1"]],
            ["p99 response (s)", report.response_time_percentile_s(99)],
        ],
    ))
    print("\nDuring the partition, rack0 serves the whole region alone; the "
          "severed window is accounted per link, and nothing in flight was "
          "lost — a partition is not a crash.")


if __name__ == "__main__":
    main()
