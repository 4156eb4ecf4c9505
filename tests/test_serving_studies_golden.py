"""Golden pin: every report the six serving study drivers return, with ``==``.

The examples print the studies at two decimals and the driver tests check
shapes, so nothing else pins the drivers' numbers across commits.  This
module runs each driver in ``repro.analysis.experiments`` at its historical
default settings and compares every public statistic of every report it
returns (:func:`test_serving_golden.snapshot`) with the committed fixture
``golden/serving_studies.json``.  The capacity studies pin each plan's
capacity, its probed rates and its report at capacity.

At these settings every distinguishing path runs: the fault campaign
retries and loses requests, the priced topology dispatches across racks,
and the GPU forms batches on the bursty trace.

Regenerate the fixture only for a change that is meant to move simulated
serving numbers, and say so where the change is described::

    PYTHONPATH=src python tests/test_serving_studies_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    run_batch_capacity_sweep,
    run_batching_comparison,
    run_fault_campaign,
    run_fleet_topology_plan,
    run_scheduler_comparison,
    run_serving_capacity,
)
from repro.backends import make_backend
from repro.model.config import GPT2_1_5B
from repro.serving import DATACENTER_MIX, FleetMember, NetworkLink, ServingScenario
from test_serving_golden import snapshot

FIXTURE = Path(__file__).resolve().parent / "golden" / "serving_studies.json"


def _plan(plan) -> dict:
    """One capacity plan: its capacity, probed rates and report at capacity."""
    at_capacity = plan.report_at_capacity
    return {
        "max_rate_per_s": plan.max_rate_per_s,
        "probed_rates": sorted(plan.reports),
        "report_at_capacity": None if at_capacity is None else snapshot(at_capacity),
    }


def scheduler_study() -> dict:
    result = run_scheduler_comparison(
        ServingScenario(
            members=(FleetMember("dfx", make_backend("dfx", config=GPT2_1_5B), 2),),
            rate_per_s=0.8, duration_s=300.0, mix=DATACENTER_MIX, seed=11,
        )
    )
    return {policy: snapshot(report) for policy, report in result.reports.items()}


def capacity_study() -> dict:
    plans = run_serving_capacity(
        ServingScenario(duration_s=240.0, mix=DATACENTER_MIX, seed=5)
    )
    return {label: _plan(plan) for label, plan in plans.items()}


def fault_campaign_study() -> dict:
    host = make_backend("dfx-4u", config=GPT2_1_5B)
    result = run_fault_campaign(
        ServingScenario(
            members=(FleetMember("dfx-4u", host),), rate_per_s=0.6, duration_s=180.0
        ),
        mtbf_s=40.0,
        mttr_s=15.0,
    )
    return {
        f"{policy}/{seed}": snapshot(report)
        for policy, by_seed in result.reports.items()
        for seed, report in by_seed.items()
    }


def topology_study() -> dict:
    dfx = make_backend("dfx", config=GPT2_1_5B)
    result = run_fleet_topology_plan(
        ServingScenario(
            members=(FleetMember("host0", dfx), FleetMember("host1", dfx)),
            racks=2,
            link=NetworkLink(latency_s=0.05, bandwidth_bytes_per_s=1.25e9),
            rate_per_s=0.8, duration_s=180.0, mix=DATACENTER_MIX, seed=7,
        )
    )
    return {"priced": snapshot(result.priced), "baseline": snapshot(result.baseline)}


def batching_study() -> dict:
    result = run_batching_comparison()
    return {
        f"{load}/{label}": snapshot(report)
        for load, reports in (("low", result.low_load), ("high", result.high_load))
        for label, report in reports.items()
    }


def batch_capacity_study() -> dict:
    gpu = make_backend("gpu", config=GPT2_1_5B, devices=4)
    plans = run_batch_capacity_sweep(
        ServingScenario(members=(FleetMember("gpu", gpu, 1),), duration_s=120.0, seed=7)
    ).plans
    return {str(size): _plan(plan) for size, plan in plans.items()}


STUDIES = {
    "scheduler_comparison": scheduler_study,
    "serving_capacity": capacity_study,
    "fault_campaign": fault_campaign_study,
    "fleet_topology": topology_study,
    "batching_comparison": batching_study,
    "batch_capacity_sweep": batch_capacity_study,
}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_study_reports_match_golden(study, golden):
    # A JSON round trip turns tuples into lists, as the fixture holds them.
    observed = json.loads(json.dumps(STUDIES[study]()))
    assert observed == golden[study]


def test_golden_covers_the_interesting_paths(golden):
    """The pinned runs retry, lose requests, cross racks and batch."""
    assert sorted(golden) == sorted(STUDIES)
    campaign = golden["fault_campaign"].values()
    assert sum(s["counts"]["num_retries"] for s in campaign) > 0
    assert sum(s["counts"]["num_failed"] for s in campaign) > 0
    assert golden["fleet_topology"]["priced"]["counts"]["num_cross_rack_dispatches"]
    assert golden["batching_comparison"]["high/gpu-dynamic"]["means"]["batch_size"] > 1.0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(
            "usage: PYTHONPATH=src python tests/test_serving_studies_golden.py --write"
        )
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {name: study() for name, study in STUDIES.items()}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} studies to {FIXTURE}")
