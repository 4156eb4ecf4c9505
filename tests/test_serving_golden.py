"""Golden pin: every public ``ServingReport`` statistic, compared with ``==``.

The property and streaming suites compare reports against recompute
oracles with ``pytest.approx``, so nothing there pins the exact numbers a
report gives across commits.  This module does: it serves seeds 0-3 of the
three randomized property-suite scenario builders in both accounting modes
(retained and streaming) and compares every statistic with the committed
fixture ``golden/serving_reports.json`` for equality.  JSON floats
round-trip exactly, so a refactor of the accounting path that changes any
float summation order, percentile rule or sketch input order fails here.

Regenerate the fixture only for a change that is meant to move simulated
serving numbers, and say so where the change is described::

    PYTHONPATH=src python tests/test_serving_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from test_serving_properties import (
    random_fault_scenario,
    random_link,
    random_network_scenario,
    random_scenario,
)

FIXTURE = Path(__file__).resolve().parent / "golden" / "serving_reports.json"
SEEDS = range(4)
PERCENTILES = (50.0, 95.0, 99.0)
BUILDERS = {
    "random": lambda seed: random_scenario(seed)[:2],
    "fault": lambda seed: random_fault_scenario(seed)[:2],
    "network": lambda seed: random_network_scenario(seed, random_link(seed))[:2],
}
MODES = {"retained": True, "streaming": False}


def _pairs(mapping: dict) -> list:
    """A dict as sorted ``[key, value]`` pairs (JSON object keys are strings)."""
    return [[key, mapping[key]] for key in sorted(mapping)]


def snapshot(report) -> dict:
    """Every public statistic of one report, as JSON-ready data."""
    def at_percentiles(query) -> list[float]:
        return [query(percentile) for percentile in PERCENTILES]

    return {
        "counts": {
            "num_requests": report.num_requests,
            "num_abandoned": report.num_abandoned,
            "num_failed": report.num_failed,
            "num_offered": report.num_offered,
            "num_retries": report.num_retries,
            "num_batches": report.num_batches,
            "num_cross_rack_dispatches": report.num_cross_rack_dispatches,
            "slo_violations": report.slo_violations,
            "has_slo_requests": report.has_slo_requests,
            "service_classes": report.service_classes(),
        },
        "window": {
            "first_arrival_s": report.first_arrival_s,
            "makespan_s": report.makespan_s,
        },
        "percentiles": {
            "response": at_percentiles(report.response_time_percentile_s),
            "by_class": {
                label: at_percentiles(
                    lambda p, label=label: report.response_time_percentile_s(
                        p, service_class=label
                    )
                )
                for label in report.service_classes()
            },
            "queueing": at_percentiles(report.queueing_delay_percentile_s),
            "gather": at_percentiles(report.batch_gather_delay_percentile_s),
            "transfer": at_percentiles(report.transfer_time_percentile_s),
            "cross_rack_response": at_percentiles(
                report.cross_rack_response_percentile_s
            ),
            "failover": at_percentiles(report.failover_delay_percentile_s),
        },
        "means": {
            "response": report.mean_response_time_s,
            "queueing": report.mean_queueing_delay_s,
            "batch_size": report.mean_batch_size,
            "gather": report.mean_batch_gather_delay_s,
            "transfer": report.mean_transfer_time_s,
            "failover": report.mean_failover_delay_s,
            "energy_per_request_joules": report.energy_per_request_joules,
        },
        "totals": {
            "energy_joules": report.total_energy_joules,
            "transfer_time_s": report.total_transfer_time_s,
            "requests_per_hour": report.requests_per_hour,
            "offered_per_hour": report.offered_per_hour,
            "output_tokens_per_second": report.output_tokens_per_second,
            "cross_rack_dispatch_fraction": report.cross_rack_dispatch_fraction,
        },
        "utilization": report.utilization,
        "utilization_by_appliance": _pairs(report.utilization_by_appliance()),
        "batch_size_distribution": _pairs(report.batch_size_distribution()),
        "slo": {
            "violation_rate": report.slo_violation_rate,
            "attainment": report.slo_attainment,
        },
        "availability": {
            "availability": report.availability,
            "by_appliance": _pairs(report.availability_by_appliance()),
            "downtime_by_unit": _pairs(report.downtime_by_unit()),
            "downtime_by_link": _pairs(report.downtime_by_link()),
            "failure_rate": report.failure_rate,
            "goodput_fraction": report.goodput_fraction,
            "abandonment_rate": report.abandonment_rate,
        },
    }


def serve(builder: str, seed: int, mode: str):
    trace, server = BUILDERS[builder](seed)
    server.retain_records = MODES[mode]
    return server.serve(trace)


CASES = [
    f"{builder}-{seed}-{mode}"
    for builder in BUILDERS
    for seed in SEEDS
    for mode in MODES
]


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_report_statistics_match_golden(case):
    builder, seed, mode = case.split("-")
    # A JSON round trip turns tuples into lists, as the fixture holds them.
    observed = json.loads(json.dumps(snapshot(serve(builder, int(seed), mode))))
    assert observed == _golden()[case]


def test_golden_covers_the_interesting_paths():
    """The pinned runs exercise batching, faults and cross-rack traffic."""
    golden = _golden()
    assert sorted(golden) == sorted(CASES)
    retained = [golden[case] for case in CASES if case.endswith("-retained")]
    assert any(s["counts"]["num_cross_rack_dispatches"] for s in retained)
    assert any(s["counts"]["num_retries"] for s in retained)
    assert any(s["means"]["batch_size"] > 1.0 for s in retained)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_serving_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {}
    for case in CASES:
        builder, seed, mode = case.split("-")
        data[case] = snapshot(serve(builder, int(seed), mode))
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {FIXTURE}")
