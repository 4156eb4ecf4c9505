"""Golden pin: the analytic DFX timing model's numbers, compared with ``==``.

The serving goldens price requests through test doubles, and the appliance
tests check shapes and ratios with ``pytest.approx``, so nothing else pins
the exact latencies the timing model gives across commits.  This module
does: for a grid of model sizes, device counts and workloads it records
``DFXAppliance.run``'s stage latencies, stage breakdowns, FLOPs and power,
``batched_request_seconds`` at batch 1/2/4/8 and
``per_token_generation_seconds`` at the request's final context, and
compares them with the committed fixture ``golden/timing_model.json`` for
equality.  JSON floats round-trip exactly, so a refactor of the timing path
that changes any float summation order fails here.

Only ``DFXAppliance``'s public surface is read.  Regenerate the fixture
only for a change that is meant to move simulated timing numbers, and say
so where the change is described::

    PYTHONPATH=src python tests/test_timing_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.appliance import DFXAppliance
from repro.model.config import from_preset
from repro.workloads import Workload

FIXTURE = Path(__file__).resolve().parent / "golden" / "timing_model.json"
GRID = {
    "1.5b": (4,),
    "774m": (2, 4),
    "345m": (1, 2, 4),
    "test-small": (1, 2, 4),
}
WORKLOADS = ((1, 1), (32, 1), (64, 64), (128, 16))
BATCHES = (1, 2, 4, 8)


def _stage(stage) -> dict:
    return {
        "latency_ms": stage.latency_ms,
        "breakdown_ms": [[tag, stage.breakdown_ms[tag]]
                         for tag in sorted(stage.breakdown_ms)],
    }


def snapshot(appliance: DFXAppliance, workload: Workload) -> dict:
    """Every pinned timing number of one (appliance, workload) cell."""
    result = appliance.run(workload)
    return {
        "summarization": _stage(result.summarization),
        "generation": _stage(result.generation),
        "flops": result.flops,
        "total_power_watts": result.total_power_watts,
        "batched_request_seconds": [
            appliance.batched_request_seconds(workload, batch) for batch in BATCHES
        ],
        "per_token_generation_seconds": appliance.per_token_generation_seconds(
            workload.total_tokens
        ),
    }


def _cells() -> list[tuple[str, int]]:
    return [(model, devices) for model, counts in GRID.items() for devices in counts]


def _workloads(model: str) -> list[Workload]:
    """The grid's workloads that fit the model's context window."""
    n_positions = from_preset(model).n_positions
    return [Workload(i, o) for i, o in WORKLOADS if i + o <= n_positions]


def snapshot_cell(model: str, devices: int) -> dict:
    appliance = DFXAppliance(from_preset(model), num_devices=devices,
                             check_capacity=False)
    return {workload.label: snapshot(appliance, workload)
            for workload in _workloads(model)}


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(("model", "devices"), _cells(),
                         ids=[f"{m}-{d}dev" for m, d in _cells()])
def test_timing_matches_golden(model, devices):
    observed = json.loads(json.dumps(snapshot_cell(model, devices)))
    assert observed == _golden()[f"{model}-{devices}dev"]


def test_golden_covers_the_grid():
    golden = _golden()
    assert sorted(golden) == sorted(f"{m}-{d}dev" for m, d in _cells())
    # Every cell pins the single-token prompt and a multi-step generation.
    for cell in golden.values():
        assert "[1:1]" in cell and "[64:64]" in cell


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_timing_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {f"{m}-{d}dev": snapshot_cell(m, d) for m, d in _cells()}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cells to {FIXTURE}")
