"""Golden pin: functional-engine outputs, compared with ``==``.

The functional-vs-reference tests compare logits within a tolerance, and
the batched-vs-sequential tests compare the engine with itself, so neither
pins the exact bits the engine produces across commits.  This module does.
On the tiny configuration (weights seed 7), under every numerics mode and
on 1, 2 and 4 devices, it records

* the sha256 of the logits of a 4-token prefill and of three greedy decode
  steps after it, with each step's greedy token;
* the same for a chunked prefill, ``forward`` of 3 tokens and then of 2,
  which runs the causal mask at a nonzero past, and the cache length after
  it;
* ``generate([9, 10, 11], 6)``;
* the ragged ``generate_batch`` of ``TestBatchedEngine.PROMPTS`` and
  ``BUDGETS``,

and compares each case with the committed fixture
``golden/functional_engine.json``.  Every piece runs on a fresh simulator.

Regenerate the fixture only for a change that is meant to move engine
outputs, and say so where the change is described::

    PYTHONPATH=src python tests/test_functional_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import test_fastpath_engine as fastpath
from repro.core.functional import DFXFunctionalSimulator
from repro.model.config import GPT2_TEST_TINY
from repro.model.numerics import FP16_DFX, FP16_GPU, FP32_EXACT
from repro.model.weights import generate_weights

FIXTURE = Path(__file__).resolve().parent / "golden" / "functional_engine.json"
WEIGHT_SEED = 7
NUMERICS = {"FP16_DFX": FP16_DFX, "FP32_EXACT": FP32_EXACT, "FP16_GPU": FP16_GPU}
DEVICES = (1, 2, 4)
CASES = [f"{mode}/{devices}" for mode in NUMERICS for devices in DEVICES]

PREFILL = [5, 111, 42, 7]
DECODE_STEPS = 3
CHUNKS = ([4, 8, 15], [16, 23])
GENERATE = ([9, 10, 11], 6)


def _digest(logits: np.ndarray) -> str:
    return hashlib.sha256(logits.tobytes()).hexdigest()


def snapshot(weights, case: str) -> dict:
    """Every pinned output of one ``numerics/devices`` case."""
    mode, devices = case.split("/")

    def simulator() -> DFXFunctionalSimulator:
        return DFXFunctionalSimulator(
            weights, num_devices=int(devices), numerics=NUMERICS[mode]
        )

    stepped = simulator()
    logits, token = stepped.forward(np.asarray(PREFILL))
    steps = [[_digest(logits), token]]
    for _ in range(DECODE_STEPS):
        logits, token = stepped.forward(np.asarray([token]))
        steps.append([_digest(logits), token])

    chunked = simulator()
    chunks = []
    for chunk in CHUNKS:
        logits, token = chunked.forward(np.asarray(chunk))
        chunks.append([_digest(logits), token])

    prompt, budget = GENERATE
    return {
        "prefill_then_decode": steps,
        "chunked_prefill": chunks,
        "chunked_kv_cache_length": chunked.kv_cache_length,
        "generate": simulator().generate(list(prompt), budget),
        "generate_batch": simulator().generate_batch(
            fastpath.TestBatchedEngine.PROMPTS, fastpath.TestBatchedEngine.BUDGETS
        ),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_engine_outputs_match_golden(case, tiny_weights, golden):
    assert snapshot(tiny_weights, case) == golden[case]


def write_fixture() -> None:
    weights = generate_weights(GPT2_TEST_TINY, seed=WEIGHT_SEED)
    data = {case: snapshot(weights, case) for case in CASES}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_functional_golden.py --write")
    write_fixture()
