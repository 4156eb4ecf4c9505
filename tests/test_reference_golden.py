"""Golden pin: reference-model outputs, compared with ``==``.

The engine-vs-reference tests compare logits within a tolerance, so they
do not pin the exact bits the reference model produces across commits.
This module does.  On the tiny configuration (weights seed 7), under every
numerics mode, it records

* the sha256 of the logits of a 4-token prefill into a preallocated cache
  and of three greedy decode steps after it, with each step's greedy token;
* the same for a chunked prefill, ``forward`` of 3 tokens and then of 2,
  which runs the causal mask at a nonzero past;
* a forward with no cache (the default cache ``forward`` builds), and a
  prefill plus decode steps into ``new_cache()`` with no preallocated
  capacity, so ``LayerKVCache._grow`` runs three times;
* greedy and sampled ``TextGenerator.generate_tokens`` outputs,

and, on the small configuration (weights seed 11) under ``FP16_DFX``, one
sha256 over the per-step digests of a 4-token prefill and 220 decode steps,
which read a KV cache more than 200 positions long.  Every case runs on a
fresh model and compares with the committed fixture
``golden/reference_model.json``.

Regenerate the fixture only for a change that is meant to move reference
outputs, and say so where the change is described::

    PYTHONPATH=src python tests/test_reference_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.model.config import GPT2_TEST_SMALL, GPT2_TEST_TINY
from repro.model.generation import TextGenerator
from repro.model.gpt2 import GPT2Model
from repro.model.numerics import FP16_DFX, FP16_GPU, FP32_EXACT
from repro.model.weights import generate_weights

FIXTURE = Path(__file__).resolve().parent / "golden" / "reference_model.json"
WEIGHT_SEED = 7
NUMERICS = {"FP16_DFX": FP16_DFX, "FP32_EXACT": FP32_EXACT, "FP16_GPU": FP16_GPU}

PREFILL = [5, 111, 42, 7]
DECODE_STEPS = 3
CHUNKS = ([4, 8, 15], [16, 23])
UNRESERVED = ([3, 1, 4, 1, 5, 9], 12)
GENERATE = ([9, 10, 11], 6)
SAMPLED = ([2, 7, 1, 8], 6, 0.8)

LONG_WEIGHT_SEED = 11
LONG_PROMPT = [17, 4, 250, 9]
LONG_DECODE_STEPS = 220


def _digest(logits: np.ndarray) -> str:
    return hashlib.sha256(logits.tobytes()).hexdigest()


def _decode(model: GPT2Model, prompt: list[int], steps: int, cache) -> list:
    """``[digest, token]`` of a prefill and of ``steps`` greedy steps."""
    result = model.forward(np.asarray(prompt), cache)
    pinned = [[_digest(result.logits), result.next_token_id]]
    for _ in range(steps):
        result = model.forward(np.asarray([result.next_token_id]), cache)
        pinned.append([_digest(result.logits), result.next_token_id])
    return pinned


def snapshot(weights, mode: str) -> dict:
    """Every pinned output of one numerics mode on ``weights``."""

    def model() -> GPT2Model:
        return GPT2Model(weights, numerics=NUMERICS[mode])

    reserved = model()
    steps = _decode(
        reserved, PREFILL, DECODE_STEPS,
        reserved.new_cache(capacity=len(PREFILL) + DECODE_STEPS),
    )

    chunked = model()
    cache = chunked.new_cache()
    chunks = []
    for chunk in CHUNKS:
        result = chunked.forward(np.asarray(chunk), cache)
        chunks.append([_digest(result.logits), result.next_token_id])

    uncached = model().forward(np.asarray(PREFILL))
    unreserved = model()
    prompt, steps_without_capacity = UNRESERVED
    unreserved_cache = unreserved.new_cache()
    unreserved_steps = _decode(
        unreserved, prompt, steps_without_capacity, unreserved_cache
    )

    prompt, budget = GENERATE
    greedy = TextGenerator(model()).generate_tokens(list(prompt), budget)
    prompt, budget, temperature = SAMPLED
    sampled = TextGenerator(model(), seed=3).generate_tokens(
        list(prompt), budget, temperature=temperature
    )
    return {
        "prefill_then_decode": steps,
        "chunked_prefill": chunks,
        "chunked_kv_cache_length": cache.seq_len,
        "forward_without_cache": [_digest(uncached.logits), uncached.next_token_id],
        "decode_without_capacity": unreserved_steps,
        "capacity_after_growth": unreserved_cache.layer(0).capacity,
        "generate_tokens": [
            _digest(greedy.summarization_logits),
            greedy.output_token_ids,
            greedy.kv_cache_length,
        ],
        "generate_tokens_sampled": [
            _digest(sampled.summarization_logits),
            sampled.output_token_ids,
            sampled.kv_cache_length,
        ],
    }


def long_decode_snapshot(weights) -> dict:
    """One digest over every step of a decode past 200 positions."""
    model = GPT2Model(weights, numerics=FP16_DFX)
    cache = model.new_cache(capacity=len(LONG_PROMPT) + LONG_DECODE_STEPS)
    steps = _decode(model, LONG_PROMPT, LONG_DECODE_STEPS, cache)
    return {
        "steps_sha256": hashlib.sha256(json.dumps(steps).encode()).hexdigest(),
        "tokens": [token for _, token in steps],
        "kv_cache_length": cache.seq_len,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("mode", NUMERICS)
def test_reference_outputs_match_golden(mode, tiny_weights, golden):
    assert snapshot(tiny_weights, mode) == golden[mode]


def test_long_small_decode_matches_golden(small_weights, golden):
    assert long_decode_snapshot(small_weights) == golden["FP16_DFX/test-small/long"]


def write_fixture() -> None:
    weights = generate_weights(GPT2_TEST_TINY, seed=WEIGHT_SEED)
    data = {mode: snapshot(weights, mode) for mode in NUMERICS}
    data["FP16_DFX/test-small/long"] = long_decode_snapshot(
        generate_weights(GPT2_TEST_SMALL, seed=LONG_WEIGHT_SEED)
    )
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_reference_golden.py --write")
    write_fixture()
