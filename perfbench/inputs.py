"""Seeded input generators for the benchmark workloads.

Every function here is a pure function of its arguments: the same seed
gives the same prompts, request shapes and arrival times, and nothing in
the program under test is called to make them.  In particular the
program's own trace builders (``diurnal_trace`` and friends) are not used:
they are input generation, and a change to how they consume their RNG
would move every simulated number.

Lengths, request shapes and arrival times are *stratified*: ``n`` values
cover their range evenly, the seed jitters each one inside its stratum and
shuffles the order.  Sums and tail statistics over a run therefore barely
move between seeds, while every seed still gives different inputs.

The engine workloads are made of *units* that do the same work: the same
prompt lengths and budgets, with other tokens in another order.  A host
rate is then a median over samples of equal work, never one that moves
with the mix of cheap and dear requests in a sample.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Vocabulary size of ``GPT2_TEST_SMALL`` (token ids are drawn below it).
VOCAB_SIZE = 1024

#: Request shapes of the datacenter mix, as ``(input, output)`` tokens, and
#: their weights.  Kept here rather than read from the program so the
#: inputs cannot move when the program's mix object changes.
DATACENTER_SHAPES = ((50, 50), (50, 150), (128, 16), (256, 8))
DATACENTER_WEIGHTS = (0.45, 0.30, 0.15, 0.10)

#: Service class of each datacenter shape in the fleet log, as
#: ``(label, priority, slo_s)``: the two classes of
#: ``examples/datacenter_serving.py``, urgent interactive traffic with a 6 s
#: SLO (chat, question answering) and best-effort batch traffic (articles,
#: summaries).  No request has a patience, so none is abandoned and the
#: served mix is the offered mix.
FLEET_CLASSES = (
    ("interactive", 0, 6.0),
    ("batch", 1, None),
    ("interactive", 0, 6.0),
    ("batch", 1, None),
)


def _rng(seed: int, stream: str) -> np.random.Generator:
    """An RNG for one named input stream of one seed."""
    return np.random.default_rng([seed, sum(map(ord, stream))])


@dataclass(frozen=True)
class EngineInputs:
    """Prompts and generation budgets for one engine workload.

    Every ``unit`` consecutive prompts hold the same lengths and budgets, so
    each unit is the same work.
    """

    prompts: tuple[tuple[int, ...], ...]
    new_tokens: tuple[int, ...]
    unit: int = 1


def stratified_shapes(rng: np.random.Generator, n: int,
                      block: int = 100) -> np.ndarray:
    """``n`` datacenter-shape indices, the mix exact in every ``block``.

    Each block of ``block`` requests holds the mix's weights exactly, in a
    seeded order, so the offered work of any stretch of the stream is fixed.
    """
    counts = np.round(np.array(DATACENTER_WEIGHTS) * block).astype(np.int64)
    pattern = np.repeat(np.arange(len(DATACENTER_SHAPES)), counts)
    blocks = -(-n // pattern.size)
    return np.concatenate(
        [rng.permutation(pattern) for _ in range(blocks)]
    )[:n]


def generate_inputs(seed: int, prompts: int, low: int = 236,
                    high: int = 244) -> EngineInputs:
    """4-token prompts that each decode the same seeded budget.

    The budget is drawn once from ``[low, high]``, so every prompt is the
    same work and each one is a unit of its own, while the simulated
    latencies still differ between seeds.
    """
    rng = _rng(seed, "generate")
    budget = int(rng.integers(low, high + 1))
    tokens = rng.integers(0, VOCAB_SIZE, size=(prompts, 4))
    return EngineInputs(
        prompts=tuple(tuple(int(t) for t in row) for row in tokens),
        new_tokens=(budget,) * prompts,
    )


def summarize_inputs(seed: int, units: int, unit: int = 10, low: int = 16,
                     high: int = 200) -> EngineInputs:
    """Ragged 16-200 token prompts with 6-10 new tokens (summarization).

    One seeded composition of ``unit`` (length, budget) pairs spans both
    ranges evenly: one length in each of ``unit`` equal strata of
    ``[low, high]``, jittered inside it, and the budgets 6-10 in equal
    shares, paired with the lengths in a seeded order.  Every one of the
    ``units`` units holds that composition in its own seeded order, with
    its own seeded tokens.
    """
    rng = _rng(seed, "summarize")
    strata = low + (high + 1 - low) * (np.arange(unit) + rng.random(unit)) / unit
    lengths = np.minimum(np.floor(strata).astype(np.int64), high)
    budgets = rng.permutation(6 + (5 * np.arange(unit)) // unit)
    prompts: list[tuple[int, ...]] = []
    new_tokens: list[int] = []
    for _ in range(units):
        for k in rng.permutation(unit).tolist():
            prompts.append(tuple(
                int(t) for t in rng.integers(0, VOCAB_SIZE, size=int(lengths[k]))
            ))
            new_tokens.append(int(budgets[k]))
    return EngineInputs(prompts=tuple(prompts), new_tokens=tuple(new_tokens),
                        unit=unit)


@dataclass(frozen=True)
class Arrivals:
    """A request stream as arrays: arrival times and datacenter-shape index."""

    times_s: np.ndarray
    shapes: np.ndarray

    def __len__(self) -> int:
        return int(self.times_s.size)


def diurnal_arrivals(seed: int, cycles: int, peak_rate_per_s: float = 9.0,
                     period_s: float = 3600.0) -> Arrivals:
    """``cycles`` whole days of a diurnal stream over the datacenter shapes.

    The rate follows a raised cosine between a tenth of the peak and the
    peak.  The peak oversubscribes eight DFX clusters by about 1.2x while
    the cycle mean stays under capacity, so the queue builds through every
    peak and drains through every trough.  Request ``i`` arrives where the
    cumulative rate reaches ``i + u`` with ``u`` uniform in ``[0, 1)``: the
    stream follows the rate curve exactly, without the Poisson bursts that
    would move the simulated tail by several percent from seed to seed.
    """
    rng = _rng(seed, "diurnal")
    trough = peak_rate_per_s / 10.0
    grid = np.linspace(0.0, cycles * period_s, cycles * int(period_s) + 1)
    cumulative = trough * grid + (peak_rate_per_s - trough) * (
        grid / 2.0 - period_s / (4.0 * np.pi) * np.sin(2.0 * np.pi * grid / period_s)
    )
    requests = int(cumulative[-1])
    times = np.interp(np.arange(requests) + rng.random(requests), cumulative, grid)
    return Arrivals(times_s=times, shapes=stratified_shapes(rng, requests))


def steady_arrivals(seed: int, requests: int, rate_per_s: float) -> Arrivals:
    """A stream at a constant rate over the datacenter shapes.

    Request ``i`` arrives at ``(i + u) / rate_per_s`` with ``u`` uniform in
    ``[0, 1)``, as the diurnal stream does: Poisson bursts near the fleet's
    capacity would move the simulated tail by tens of percent between seeds.
    """
    rng = _rng(seed, "fleet")
    times = (np.arange(requests) + rng.random(requests)) / rate_per_s
    return Arrivals(times_s=times, shapes=stratified_shapes(rng, requests))


def fleet_log_records(arrivals: Arrivals) -> list[dict]:
    """JSONL records of a fleet request log, one per arrival."""
    records = []
    for time_s, shape in zip(arrivals.times_s.tolist(), arrivals.shapes.tolist()):
        input_tokens, output_tokens = DATACENTER_SHAPES[shape]
        label, priority, slo_s = FLEET_CLASSES[shape]
        record = {
            "arrival_time_s": time_s,
            "input_tokens": input_tokens,
            "output_tokens": output_tokens,
            "service_class": label,
            "priority": priority,
        }
        if slo_s is not None:
            record["slo_s"] = slo_s
        records.append(record)
    return records


def write_jsonl(records: list[dict], path: Path) -> None:
    """Write one JSON object per line (``repr`` floats round-trip exactly)."""
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record))
            handle.write("\n")
