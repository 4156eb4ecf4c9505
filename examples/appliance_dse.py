"""Appliance-level design-space exploration walkthrough (ROADMAP item 3).

The paper fixes one appliance design point — 4 FPGAs, the (64, 16) tile,
unbatched FIFO serving.  This walkthrough asks the production question the
DSE engine answers: *which* configuration wins on latency x throughput x
energy x cost for a given traffic mix?

1. a factorial sweep over backend x scheduler x batch size, scored on four
   objectives (p99 latency from a short serving-simulator run — each
   candidate served as one `ServingScenario`; aggregate tokens/s,
   energy/token, and device cost analytically);
2. the Pareto front of that sweep — the Sec. III-A asymmetry falls out:
   the unbatched DFX appliance owns the latency end, the batched GPU
   appliance owns the throughput end;
3. the same space under the seeded evolutionary (NSGA-II-style) search,
   which finds the identical front while evaluating only a fraction of a
   larger grid.

The paper's own tile-shape sweep (Fig. 8) is `run_figure8`
(`python -m repro.cli experiment figure8`).

Run with:  python examples/appliance_dse.py
"""

from __future__ import annotations

from repro.analysis.reports import format_table
from repro.dse import (
    ApplianceEvaluator,
    appliance_search_space,
    evolutionary_search,
    factorial_search,
)

#: One short serving run per candidate: enough requests for a stable tail
#: on the test-small preset, cheap enough that the full grid takes seconds.
EVALUATOR = ApplianceEvaluator(
    config="test-small",
    serving_duration_s=30.0,
    arrival_rate_per_s=0.5,
    seed=0,
)


def print_front(front) -> None:
    header = ["candidate"] + [objective.name for objective in front.objectives]
    rows = [
        [member.candidate.key, *member.vector.values] for member in front
    ]
    print(format_table(header, rows))


def explore_factorial() -> None:
    print("== 1. Factorial sweep: backend x scheduler x batch ==\n")
    space = appliance_search_space(
        backends=("dfx", "gpu"),
        schedulers=("fifo", "sjf"),
        batch_sizes=(1, 32),
    )
    result = factorial_search(space, EVALUATOR)
    print(f"{space}: {result.num_evaluated} candidates, "
          f"{result.num_feasible} feasible "
          f"(batch=32 on the unbatched DFX cluster is rejected)\n")

    print("== 2. The Pareto front: the paper's Sec. III-A asymmetry ==\n")
    print_front(result.front)
    fastest = result.front.best("p99_latency_s")
    densest = result.front.best("aggregate_tokens_per_s")
    print(f"\nlatency corner:    {fastest.candidate.key}")
    print(f"throughput corner: {densest.candidate.key}\n")


def explore_evolutionary() -> None:
    print("== 3. Seeded evolutionary search over a larger space ==\n")
    space = appliance_search_space(
        backends=("dfx", "dfx-4u", "gpu"),
        schedulers=("fifo", "sjf", "shape"),
        batch_sizes=(1, 8, 32),
        racks=(1, 2),
    )
    result = evolutionary_search(
        space, EVALUATOR, population_size=8, generations=4, seed=0
    )
    print(f"{space}: evaluated {result.num_evaluated} of {space.size} "
          f"candidates in {result.generations} generations\n")
    print_front(result.front)
    print()


def main() -> None:
    explore_factorial()
    explore_evolutionary()


if __name__ == "__main__":
    main()
