"""Print the paper scorecard and the appliance DSE's Pareto front.

Every figure of :mod:`repro.analysis.scorecard` is one section: its driver
runs once, and each paper number or shape claim prints with the model's
value, the paper's, the error and the bound:

    python scripts/run_all_experiments.py
    python scripts/run_all_experiments.py --section "figure 1"
    python scripts/run_all_experiments.py --list

Each section runs independently: a section that raises prints its traceback
and the script continues.  It exits non-zero at the end if any row missed
its bound or any section raised, so CI sees a red run without one broken
driver masking the rest.  ``--section TEXT`` runs only the sections whose
title contains TEXT (case-insensitive), letting CI run slices instead of
all-or-nothing.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import Callable

from repro.analysis import experiments, scorecard


def section_figure(name: str) -> Callable[[], int]:
    """A section printing one figure's scorecard rows; it returns their failures."""
    def run() -> int:
        scores = scorecard.score([name])
        print(scorecard.format_scores(scores))
        return sum(not s.passed for s in scores)
    return run


def section_dse() -> int:
    result = experiments.run_design_space_exploration(
        mode="evolutionary", population_size=6, generations=3, seed=0
    )
    print(f"evaluated {result.num_evaluated} candidates "
          f"({result.num_feasible} feasible); Pareto front:")
    for member in result.front:
        values = {name: round(value, 4)
                  for name, value in member.vector.as_dict().items()}
        print(f"  {member.candidate.key}: {values}")
    return 0


#: Every report section: title -> runner returning its failed rows.
SECTIONS: tuple[tuple[str, Callable[[], int]], ...] = (
    *((title, section_figure(name)) for name, (title, _) in scorecard.DRIVERS.items()),
    ("DSE — appliance design-space exploration (Pareto front)", section_dse),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--section", default=None, metavar="TEXT",
                        help="run only sections whose title contains TEXT "
                             "(case-insensitive substring)")
    parser.add_argument("--list", action="store_true",
                        help="list section titles and exit")
    args = parser.parse_args(argv)

    if args.list:
        for title, _ in SECTIONS:
            print(title)
        return 0

    selected = [
        (title, run)
        for title, run in SECTIONS
        if args.section is None or args.section.lower() in title.lower()
    ]
    if not selected:
        print(f"no section title contains {args.section!r}", file=sys.stderr)
        return 2

    print("DFX reproduction — paper scorecard")
    failures = []
    for title, run in selected:
        print()
        print(f"### {title}")
        try:
            failed_rows = run()
        except Exception:
            failures.append(title)
            traceback.print_exc()
            continue
        if failed_rows:
            failures.append(title)
    if failures:
        print()
        print(f"{len(failures)} section(s) failed: {failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
