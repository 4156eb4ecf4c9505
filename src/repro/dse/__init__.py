"""Multi-objective design-space exploration over appliance configurations.

The subsystem answers ROADMAP open item 3: given the Backend registry —
where every candidate appliance is one ``make_backend`` call — which
configuration (backend, devices, scheduler, batch policy, fleet mix, rack
count) wins on latency x throughput x energy x cost?

Layers, bottom up:

* :mod:`repro.dse.space` — declarative :class:`SearchSpace` of named
  :class:`Dimension`\\ s; candidates are label-keyed and stable across runs.
* :mod:`repro.dse.objectives` — :class:`Objective` /
  :class:`ObjectiveVector` vocabulary with minimized-space dominance.
* :mod:`repro.dse.pareto` — NSGA-II primitives: non-dominated sorting,
  crowding distance, :class:`ParetoFront` extraction.
* :mod:`repro.dse.generators` — factorial and seeded evolutionary
  candidate generators behind one ask/tell protocol.
* :mod:`repro.dse.pool` — parallel, resumable :class:`EvaluationPool`
  (``--jobs N`` bit-identical to serial; JSON persistence per candidate).
* :mod:`repro.dse.engine` — the search loop and the
  :func:`factorial_search` / :func:`evolutionary_search` entry points.
* :mod:`repro.dse.appliance` — the built-in four-objective appliance
  evaluator; its tail-latency axis serves each candidate as one
  :class:`~repro.serving.ServingScenario`.

The paper's own tile-shape exploration (Fig. 8) has one path,
:func:`repro.analysis.experiments.run_figure8`.
"""

from repro.dse.appliance import (
    DEVICE_UNIT_PRICE_USD,
    ApplianceEvaluator,
    appliance_search_space,
)
from repro.dse.engine import (
    ExplorationResult,
    evolutionary_search,
    factorial_search,
    run_search,
)
from repro.dse.generators import (
    CandidateGenerator,
    EvolutionaryGenerator,
    FactorialGenerator,
)
from repro.dse.objectives import (
    SENSES,
    EvaluatedCandidate,
    Evaluator,
    Objective,
    ObjectiveVector,
    check_vector,
    feasible_only,
)
from repro.dse.pareto import (
    FrontMember,
    ParetoFront,
    crowding_distances,
    non_dominated_sort,
    pareto_front,
)
from repro.dse.pool import EvaluationPool, candidate_seed, result_filename
from repro.dse.space import KEY_SEPARATOR, Candidate, Dimension, SearchSpace

__all__ = [
    "KEY_SEPARATOR",
    "SENSES",
    "DEVICE_UNIT_PRICE_USD",
    "Candidate",
    "CandidateGenerator",
    "Dimension",
    "EvaluatedCandidate",
    "EvaluationPool",
    "Evaluator",
    "EvolutionaryGenerator",
    "ExplorationResult",
    "FactorialGenerator",
    "FrontMember",
    "Objective",
    "ObjectiveVector",
    "ParetoFront",
    "SearchSpace",
    "ApplianceEvaluator",
    "appliance_search_space",
    "candidate_seed",
    "check_vector",
    "crowding_distances",
    "evolutionary_search",
    "factorial_search",
    "feasible_only",
    "non_dominated_sort",
    "pareto_front",
    "result_filename",
    "run_search",
]
