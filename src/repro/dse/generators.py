"""Candidate generators: factorial designs and seeded evolutionary search.

Generators speak an ask/tell protocol the engine drives:

* ``ask()`` returns the next batch (one *generation*) of candidates to
  evaluate, or ``None`` when the search is finished;
* ``tell(evaluated)`` feeds the batch's evaluations back, so adaptive
  generators (the evolutionary one) can breed the next generation.

:class:`FactorialGenerator` emits the (optionally sliced) full grid as a
single generation — the DAVOS-style factorial design, and exactly how the
Fig. 8 tile sweep rides the general engine.

:class:`EvolutionaryGenerator` is an NSGA-II-style loop over dimension
*indices*: binary tournament selection on (non-domination rank, crowding
distance), uniform crossover, and per-gene mutation, all driven by one
seeded ``random.Random`` — the whole search is a pure function of
``(space, evaluator, seed)``, which is what makes run-twice CI checks and
parallel evaluation byte-identical.
"""

from __future__ import annotations

import math
import random
from typing import Mapping, Protocol, Sequence, runtime_checkable

from repro.dse.objectives import EvaluatedCandidate
from repro.dse.pareto import crowding_distances, non_dominated_sort
from repro.dse.space import Candidate, SearchSpace
from repro.errors import check_number


@runtime_checkable
class CandidateGenerator(Protocol):
    """The ask/tell protocol the exploration engine drives."""

    def ask(self) -> list[Candidate] | None:
        ...  # pragma: no cover - protocol

    def tell(self, evaluated: Sequence[EvaluatedCandidate]) -> None:
        ...  # pragma: no cover - protocol


class FactorialGenerator:
    """The full (optionally sliced) factorial grid, as one generation."""

    def __init__(
        self, space: SearchSpace, fixed: Mapping[str, str] | None = None
    ) -> None:
        self.space = space
        self.fixed = dict(fixed or {})
        self._emitted = False

    def ask(self) -> list[Candidate] | None:
        if self._emitted:
            return None
        self._emitted = True
        return self.space.grid(fixed=self.fixed)

    def tell(self, evaluated: Sequence[EvaluatedCandidate]) -> None:
        pass


class EvolutionaryGenerator:
    """Seeded NSGA-II-style search over dimension indices.

    ``generations`` counts evaluated generations including the random
    initial population.  Candidates are bred by binary tournament on
    (rank, crowding), uniform crossover with probability
    ``crossover_rate`` (otherwise the first parent is cloned), and
    per-gene mutation with probability ``mutation_rate`` (resampling a
    *different* level, so a mutation always changes the gene).

    Selection scores come from everything evaluated so far (the archive),
    so a candidate revisited across generations is never re-evaluated —
    the evaluation pool deduplicates by candidate key — and infeasible
    candidates rank below every feasible one.
    """

    def __init__(
        self,
        space: SearchSpace,
        *,
        population_size: int = 16,
        generations: int = 6,
        seed: int = 0,
        mutation_rate: float = 0.25,
        crossover_rate: float = 0.9,
    ) -> None:
        check_number("population_size", population_size, 2, integer=True)
        check_number("generations", generations, 1, integer=True)
        check_number("mutation_rate", mutation_rate, 0.0, 1.0)
        check_number("crossover_rate", crossover_rate, 0.0, 1.0)
        self.space = space
        self.population_size = population_size
        self.generations = generations
        self.mutation_rate = mutation_rate
        self.crossover_rate = crossover_rate
        self._rng = random.Random(seed)
        self._generation = 0
        self._archive: dict[str, EvaluatedCandidate] = {}
        self._parents: list[tuple[int, ...]] = []
        self._population = self._initial_population()

    # ---------------------------------------------------------------- ask/tell
    def ask(self) -> list[Candidate] | None:
        if self._generation >= self.generations:
            return None
        return [self.space.candidate(indices) for indices in self._population]

    def tell(self, evaluated: Sequence[EvaluatedCandidate]) -> None:
        for entry in evaluated:
            self._archive.setdefault(entry.key, entry)
        self._generation += 1
        if self._generation >= self.generations:
            return
        # (mu + lambda) survival: parents and the just-evaluated offspring
        # compete for the next parent set, ranked by front then crowding.
        pool = self._unique(self._parents + self._population)
        scores = self._score(pool)
        pool.sort(key=lambda indices: scores[self.space.candidate(indices).key])
        self._parents = pool[: self.population_size]
        self._population = self._breed(self._parents, scores)

    # ----------------------------------------------------------------- helpers
    def _initial_population(self) -> list[tuple[int, ...]]:
        population: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        # Prefer distinct individuals; fall back to duplicates once the
        # space (or luck) runs out so tiny spaces still fill a population.
        attempts = 0
        while len(population) < self.population_size:
            indices = self.space.random_indices(self._rng)
            attempts += 1
            if indices in seen and attempts < 50 * self.population_size:
                continue
            seen.add(indices)
            population.append(indices)
        return population

    def _unique(
        self, individuals: Sequence[tuple[int, ...]]
    ) -> list[tuple[int, ...]]:
        seen: set[tuple[int, ...]] = set()
        unique: list[tuple[int, ...]] = []
        for indices in individuals:
            if indices not in seen:
                seen.add(indices)
                unique.append(indices)
        return unique

    def _score(
        self, pool: Sequence[tuple[int, ...]]
    ) -> dict[str, tuple[float, float, str]]:
        """Sort key per candidate key: (rank, -crowding, key).

        Feasible members rank by non-dominated front and crowding distance
        over the *pool*; infeasible (or not-yet-evaluated, which cannot
        happen through the engine) members rank last.
        """
        keyed = [(indices, self.space.candidate(indices).key) for indices in pool]
        feasible = [
            (indices, key)
            for indices, key in keyed
            if key in self._archive and self._archive[key].feasible
        ]
        scores: dict[str, tuple[float, float, str]] = {
            key: (math.inf, 0.0, key) for _, key in keyed
        }
        if feasible:
            vectors = [self._archive[key].vector for _, key in feasible]
            fronts = non_dominated_sort(vectors)
            for rank, front in enumerate(fronts):
                distances = crowding_distances(vectors, front)
                for index in front:
                    key = feasible[index][1]
                    scores[key] = (float(rank), -distances[index], key)
        return scores

    def _breed(
        self,
        parents: Sequence[tuple[int, ...]],
        scores: dict[str, tuple[float, float, str]],
    ) -> list[tuple[int, ...]]:
        offspring: list[tuple[int, ...]] = []
        while len(offspring) < self.population_size:
            first = self._tournament(parents, scores)
            second = self._tournament(parents, scores)
            child = self._crossover(first, second)
            child = self._mutate(child)
            offspring.append(child)
        return offspring

    def _tournament(
        self,
        parents: Sequence[tuple[int, ...]],
        scores: dict[str, tuple[float, float, str]],
    ) -> tuple[int, ...]:
        a = parents[self._rng.randrange(len(parents))]
        b = parents[self._rng.randrange(len(parents))]
        key_a = self.space.candidate(a).key
        key_b = self.space.candidate(b).key
        return a if scores[key_a] <= scores[key_b] else b

    def _crossover(
        self, first: tuple[int, ...], second: tuple[int, ...]
    ) -> tuple[int, ...]:
        if self._rng.random() >= self.crossover_rate:
            return first
        return tuple(
            a if self._rng.random() < 0.5 else b for a, b in zip(first, second)
        )

    def _mutate(self, indices: tuple[int, ...]) -> tuple[int, ...]:
        mutated = list(indices)
        for position, dimension in enumerate(self.space.dimensions):
            if len(dimension) < 2:
                continue
            if self._rng.random() < self.mutation_rate:
                # Resample among the *other* levels so mutation always moves.
                choice = self._rng.randrange(len(dimension) - 1)
                if choice >= mutated[position]:
                    choice += 1
                mutated[position] = choice
        return tuple(mutated)
