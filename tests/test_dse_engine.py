"""Generators, the search loop, the Fig. 8 regression, and the acceptance
corner-point recovery (the paper's Sec. III-A asymmetry)."""

from __future__ import annotations

import pytest

from repro.dse import (
    ApplianceEvaluator,
    Dimension,
    EvolutionaryGenerator,
    FactorialGenerator,
    Objective,
    ObjectiveVector,
    SearchSpace,
    appliance_search_space,
    evolutionary_search,
    factorial_search,
)
from repro.errors import ConfigurationError


class SphereEvaluator:
    """Cheap two-objective toy: minimize x, maximize y (values = labels)."""

    objectives = (Objective("x", "min"), Objective("y", "max"))

    def evaluate(self, candidate):
        return ObjectiveVector(
            objectives=self.objectives,
            values=(float(candidate["x"]), float(candidate["y"])),
        )


def toy_space() -> SearchSpace:
    return SearchSpace([
        Dimension("x", [0, 1, 2, 3]),
        Dimension("y", [0, 1, 2, 3]),
    ])


class TestFactorialGenerator:
    def test_emits_grid_once_then_exhausts(self):
        space = toy_space()
        generator = FactorialGenerator(space)
        batch = generator.ask()
        assert len(batch) == space.size
        generator.tell([])
        assert generator.ask() is None

    def test_fixed_slice(self):
        generator = FactorialGenerator(toy_space(), fixed={"x": "2"})
        batch = generator.ask()
        assert len(batch) == 4
        assert all(candidate["x"] == 2 for candidate in batch)


class TestEvolutionaryGenerator:
    def test_runs_exactly_n_generations(self):
        space = toy_space()
        generator = EvolutionaryGenerator(
            space, population_size=4, generations=3, seed=0
        )
        evaluator = SphereEvaluator()
        rounds = 0
        while (batch := generator.ask()) is not None:
            from repro.dse.objectives import EvaluatedCandidate

            evaluated = [
                EvaluatedCandidate(candidate=c, vector=evaluator.evaluate(c))
                for c in batch
            ]
            generator.tell(evaluated)
            rounds += 1
        assert rounds == 3

    def test_deterministic_for_fixed_seed(self):
        def trajectory(seed: int) -> list[list[str]]:
            generator = EvolutionaryGenerator(
                toy_space(), population_size=4, generations=3, seed=seed
            )
            evaluator = SphereEvaluator()
            from repro.dse.objectives import EvaluatedCandidate

            rounds = []
            while (batch := generator.ask()) is not None:
                rounds.append([c.key for c in batch])
                generator.tell([
                    EvaluatedCandidate(candidate=c, vector=evaluator.evaluate(c))
                    for c in batch
                ])
            return rounds

        assert trajectory(5) == trajectory(5)
        assert trajectory(5) != trajectory(6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"generations": 0},
            {"mutation_rate": 1.5},
            {"crossover_rate": -0.1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EvolutionaryGenerator(toy_space(), **kwargs)


class TestRunSearch:
    def test_factorial_search_finds_exact_front(self):
        result = factorial_search(toy_space(), SphereEvaluator())
        assert result.num_evaluated == 16
        assert result.mode == "factorial"
        # The true front of (min x, max y) over the grid is the single
        # corner (x=0, y=3).
        assert result.front.keys() == ["x=0|y=3"]

    def test_evolutionary_search_converges_on_toy_front(self):
        result = evolutionary_search(
            toy_space(),
            SphereEvaluator(),
            population_size=6,
            generations=5,
            seed=1,
        )
        assert result.mode == "evolutionary"
        assert "x=0|y=3" in result.front.keys()

    def test_evaluation_lookup(self):
        result = factorial_search(toy_space(), SphereEvaluator())
        entry = result.evaluation("x=1|y=2")
        assert entry.vector.value("x") == 1.0
        with pytest.raises(ConfigurationError, match="no evaluation"):
            result.evaluation("x=9|y=9")


@pytest.fixture(scope="module")
def acceptance_result():
    """The ISSUE acceptance search: seeded evolutionary search over
    backend x scheduler x batch on the tiny config, with serving-simulated
    tail latency."""
    space = appliance_search_space(
        backends=("dfx", "gpu"),
        schedulers=("fifo", "sjf"),
        batch_sizes=(1, 32),
    )
    evaluator = ApplianceEvaluator(
        config="test-small",
        serving_duration_s=30.0,
        arrival_rate_per_s=0.5,
        seed=0,
    )
    return evolutionary_search(
        space, evaluator, population_size=6, generations=4, seed=7
    )


class TestAcceptanceCornerPoints:
    """The Sec. III-A asymmetry must fall out of the search."""

    def test_batched_gpu_dominates_aggregate_throughput(self, acceptance_result):
        best = acceptance_result.front.best("aggregate_tokens_per_s")
        assert best.candidate["backend"] == "gpu"
        assert best.candidate["batch"] == 32

    def test_unbatched_dfx_dominates_tail_latency(self, acceptance_result):
        best = acceptance_result.front.best("p99_latency_s")
        assert best.candidate["backend"] == "dfx"
        assert best.candidate["batch"] == 1

    def test_both_corners_are_front_members(self, acceptance_result):
        backends_on_front = {
            member.candidate["backend"] for member in acceptance_result.front
        }
        assert {"dfx", "gpu"} <= backends_on_front

    def test_batching_on_dfx_recorded_infeasible(self, acceptance_result):
        infeasible = [
            entry
            for entry in acceptance_result.evaluated
            if not entry.feasible
        ]
        assert all(entry.candidate["backend"] == "dfx" for entry in infeasible)
        assert all(entry.candidate["batch"] == 32 for entry in infeasible)

    def test_every_front_member_non_dominated_by_exhaustive_recompute(
        self, acceptance_result
    ):
        """Oracle: recompute every feasible candidate of the whole space
        directly through the evaluator and check no one dominates any front
        member."""
        evaluator = ApplianceEvaluator(
            config="test-small",
            serving_duration_s=30.0,
            arrival_rate_per_s=0.5,
            seed=0,
        )
        space = appliance_search_space(
            backends=("dfx", "gpu"),
            schedulers=("fifo", "sjf"),
            batch_sizes=(1, 32),
        )
        oracle_vectors = []
        for candidate in space.grid():
            try:
                oracle_vectors.append(evaluator.evaluate(candidate))
            except ConfigurationError:
                continue
        for member in acceptance_result.front:
            assert not any(
                vector.dominates(member.vector) for vector in oracle_vectors
            )

    def test_search_is_deterministic(self, acceptance_result):
        space = appliance_search_space(
            backends=("dfx", "gpu"),
            schedulers=("fifo", "sjf"),
            batch_sizes=(1, 32),
        )
        evaluator = ApplianceEvaluator(
            config="test-small",
            serving_duration_s=30.0,
            arrival_rate_per_s=0.5,
            seed=0,
        )
        rerun = evolutionary_search(
            space, evaluator, population_size=6, generations=4, seed=7
        )
        assert rerun.front.keys() == acceptance_result.front.keys()
        assert [e.key for e in rerun.evaluated] == [
            e.key for e in acceptance_result.evaluated
        ]


class TestApplianceEvaluator:
    @pytest.mark.parametrize("field", ["serving_duration_s", "arrival_rate_per_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_serving_settings_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ApplianceEvaluator(**{field: value})

    @pytest.mark.parametrize("argument, dimension", [
        ("devices", "devices"),
        ("clusters", "clusters"),
        ("batch_sizes", "batch"),
        ("racks", "racks"),
    ])
    def test_count_levels_below_one_rejected(self, argument, dimension):
        with pytest.raises(ConfigurationError, match=dimension):
            appliance_search_space(**{argument: (1, 0)})

    def test_unknown_dimension_rejected(self):
        space = SearchSpace([
            Dimension("backend", ["dfx"]), Dimension("mystery", [1]),
        ])
        evaluator = ApplianceEvaluator(serving_duration_s=None)
        with pytest.raises(ConfigurationError, match="unknown search dimensions"):
            evaluator.evaluate(space.candidate((0, 0)))

    def test_backend_and_fleet_mutually_exclusive(self):
        space = SearchSpace([
            Dimension("backend", ["dfx"]),
            Dimension("fleet", {"dfx+gpu": ("dfx", "gpu")}),
        ])
        evaluator = ApplianceEvaluator(serving_duration_s=None)
        with pytest.raises(ConfigurationError, match="exactly one"):
            evaluator.evaluate(space.candidate((0, 0)))

    def test_analytic_mode_uses_single_batch_latency_objective(self):
        evaluator = ApplianceEvaluator(serving_duration_s=None)
        assert evaluator.objectives[0].name == "latency_s"
        space = appliance_search_space(
            backends=("dfx",), schedulers=("fifo",), batch_sizes=(1,)
        )
        vector = evaluator.evaluate(space.grid()[0])
        assert vector.value("latency_s") > 0
        assert vector.value("device_cost_usd") > 0

    def test_fleet_dimension_sums_members(self):
        evaluator = ApplianceEvaluator(serving_duration_s=None)
        solo = appliance_search_space(
            backends=("dfx",), schedulers=("fifo",), batch_sizes=(1,)
        )
        duo = appliance_search_space(
            fleets=(("dfx", "dfx"),), schedulers=("fifo",), batch_sizes=(1,)
        )
        solo_vector = evaluator.evaluate(solo.grid()[0])
        duo_vector = evaluator.evaluate(duo.grid()[0])
        assert duo_vector.value("aggregate_tokens_per_s") == pytest.approx(
            2 * solo_vector.value("aggregate_tokens_per_s")
        )
        assert duo_vector.value("device_cost_usd") == pytest.approx(
            2 * solo_vector.value("device_cost_usd")
        )

    def test_racks_multiply_throughput_and_cost(self):
        evaluator = ApplianceEvaluator(serving_duration_s=None)
        space = appliance_search_space(
            backends=("dfx",),
            schedulers=("fifo",),
            batch_sizes=(1,),
            racks=(1, 3),
        )
        one, three = [evaluator.evaluate(c) for c in space.grid()]
        assert three.value("aggregate_tokens_per_s") == pytest.approx(
            3 * one.value("aggregate_tokens_per_s")
        )
        assert three.value("device_cost_usd") == pytest.approx(
            3 * one.value("device_cost_usd")
        )
