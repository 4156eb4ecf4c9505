"""JSON round-trips for DSE candidates, vectors, evaluations, and fronts."""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis import export
from repro.dse import (
    Dimension,
    EvaluatedCandidate,
    Objective,
    ObjectiveVector,
    SearchSpace,
    factorial_search,
    pareto_front,
)
from repro.errors import ConfigurationError

OBJECTIVES = (
    Objective("latency_s", "min", "s"),
    Objective("tokens_per_s", "max", "tok/s"),
)


def make_space() -> SearchSpace:
    return SearchSpace([
        Dimension("backend", ["dfx", "gpu"]),
        Dimension("tile", {"64x16": (64, 16), "128x8": (128, 8)}),
    ])


class ToyEvaluator:
    objectives = OBJECTIVES

    def evaluate(self, candidate):
        bias = 1.0 if candidate["backend"] == "dfx" else 2.0
        d, _ = candidate["tile"]
        return ObjectiveVector(
            objectives=self.objectives, values=(bias, float(d))
        )


class TestCandidateRoundTrip:
    def test_round_trip_restores_values(self):
        space = make_space()
        original = space.candidate((1, 0))
        payload = export.dse_candidate_to_dict(original)
        rebuilt = export.dse_candidate_from_dict(payload, space)
        assert rebuilt == original
        assert rebuilt["tile"] == (64, 16)  # values rebuilt from labels

    def test_unknown_schema_rejected(self):
        payload = export.dse_candidate_to_dict(make_space().candidate((0, 0)))
        payload["schema_version"] = 2
        with pytest.raises(ConfigurationError, match="schema_version"):
            export.dse_candidate_from_dict(payload, make_space())

    def test_key_mismatch_detected(self):
        space = make_space()
        payload = export.dse_candidate_to_dict(space.candidate((0, 0)))
        payload["key"] = "backend=gpu|tile=64x16"
        with pytest.raises(ConfigurationError, match="does not match"):
            export.dse_candidate_from_dict(payload, space)


class TestVectorRoundTrip:
    def test_round_trip_preserves_senses_and_units(self):
        vector = ObjectiveVector(objectives=OBJECTIVES, values=(1.5, 2090.87))
        rebuilt = export.dse_vector_from_dict(export.dse_vector_to_dict(vector))
        assert rebuilt == vector
        assert rebuilt.objectives[1].sense == "max"
        assert rebuilt.objectives[1].unit == "tok/s"

    def test_unknown_schema_rejected(self):
        payload = export.dse_vector_to_dict(
            ObjectiveVector(objectives=OBJECTIVES, values=(1.0, 2.0))
        )
        del payload["schema_version"]
        with pytest.raises(ConfigurationError, match="schema_version"):
            export.dse_vector_from_dict(payload)


class TestEvaluationRoundTrip:
    def test_feasible_evaluation(self):
        space = make_space()
        entry = EvaluatedCandidate(
            candidate=space.candidate((0, 1)),
            vector=ObjectiveVector(objectives=OBJECTIVES, values=(0.5, 128.0)),
        )
        payload = export.dse_evaluation_to_dict(entry)
        assert export.dse_evaluation_from_dict(payload, space) == entry

    def test_infeasible_evaluation(self):
        space = make_space()
        entry = EvaluatedCandidate(
            candidate=space.candidate((1, 1)),
            vector=None,
            infeasible_reason="gpu cannot mount this tile",
        )
        payload = export.dse_evaluation_to_dict(entry)
        rebuilt = export.dse_evaluation_from_dict(payload, space)
        assert rebuilt == entry
        assert not rebuilt.feasible


class TestFrontRoundTrip:
    """A front rebuilt from persisted evaluations equals the live front.

    The evaluation pool persists one evaluation per candidate and resumes
    from them, so the front must survive that round trip unchanged.
    """

    def test_front_round_trips_with_infinite_crowding(self):
        space = make_space()
        result = factorial_search(space, ToyEvaluator())
        assert any(
            math.isinf(member.crowding_distance) for member in result.front.members
        )
        rebuilt = [
            export.dse_evaluation_from_dict(export.dse_evaluation_to_dict(entry), space)
            for entry in result.evaluated
        ]
        assert pareto_front(rebuilt) == result.front

    def test_front_payload_is_json_serializable(self, tmp_path):
        space = make_space()
        result = factorial_search(space, ToyEvaluator())
        payload = {
            "evaluations": [
                export.dse_evaluation_to_dict(entry) for entry in result.evaluated
            ]
        }
        path = export.write_json(payload, tmp_path / "f.json")
        loaded = json.loads(path.read_text())["evaluations"]
        rebuilt = [export.dse_evaluation_from_dict(entry, space) for entry in loaded]
        assert pareto_front(rebuilt) == result.front

    def test_unknown_schema_rejected(self):
        space = make_space()
        entry = factorial_search(space, ToyEvaluator()).evaluated[0]
        payload = export.dse_evaluation_to_dict(entry)
        payload["schema_version"] = "v2"
        with pytest.raises(ConfigurationError, match="schema_version"):
            export.dse_evaluation_from_dict(payload, space)
