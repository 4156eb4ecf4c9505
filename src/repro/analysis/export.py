"""JSON-friendly export of results and experiment outputs.

Benchmarks and CI jobs want machine-readable output next to the printed
tables; these helpers convert the library's result objects into plain
dictionaries (JSON-serializable: only str/int/float/bool/list/dict) and back
out to disk.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.dse.objectives import EvaluatedCandidate, Objective, ObjectiveVector
from repro.dse.space import Candidate, SearchSpace
from repro.errors import ConfigurationError
from repro.results import InferenceResult, StageLatency
from repro.workloads import Workload

#: Schema version stamped into every persisted DSE payload.  Bump on any
#: incompatible change; loaders refuse unknown versions rather than guess.
DSE_SCHEMA_VERSION = 1


def workload_to_dict(workload: Workload) -> dict[str, Any]:
    """Serialize a workload."""
    return {
        "input_tokens": workload.input_tokens,
        "output_tokens": workload.output_tokens,
        "label": workload.label,
    }


def stage_to_dict(stage: StageLatency) -> dict[str, Any]:
    """Serialize one stage's latency and breakdown."""
    return {
        "latency_ms": stage.latency_ms,
        "breakdown_ms": dict(stage.breakdown_ms),
    }


def result_to_dict(result: InferenceResult) -> dict[str, Any]:
    """Serialize an :class:`InferenceResult` with its derived metrics."""
    return {
        "platform": result.platform,
        "model": result.model_name,
        "workload": workload_to_dict(result.workload),
        "num_devices": result.num_devices,
        "summarization": stage_to_dict(result.summarization),
        "generation": stage_to_dict(result.generation),
        "latency_ms": result.latency_ms,
        "tokens_per_second": result.tokens_per_second,
        "total_power_watts": result.total_power_watts,
        "energy_joules": result.energy_joules,
        "tokens_per_joule": result.tokens_per_joule,
        "flops": result.flops,
        "gflops": result.gflops,
    }


# --------------------------------------------------------------------- DSE
# Round-trip serializers for design-space-exploration artifacts.  These are
# also the evaluation pool's resume/persistence format, so stability matters:
# every payload carries DSE_SCHEMA_VERSION and loaders reject versions they
# do not know.  Candidates persist *labels* only (values may be arbitrary
# Python objects); deserialization rebuilds them through the live space.


def _check_dse_schema(payload: dict[str, Any], kind: str) -> None:
    version = payload.get("schema_version")
    if version != DSE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"cannot load {kind}: schema_version {version!r} is not the "
            f"supported version {DSE_SCHEMA_VERSION} (refusing to guess at "
            f"an unknown format)"
        )


def dse_candidate_to_dict(candidate: Candidate) -> dict[str, Any]:
    """Serialize a candidate as its ``name -> label`` mapping plus key."""
    return {
        "schema_version": DSE_SCHEMA_VERSION,
        "key": candidate.key,
        "labels": candidate.label_map(),
    }


def dse_candidate_from_dict(
    payload: dict[str, Any], space: SearchSpace
) -> Candidate:
    """Rebuild a candidate through the live space (labels -> values)."""
    _check_dse_schema(payload, "DSE candidate")
    candidate = space.candidate_from_labels(payload["labels"])
    persisted_key = payload.get("key")
    if persisted_key is not None and persisted_key != candidate.key:
        raise ConfigurationError(
            f"persisted candidate key {persisted_key!r} does not match the "
            f"rebuilt key {candidate.key!r}; the search space has changed"
        )
    return candidate


def dse_objective_to_dict(objective: Objective) -> dict[str, Any]:
    """Serialize one objective axis."""
    return {
        "name": objective.name,
        "sense": objective.sense,
        "unit": objective.unit,
    }


def dse_objective_from_dict(payload: dict[str, Any]) -> Objective:
    """Deserialize one objective axis."""
    return Objective(
        name=payload["name"],
        sense=payload["sense"],
        unit=payload.get("unit", ""),
    )


def dse_vector_to_dict(vector: ObjectiveVector) -> dict[str, Any]:
    """Serialize an objective vector (axes + values, order preserved)."""
    return {
        "schema_version": DSE_SCHEMA_VERSION,
        "objectives": [dse_objective_to_dict(o) for o in vector.objectives],
        "values": list(vector.values),
    }


def dse_vector_from_dict(payload: dict[str, Any]) -> ObjectiveVector:
    """Deserialize an objective vector."""
    _check_dse_schema(payload, "DSE objective vector")
    return ObjectiveVector(
        objectives=tuple(
            dse_objective_from_dict(entry) for entry in payload["objectives"]
        ),
        values=tuple(float(value) for value in payload["values"]),
    )


def dse_evaluation_to_dict(evaluated: EvaluatedCandidate) -> dict[str, Any]:
    """Serialize one evaluation (the per-candidate persistence unit)."""
    return {
        "schema_version": DSE_SCHEMA_VERSION,
        "candidate": dse_candidate_to_dict(evaluated.candidate),
        "vector": (
            dse_vector_to_dict(evaluated.vector)
            if evaluated.vector is not None
            else None
        ),
        "infeasible_reason": evaluated.infeasible_reason,
    }


def dse_evaluation_from_dict(
    payload: dict[str, Any], space: SearchSpace
) -> EvaluatedCandidate:
    """Deserialize one evaluation through the live space."""
    _check_dse_schema(payload, "DSE evaluation")
    vector_payload = payload.get("vector")
    return EvaluatedCandidate(
        candidate=dse_candidate_from_dict(payload["candidate"], space),
        vector=(
            dse_vector_from_dict(vector_payload)
            if vector_payload is not None
            else None
        ),
        infeasible_reason=payload.get("infeasible_reason"),
    )


def write_json(payload: dict[str, Any], path: str | Path) -> Path:
    """Write a serialized payload to ``path`` (creating parent directories)."""
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return destination

