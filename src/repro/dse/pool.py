"""Parallel, resumable candidate evaluation.

:class:`EvaluationPool` turns an evaluator into a batch-evaluation service
with three guarantees the rest of the engine leans on:

* **Determinism** — every candidate's evaluation is seeded from
  ``candidate_seed(base_seed, candidate.key)``, a pure function of the
  candidate identity, and results are collected keyed by candidate, so
  ``jobs=N`` produces byte-identical results to ``jobs=1``.
* **Resumability** — with ``results_dir`` set, every evaluation persists as
  one JSON file (via :mod:`repro.analysis.export`); a later run over the
  same space reloads those files instead of recomputing.  Corrupt files are
  recomputed and overwritten; files with an unknown schema version raise
  :class:`~repro.errors.ConfigurationError` (refuse to guess).
* **Feasibility capture** — an evaluator raising ``ConfigurationError``
  marks the candidate infeasible rather than aborting the search.

Workers are plain ``multiprocessing`` processes (fork start method where
available); the evaluator must therefore be picklable, which all the
built-in evaluators (frozen dataclasses of primitives) are.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import re
from pathlib import Path
from typing import Sequence

from repro.dse.objectives import EvaluatedCandidate, Evaluator, check_vector
from repro.dse.space import Candidate, SearchSpace
from repro.errors import ConfigurationError, check_number


def candidate_seed(base_seed: int, key: str) -> int:
    """Deterministic per-candidate RNG seed.

    Derived from a SHA-256 of ``"{base_seed}:{key}"`` so it is stable
    across processes and Python invocations (unlike ``hash()``, which is
    randomized by PYTHONHASHSEED).
    """
    digest = hashlib.sha256(f"{base_seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def result_filename(key: str) -> str:
    """Filesystem-safe, collision-resistant file name for a candidate key."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", key).strip("-")[:80]
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:8]
    return f"{slug}-{digest}.json" if slug else f"{digest}.json"


def _evaluate_one(evaluator: Evaluator, candidate: Candidate) -> EvaluatedCandidate:
    try:
        vector = check_vector(evaluator, evaluator.evaluate(candidate))
    except ConfigurationError as error:
        return EvaluatedCandidate(
            candidate=candidate, vector=None, infeasible_reason=str(error)
        )
    return EvaluatedCandidate(candidate=candidate, vector=vector)


def _worker(payload: tuple[Evaluator, Candidate]) -> EvaluatedCandidate:
    evaluator, candidate = payload
    return _evaluate_one(evaluator, candidate)


class EvaluationPool:
    """Evaluates batches of candidates, caching, persisting, and resuming.

    Results are cached in memory by candidate key for the lifetime of the
    pool (an evolutionary search revisiting a candidate never re-evaluates
    it) and, when ``results_dir`` is given, persisted one JSON file per
    candidate.  ``space`` is required to *load* persisted results (labels
    are rebuilt into candidates through the live space) and defaults to
    None, in which case existing files are validated lazily on write only.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        *,
        jobs: int = 1,
        results_dir: str | Path | None = None,
        space: SearchSpace | None = None,
    ) -> None:
        check_number("jobs", jobs, 1, integer=True)
        self.evaluator = evaluator
        self.jobs = jobs
        self.results_dir = Path(results_dir) if results_dir is not None else None
        self.space = space
        self._cache: dict[str, EvaluatedCandidate] = {}
        if self.results_dir is not None:
            self.results_dir.mkdir(parents=True, exist_ok=True)
            if self.space is not None:
                self._load_existing()

    # ------------------------------------------------------------------ public
    def evaluate(self, candidates: Sequence[Candidate]) -> list[EvaluatedCandidate]:
        """Evaluate a batch, reusing cached/persisted results.

        The returned list matches the input order (duplicates included), so
        callers never observe scheduling order.
        """
        pending: list[Candidate] = []
        seen: set[str] = set()
        for candidate in candidates:
            if candidate.key in self._cache or candidate.key in seen:
                continue
            seen.add(candidate.key)
            pending.append(candidate)

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                fresh = [_evaluate_one(self.evaluator, c) for c in pending]
            else:
                fresh = self._evaluate_parallel(pending)
            for entry in fresh:
                self._cache[entry.key] = entry
                self._persist(entry)

        return [self._cache[candidate.key] for candidate in candidates]

    @property
    def num_evaluated(self) -> int:
        return len(self._cache)

    def results(self) -> dict[str, EvaluatedCandidate]:
        """All evaluations so far, keyed by candidate key."""
        return dict(self._cache)

    # ---------------------------------------------------------------- internal
    def _evaluate_parallel(
        self, pending: Sequence[Candidate]
    ) -> list[EvaluatedCandidate]:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context()
        workers = min(self.jobs, len(pending))
        payloads = [(self.evaluator, candidate) for candidate in pending]
        with context.Pool(processes=workers) as pool:
            # Pool.map preserves input order, so scheduling cannot reorder
            # results even before the key-based cache re-sorts them.
            return pool.map(_worker, payloads)

    def _persist(self, entry: EvaluatedCandidate) -> None:
        if self.results_dir is None:
            return
        from repro.analysis import export  # lazy: analysis imports repro.dse

        export.write_json(
            export.dse_evaluation_to_dict(entry),
            self.results_dir / result_filename(entry.key),
        )

    def _load_existing(self) -> None:
        from repro.analysis import export  # lazy: analysis imports repro.dse

        assert self.results_dir is not None and self.space is not None
        for path in sorted(self.results_dir.glob("*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                # Half-written file from an interrupted run: recompute it.
                continue
            entry = export.dse_evaluation_from_dict(payload, self.space)
            self._cache.setdefault(entry.key, entry)
