"""Synthetic cloze-style evaluation datasets.

The paper's accuracy experiment (Sec. VII-A) evaluates the Winograd Schema
Challenge (WSC), Children's Book Test Common Nouns (CBT-CN), and Children's
Book Test Named Entities (CBT-NE).  All three are *cloze* tasks: given a
context, pick the correct candidate word from a small candidate set.

The real datasets (and the pretrained checkpoints whose accuracy they probe)
are unavailable offline, so this module generates synthetic cloze tasks with
the same structure: a context of token IDs plus ``num_candidates`` candidate
token IDs, exactly one of which is marked correct.  What the paper actually
measures is whether the DFX numeric pipeline (FP16 + LUT-GELU) and the GPU
pipeline (FP16 + tanh-GELU) rank candidates identically; that property is
fully exercised by synthetic contexts.  See DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, check_number


@dataclass(frozen=True)
class ClozeExample:
    """One cloze question: a context and a candidate set with one answer."""

    context_token_ids: tuple[int, ...]
    candidate_token_ids: tuple[int, ...]
    answer_index: int

    def __post_init__(self) -> None:
        if not self.context_token_ids:
            raise ConfigurationError("context_token_ids must not be empty")
        check_number("len(candidate_token_ids)", len(self.candidate_token_ids), 2)
        if not 0 <= self.answer_index < len(self.candidate_token_ids):
            raise ConfigurationError(
                f"answer_index {self.answer_index} out of range for "
                f"{len(self.candidate_token_ids)} candidates"
            )


@dataclass(frozen=True)
class ClozeDataset:
    """A named collection of cloze examples."""

    name: str
    examples: tuple[ClozeExample, ...]

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)


@dataclass(frozen=True)
class ClozeDatasetSpec:
    """Shape parameters for a synthetic cloze dataset.

    The three paper datasets differ mainly in context length and candidate
    count: WSC has short contexts and binary choices; the CBT variants have
    long contexts and 10 candidates.
    """

    name: str
    num_examples: int
    context_length: int
    num_candidates: int
    seed: int

    def __post_init__(self) -> None:
        check_number("num_examples", self.num_examples, 1, integer=True)
        check_number("context_length", self.context_length, 1, integer=True)
        check_number("num_candidates", self.num_candidates, 2, integer=True)


#: Synthetic stand-ins matched to the structure of the paper's datasets.
WSC_LIKE = ClozeDatasetSpec(
    name="wsc-like", num_examples=80, context_length=24, num_candidates=2, seed=11
)
CBT_CN_LIKE = ClozeDatasetSpec(
    name="cbt-cn-like", num_examples=100, context_length=96, num_candidates=10, seed=13
)
CBT_NE_LIKE = ClozeDatasetSpec(
    name="cbt-ne-like", num_examples=100, context_length=96, num_candidates=10, seed=17
)

PAPER_DATASET_SPECS: tuple[ClozeDatasetSpec, ...] = (WSC_LIKE, CBT_CN_LIKE, CBT_NE_LIKE)


def generate_cloze_dataset(spec: ClozeDatasetSpec, vocab_size: int) -> ClozeDataset:
    """Generate a synthetic cloze dataset of the given shape.

    Token IDs are drawn uniformly from ``[3, vocab_size)`` (skipping reserved
    IDs); candidates are distinct; the "correct" candidate index is random —
    absolute accuracy is not meaningful on synthetic data, agreement between
    numeric pipelines is (see :mod:`repro.model.accuracy`).
    """
    if vocab_size <= spec.num_candidates + 3:
        raise ConfigurationError(
            f"vocab_size {vocab_size} too small for {spec.num_candidates} candidates"
        )
    rng = np.random.default_rng(spec.seed)
    examples: list[ClozeExample] = []
    for _ in range(spec.num_examples):
        context = rng.integers(3, vocab_size, size=spec.context_length)
        candidates = rng.choice(
            np.arange(3, vocab_size), size=spec.num_candidates, replace=False
        )
        answer_index = int(rng.integers(0, spec.num_candidates))
        examples.append(
            ClozeExample(
                context_token_ids=tuple(int(token) for token in context),
                candidate_token_ids=tuple(int(token) for token in candidates),
                answer_index=answer_index,
            )
        )
    return ClozeDataset(name=spec.name, examples=tuple(examples))


def paper_datasets(vocab_size: int) -> list[ClozeDataset]:
    """The three synthetic datasets standing in for WSC, CBT-CN, CBT-NE."""
    return [generate_cloze_dataset(spec, vocab_size) for spec in PAPER_DATASET_SPECS]
