"""Tests for the synthetic cloze datasets and the accuracy comparison (Sec. VII-A)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.model.accuracy import compare_pipelines, evaluate_cloze, score_candidates
from repro.model.config import GPT2_TEST_TINY
from repro.model.datasets import (
    CBT_CN_LIKE,
    ClozeDataset,
    ClozeDatasetSpec,
    ClozeExample,
    PAPER_DATASET_SPECS,
    WSC_LIKE,
    generate_cloze_dataset,
    paper_datasets,
)
from repro.model.gpt2 import GPT2Model
from repro.model.numerics import FP16_DFX, FP16_GPU


class TestClozeExamples:
    def test_answer_token_lookup(self, tiny_model_fp16_dfx):
        # Evaluation grades the candidate at answer_index: an example whose
        # answer is the model's top-scoring candidate counts as correct.
        model = tiny_model_fp16_dfx
        context, candidates = (1, 2, 3), (10, 20, 30)
        best = int(np.argmax(score_candidates(model, ClozeExample(context, candidates, 0))))
        right = ClozeExample(context, candidates, answer_index=best)
        wrong = ClozeExample(context, candidates, answer_index=(best + 1) % 3)
        assert evaluate_cloze(model, ClozeDataset("right", (right,))).num_correct == 1
        assert evaluate_cloze(model, ClozeDataset("wrong", (wrong,))).num_correct == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClozeExample((), (1, 2), 0)
        with pytest.raises(ConfigurationError):
            ClozeExample((1,), (1,), 0)
        with pytest.raises(ConfigurationError):
            ClozeExample((1,), (1, 2), 5)


class TestDatasetGeneration:
    def test_shapes_follow_spec(self):
        dataset = generate_cloze_dataset(WSC_LIKE, vocab_size=512)
        assert len(dataset) == WSC_LIKE.num_examples
        example = dataset.examples[0]
        assert len(example.context_token_ids) == WSC_LIKE.context_length
        assert len(example.candidate_token_ids) == WSC_LIKE.num_candidates

    def test_candidates_are_distinct(self):
        dataset = generate_cloze_dataset(CBT_CN_LIKE, vocab_size=512)
        for example in dataset:
            assert len(set(example.candidate_token_ids)) == len(example.candidate_token_ids)

    def test_deterministic_per_seed(self):
        first = generate_cloze_dataset(WSC_LIKE, vocab_size=512)
        second = generate_cloze_dataset(WSC_LIKE, vocab_size=512)
        assert first.examples[0] == second.examples[0]

    def test_token_ids_within_vocab(self):
        dataset = generate_cloze_dataset(WSC_LIKE, vocab_size=100)
        for example in dataset:
            assert all(3 <= token < 100 for token in example.context_token_ids)
            assert all(3 <= token < 100 for token in example.candidate_token_ids)

    def test_three_paper_datasets(self):
        datasets = paper_datasets(vocab_size=256)
        assert [d.name for d in datasets] == [spec.name for spec in PAPER_DATASET_SPECS]

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            ClozeDatasetSpec("bad", 0, 10, 2, 0)
        with pytest.raises(ConfigurationError):
            generate_cloze_dataset(
                ClozeDatasetSpec("bad", 5, 10, 10, 0), vocab_size=11
            )


class TestAccuracyComparison:
    @pytest.fixture(scope="class")
    def models(self, request):
        weights = request.getfixturevalue("tiny_weights")
        return GPT2Model(weights, FP16_GPU), GPT2Model(weights, FP16_DFX)

    @pytest.fixture(scope="class")
    def small_dataset(self):
        spec = ClozeDatasetSpec("mini", num_examples=6, context_length=8,
                                num_candidates=3, seed=42)
        return generate_cloze_dataset(spec, vocab_size=GPT2_TEST_TINY.vocab_size)

    def test_score_candidates_returns_one_score_per_candidate(self, models, small_dataset):
        gpu_model, _ = models
        scores = score_candidates(gpu_model, small_dataset.examples[0])
        assert scores.shape == (3,)

    def test_evaluation_counts(self, models, small_dataset):
        gpu_model, _ = models
        evaluation = evaluate_cloze(gpu_model, small_dataset)
        assert evaluation.num_examples == 6
        assert 0 <= evaluation.num_correct <= 6
        assert len(evaluation.predictions) == 6
        assert 0.0 <= evaluation.accuracy <= 1.0

    def test_pipelines_agree_on_nearly_all_examples(self, models, small_dataset):
        gpu_model, dfx_model = models
        comparison = compare_pipelines(gpu_model, dfx_model, small_dataset)
        # Paper Sec. VII-A: accuracy differences between the platforms are at
        # the 0.3% level; on a 6-example set the pipelines should agree on
        # every (or all but one) example and the accuracy delta must be tiny.
        assert comparison.agreement >= 5 / 6
        assert abs(comparison.accuracy_delta) <= 1 / 6

    def test_comparison_is_deterministic(self, models, small_dataset):
        gpu_model, dfx_model = models
        first = compare_pipelines(gpu_model, dfx_model, small_dataset)
        second = compare_pipelines(gpu_model, dfx_model, small_dataset)
        assert first.gpu.predictions == second.gpu.predictions
        assert first.dfx.predictions == second.dfx.predictions
