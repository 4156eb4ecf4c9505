"""Functional GPT-2 substrate: configs, weights, forward pass, generation,
numerics modes, and the synthetic accuracy-evaluation datasets."""

from repro.model.config import (
    GPT2Config,
    GPT2_345M,
    GPT2_774M,
    GPT2_1_5B,
    GPT2_TEST_SMALL,
    GPT2_TEST_TINY,
    PAPER_MODELS,
    available_presets,
    from_preset,
)
from repro.model.weights import DecoderLayerWeights, GPT2Weights, generate_weights
from repro.model.numerics import FP16_DFX, FP16_GPU, FP32_EXACT, Numerics
from repro.model.kv_cache import KVCache, LayerKVCache
from repro.model.gpt2 import ForwardResult, GPT2Model
from repro.model.generation import GenerationResult, TextGenerator
from repro.model.tokenizer import SyntheticTokenizer
from repro.model.gelu import GeluLookupTable, gelu_exact, gelu_lut, gelu_tanh
from repro.model.datasets import (
    ClozeDataset,
    ClozeDatasetSpec,
    ClozeExample,
    PAPER_DATASET_SPECS,
    generate_cloze_dataset,
    paper_datasets,
)
from repro.model.accuracy import (
    AccuracyComparison,
    ClozeEvaluation,
    compare_pipelines,
    evaluate_cloze,
)

__all__ = [
    "GPT2Config",
    "GPT2_345M",
    "GPT2_774M",
    "GPT2_1_5B",
    "GPT2_TEST_SMALL",
    "GPT2_TEST_TINY",
    "PAPER_MODELS",
    "available_presets",
    "from_preset",
    "DecoderLayerWeights",
    "GPT2Weights",
    "generate_weights",
    "FP16_DFX",
    "FP16_GPU",
    "FP32_EXACT",
    "Numerics",
    "KVCache",
    "LayerKVCache",
    "ForwardResult",
    "GPT2Model",
    "GenerationResult",
    "TextGenerator",
    "SyntheticTokenizer",
    "GeluLookupTable",
    "gelu_exact",
    "gelu_lut",
    "gelu_tanh",
    "ClozeDataset",
    "ClozeDatasetSpec",
    "ClozeExample",
    "PAPER_DATASET_SPECS",
    "generate_cloze_dataset",
    "paper_datasets",
    "AccuracyComparison",
    "ClozeEvaluation",
    "compare_pipelines",
    "evaluate_cloze",
]
