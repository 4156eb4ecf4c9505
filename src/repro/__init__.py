"""repro: a reproduction of "DFX: A Low-latency Multi-FPGA Appliance for
Accelerating Transformer-based Text Generation" (MICRO 2022).

The package builds the whole system in software:

* :mod:`repro.model` — a functional GPT-2 substrate (configs, weights, KV
  cache, generation loop, FP16/LUT-GELU numerics, cloze accuracy datasets);
* :mod:`repro.isa` — the DFX instruction set and the compiler that lowers
  GPT-2 decoder layers (Algorithm 1) into per-device programs;
* :mod:`repro.parallel` — intra-layer model parallelism (head-wise /
  column-wise partitioning) and the pipelined baseline;
* :mod:`repro.fpga` — the Alveo U280 substrate (device spec with HBM/DDR
  capacities and board power, KV-cache sizing, Aurora ring, resources,
  floorplan);
* :mod:`repro.core` — the DFX compute core / device / appliance timing
  simulator plus a functional interpreter for correctness checks;
* :mod:`repro.baselines` — calibrated V100 GPU appliance and TPU models;
* :mod:`repro.backends` — the unified :class:`Backend` protocol and the
  string-keyed registry (``make_backend("dfx", devices=4)``) every serving,
  analysis, CLI, and benchmark entry point consumes;
* :mod:`repro.analysis` — metrics, breakdowns, cost/energy analysis, and one
  experiment driver per paper table and figure.

Quickstart::

    from repro import Workload, make_backend

    workload = Workload(input_tokens=64, output_tokens=64)
    dfx = make_backend("dfx", devices=4).estimate(workload)
    gpu = make_backend("gpu", devices=4).estimate(workload)
    print(f"speedup: {gpu.latency_ms / dfx.latency_ms:.2f}x")
"""

from repro.model.config import (
    GPT2Config,
    GPT2_1_5B,
    GPT2_345M,
    GPT2_774M,
    GPT2_TEST_SMALL,
    GPT2_TEST_TINY,
    PAPER_MODELS,
    from_preset,
)
from repro.model.gpt2 import GPT2Model
from repro.model.generation import TextGenerator
from repro.model.weights import generate_weights
from repro.workloads import (
    ARTICLE_WRITING_WORKLOAD,
    BALANCED_64_64_WORKLOAD,
    CHATBOT_WORKLOAD,
    PAPER_WORKLOAD_GRID,
    Workload,
)
from repro.results import InferenceResult
from repro.core.appliance import DFXAppliance
from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.functional import DFXFunctionalSimulator
from repro.baselines.gpu import GPUAppliance
from repro.baselines.tpu import TPUBaseline
from repro.backends import (
    Backend,
    BackendCapabilities,
    BatchEstimate,
    available_backends,
    make_backend,
    register_backend,
)
from repro.parallel.partitioner import build_partition_plan
from repro.runtime import DFXRuntime

__version__ = "1.0.0"

__all__ = [
    "GPT2Config",
    "GPT2_1_5B",
    "GPT2_345M",
    "GPT2_774M",
    "GPT2_TEST_SMALL",
    "GPT2_TEST_TINY",
    "PAPER_MODELS",
    "from_preset",
    "GPT2Model",
    "TextGenerator",
    "generate_weights",
    "ARTICLE_WRITING_WORKLOAD",
    "BALANCED_64_64_WORKLOAD",
    "CHATBOT_WORKLOAD",
    "PAPER_WORKLOAD_GRID",
    "Workload",
    "InferenceResult",
    "DFXAppliance",
    "Calibration",
    "DEFAULT_CALIBRATION",
    "DFXFunctionalSimulator",
    "GPUAppliance",
    "TPUBaseline",
    "Backend",
    "BackendCapabilities",
    "BatchEstimate",
    "available_backends",
    "make_backend",
    "register_backend",
    "build_partition_plan",
    "DFXRuntime",
    "__version__",
]
