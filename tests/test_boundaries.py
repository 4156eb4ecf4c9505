"""Every numeric field and argument fails at its boundary.

Each row of the tables below is (call, field, bad value, error type):
``call(value)`` builds or runs one boundary with one field spoiled, and must
raise the module's own error type with a message naming the field, before
any simulation runs.  Every real field is spoiled with NaN and both
infinities plus one value past each bound; every integer field also with
``2.5`` and ``True``.  All of them go through :func:`repro.errors.check_number`,
whose own contract is tested at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest

from serving_doubles import FixedLatencyPlatform

from repro.analysis.experiments import run_batch_capacity_sweep
from repro.analysis.projections import minimum_cluster_size
from repro.backends import BackendCapabilities, BatchEstimate, make_backend
from repro.baselines.gpu import GPUAppliance
from repro.baselines.tpu import TPUBaseline
from repro.cli import main
from repro.core.appliance import DFXAppliance
from repro.core.calibration import Calibration
from repro.core.dma import DMAModel
from repro.core.functional import DFXFunctionalSimulator
from repro.core.mpu import MPUModel
from repro.core.router import RouterModel
from repro.core.scheduler import TimingScheduler
from repro.core.tiling import TilingConfig
from repro.core.trace_tools import critical_path_phases, render_gantt
from repro.core.vpu import VPUModel
from repro.dse.appliance import ApplianceEvaluator, appliance_search_space
from repro.dse.generators import EvolutionaryGenerator
from repro.dse.pool import EvaluationPool
from repro.dse.space import Dimension, SearchSpace
from repro.errors import (
    CalibrationError,
    CompilationError,
    ConfigurationError,
    ExecutionError,
    PartitioningError,
    ProgramValidationError,
    check_number,
)
from repro.fpga.aurora import AuroraLinkModel
from repro.fpga.memory import kv_cache_bytes
from repro.fpga.u280 import ResourceBudget
from repro.isa.compiler import DFXCompiler
from repro.isa.instructions import (
    DMAInstruction,
    MatrixInstruction,
    RouterInstruction,
    VectorInstruction,
)
from repro.isa.opcodes import DMAOpcode, MatrixOpcode, RouterOpcode, VectorOpcode
from repro.model.config import GPT2Config, GPT2_345M, GPT2_TEST_SMALL, GPT2_TEST_TINY
from repro.model.datasets import ClozeDatasetSpec, ClozeExample
from repro.model.gelu import GeluLookupTable
from repro.model.generation import TextGenerator
from repro.model.gpt2 import GPT2Model
from repro.model.tokenizer import NUM_RESERVED_TOKENS, SyntheticTokenizer
from repro.model.weights import generate_weights
from repro.parallel.partitioner import build_partition_plan
from repro.parallel.pipeline import build_pipeline_plan
from repro.results import StageLatency
from repro.runtime import DFXRuntime
from repro.serving import (
    ContinuousBatching,
    DynamicBatching,
    FleetMember,
    ServiceRequest,
    ServingScenario,
    WorkloadMix,
    bursty_trace,
    capacity_search,
    constant_trace,
    diurnal_trace,
    poisson_trace,
)
from repro.serving.faults import (
    Degradation,
    DegradedModePolicy,
    FaultProcess,
    Outage,
    RetryPolicy,
)
from repro.serving.network import NetworkLink, NetworkModel
from repro.serving.schedulers import PriorityScheduler
from repro.serving.server import ApplianceServer
from repro.serving.stats import ExactDistribution, QuantileSketch
from repro.workloads import Workload

NAN, INF = math.nan, math.inf


def real(*past):
    """Bad values of a real field: NaN, both infinities and ``past``."""
    return (NAN, INF, -INF, *past)


def integer(*past):
    """Bad values of an integer field: :func:`real`'s, a fraction and a bool."""
    return (*real(*past), 2.5, True)


# ------------------------------------------------------------ shared targets
@functools.cache
def _appliance():
    return DFXAppliance(GPT2_TEST_SMALL, num_devices=4, check_capacity=False)


@functools.cache
def _compiler():
    return DFXCompiler(GPT2_TEST_TINY, build_partition_plan(GPT2_TEST_TINY, 2))


@functools.cache
def _traced_timing():
    scheduler = TimingScheduler(MPUModel(), VPUModel(), DMAModel(), RouterModel(2))
    return scheduler.time_program(_compiler().compile_embedding(1), keep_traces=True)


@functools.cache
def _simulator():
    weights = generate_weights(GPT2_TEST_TINY, seed=0)
    return DFXFunctionalSimulator(weights, num_devices=2)


@functools.cache
def _runtime():
    return DFXRuntime(GPT2_TEST_TINY, num_devices=2)


@functools.cache
def _text_generator():
    return TextGenerator(GPT2Model.from_config(GPT2_TEST_TINY))


def _capacity_search(**spoiled):
    server = ApplianceServer(FixedLatencyPlatform(0.5))
    return capacity_search(
        server, lambda rate: constant_trace(1.0 / rate, 4), **{"slo_s": 1.0, **spoiled}
    )


def _matrix(**spoiled):
    fields = dict(
        opcode=MatrixOpcode.CONV1D, dst="out", input_operand="x",
        weight_operand="w", rows=1, in_dim=64, out_dim=32,
    )
    return MatrixInstruction(**{**fields, **spoiled})


def _evaluate_dimension(name, level):
    space = SearchSpace([Dimension(name, {"bad": level})])
    return ApplianceEvaluator(serving_duration_s=None).evaluate(space.grid()[0])


_TRACE_BUILDERS = {
    poisson_trace: {"arrival_rate_per_s": 1.0, "duration_s": 10.0},
    bursty_trace: {"burst_rate_per_s": 5.0, "idle_rate_per_s": 1.0, "duration_s": 10.0},
    diurnal_trace: {"peak_rate_per_s": 5.0, "duration_s": 10.0},
}


def _trace(builder, **spoiled):
    # Lazy: the check must run at the call, not when the trace is pulled.
    return builder(**{**_TRACE_BUILDERS[builder], **spoiled}, lazy=True)


_CYCLE_FIELDS = (
    "matrix_issue_cycles", "vector_issue_cycles", "dma_setup_cycles",
    "router_setup_cycles", "pipeline_fill_cycles_mpu", "pipeline_fill_cycles_vpu",
)
_SEARCH_LEVELS = {"devices": "devices", "clusters": "clusters",
                  "batch_sizes": "batch", "racks": "racks"}

#: (row id, call, field named by the error, bad values, error type).
BOUNDARIES = [
    # ------------------------------------------------------------ workloads
    ("Workload.input_tokens", lambda v: Workload(v, 4), "input_tokens",
     integer(0), ConfigurationError),
    ("Workload.output_tokens", lambda v: Workload(4, v), "output_tokens",
     integer(0), ConfigurationError),
    ("StageLatency", lambda v: StageLatency(v), "latency_ms",
     real(-1.0), ConfigurationError),
    # ------------------------------------------------------------- backends
    *[
        (f"BackendCapabilities.{name}",
         lambda v, name=name: BackendCapabilities(platform="x", **{name: v}),
         name, integer(0), ConfigurationError)
        for name in ("max_batch_size", "num_devices", "num_units")
    ],
    ("BatchEstimate.batch_size", lambda v: BatchEstimate(Workload(1, 1), v, 1.0, 1.0),
     "batch_size", integer(0), ConfigurationError),
    ("BatchEstimate.latency_s", lambda v: BatchEstimate(Workload(1, 1), 1, v, 1.0),
     "latency_s", real(-1.0), ConfigurationError),
    ("BatchEstimate.energy_joules", lambda v: BatchEstimate(Workload(1, 1), 1, 1.0, v),
     "energy_joules", real(-1.0), ConfigurationError),
    ("AnalyticBackend.batched_estimate",
     lambda v: make_backend("gpu", config="test-tiny").batched_estimate([Workload(1, 1)], v),
     "batch_size", integer(0), ConfigurationError),
    # ------------------------------------------------------------ baselines
    ("GPUAppliance.num_devices", lambda v: GPUAppliance(GPT2_TEST_SMALL, num_devices=v),
     "num_devices", integer(0), ConfigurationError),
    ("GPUAppliance.summarization_ms", lambda v: GPUAppliance(GPT2_TEST_SMALL).summarization_ms(v),
     "input_tokens", integer(0), ConfigurationError),
    ("GPUAppliance.batched_per_token_generation_ms",
     lambda v: GPUAppliance(GPT2_TEST_SMALL).batched_per_token_generation_ms(v),
     "batch_size", integer(0), ConfigurationError),
    ("GPUAppliance.batched_request_latency_ms",
     lambda v: GPUAppliance(GPT2_TEST_SMALL).batched_request_latency_ms(Workload(8, 8), 2, v),
     "batch_gather_ms", real(-1.0), ConfigurationError),
    ("TPUBaseline.summarization_ms", lambda v: TPUBaseline(GPT2_TEST_SMALL).summarization_ms(v),
     "input_tokens", integer(0), ConfigurationError),
    # ------------------------------------------------------------ timing core
    *[
        (f"Calibration.{name}", lambda v, name=name: Calibration(**{name: v}),
         name, real(0.0, 1.5), CalibrationError)
        for name in ("hbm_efficiency", "hbm_write_efficiency", "ddr_efficiency")
    ],
    *[
        (f"Calibration.{name}", lambda v, name=name: Calibration(**{name: v}),
         name, integer(-1), CalibrationError)
        for name in _CYCLE_FIELDS
    ],
    *[
        (f"Calibration.{name}", lambda v, name=name: Calibration(**{name: v}),
         name, real(-1e-6), CalibrationError)
        for name in ("aurora_hop_latency_s", "host_overhead_per_token_s")
    ],
    ("DFXAppliance.per_token_generation_seconds",
     lambda v: _appliance().per_token_generation_seconds(v),
     "context_length", integer(-1, GPT2_TEST_SMALL.n_positions + 1), ConfigurationError),
    ("DFXAppliance.batched_request_seconds",
     lambda v: _appliance().batched_request_seconds(Workload(8, 4), v),
     "batch", integer(0), ConfigurationError),
    ("TilingConfig.d", lambda v: TilingConfig(d=v), "d", integer(0), ConfigurationError),
    ("TilingConfig.l", lambda v: TilingConfig(l=v), "l", integer(0), ConfigurationError),
    ("TilingConfig.tiles_for.in_dim", lambda v: TilingConfig().tiles_for(v, 4),
     "in_dim", integer(0), ConfigurationError),
    ("TilingConfig.tiles_for.out_dim", lambda v: TilingConfig().tiles_for(4, v),
     "out_dim", integer(0), ConfigurationError),
    ("render_gantt.max_instructions",
     lambda v: render_gantt(_traced_timing(), max_instructions=v),
     "max_instructions", integer(0), ConfigurationError),
    ("render_gantt.width", lambda v: render_gantt(_traced_timing(), width=v),
     "width", integer(0), ConfigurationError),
    ("critical_path_phases.top", lambda v: critical_path_phases(_traced_timing(), top=v),
     "top", integer(0), ConfigurationError),
    # -------------------------------------------------- engine and generation
    ("DFXFunctionalSimulator.generate", lambda v: _simulator().generate([1, 2], v),
     "max_new_tokens", integer(0), ExecutionError),
    ("DFXRuntime.generate", lambda v: _runtime().generate([1, 2], v),
     "max_new_tokens", integer(0), ExecutionError),
    ("DFXRuntime.generate_batch", lambda v: _runtime().generate_batch([[1, 2]], [v]),
     "max_new_tokens", integer(0), ExecutionError),
    ("TextGenerator.max_new_tokens", lambda v: _text_generator().generate_tokens([1, 2], v),
     "max_new_tokens", integer(-1), ExecutionError),
    ("TextGenerator.temperature",
     lambda v: _text_generator().generate_tokens([1, 2], 1, temperature=v),
     "temperature", real(-0.5), ExecutionError),
    # ------------------------------------------------------------------ DSE
    ("ApplianceEvaluator.serving_duration_s",
     lambda v: ApplianceEvaluator(serving_duration_s=v),
     "serving_duration_s", real(0.0), ConfigurationError),
    ("ApplianceEvaluator.arrival_rate_per_s",
     lambda v: ApplianceEvaluator(arrival_rate_per_s=v),
     "arrival_rate_per_s", real(0.0), ConfigurationError),
    ("ApplianceEvaluator.tail_percentile", lambda v: ApplianceEvaluator(tail_percentile=v),
     "tail_percentile", real(0.0, 100.5), ConfigurationError),
    ("ApplianceEvaluator.racks dimension", lambda v: _evaluate_dimension("racks", v),
     "dimension 'racks'", (NAN, INF, 0), ConfigurationError),
    *[
        (f"appliance_search_space.{argument}",
         lambda v, argument=argument: appliance_search_space(**{argument: (1, v)}),
         f"{name} levels", integer(0), ConfigurationError)
        for argument, name in _SEARCH_LEVELS.items()
    ],
    ("EvolutionaryGenerator.population_size",
     lambda v: EvolutionaryGenerator(appliance_search_space(), population_size=v),
     "population_size", integer(1), ConfigurationError),
    ("EvolutionaryGenerator.generations",
     lambda v: EvolutionaryGenerator(appliance_search_space(), generations=v),
     "generations", integer(0), ConfigurationError),
    *[
        (f"EvolutionaryGenerator.{name}",
         lambda v, name=name: EvolutionaryGenerator(appliance_search_space(), **{name: v}),
         name, real(-0.1, 1.1), ConfigurationError)
        for name in ("mutation_rate", "crossover_rate")
    ],
    ("EvaluationPool.jobs", lambda v: EvaluationPool(ApplianceEvaluator(), jobs=v),
     "jobs", integer(0), ConfigurationError),
    # ----------------------------------------------------------------- FPGA
    ("AuroraLinkModel.per_hop_latency_s", lambda v: AuroraLinkModel(per_hop_latency_s=v),
     "per_hop_latency_s", real(-1e-6), ConfigurationError),
    ("AuroraLinkModel.hop_seconds", lambda v: AuroraLinkModel().hop_seconds(v),
     "payload_bytes", integer(-1), ConfigurationError),
    ("AuroraLinkModel.ring_all_gather_seconds",
     lambda v: AuroraLinkModel().ring_all_gather_seconds(1024, v),
     "num_devices", integer(0), ConfigurationError),
    *[
        (f"kv_cache_bytes.{name}",
         lambda v, name=name: kv_cache_bytes(
             **{"n_layer": 1, "n_head_local": 1, "head_dim": 1, "max_tokens": 1, name: v}
         ),
         name, integer(-1), ConfigurationError)
        for name in ("n_layer", "n_head_local", "head_dim", "max_tokens")
    ],
    *[
        (f"ResourceBudget.{name}",
         lambda v, name=name: ResourceBudget(
             **{"lut": 0, "ff": 0, "bram_36k": 0, "uram": 0, "dsp": 0, name: v}
         ),
         name, integer(-1) if name != "bram_36k" else real(-1.0), ConfigurationError)
        for name in ("lut", "ff", "bram_36k", "uram", "dsp")
    ],
    # ------------------------------------------------------------------ ISA
    ("DFXCompiler.compile_embedding", lambda v: _compiler().compile_embedding(v),
     "rows", integer(0), CompilationError),
    ("DFXCompiler.compile_decoder_layer.rows", lambda v: _compiler().compile_decoder_layer(v, 0),
     "rows", integer(0), CompilationError),
    ("DFXCompiler.compile_decoder_layer.past_length",
     lambda v: _compiler().compile_decoder_layer(1, v),
     "past_length", integer(-1), CompilationError),
    ("DFXCompiler.compile_batched_decoder_step.batch",
     lambda v: _compiler().compile_batched_decoder_step(v, 0),
     "batch", integer(0), CompilationError),
    ("DFXCompiler.compile_batched_decoder_step.past_length",
     lambda v: _compiler().compile_batched_decoder_step(2, v),
     "past_length", integer(-1), CompilationError),
    ("DFXCompiler.compile_batched_lm_head", lambda v: _compiler().compile_batched_lm_head(v),
     "batch", integer(0), CompilationError),
    *[
        (f"MatrixInstruction.{name}", lambda v, name=name: _matrix(**{name: v}),
         name, integer(0), ProgramValidationError)
        for name in ("rows", "weight_reuse_rows", "in_dim", "out_dim")
    ],
    *[
        (f"VectorInstruction.{name}",
         lambda v, name=name: VectorInstruction(
             VectorOpcode.EXP, dst="y", src1="a", **{name: v}
         ),
         name, integer(0), ProgramValidationError)
        for name in ("length", "rows")
    ],
    ("DMAInstruction.size_bytes",
     lambda v: DMAInstruction(DMAOpcode.LOAD_WEIGHT, dst="b", src="w", size_bytes=v),
     "size_bytes", integer(-1), ProgramValidationError),
    *[
        (f"RouterInstruction.{name}",
         lambda v, name=name: RouterInstruction(
             RouterOpcode.SYNC, dst="full", src="part",
             **{"payload_elements": 8, name: v}
         ),
         name, integer(0), ProgramValidationError)
        for name in ("payload_elements", "rows")
    ],
    # ---------------------------------------------------------------- model
    *[
        (f"GPT2Config.{name}",
         lambda v, name=name: GPT2Config(
             **{"name": "x", "n_layer": 2, "n_embd": 64, "n_head": 4, name: v}
         ),
         name, integer(0), ConfigurationError)
        for name in ("n_layer", "n_embd", "n_head", "vocab_size", "n_positions", "ffn_mult")
    ],
    ("ClozeExample.candidate_token_ids", lambda v: ClozeExample((1,), (5,) * v, 0),
     "candidate_token_ids", (1,), ConfigurationError),
    *[
        (f"ClozeDatasetSpec.{name}",
         lambda v, name=name: ClozeDatasetSpec(
             **{"name": "x", "num_examples": 4, "context_length": 8,
                "num_candidates": 2, "seed": 0, name: v}
         ),
         name, integer(past), ConfigurationError)
        for name, past in (("num_examples", 0), ("context_length", 0), ("num_candidates", 1))
    ],
    ("GeluLookupTable.samples", lambda v: GeluLookupTable(samples=v),
     "samples", integer(1), ValueError),
    ("GeluLookupTable.input_range[0]", lambda v: GeluLookupTable(input_range=(v, 8.0)),
     "input_range[0]", real(), ValueError),
    ("GeluLookupTable.input_range[1]", lambda v: GeluLookupTable(input_range=(-8.0, v)),
     "input_range[1]", real(-8.0), ValueError),
    ("SyntheticTokenizer.vocab_size", lambda v: SyntheticTokenizer(vocab_size=v),
     "vocab_size", integer(NUM_RESERVED_TOKENS), ValueError),
    # ------------------------------------------------------------- parallel
    ("build_partition_plan", lambda v: build_partition_plan(GPT2_TEST_TINY, v),
     "num_devices", integer(0), PartitioningError),
    ("build_pipeline_plan", lambda v: build_pipeline_plan(GPT2_TEST_TINY, v),
     "num_devices", integer(0), PartitioningError),
    # -------------------------------------------------------------- serving
    ("ServiceRequest.arrival_time_s", lambda v: ServiceRequest(0, v, Workload(1, 1)),
     "arrival_time_s", real(-1.0), ConfigurationError),
    ("ServiceRequest.request_id", lambda v: ServiceRequest(v, 1.0, Workload(1, 1)),
     "request_id", (*integer(), "x"), ConfigurationError),
    ("ServiceRequest.priority",
     lambda v: ServiceRequest(0, 1.0, Workload(1, 1), priority=v),
     "priority", integer(), ConfigurationError),
    *[
        (f"ServiceRequest.{name}",
         lambda v, name=name: ServiceRequest(0, 1.0, Workload(1, 1), **{name: v}),
         name, real(0.0), ConfigurationError)
        for name in ("slo_s", "patience_s")
    ],
    ("WorkloadMix.weights",
     lambda v: WorkloadMix("m", (Workload(1, 1), Workload(2, 2)), (v, 1.0)),
     "weights", real(-1.0), ConfigurationError),
    *[
        (f"{builder.__name__}.{name}", lambda v, b=builder, n=name: _trace(b, **{n: v}),
         name, real(0.0), ConfigurationError)
        for builder, name in (
            (poisson_trace, "arrival_rate_per_s"), (poisson_trace, "duration_s"),
            (bursty_trace, "burst_rate_per_s"), (bursty_trace, "duration_s"),
            (bursty_trace, "mean_burst_s"), (bursty_trace, "mean_idle_s"),
            (diurnal_trace, "peak_rate_per_s"), (diurnal_trace, "duration_s"),
            (diurnal_trace, "period_s"),
        )
    ],
    ("bursty_trace.idle_rate_per_s", lambda v: _trace(bursty_trace, idle_rate_per_s=v),
     "idle_rate_per_s", real(-1.0), ConfigurationError),
    ("diurnal_trace.trough_rate_per_s", lambda v: _trace(diurnal_trace, trough_rate_per_s=v),
     "trough_rate_per_s", real(-1.0), ConfigurationError),
    ("diurnal_trace.phase_s", lambda v: _trace(diurnal_trace, phase_s=v),
     "phase_s", real(), ConfigurationError),
    *[
        (f"{builder.__name__}.{name}", lambda v, b=builder, n=name: _trace(b, **{n: v}),
         name, integer(past), ConfigurationError)
        for builder in _TRACE_BUILDERS
        for name, past in (("seed", -1), ("limit", 0))
    ],
    ("constant_trace.interarrival_s", lambda v: constant_trace(v, 3, lazy=True),
     "interarrival_s", real(-1.0), ConfigurationError),
    ("constant_trace.num_requests", lambda v: constant_trace(1.0, v, lazy=True),
     "num_requests", integer(0), ConfigurationError),
    ("constant_trace.start_time_s", lambda v: constant_trace(1.0, 3, start_time_s=v, lazy=True),
     "start_time_s", real(-1.0), ConfigurationError),
    *[
        (f"{slot.__name__}.query", lambda v, slot=slot: slot().query(v),
         "percentile", real(-1.0, 100.5), ConfigurationError)
        for slot in (ExactDistribution, QuantileSketch)
    ],
    ("QuantileSketch.alpha", lambda v: QuantileSketch(v), "alpha",
     real(0.0, 5e-5, 0.5), ConfigurationError),
    ("DynamicBatching.max_batch_size", lambda v: DynamicBatching(max_batch_size=v),
     "max_batch_size", integer(0), ConfigurationError),
    ("DynamicBatching.timeout_s", lambda v: DynamicBatching(timeout_s=v),
     "timeout_s", real(-1.0), ConfigurationError),
    ("ContinuousBatching.max_batch_size", lambda v: ContinuousBatching(v),
     "max_batch_size", integer(0), ConfigurationError),
    ("Outage.start_s", lambda v: Outage(start_s=v, unit_id=0),
     "outage start_s", real(-1.0), ConfigurationError),
    ("Outage.duration_s", lambda v: Outage(start_s=1.0, duration_s=v, unit_id=0),
     "outage duration_s", real(0.0), ConfigurationError),
    ("Degradation.start_s", lambda v: Degradation(v, 1.0, 2.0, unit_id=0),
     "degradation start_s", real(-1.0), ConfigurationError),
    ("Degradation.duration_s", lambda v: Degradation(1.0, v, 2.0, unit_id=0),
     "degradation duration_s", real(0.0), ConfigurationError),
    ("Degradation.slowdown", lambda v: Degradation(1.0, 1.0, v, unit_id=0),
     "slowdown", real(0.0), ConfigurationError),
    ("FaultProcess.mtbf_s", lambda v: FaultProcess(v, 5.0, 30.0),
     "mtbf_s", real(0.0), ConfigurationError),
    ("FaultProcess.mttr_s", lambda v: FaultProcess(10.0, v, 30.0),
     "mttr_s", real(0.0), ConfigurationError),
    ("FaultProcess.horizon_s", lambda v: FaultProcess(10.0, 5.0, v),
     "horizon_s", real(0.0), ConfigurationError),
    ("FaultProcess.seed", lambda v: FaultProcess(10.0, 5.0, 30.0, seed=v),
     "seed", integer(-1), ConfigurationError),
    ("RetryPolicy.max_attempts", lambda v: RetryPolicy(max_attempts=v),
     "max_attempts", integer(0), ConfigurationError),
    ("RetryPolicy.backoff_s", lambda v: RetryPolicy(backoff_s=v),
     "backoff_s", real(-1.0), ConfigurationError),
    ("RetryPolicy.backoff_multiplier", lambda v: RetryPolicy(backoff_multiplier=v),
     "backoff_multiplier", real(0.0), ConfigurationError),
    ("RetryPolicy.retry_budget", lambda v: RetryPolicy(retry_budget=v),
     "retry_budget", integer(-1), ConfigurationError),
    ("RetryPolicy.max_backoff_s", lambda v: RetryPolicy(max_backoff_s=v),
     "max_backoff_s", real(-1.0), ConfigurationError),
    ("RetryPolicy.delay_s", lambda v: RetryPolicy().delay_s(v),
     "failures", integer(0), ConfigurationError),
    ("DegradedModePolicy.capacity_threshold",
     lambda v: DegradedModePolicy(capacity_threshold=v, shed_priority_above=0),
     "capacity_threshold", real(0.0, 1.5), ConfigurationError),
    ("NetworkLink.latency_s", lambda v: NetworkLink(latency_s=v),
     "link latency_s", real(-1.0), ConfigurationError),
    ("NetworkLink.bandwidth_bytes_per_s", lambda v: NetworkLink(bandwidth_bytes_per_s=v),
     "link bandwidth_bytes_per_s", real(0.0), ConfigurationError),
    ("NetworkLink.one_way_s", lambda v: NetworkLink().one_way_s(v),
     "payload_bytes", real(-1.0), ConfigurationError),
    ("NetworkModel.bytes_per_token",
     lambda v: NetworkModel.star({"rack0": ("a",)}, bytes_per_token=v),
     "bytes_per_token", real(-1.0), ConfigurationError),
    ("ServingScenario.racks", lambda v: ServingScenario(racks=v),
     "racks", integer(0), ConfigurationError),
    ("FleetMember.num_clusters", lambda v: FleetMember("a", "dfx", v),
     "num_clusters", integer(0), ConfigurationError),
    ("FleetMember.max_batch_size", lambda v: FleetMember("a", "dfx", 1, v),
     "max_batch_size", integer(0), ConfigurationError),
    ("capacity_search.slo_s", lambda v: _capacity_search(slo_s=v),
     "slo_s", real(0.0), ConfigurationError),
    ("capacity_search.percentile", lambda v: _capacity_search(percentile=v),
     "percentile", real(-1.0, 100.5), ConfigurationError),
    ("capacity_search.rate_bounds[0]", lambda v: _capacity_search(rate_bounds=(v, 64.0)),
     "rate_bounds[0]", real(0.0), ConfigurationError),
    ("capacity_search.rate_bounds[1]", lambda v: _capacity_search(rate_bounds=(1.0, v)),
     "rate_bounds[1]", real(1.0), ConfigurationError),
    ("capacity_search.relative_tolerance",
     lambda v: _capacity_search(relative_tolerance=v),
     "relative_tolerance", real(0.0), ConfigurationError),
    ("capacity_search.max_abandonment_rate",
     lambda v: _capacity_search(max_abandonment_rate=v),
     "max_abandonment_rate", real(-0.1, 1.1), ConfigurationError),
    ("run_batch_capacity_sweep",
     lambda v: run_batch_capacity_sweep(ServingScenario(), batch_sizes=(v,)),
     "batch_sizes", integer(0), ConfigurationError),
    # ------------------------------------------------------------- analysis
    ("minimum_cluster_size.hbm_headroom",
     lambda v: minimum_cluster_size(GPT2_TEST_TINY, hbm_headroom=v),
     "hbm_headroom", real(0.0, 1.5), ConfigurationError),
    ("minimum_cluster_size.max_context_tokens",
     lambda v: minimum_cluster_size(GPT2_TEST_TINY, max_context_tokens=v),
     "max_context_tokens", integer(0, GPT2_TEST_TINY.n_positions + 1),
     ConfigurationError),
    ("minimum_cluster_size.candidate_sizes",
     lambda v: minimum_cluster_size(GPT2_TEST_TINY, candidate_sizes=(1, v)),
     "candidate_sizes", integer(0), ConfigurationError),
]


@pytest.mark.parametrize(
    ("call", "field", "bad", "error"),
    [
        pytest.param(call, field, bad, error, id=f"{row}-{bad!r}")
        for row, call, field, bads, error in BOUNDARIES
        for bad in bads
    ],
)
def test_bad_value_fails_at_the_boundary_naming_the_field(call, field, bad, error):
    with pytest.raises(error) as raised:
        call(bad)
    assert type(raised.value) is error
    assert field in str(raised.value)


#: Inputs that each constructed, returned a wrong number or failed deep
#: inside the simulation before every boundary went through ``check_number``.
FORMERLY_ACCEPTED = [
    ("workload-nan-count", lambda: Workload(NAN, 4), "input_tokens", ConfigurationError),
    ("workload-fraction-count", lambda: Workload(2.5, 4), "input_tokens",
     ConfigurationError),
    ("dynamic-batching-nan-timeout", lambda: DynamicBatching(timeout_s=NAN), "timeout_s",
     ConfigurationError),
    ("dynamic-batching-nan-size", lambda: DynamicBatching(max_batch_size=NAN),
     "max_batch_size", ConfigurationError),
    ("mix-nan-weight",
     lambda: WorkloadMix("m", (Workload(1, 1), Workload(2, 2)), (NAN, 1.0)),
     "weights", ConfigurationError),
    ("calibration-nan-host-overhead",
     lambda: make_backend("dfx", calibration=Calibration(host_overhead_per_token_s=NAN)),
     "host_overhead_per_token_s", CalibrationError),
    ("aurora-nan-hop", lambda: AuroraLinkModel(per_hop_latency_s=NAN), "per_hop_latency_s",
     ConfigurationError),
    ("batch-estimate-nan-latency", lambda: BatchEstimate(Workload(1, 1), 1, NAN, 0.0),
     "latency_s", ConfigurationError),
    ("stage-latency-nan", lambda: StageLatency(latency_ms=NAN), "latency_ms",
     ConfigurationError),
    ("config-nan-ffn-mult", lambda: GPT2Config("x", 2, 64, 4, ffn_mult=NAN), "ffn_mult",
     ConfigurationError),
    ("fleet-member-nan-clusters", lambda: FleetMember("a", "dfx", NAN), "num_clusters",
     ConfigurationError),
    ("fleet-member-fraction-clusters", lambda: FleetMember("a", "dfx", 1.5),
     "num_clusters", ConfigurationError),
    ("capacity-search-nan-slo", lambda: _capacity_search(slo_s=NAN), "slo_s",
     ConfigurationError),
    ("capacity-search-nan-tolerance", lambda: _capacity_search(relative_tolerance=NAN),
     "relative_tolerance", ConfigurationError),
    ("cluster-size-headroom-over-one",
     lambda: minimum_cluster_size(GPT2_TEST_TINY, hbm_headroom=5.0), "hbm_headroom",
     ConfigurationError),
    ("cluster-size-zero-candidate",
     lambda: minimum_cluster_size(GPT2_TEST_TINY, candidate_sizes=(0,)), "candidate_sizes",
     ConfigurationError),
    ("cluster-size-zero-context",
     lambda: minimum_cluster_size(GPT2_TEST_TINY, max_context_tokens=0), "max_context_tokens",
     ConfigurationError),
    # Provisioned four times the KV cache GPT-2 345M's 1024 positions can fill.
    ("cluster-size-context-past-window",
     lambda: minimum_cluster_size(GPT2_345M, max_context_tokens=4096), "max_context_tokens",
     ConfigurationError),
    ("service-request-nan-priority",
     lambda: ServiceRequest(0, 0.0, Workload(8, 8), priority=NAN), "priority",
     ConfigurationError),
    ("service-request-replaced-nan-priority",
     lambda: dataclasses.replace(ServiceRequest(0, 0.0, Workload(8, 8)), priority=NAN),
     "priority", ConfigurationError),
    ("service-request-string-id", lambda: ServiceRequest("x", 0.0, Workload(8, 8)),
     "request_id", ConfigurationError),
]


@pytest.mark.parametrize(
    ("call", "field", "error"),
    [pytest.param(call, field, error, id=row) for row, call, field, error in FORMERLY_ACCEPTED],
)
def test_formerly_accepted_input_fails_at_the_boundary(call, field, error):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert field in str(raised.value)


def test_nan_priority_never_reaches_a_scheduler():
    """``PriorityScheduler.select`` ranked a NaN priority by queue position:
    index 2 (priority 0) of ``[1, NaN, 0]`` but index 0 (the NaN) of
    ``[NaN, 1, 0]``.  A lazy trace now stops at the NaN request, after
    the scheduler has ranked the valid ones."""
    seen: list[float] = []

    class Recording(PriorityScheduler):
        def select(self, now, queue, estimate):
            seen.extend(request.priority for request in queue)
            return super().select(now, queue, estimate)

    def trace():
        arrivals = ((0.0, 1), (0.0, 2), (0.0, 0), (2.0, 3), (3.0, NAN))
        for index, (arrival_s, priority) in enumerate(arrivals):
            request = ServiceRequest(index, arrival_s, Workload(8, 8))
            yield dataclasses.replace(request, priority=priority)

    server = ApplianceServer(FixedLatencyPlatform(0.5), scheduler=Recording())
    with pytest.raises(ConfigurationError, match="priority"):
        server.serve(trace())
    assert seen and not any(math.isnan(priority) for priority in seen)


@pytest.mark.parametrize(
    ("flags", "field"),
    [
        (["--seed", "-1"], "seed"),
        (["--mtbf-s", "5", "--fault-seed", "-1"], "seed"),
        (["--link-gbps=-inf"], "link_gbps"),
    ],
    ids=["trace-seed", "fault-seed", "link-gbps"],
)
def test_cli_serve_rejects_a_bad_flag_naming_the_field(flags, field):
    # A negative seed used to fail inside NumPy's RNG with a ValueError.
    serve = ["serve", "--backend", "dfx", "--model", "test-tiny", "--duration", "5"]
    with pytest.raises(ConfigurationError, match=field):
        main(serve + flags)


# -------------------------------------------------------------- check_number
class TestCheckNumber:
    def test_returns_the_value(self):
        assert check_number("x", 3, 1, integer=True) == 3
        value = np.float32(0.5)
        assert check_number("x", value, 0.0, 1.0) is value

    @pytest.mark.parametrize(
        ("value", "open_low", "open_high", "accepted"),
        [
            (0.0, False, False, True),
            (1.0, False, False, True),
            (0.0, True, False, False),
            (1.0, False, True, False),
            (0.5, True, True, True),
            (-0.1, False, False, False),
            (1.1, False, False, False),
        ],
    )
    def test_open_and_closed_bounds(self, value, open_low, open_high, accepted):
        check = functools.partial(
            check_number, "x", value, 0.0, 1.0, open_low=open_low, open_high=open_high
        )
        if accepted:
            assert check() == value
        else:
            with pytest.raises(ConfigurationError, match="^x must be finite and in"):
                check()

    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    def test_nan_and_infinity_are_never_in_range(self, value):
        with pytest.raises(ConfigurationError, match="^x must be finite, got"):
            check_number("x", value)

    def test_numpy_integers_pass_and_integral_floats_fail_as_integers(self):
        assert check_number("n", np.int64(2), 1, integer=True) == 2
        with pytest.raises(ConfigurationError, match="^n must be an integer"):
            check_number("n", np.float64(2.0), 1, integer=True)
        with pytest.raises(ConfigurationError, match="^n must be an integer"):
            check_number("n", 2.0, 1, integer=True)

    @pytest.mark.parametrize("value", [True, False])
    def test_bools_are_not_numbers(self, value):
        with pytest.raises(ConfigurationError):
            check_number("n", value, integer=True)
        with pytest.raises(ConfigurationError):
            check_number("x", value)

    def test_non_numbers_fail(self):
        with pytest.raises(ConfigurationError, match="got '3'"):
            check_number("x", "3")
        with pytest.raises(ConfigurationError, match="got None"):
            check_number("x", None)

    def test_messages_state_the_range(self):
        cases = [
            (dict(value=NAN, low=0.0, open_low=True), "mtbf_s must be finite and > 0.0, got nan"),
            (dict(value=0, low=1, integer=True), "mtbf_s must be an integer and >= 1, got 0"),
            (dict(value=2.0, high=1.0, open_high=True), "mtbf_s must be finite and < 1.0, got 2.0"),
            (dict(value=-1, low=0, high=10, open_high=True, integer=True),
             "mtbf_s must be an integer and in [0, 10), got -1"),
        ]
        for arguments, message in cases:
            with pytest.raises(ConfigurationError) as raised:
                check_number("mtbf_s", **arguments)
            assert str(raised.value) == message

    def test_raises_the_given_error_type(self):
        with pytest.raises(ExecutionError, match="^budget must be an integer"):
            check_number("budget", 2.5, 0, integer=True, error=ExecutionError)
