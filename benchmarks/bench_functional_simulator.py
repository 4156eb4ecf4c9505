"""Throughput benchmarks of the simulators themselves.

Not a paper figure: these benches track how fast the functional interpreter
and the timing simulator run, which matters to anyone extending the library
(e.g. sweeping calibrations or adding models).
"""

import numpy as np
from _bench_helpers import print_header

from repro.core.appliance import DFXAppliance
from repro.core.functional import DFXFunctionalSimulator
from repro.isa.compiler import DFXCompiler
from repro.model.config import GPT2_1_5B, GPT2_TEST_TINY
from repro.model.numerics import FP16_DFX
from repro.model.weights import generate_weights
from repro.parallel.partitioner import build_partition_plan
from repro.workloads import Workload


def test_bench_compiler_decoder_layer(benchmark):
    """Compile one 1.5B decoder-layer program (device 0 of 4)."""
    plan = build_partition_plan(GPT2_1_5B, 4)
    compiler = DFXCompiler(GPT2_1_5B, plan, device_id=0)
    program = benchmark(compiler.compile_decoder_layer, 1, 128)
    assert program.sync_count() == 4


def test_bench_timing_simulator_token_step(benchmark):
    """Time one full 1.5B token step (compile + schedule, cold cache)."""
    def step():
        appliance = DFXAppliance(GPT2_1_5B, num_devices=4)
        return appliance.device.core.token_step(1, 128)

    result = benchmark.pedantic(step, rounds=3, iterations=1)
    assert result.timing.total_cycles > 0


def test_bench_functional_forward_tiny(benchmark):
    """One functional-cluster forward pass on the tiny model (2 devices)."""
    weights = generate_weights(GPT2_TEST_TINY, seed=0)
    tokens = np.array([5, 9, 17, 33])

    def forward():
        simulator = DFXFunctionalSimulator(weights, num_devices=2, numerics=FP16_DFX)
        return simulator.forward(tokens)

    logits, next_token = benchmark.pedantic(forward, rounds=3, iterations=1)
    assert logits.shape == (GPT2_TEST_TINY.vocab_size,)
    assert 0 <= next_token < GPT2_TEST_TINY.vocab_size


def test_bench_end_to_end_grid_point(benchmark):
    """One DFX appliance run on the chatbot-like [64:64] workload (1.5B)."""
    appliance = DFXAppliance(GPT2_1_5B, num_devices=4)
    result = benchmark.pedantic(appliance.run, args=(Workload(64, 64),), rounds=3, iterations=1)
    print_header("DFX [64:64] on the 1.5B model")
    print(f"simulated latency: {result.latency_ms:.1f} ms "
          f"({result.tokens_per_second:.1f} tokens/s; paper 72.68 tokens/s)")
    assert result.latency_ms > 0
