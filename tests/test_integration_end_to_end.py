"""End-to-end integration tests across the whole library.

These tests tie the layers together the way the scorecard and examples do:
reference model vs functional DFX simulator on real generation loops, the
performance simulator vs the GPU baseline on paper workloads, and the
headline claims (speedup / throughput / energy / cost) in one place.
"""

import numpy as np
import pytest

from repro.analysis.cost import cost_comparison
from repro.analysis.metrics import average_speedup, pair_results
from repro.baselines.gpu import GPUAppliance
from repro.core.appliance import DFXAppliance
from repro.core.functional import DFXFunctionalSimulator
from repro.model.config import GPT2_1_5B, GPT2_345M, GPT2_TEST_TINY
from repro.model.generation import TextGenerator
from repro.model.gpt2 import GPT2Model
from repro.model.numerics import FP16_DFX
from repro.model.weights import generate_weights
from repro.workloads import Workload


class TestFunctionalEquivalenceOnGenerationLoop:
    """The compiled DFX pipeline generates the same text as the reference model."""

    def test_four_device_cluster_matches_text_generator(self):
        weights = generate_weights(GPT2_TEST_TINY, seed=21)
        reference = GPT2Model(weights, numerics=FP16_DFX)
        generator = TextGenerator(reference)
        prompt = [17, 301, 58, 444]

        expected = generator.generate_tokens(prompt, max_new_tokens=5)
        simulator = DFXFunctionalSimulator(weights, num_devices=4, numerics=FP16_DFX)
        produced = simulator.generate(prompt, max_new_tokens=5)

        assert produced == expected.output_token_ids


class TestHeadlineClaims:
    """The paper's headline numbers, reproduced end to end (coarse tolerance)."""

    @pytest.fixture(scope="class")
    def grid_results(self):
        workloads = [Workload(32, 16), Workload(64, 64), Workload(128, 256)]
        gpu = GPUAppliance(GPT2_1_5B, num_devices=4).run_many(workloads)
        dfx = DFXAppliance(GPT2_1_5B, num_devices=4).run_many(workloads)
        return pair_results(gpu, dfx)

    def test_dfx_beats_gpu_on_generation_heavy_workloads(self, grid_results):
        for row in grid_results:
            assert row.speedup > 1.5

    def test_average_speedup_order_of_magnitude(self, grid_results):
        # The full-grid number is 5.58x in the paper; a generation-heavy
        # subset should land in the same band.
        assert 3.0 < average_speedup(grid_results) < 12.0

    def test_energy_efficiency_gain(self, grid_results):
        for row in grid_results:
            assert row.dfx.tokens_per_joule > 1.5 * row.baseline.tokens_per_joule

    def test_speedup_attenuates_with_input_size(self):
        gpu = GPUAppliance(GPT2_1_5B, num_devices=4)
        dfx = DFXAppliance(GPT2_1_5B, num_devices=4)
        small_input = gpu.run(Workload(32, 16)).latency_ms / dfx.run(Workload(32, 16)).latency_ms
        large_input = gpu.run(Workload(128, 16)).latency_ms / dfx.run(Workload(128, 16)).latency_ms
        assert large_input < small_input

    def test_gpu_wins_when_input_output_ratio_is_extreme(self):
        # "As long as the ratio between the input and output lengths is lower
        #  than 4:1 ... DFX performs better" — so at a much larger ratio the
        #  GPU appliance should win.
        gpu = GPUAppliance(GPT2_1_5B, num_devices=4)
        dfx = DFXAppliance(GPT2_1_5B, num_devices=4)
        workload = Workload(512, 1)
        assert gpu.run(workload).latency_ms < dfx.run(workload).latency_ms

    def test_cost_effectiveness_gain_band(self):
        workload = Workload(64, 64)
        gpu = GPUAppliance(GPT2_1_5B, num_devices=4).run(workload)
        dfx = DFXAppliance(GPT2_1_5B, num_devices=4).run(workload)
        comparison = cost_comparison(gpu, dfx)
        # Paper: 8.21x more cost-effective.
        assert 5.0 < comparison.cost_effectiveness_gain < 13.0


class TestScalabilityShape:
    def test_throughput_increases_but_sublinearly(self):
        workload = Workload(64, 64)
        throughputs = [
            DFXAppliance(GPT2_345M, num_devices=count).run(workload).tokens_per_second
            for count in (1, 2, 4)
        ]
        assert throughputs[0] < throughputs[1] < throughputs[2]
        # Paper Fig. 18: ~1.5x per doubling, clearly below 2x.
        assert 1.2 < throughputs[1] / throughputs[0] < 1.9
        assert 1.2 < throughputs[2] / throughputs[1] < 1.9
