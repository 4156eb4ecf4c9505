"""Tests for the GPT-3-family projection study."""

from dataclasses import replace

import pytest

from repro.analysis.projections import (
    GPT3_13B,
    GPT3_6_7B,
    GPT3_FAMILY,
    minimum_cluster_size,
    project_family,
    project_model,
)
from repro.errors import PartitioningError
from repro.fpga.u280 import DEFAULT_U280
from repro.model.config import GPT2_1_5B, GPT2_345M, GPT2Config
from repro.workloads import Workload


class TestClusterSizing:
    def test_paper_models_fit_small_clusters(self):
        assert minimum_cluster_size(GPT2_345M, max_context_tokens=1024).num_devices == 1
        sizing_1_5b = minimum_cluster_size(GPT2_1_5B, max_context_tokens=1024)
        assert sizing_1_5b.num_devices <= 2

    def test_larger_models_need_more_devices(self):
        small = minimum_cluster_size(GPT2_1_5B, max_context_tokens=1024)
        large = minimum_cluster_size(GPT3_6_7B, max_context_tokens=1024)
        larger = minimum_cluster_size(GPT3_13B, max_context_tokens=1024)
        assert small.num_devices <= large.num_devices <= larger.num_devices
        assert large.num_devices >= 2

    def test_hbm_utilization_within_headroom(self):
        for config in GPT3_FAMILY:
            sizing = minimum_cluster_size(config, max_context_tokens=1024)
            assert sizing.hbm_utilization <= 0.9

    def test_utilization_is_against_the_sized_capacity(self):
        # A 16 GiB device used to be sized against its own capacity but
        # reported against the default 8 GiB, reading 1.544 here.
        spec = replace(DEFAULT_U280, hbm_capacity_bytes=16 * 2**30)
        sizing = minimum_cluster_size(GPT3_13B, max_context_tokens=1024, spec=spec)
        assert sizing.num_devices == 2
        assert sizing.hbm_capacity_bytes == spec.hbm_capacity_bytes
        assert sizing.hbm_utilization == pytest.approx(0.772, abs=1e-3)
        assert sizing.hbm_utilization == sizing.hbm_bytes_per_device / (16 * 2**30)

    def test_unfittable_model_rejected(self):
        absurd = GPT2Config(name="gpt-absurd", n_layer=96, n_embd=12288, n_head=96,
                            n_positions=2048)
        with pytest.raises(PartitioningError):
            minimum_cluster_size(absurd, candidate_sizes=(1, 2), max_context_tokens=2048)


class TestProjections:
    def test_project_model_structure(self):
        projection = project_model(GPT3_6_7B, workload=Workload(32, 16),
                                   max_context_tokens=1024)
        assert projection.config is GPT3_6_7B
        assert projection.latency_ms > 0
        assert projection.tokens_per_second > 0
        assert projection.per_token_generation_ms > 0

    def test_bigger_models_are_slower_per_token(self):
        small = project_model(GPT2_1_5B, workload=Workload(32, 16), max_context_tokens=1024)
        large = project_model(GPT3_6_7B, workload=Workload(32, 16), max_context_tokens=1024)
        assert large.per_token_generation_ms > small.per_token_generation_ms

    def test_project_family_returns_all_fitting_models(self):
        projections = project_family(workload=Workload(32, 8), max_context_tokens=1024)
        names = [projection.config.name for projection in projections]
        assert "gpt3-6.7b" in names
        assert "gpt3-13b" in names
        assert len(projections) == len(GPT3_FAMILY)
