"""Tests for sync accounting and the pipelined-parallelism baseline."""

import pytest

from repro.core.appliance import DFXAppliance
from repro.core.calibration import Calibration
from repro.errors import PartitioningError
from repro.model.config import GPT2_1_5B, GPT2_345M
from repro.parallel.partitioner import build_partition_plan
from repro.parallel.pipeline import build_pipeline_plan, pipelined_token_latency_ms
from repro.parallel.sync import layer_sync_schedule, sync_bytes_per_token, syncs_per_token
from repro.results import PHASE_FFN, PHASE_SELF_ATTENTION, PHASE_SYNC
from repro.workloads import Workload


class TestSyncSchedule:
    def test_four_syncs_per_layer(self):
        plan = build_partition_plan(GPT2_1_5B, 4)
        schedule = layer_sync_schedule(plan)
        assert len(schedule) == 4
        assert [point.phase for point in schedule] == [
            PHASE_SELF_ATTENTION, PHASE_SELF_ATTENTION, PHASE_FFN, PHASE_FFN,
        ]

    def test_total_syncs_per_token(self):
        plan = build_partition_plan(GPT2_1_5B, 4)
        assert syncs_per_token(plan) == 4 * GPT2_1_5B.n_layer

    def test_payload_sizes(self):
        plan = build_partition_plan(GPT2_1_5B, 4)
        schedule = layer_sync_schedule(plan)
        assert schedule[0].payload_bytes() == GPT2_1_5B.n_embd * 2
        assert schedule[2].payload_bytes() == GPT2_1_5B.ffn_dim * 2

    def test_single_device_moves_no_bytes(self):
        plan = build_partition_plan(GPT2_1_5B, 1)
        assert sync_bytes_per_token(plan) == 0

    def test_sync_bytes_grow_with_device_count(self):
        two = sync_bytes_per_token(build_partition_plan(GPT2_1_5B, 2))
        four = sync_bytes_per_token(build_partition_plan(GPT2_1_5B, 4))
        assert four > two > 0


class TestPipelinePlan:
    def test_stages_cover_all_layers(self):
        plan = build_pipeline_plan(GPT2_345M, 4)
        assert sum(stage.num_layers for stage in plan.stages) == GPT2_345M.n_layer
        first, last = plan.stages[0], plan.stages[-1]
        assert (first.device_id, first.first_layer) == (0, 0)
        assert last.device_id == 3
        assert last.first_layer + last.num_layers == GPT2_345M.n_layer

    def test_uneven_layer_counts_distributed(self):
        plan = build_pipeline_plan(GPT2_345M.scaled(n_layer=10), 4)
        assert [stage.num_layers for stage in plan.stages] == [3, 3, 2, 2]

    def test_too_many_stages_rejected(self):
        with pytest.raises(PartitioningError):
            build_pipeline_plan(GPT2_345M.scaled(n_layer=2), 4)


class TestParallelismComparison:
    """Reproduces the paper's argument for intra-layer over pipelined parallelism."""

    CONTEXT = 64

    def test_pipelining_does_not_reduce_token_latency(self):
        single_layer_ms = 0.1
        pipelined = pipelined_token_latency_ms(single_layer_ms, GPT2_1_5B, 4, 0.01)
        single_device = GPT2_1_5B.n_layer * single_layer_ms
        assert pipelined >= single_device

    def test_intra_layer_reduces_token_latency(self):
        single = DFXAppliance(GPT2_1_5B, num_devices=1).per_token_generation_seconds(
            self.CONTEXT
        )
        intra = DFXAppliance(GPT2_1_5B, num_devices=4).per_token_generation_seconds(
            self.CONTEXT
        )
        assert intra < single
        single_layer_ms = single * 1e3 / GPT2_1_5B.n_layer
        assert intra * 1e3 < pipelined_token_latency_ms(single_layer_ms, GPT2_1_5B, 4, 0.01)

    def test_intra_layer_gain_shrinks_when_sync_is_expensive(self):
        cheap_sync = DFXAppliance(
            GPT2_1_5B, num_devices=4, calibration=Calibration(aurora_hop_latency_s=1e-6)
        ).per_token_generation_seconds(self.CONTEXT)
        pricey_sync = DFXAppliance(
            GPT2_1_5B, num_devices=4, calibration=Calibration(aurora_hop_latency_s=10e-6)
        ).per_token_generation_seconds(self.CONTEXT)
        assert pricey_sync > cheap_sync

    def test_single_device_has_no_sync_overhead(self):
        workload = Workload(self.CONTEXT, 4)
        base = DFXAppliance(GPT2_1_5B, num_devices=1).run(workload)
        pricey_sync = DFXAppliance(
            GPT2_1_5B, num_devices=1, calibration=Calibration(aurora_hop_latency_s=10e-3)
        ).run(workload)
        assert base.breakdown_ms[PHASE_SYNC] == 0.0
        assert pricey_sync.latency_ms == pytest.approx(base.latency_ms)
