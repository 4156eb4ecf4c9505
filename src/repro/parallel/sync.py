"""Synchronization accounting for intra-layer model parallelism.

Each decoder layer needs four ring all-gathers (paper Sec. IV-B / Algorithm 1):
after the per-head attention outputs, after the attention output projection,
after the first FFN matrix, and after the second FFN matrix.  This module
derives the synchronization schedule (payload sizes and counts) from a
partition plan, which the router timing model and the parallelism ablation
consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.partitioner import PartitionPlan
from repro.results import PHASE_FFN, PHASE_SELF_ATTENTION

#: Bytes per FP16 element.
FP16_BYTES = 2


@dataclass(frozen=True)
class SyncPoint:
    """One ring synchronization within a decoder layer."""

    name: str
    phase: str
    payload_elements: int

    def payload_bytes(self, bytes_per_element: int = FP16_BYTES) -> int:
        """Full (gathered) payload size in bytes."""
        return self.payload_elements * bytes_per_element


def layer_sync_schedule(plan: PartitionPlan) -> tuple[SyncPoint, ...]:
    """The four synchronization points of one decoder layer, in order."""
    emb = plan.config.n_embd
    ffn = plan.config.ffn_dim
    return (
        SyncPoint("attention_heads", PHASE_SELF_ATTENTION, emb),
        SyncPoint("attention_projection", PHASE_SELF_ATTENTION, emb),
        SyncPoint("ffn_inner", PHASE_FFN, ffn),
        SyncPoint("ffn_output", PHASE_FFN, emb),
    )


def syncs_per_token(plan: PartitionPlan) -> int:
    """Total ring synchronizations needed to produce one token."""
    return plan.config.n_layer * len(layer_sync_schedule(plan))


def sync_bytes_per_token(plan: PartitionPlan, bytes_per_element: int = FP16_BYTES) -> int:
    """Total bytes moved around the ring per generated token.

    Each all-gather circulates every device's slice to every other device: a
    slice of ``payload / num_devices`` elements traverses ``num_devices - 1``
    hops, on each of the ``num_devices`` devices simultaneously, so the bytes
    crossing any single link per sync are ``payload * (D - 1) / D``.
    """
    if plan.num_devices == 1:
        return 0
    schedule = layer_sync_schedule(plan)
    per_layer = sum(
        point.payload_bytes(bytes_per_element)
        * (plan.num_devices - 1)
        // plan.num_devices
        for point in schedule
    )
    return per_layer * plan.config.n_layer
