"""Intra-layer model parallelism (paper Sec. IV-B, Fig. 6).

DFX adopts the Megatron-style intra-layer scheme instead of pipelined
parallelism: the multi-head-attention weights are divided **head-wise** and
the fully-connected weights **column-wise** across the devices of a cluster.
Each device computes the same sequence of operations on its own slice of the
weights, producing a disjoint slice of every FC output vector, and the slices
are exchanged (all-gathered) over the ring network at four points per decoder
layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitioningError, check_number
from repro.model.config import GPT2Config
from repro.model.weights import DecoderLayerWeights, GPT2Weights


@dataclass(frozen=True)
class DevicePartition:
    """The slice of a decoder layer owned by one device.

    Attributes:
        device_id: Index of the device within the cluster.
        num_devices: Cluster size.
        head_ids: Attention heads assigned to this device.
        qkv_output_dim: Columns of each of Q, K, V computed locally.
        attn_proj_output_dim: Columns of the attention output projection.
        ffn1_output_dim: Columns of the first FFN matrix (GELU input width).
        ffn2_output_dim: Columns of the second FFN matrix.
        vocab_rows: Vocabulary rows of the LM head scored locally.
    """

    device_id: int
    num_devices: int
    head_ids: tuple[int, ...]
    qkv_output_dim: int
    attn_proj_output_dim: int
    ffn1_output_dim: int
    ffn2_output_dim: int
    vocab_rows: int

    @property
    def num_heads(self) -> int:
        """Number of attention heads owned by this device."""
        return len(self.head_ids)


@dataclass(frozen=True)
class PartitionPlan:
    """How a GPT-2 configuration is split across a homogeneous cluster."""

    config: GPT2Config
    num_devices: int
    devices: tuple[DevicePartition, ...]

    # ---------------------------------------------------------------- accessors
    def device(self, device_id: int) -> DevicePartition:
        """Partition owned by ``device_id``."""
        if not 0 <= device_id < self.num_devices:
            raise PartitioningError(
                f"device_id {device_id} out of range for {self.num_devices} devices"
            )
        return self.devices[device_id]

    @property
    def heads_per_device(self) -> int:
        """Attention heads per device (identical across devices)."""
        return self.config.n_head // self.num_devices

    # ------------------------------------------------------------------- sizing
    def device_layer_parameter_count(self) -> int:
        """Parameters of one decoder layer stored on one device.

        The large matrices (QKV, attention projection, FFN) are split evenly;
        the LayerNorm parameters and biases of synchronized vectors are
        replicated on every device because they are tiny and replication
        avoids an extra broadcast (paper Fig. 6 stores biases per device).
        """
        emb = self.config.n_embd
        ffn = self.config.ffn_dim
        split = self.num_devices
        qkv = emb * (3 * emb) // split + (3 * emb) // split
        attn_proj = emb * emb // split + emb // split
        ffn1 = emb * ffn // split + ffn // split
        ffn2 = ffn * emb // split + emb // split
        layer_norms = 2 * (2 * emb)
        return qkv + attn_proj + ffn1 + ffn2 + layer_norms

    def device_weight_bytes(self, bytes_per_element: int = 2) -> int:
        """Bytes of decoder-layer + LM-head weights stored on one device's HBM."""
        layer_bytes = self.device_layer_parameter_count() * bytes_per_element
        lm_head = (
            self.config.vocab_size // self.num_devices
        ) * self.config.n_embd * bytes_per_element
        return self.config.n_layer * layer_bytes + lm_head


def build_partition_plan(config: GPT2Config, num_devices: int) -> PartitionPlan:
    """Split ``config`` across ``num_devices`` homogeneous devices.

    Raises:
        PartitioningError: if the head count, FFN width, or vocabulary cannot
            be divided evenly across the requested devices (the paper adjusts
            the 1.5B model from 25 to 24 heads for exactly this reason).
    """
    check_number("num_devices", num_devices, 1, integer=True, error=PartitioningError)
    if config.n_head % num_devices != 0:
        raise PartitioningError(
            f"{config.name}: {config.n_head} attention heads cannot be divided "
            f"evenly across {num_devices} devices"
        )
    if config.ffn_dim % num_devices != 0:
        raise PartitioningError(
            f"{config.name}: FFN width {config.ffn_dim} not divisible by {num_devices}"
        )

    heads_per_device = config.n_head // num_devices
    qkv_cols = heads_per_device * config.head_dim
    attn_proj_cols = config.n_embd // num_devices
    ffn1_cols = config.ffn_dim // num_devices
    ffn2_cols = config.n_embd // num_devices
    # The vocabulary rarely divides evenly (50257 is prime-ish); the last
    # device takes the remainder.
    base_vocab = config.vocab_size // num_devices

    devices = []
    for device_id in range(num_devices):
        head_ids = tuple(
            range(device_id * heads_per_device, (device_id + 1) * heads_per_device)
        )
        vocab_rows = base_vocab
        if device_id == num_devices - 1:
            vocab_rows = config.vocab_size - base_vocab * (num_devices - 1)
        devices.append(
            DevicePartition(
                device_id=device_id,
                num_devices=num_devices,
                head_ids=head_ids,
                qkv_output_dim=qkv_cols,
                attn_proj_output_dim=attn_proj_cols,
                ffn1_output_dim=ffn1_cols,
                ffn2_output_dim=ffn2_cols,
                vocab_rows=vocab_rows,
            )
        )
    return PartitionPlan(config=config, num_devices=num_devices, devices=tuple(devices))


# --------------------------------------------------------------------- weights
@dataclass
class DeviceLayerWeights:
    """Numerical weight slices owned by one device for one decoder layer."""

    w_qkv: np.ndarray          # (n_embd, 3 * qkv_output_dim), [Q|K|V] slices
    b_qkv: np.ndarray          # (3 * qkv_output_dim,)
    w_attn_proj: np.ndarray    # (n_embd, attn_proj_output_dim)
    b_attn_proj: np.ndarray    # (attn_proj_output_dim,)
    w_ffn1: np.ndarray         # (n_embd, ffn1_output_dim)
    b_ffn1: np.ndarray         # (ffn1_output_dim,)
    w_ffn2: np.ndarray         # (ffn_dim, ffn2_output_dim)
    b_ffn2: np.ndarray         # (ffn2_output_dim,)
    ln1_gamma: np.ndarray      # replicated
    ln1_beta: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray


def _head_column_slice(partition: DevicePartition, head_dim: int) -> slice:
    start = partition.head_ids[0] * head_dim
    stop = (partition.head_ids[-1] + 1) * head_dim
    return slice(start, stop)


def partition_layer_weights(
    layer: DecoderLayerWeights, config: GPT2Config, partition: DevicePartition
) -> DeviceLayerWeights:
    """Slice one decoder layer's weights for one device (paper Fig. 6).

    The QKV matrix is stored ``[Q | K | V]`` along its columns; head-wise
    partitioning takes the device's head columns from each of the three
    blocks.  The FC matrices are split column-wise; LayerNorm parameters are
    replicated.
    """
    emb = config.n_embd
    head_slice = _head_column_slice(partition, config.head_dim)
    column_slice = slice(
        partition.device_id * partition.attn_proj_output_dim,
        (partition.device_id + 1) * partition.attn_proj_output_dim,
    )
    ffn1_slice = slice(
        partition.device_id * partition.ffn1_output_dim,
        (partition.device_id + 1) * partition.ffn1_output_dim,
    )

    def qkv_columns(matrix: np.ndarray) -> np.ndarray:
        query_block = matrix[:, 0 * emb : 1 * emb][:, head_slice]
        key_block = matrix[:, 1 * emb : 2 * emb][:, head_slice]
        value_block = matrix[:, 2 * emb : 3 * emb][:, head_slice]
        return np.concatenate([query_block, key_block, value_block], axis=-1)

    def qkv_bias(bias: np.ndarray) -> np.ndarray:
        query_block = bias[0 * emb : 1 * emb][head_slice]
        key_block = bias[1 * emb : 2 * emb][head_slice]
        value_block = bias[2 * emb : 3 * emb][head_slice]
        return np.concatenate([query_block, key_block, value_block], axis=-1)

    return DeviceLayerWeights(
        w_qkv=qkv_columns(layer.w_qkv),
        b_qkv=qkv_bias(layer.b_qkv),
        w_attn_proj=layer.w_attn_proj[:, column_slice],
        b_attn_proj=layer.b_attn_proj[column_slice],
        w_ffn1=layer.w_ffn1[:, ffn1_slice],
        b_ffn1=layer.b_ffn1[ffn1_slice],
        w_ffn2=layer.w_ffn2[:, column_slice],
        b_ffn2=layer.b_ffn2[column_slice],
        ln1_gamma=layer.ln1_gamma.copy(),
        ln1_beta=layer.ln1_beta.copy(),
        ln2_gamma=layer.ln2_gamma.copy(),
        ln2_beta=layer.ln2_beta.copy(),
    )


def partition_model_weights(
    weights: GPT2Weights, plan: PartitionPlan, device_id: int
) -> list[DeviceLayerWeights]:
    """Slice every decoder layer of ``weights`` for one device."""
    partition = plan.device(device_id)
    return [
        partition_layer_weights(layer, weights.config, partition)
        for layer in weights.layers
    ]
