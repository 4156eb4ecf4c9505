"""DFX compiler: lowers GPT-2 into DFX instruction programs (Algorithm 1).

The compiler is parameterized by a model configuration, a partition plan, and
a device id.  It emits, for that device:

* an **embedding program** (token embedding: WTE + WPE lookup and add);
* a **decoder-layer program** implementing Algorithm 1 with the device's
  partition (its attention heads and FC column slices), including the four
  ring synchronizations;
* an **LM-head program** (final LayerNorm, logits against the device's WTE
  slice, logits all-gather).

Buffer naming is *generic per layer*: weight operands are named ``w_query``,
``w_ffn1`` etc. and the executor binds them to the current layer's partitioned
weights.  This mirrors the hardware, where the layer number only changes the
HBM address the DMA streams from (paper Sec. V-A, "Controller").

The compiler also reproduces the paper's **Value-first reordering**
(Sec. V-B, "Transpose Scheme"): the Value projection is computed before Key
and Query so the DMA can hide the Value transpose behind the Key/Query
matrix-vector products.

Compiled programs are **memoized** in one dict keyed by ``(kind, batch,
rows, past_length)``: the embedding, decoder-layer or LM-head program of
``batch`` lockstep streams, each with ``rows`` new token rows after
``past_length`` cached positions.  Every public ``compile_*`` method is one
lookup in it.  Callers must treat returned programs as immutable (the
functional and timing engines only read them).

A program's extents live only in its instructions, and the functional
engine reads every extent from its operands: a ``MASKED_MM`` takes its
causal past from the score's shape (``kv_len - rows``).  So one linked
decoder-layer program serves prefill and decode at every past, and the
engine runs the three programs of ``compile_token_step(1, 0)`` (the
hardware analogue: the controller only changes the HBM base address between
tokens, Sec. V-A).  The timing model prices exact shapes, one program per
step ``(batch, past_length)``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from repro.errors import CompilationError, check_number
from repro.isa.instructions import (
    DMAInstruction,
    Instruction,
    MatrixInstruction,
    RouterInstruction,
    VectorInstruction,
)
from repro.isa.opcodes import (
    DMAOpcode,
    MatrixOpcode,
    MemorySpace,
    RouterOpcode,
    VectorOpcode,
)
from repro.isa.program import Program
from repro.model.config import GPT2Config
from repro.parallel.partitioner import PartitionPlan
from repro.results import (
    PHASE_EMBEDDING,
    PHASE_FFN,
    PHASE_LAYERNORM,
    PHASE_LM_HEAD,
    PHASE_RESIDUAL,
    PHASE_SELF_ATTENTION,
    PHASE_SYNC,
)

#: Bytes per FP16 element; the whole datapath is half precision.
FP16_BYTES = 2

def kv_key_buffer(local_head: int) -> str:
    """Name of the HBM-resident Key cache for a device-local head index."""
    return f"kv.key.h{local_head}"


def kv_value_buffer(local_head: int) -> str:
    """Name of the HBM-resident Value cache for a device-local head index."""
    return f"kv.value.h{local_head}"


@dataclass(frozen=True)
class CompiledToken:
    """The three programs needed to process one token step on one device."""

    embedding: Program
    decoder_layer: Program
    lm_head: Program


class DFXCompiler:
    """Compile GPT-2 inference into per-device DFX programs."""

    def __init__(self, config: GPT2Config, plan: PartitionPlan, device_id: int = 0):
        if plan.config != config:
            raise CompilationError("partition plan was built for a different config")
        self.config = config
        self.plan = plan
        self.device_id = device_id
        self.partition = plan.device(device_id)
        # The one program memo (see module docstring): compiled programs are
        # shared across calls and must not be mutated by callers.
        self._programs: dict[tuple[str, int, int, int], Program] = {}
        #: Number of *uncached* compilations per program name; tests assert
        #: each program is compiled at most once.
        self.compile_counts: Counter[str] = Counter()

    def _program(self, kind: str, batch: int, rows: int, past_length: int) -> Program:
        """The ``kind`` program of one step, built on the first request.

        ``kind`` is ``"embedding"``, ``"decoder-layer"`` or ``"lm-head"``;
        the step runs ``batch`` lockstep streams of ``rows`` new token rows
        each, after ``past_length`` cached positions.
        """
        check_number("batch", batch, 1, integer=True, error=CompilationError)
        check_number("rows", rows, 1, integer=True, error=CompilationError)
        check_number("past_length", past_length, 0, integer=True,
                     error=CompilationError)
        key = (kind, batch, rows, past_length)
        program = self._programs.get(key)
        if program is None:
            build = self._KINDS[kind]
            program = self._programs[key] = build(self, batch, rows, past_length)
            self.compile_counts[program.name] += 1
        return program

    # ------------------------------------------------------------------ helpers
    def _layer_norm(
        self,
        prefix: str,
        input_name: str,
        output_name: str,
        gamma: str,
        beta: str,
        rows: int,
        tag: str = PHASE_LAYERNORM,
    ) -> list[Instruction]:
        """Emit the vector-instruction sequence for one LayerNorm (Sec. IV-C)."""
        emb = self.config.n_embd
        eps = self.config.layer_norm_eps
        instructions: list[Instruction] = [
            VectorInstruction(VectorOpcode.LOAD, dst=f"{prefix}.gamma", src1=gamma,
                              length=emb, rows=1, tag=tag),
            VectorInstruction(VectorOpcode.LOAD, dst=f"{prefix}.beta", src1=beta,
                              length=emb, rows=1, tag=tag),
            VectorInstruction(VectorOpcode.ACCUM, dst=f"{prefix}.sum", src1=input_name,
                              length=emb, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.MUL, dst=f"{prefix}.mean", src1=f"{prefix}.sum",
                              immediate=1.0 / emb, length=1, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.SUB, dst=f"{prefix}.centered", src1=input_name,
                              src2=f"{prefix}.mean", length=emb, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.MUL, dst=f"{prefix}.squared",
                              src1=f"{prefix}.centered", src2=f"{prefix}.centered",
                              length=emb, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.ACCUM, dst=f"{prefix}.var_sum",
                              src1=f"{prefix}.squared", length=emb, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.MUL, dst=f"{prefix}.variance",
                              src1=f"{prefix}.var_sum", immediate=1.0 / emb,
                              length=1, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.ADD, dst=f"{prefix}.variance_eps",
                              src1=f"{prefix}.variance", immediate=eps,
                              length=1, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.RECIP_SQRT, dst=f"{prefix}.inv_std",
                              src1=f"{prefix}.variance_eps", length=1, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.MUL, dst=f"{prefix}.normalized",
                              src1=f"{prefix}.centered", src2=f"{prefix}.inv_std",
                              length=emb, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.MUL, dst=f"{prefix}.scaled",
                              src1=f"{prefix}.normalized", src2=f"{prefix}.gamma",
                              length=emb, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.ADD, dst=output_name,
                              src1=f"{prefix}.scaled", src2=f"{prefix}.beta",
                              length=emb, rows=rows, tag=tag),
        ]
        return instructions

    def _softmax(
        self,
        prefix: str,
        score: str,
        score_max: str,
        output: str,
        rows: int,
        kv_len: int,
        tag: str = PHASE_SELF_ATTENTION,
    ) -> list[Instruction]:
        """Emit Softmax as vector instructions (sub, exp, accum, recip, mul)."""
        return [
            VectorInstruction(VectorOpcode.SUB, dst=f"{prefix}.shifted", src1=score,
                              src2=score_max, length=kv_len, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.EXP, dst=f"{prefix}.exp",
                              src1=f"{prefix}.shifted", length=kv_len, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.ACCUM, dst=f"{prefix}.sum",
                              src1=f"{prefix}.exp", length=kv_len, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.RECIP, dst=f"{prefix}.inv_sum",
                              src1=f"{prefix}.sum", length=1, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.MUL, dst=output, src1=f"{prefix}.exp",
                              src2=f"{prefix}.inv_sum", length=kv_len, rows=rows, tag=tag),
        ]

    def _weight_load(self, buffer: str, elements: int, tag: str) -> DMAInstruction:
        """Prefetch a weight matrix from HBM into the DMA weight buffer."""
        return DMAInstruction(
            opcode=DMAOpcode.LOAD_WEIGHT,
            dst=f"dma.{buffer}",
            src=buffer,
            size_bytes=elements * FP16_BYTES,
            memory=MemorySpace.HBM,
            tag=tag,
        )

    def _sync(self, src: str, dst: str, payload_elements: int, rows: int) -> RouterInstruction:
        return RouterInstruction(
            opcode=RouterOpcode.SYNC,
            dst=dst,
            src=src,
            payload_elements=payload_elements,
            rows=rows,
            tag=PHASE_SYNC,
        )

    # --------------------------------------------------------------- embedding
    def compile_embedding(self, rows: int) -> Program:
        """Token embedding of ``rows`` rows (see :meth:`_build_embedding`)."""
        return self._program("embedding", 1, rows, 0)

    def _build_embedding(self, batch: int, rows: int, past_length: int) -> Program:
        """Token embedding: add the staged WTE and WPE rows (paper Sec. II-A).

        The host stages ``wte_rows`` and ``wpe_rows`` (the rows selected by the
        current token IDs and positions) in DDR; the DMA brings them in and
        the VPU adds them.
        """
        rows *= batch
        emb = self.config.n_embd
        program = Program(
            name=f"embedding[rows={rows}]",
            inputs=(),
            outputs=("hidden",),
        )
        row_bytes = rows * emb * FP16_BYTES
        program.extend([
            DMAInstruction(DMAOpcode.LOAD_EMBEDDING, dst="wte_vec", src="wte_rows",
                           size_bytes=row_bytes, memory=MemorySpace.DDR,
                           tag=PHASE_EMBEDDING),
            DMAInstruction(DMAOpcode.LOAD_EMBEDDING, dst="wpe_vec", src="wpe_rows",
                           size_bytes=row_bytes, memory=MemorySpace.DDR,
                           tag=PHASE_EMBEDDING),
            VectorInstruction(VectorOpcode.ADD, dst="hidden", src1="wte_vec",
                              src2="wpe_vec", length=emb, rows=rows,
                              tag=PHASE_EMBEDDING),
        ])
        return program

    # ------------------------------------------------------------ decoder layer
    def compile_decoder_layer(self, rows: int, past_length: int) -> Program:
        """One stream's decoder layer: ``rows`` new token rows after
        ``past_length`` cached positions (see :meth:`_build_decoder_layer`)."""
        return self._program("decoder-layer", 1, rows, past_length)

    def compile_decoder_step(self) -> Program:
        """The single-stream decode step at past 0: ``compile_decoder_layer(1, 0)``."""
        return self._program("decoder-layer", 1, 1, 0)

    def compile_batched_decoder_step(self, batch: int, past_length: int) -> Program:
        """One decode step of a ``batch``-stream lockstep cohort (timing model)."""
        return self._program("decoder-layer", batch, 1, past_length)

    def _build_decoder_layer(self, batch: int, rows: int, past_length: int) -> Program:
        """Compile one decoder layer for this device (Algorithm 1).

        The program reads ``hidden`` and writes ``hidden_out``, its matrix
        and vector instructions carry ``batch * rows`` rows, and it holds
        exactly four ring synchronizations.  A ``batch``-stream cohort
        streams the shared layer weights once and multicasts them to all rows
        (``weight_reuse_rows=batch``), while the per-stream KV operands keep
        per-row streaming (each stream reads its own cache).
        """
        config = self.config
        partition = self.partition
        emb = config.n_embd
        head_dim = config.head_dim
        kv_len = past_length + rows
        local_heads = partition.num_heads
        qkv_dim = partition.qkv_output_dim
        scale = 1.0 / math.sqrt(head_dim)
        total_rows = rows * batch

        if batch > 1:
            name = (
                f"batched-step[device={self.device_id},batch={batch},"
                f"past={past_length}]"
            )
        else:
            name = f"decoder-layer[device={self.device_id},rows={rows},past={past_length}]"
        program = Program(
            name=name,
            inputs=("hidden",),
            outputs=("hidden_out",),
        )

        # ---- LayerNorm 1 -----------------------------------------------------
        program.extend(
            self._layer_norm(
                "ln1", "hidden", "lnorm1", "ln1_gamma", "ln1_beta", total_rows
            )
        )

        # ---- Self-attention: QKV projections (Value first, Sec. V-B) --------
        projections = (
            ("value", "w_value", "b_value", "value_local"),
            ("key", "w_key", "b_key", "key_local"),
            ("query", "w_query", "b_query", "query_local"),
        )
        for label, weight, bias, destination in projections:
            program.append(self._weight_load(weight, emb * qkv_dim, PHASE_SELF_ATTENTION))
            program.append(
                MatrixInstruction(
                    MatrixOpcode.CONV1D,
                    dst=destination,
                    input_operand="lnorm1",
                    weight_operand=weight,
                    bias_operand=bias,
                    rows=total_rows,
                    in_dim=emb,
                    out_dim=qkv_dim,
                    weight_reuse_rows=batch,
                    tag=PHASE_SELF_ATTENTION,
                    comment=f"Conv1D for {label}",
                )
            )
            if label in ("value", "key"):
                cache_name = kv_value_buffer if label == "value" else kv_key_buffer
                for local_head in range(local_heads):
                    program.append(
                        DMAInstruction(
                            opcode=DMAOpcode.STORE_KV,
                            dst=cache_name(local_head),
                            src=destination,
                            size_bytes=total_rows * head_dim * FP16_BYTES,
                            memory=MemorySpace.HBM,
                            col_offset=local_head * head_dim,
                            col_count=head_dim,
                            tag=PHASE_SELF_ATTENTION,
                            comment=f"append {label} rows for local head {local_head}",
                        )
                    )

        # ---- Multi-head attention (per local head) ---------------------------
        for local_head in range(local_heads):
            score = f"score.h{local_head}"
            score_max = f"score_max.h{local_head}"
            probs = f"probs.h{local_head}"
            program.append(
                MatrixInstruction(
                    MatrixOpcode.MASKED_MM,
                    dst=score,
                    input_operand="query_local",
                    weight_operand=kv_key_buffer(local_head),
                    # Each stream reads its *own* cached keys, so the batched
                    # cohort gets no weight reuse here (weight_reuse_rows=1).
                    rows=total_rows,
                    in_dim=head_dim,
                    out_dim=kv_len,
                    apply_redu_max=True,
                    redu_max_dst=score_max,
                    scale=scale,
                    input_col_offset=local_head * head_dim,
                    input_col_count=head_dim,
                    tag=PHASE_SELF_ATTENTION,
                    comment=f"Query x Key^T, local head {local_head}",
                )
            )
            program.extend(
                self._softmax(f"softmax.h{local_head}", score, score_max, probs,
                              total_rows, kv_len)
            )
            program.append(
                MatrixInstruction(
                    MatrixOpcode.MM,
                    dst="attn_local",
                    input_operand=probs,
                    weight_operand=kv_value_buffer(local_head),
                    rows=total_rows,
                    in_dim=kv_len,
                    out_dim=head_dim,
                    dst_col_offset=local_head * head_dim,
                    dst_total_cols=local_heads * head_dim,
                    tag=PHASE_SELF_ATTENTION,
                    comment=f"Score x Value, local head {local_head}",
                )
            )

        # ---- Sync 1: gather attention-head outputs ---------------------------
        program.append(self._sync("attn_local", "attn_full", emb, total_rows))

        # ---- Attention output projection + Sync 2 ----------------------------
        program.append(
            self._weight_load("w_attn_proj", emb * partition.attn_proj_output_dim,
                              PHASE_SELF_ATTENTION)
        )
        program.append(
            MatrixInstruction(
                MatrixOpcode.CONV1D,
                dst="c_attn_local",
                input_operand="attn_full",
                weight_operand="w_attn_proj",
                bias_operand="b_attn_proj",
                rows=total_rows,
                in_dim=emb,
                out_dim=partition.attn_proj_output_dim,
                weight_reuse_rows=batch,
                tag=PHASE_SELF_ATTENTION,
                comment="Conv1D for attention output",
            )
        )
        program.append(self._sync("c_attn_local", "c_attn", emb, total_rows))

        # ---- Residual 1 -------------------------------------------------------
        program.append(
            VectorInstruction(VectorOpcode.ADD, dst="resid1", src1="c_attn",
                              src2="hidden", length=emb, rows=total_rows,
                              tag=PHASE_RESIDUAL)
        )

        # ---- LayerNorm 2 ------------------------------------------------------
        program.extend(
            self._layer_norm(
                "ln2", "resid1", "lnorm2", "ln2_gamma", "ln2_beta", total_rows
            )
        )

        # ---- Feed-forward network + Syncs 3 and 4 -----------------------------
        ffn_dim = config.ffn_dim
        program.append(
            self._weight_load("w_ffn1", emb * partition.ffn1_output_dim, PHASE_FFN)
        )
        program.append(
            MatrixInstruction(
                MatrixOpcode.CONV1D,
                dst="ffn1_local",
                input_operand="lnorm2",
                weight_operand="w_ffn1",
                bias_operand="b_ffn1",
                rows=total_rows,
                in_dim=emb,
                out_dim=partition.ffn1_output_dim,
                weight_reuse_rows=batch,
                apply_gelu=True,
                tag=PHASE_FFN,
                comment="Conv1D + GELU (FFN expand)",
            )
        )
        program.append(self._sync("ffn1_local", "ffn1", ffn_dim, total_rows))

        program.append(
            self._weight_load("w_ffn2", ffn_dim * partition.ffn2_output_dim, PHASE_FFN)
        )
        program.append(
            MatrixInstruction(
                MatrixOpcode.CONV1D,
                dst="ffn2_local",
                input_operand="ffn1",
                weight_operand="w_ffn2",
                bias_operand="b_ffn2",
                rows=total_rows,
                in_dim=ffn_dim,
                out_dim=partition.ffn2_output_dim,
                weight_reuse_rows=batch,
                tag=PHASE_FFN,
                comment="Conv1D (FFN contract)",
            )
        )
        program.append(self._sync("ffn2_local", "ffn2", emb, total_rows))

        # ---- Residual 2 --------------------------------------------------------
        program.append(
            VectorInstruction(VectorOpcode.ADD, dst="hidden_out", src1="ffn2",
                              src2="resid1", length=emb, rows=total_rows,
                              tag=PHASE_RESIDUAL)
        )
        return program

    # ------------------------------------------------------------------ LM head
    def compile_lm_head(self) -> Program:
        """The single-stream LM head (see :meth:`_build_lm_head`)."""
        return self._program("lm-head", 1, 1, 0)

    def compile_batched_lm_head(self, batch: int) -> Program:
        """The LM head of a ``batch``-stream lockstep cohort (timing model)."""
        return self._program("lm-head", batch, 1, 0)

    def _build_lm_head(self, batch: int, rows: int, past_length: int) -> Program:
        """Final LayerNorm and LM head for each stream's last token position.

        Only the last row of the decoder output feeds the LM head (paper
        Sec. II-A); each device scores its slice of the vocabulary against the
        transposed WTE and the logits are gathered for the argmax.  A cohort
        streams the WTE slice once and multicasts it across its ``batch``
        rows (``weight_reuse_rows=batch``).
        """
        # The batch-1 program keeps its own name and comments.
        if batch == 1:
            name = f"lm-head[device={self.device_id}]"
            rows_scored, token_ids = "", "token id"
        else:
            name = f"batched-lm-head[device={self.device_id},batch={batch}]"
            rows_scored, token_ids = ", all streams", "token ids"
        emb = self.config.n_embd
        vocab = self.config.vocab_size
        program = Program(
            name=name,
            inputs=("hidden_last",),
            outputs=("logits",),
        )
        program.extend(
            self._layer_norm("ln_f", "hidden_last", "final_norm",
                             "ln_f_gamma", "ln_f_beta", rows=batch,
                             tag=PHASE_LM_HEAD)
        )
        program.append(
            self._weight_load("wte_part", self.partition.vocab_rows * emb, PHASE_LM_HEAD)
        )
        program.append(
            MatrixInstruction(
                MatrixOpcode.MM,
                dst="logits_local",
                input_operand="final_norm",
                weight_operand="wte_part",
                rows=batch,
                in_dim=emb,
                out_dim=self.partition.vocab_rows,
                transpose_weight=True,
                apply_redu_max=True,
                redu_max_dst="logits_local_max",
                weight_reuse_rows=batch,
                tag=PHASE_LM_HEAD,
                comment=f"logits against the device's WTE slice{rows_scored}",
            )
        )
        program.append(self._sync("logits_local", "logits", vocab, rows=batch))
        program.append(
            DMAInstruction(
                opcode=DMAOpcode.STORE_OUTPUT,
                dst="output_token",
                src="logits",
                size_bytes=4 * batch,
                memory=MemorySpace.DDR,
                tag=PHASE_LM_HEAD,
                comment=f"write the selected {token_ids} back to DDR",
            )
        )
        return program

    #: Each program kind's build method (see :meth:`_program`).
    _KINDS = {
        "embedding": _build_embedding,
        "decoder-layer": _build_decoder_layer,
        "lm-head": _build_lm_head,
    }

    # ------------------------------------------------------------- full token
    def compile_token_step(self, rows: int, past_length: int) -> CompiledToken:
        """The embedding, decoder-layer and LM-head programs of one stream's step."""
        return CompiledToken(
            embedding=self._program("embedding", 1, rows, 0),
            decoder_layer=self._program("decoder-layer", 1, rows, past_length),
            lm_head=self._program("lm-head", 1, 1, 0),
        )
