"""Tests for the fast-path execution engine.

Covers the compiled-program cache (each distinct shape compiles at most once
per ``generate()``), immutability of cached programs under execution, the
bit-exactness contract between the device-stacked linked fast path and the
per-instruction slow path (per device slice and per stream, and a whole
slow-path lockstep cluster as the oracle), KV arena growth inside the
functional cores, warm-cache reuse via ``reset_cache``, and the decode sets
of ragged batches (every logit against sequential ``forward``).
"""

import collections
import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.core import functional
from repro.core.functional import (
    BatchedFunctionalCore,
    BatchedGenerationSession,
    BatchedKV,
    BatchedKVPool,
    DFXFunctionalSimulator,
    FunctionalCore,
    link_program,
)
from repro.isa.compiler import DFXCompiler
from repro.errors import ExecutionError
from repro.isa.instructions import DMAInstruction, MatrixInstruction, VectorInstruction
from repro.isa.opcodes import DMAOpcode, MatrixOpcode, VectorOpcode
from repro.isa.program import Program
from repro.model.config import GPT2_TEST_TINY
from repro.model.numerics import FP16_DFX, FP16_GPU, FP32_EXACT
from repro.model.weights import generate_weights
from repro.parallel.partitioner import build_partition_plan, partition_model_weights

#: A tiny config whose vocabulary does not split evenly on 2 or 4 devices
#: (the last device takes the remainder, as with GPT-2's 50257).
UNEVEN_VOCAB_TINY = dataclasses.replace(
    GPT2_TEST_TINY, name="gpt2-test-tiny-vocab515", vocab_size=515
)


@pytest.fixture(scope="module")
def uneven_weights():
    return generate_weights(UNEVEN_VOCAB_TINY, seed=7)


def device_memory(memory, device):
    """One device's unstacked weights from a device-stacked layer memory."""
    unstacked = {}
    for name, array in memory.items():
        if type(array) is BatchedKV:
            continue
        if array.ndim == 4:  # (devices, 1, rows, cols); biases have one row
            array = array[device, 0]
            if name.startswith("b_"):
                array = array[0]
        unstacked[name] = array
    return unstacked


def device_stream(stacked, slow_ndim, device, stream):
    """The slice of a stacked-core register that one device's stream owns.

    Per-device registers lead with ``(devices, batch)``, shared ones with
    ``(batch,)``, and loaded LayerNorm parameters carry neither.
    """
    extra = stacked.ndim - slow_ndim
    if extra == 2:
        return stacked[device, stream]
    if extra == 1:
        return stacked[stream]
    return stacked


def gather_devices(sync, local):
    """Sync handler for a stacked core: concatenate its device slices."""
    return FP16_DFX.cast(np.concatenate(list(local), axis=-1))


def run_slow_lockstep(program, cores):
    """Run ``program`` on one plain core per device through the slow path.

    Every instruction goes through ``execute_instruction``; at each sync the
    cores' local slices are gathered in device order and handed to each core.
    """
    for segment in program.segments():
        for core in cores:
            for instruction in segment.instructions:
                core.execute_instruction(instruction)
        sync = segment.sync
        if sync is not None:
            gathered = cores[0].numerics.cast(
                np.concatenate([core.registers[sync.src] for core in cores], axis=-1)
            )
            for core in cores:
                core.execute_instruction(sync, lambda _sync, _local: gathered)


def assert_matches_slow(stacked_registers, slow_cores, stream, label):
    """Every slow-path register equals its stacked slice, bit for bit."""
    for device, slow in enumerate(slow_cores):
        assert set(slow.registers) <= set(stacked_registers)
        for name, value in slow.registers.items():
            fast = device_stream(stacked_registers[name], value.ndim, device, stream)
            assert fast.dtype == value.dtype, name
            assert np.array_equal(fast, value), (
                f"{label} device {device} register {name}"
            )


@pytest.fixture()
def simulator(tiny_weights):
    return DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)


class TestProgramCache:
    def test_compile_at_most_once_per_shape_during_generate(self, simulator):
        simulator.generate([5, 111, 42], max_new_tokens=16)
        counts = simulator.compiler.compile_counts
        assert counts, "expected the compiler to record compilations"
        over_compiled = {name: n for name, n in counts.items() if n > 1}
        assert not over_compiled, f"recompiled program shapes: {over_compiled}"
        # Prefill and the whole generation stage ride on one layer program.
        assert counts[simulator.compiler.compile_decoder_layer(1, 0).name] == 1

    def test_one_program_per_kind_compiled_and_linked_once(
        self, tiny_weights, monkeypatch
    ):
        linked = []

        def counting_link(program, numerics):
            linked.append(program)
            return link_program(program, numerics)

        monkeypatch.setattr(functional, "link_program", counting_link)
        simulator = DFXFunctionalSimulator(
            tiny_weights, num_devices=2, numerics=FP16_DFX
        )
        simulator.generate_batch([[1, 2, 3], [4, 5, 6, 7, 8], [9] * 7], 4)
        simulator.reset_cache()
        simulator.forward(np.array([4, 8, 15]))
        simulator.forward(np.array([16, 23]))
        counts = simulator.compiler.compile_counts
        assert sorted(name.split("[")[0] for name in counts) == [
            "decoder-layer", "embedding", "lm-head"
        ]
        assert set(counts.values()) == {1}
        assert len(linked) == len({id(program) for program in linked}) == 3

    def test_cache_returns_identical_objects(self, simulator):
        compiler = simulator.compiler
        assert compiler.compile_decoder_layer(3, 5) is compiler.compile_decoder_layer(3, 5)
        assert compiler.compile_embedding(2) is compiler.compile_embedding(2)
        assert compiler.compile_lm_head() is compiler.compile_lm_head()
        assert compiler.compile_decoder_step() is compiler.compile_decoder_step()

    def test_distinct_shapes_get_distinct_programs(self, simulator):
        compiler = simulator.compiler
        assert compiler.compile_decoder_layer(1, 0) is not compiler.compile_decoder_layer(1, 1)
        assert compiler.compile_decoder_layer(2, 0) is not compiler.compile_decoder_layer(1, 0)

    def test_cached_programs_not_mutated_by_execution(self, simulator):
        compiler = simulator.compiler
        before = {
            "step": tuple(compiler.compile_decoder_step().instructions),
            "embedding": tuple(compiler.compile_embedding(3).instructions),
            "lm_head": tuple(compiler.compile_lm_head().instructions),
            "layer": tuple(compiler.compile_decoder_layer(3, 0).instructions),
        }
        simulator.forward(np.array([4, 8, 15]))
        simulator.forward(np.array([16]))
        after = {
            "step": tuple(compiler.compile_decoder_step().instructions),
            "embedding": tuple(compiler.compile_embedding(3).instructions),
            "lm_head": tuple(compiler.compile_lm_head().instructions),
            "layer": tuple(compiler.compile_decoder_layer(3, 0).instructions),
        }
        assert before == after

    def test_decode_step_is_the_past_zero_layer_with_four_syncs(self, simulator):
        compiler = simulator.compiler
        program = compiler.compile_decoder_step()
        assert program is compiler.compile_decoder_layer(1, 0)
        assert program.sync_count() == 4
        masked = [
            instruction
            for instruction in program.matrix_instructions()
            if instruction.opcode is MatrixOpcode.MASKED_MM
        ]
        assert len(masked) == simulator.plan.device(0).num_heads


class TestFastSlowBitExactness:
    """The stacked fast path must match per-instruction execution bit for bit."""

    DEVICES = 2

    def _slow_cores(self, simulator, hidden):
        memory = simulator._layer_memory[0]
        return [
            FunctionalCore(
                numerics=FP16_DFX,
                registers={"hidden": hidden.copy()},
                memory=device_memory(memory, device),
            )
            for device in range(self.DEVICES)
        ]

    def test_segment_execution_matches_instruction_execution(self, tiny_weights, rng):
        simulator = DFXFunctionalSimulator(
            tiny_weights, num_devices=self.DEVICES, numerics=FP16_DFX
        )
        program = simulator.compiler.compile_decoder_layer(4, 0)
        hidden = rng.normal(size=(1, 4, GPT2_TEST_TINY.n_embd)).astype(np.float16)

        fast = FunctionalCore(
            numerics=FP16_DFX,
            registers={"hidden": hidden},
            memory=dict(simulator._layer_memory[0]),
        )
        fast.execute(program, gather_devices)
        slow = self._slow_cores(simulator, hidden[0])
        run_slow_lockstep(program, slow)

        assert_matches_slow(fast.registers, slow, 0, "fast")
        for device, core in enumerate(slow):
            kv_names = [name for name in core.memory if name.startswith("kv.")]
            assert kv_names
            for name in kv_names:
                assert np.array_equal(
                    fast.memory[name][device, 0], core.memory[name]
                ), f"device {device} KV {name}"

    @pytest.mark.parametrize("batch", [1, 2])
    def test_cohort_matches_slow_path_per_stream(self, tiny_weights, rng, batch):
        # A cohort on arena KV runs the linked code once for all its devices
        # and streams; each device's slice of each stream's registers and KV
        # must equal the slow path run on that stream alone.
        simulator = DFXFunctionalSimulator(
            tiny_weights, num_devices=self.DEVICES, numerics=FP16_DFX
        )
        program = simulator.compiler.compile_decoder_layer(4, 0)
        streams = rng.normal(size=(batch, 4, GPT2_TEST_TINY.n_embd)).astype(np.float16)

        pool = BatchedKVPool(np.float32)
        pool.ensure(slots=batch, capacity=4)
        cohort = BatchedFunctionalCore(
            numerics=FP16_DFX,
            registers={"hidden": streams},
            memory=dict(simulator._layer_memory[0]),
            slot_lo=0,
            slot_hi=batch,
            kv_pool=pool,
        )
        cohort.execute(program, gather_devices)

        for stream in range(batch):
            slow = self._slow_cores(simulator, streams[stream])
            run_slow_lockstep(program, slow)
            assert_matches_slow(cohort.registers, slow, stream, f"stream {stream}")
            for device, core in enumerate(slow):
                kv_names = [name for name in core.memory if name.startswith("kv.")]
                assert kv_names
                for name in kv_names:
                    arena = cohort.memory[name]
                    assert type(arena) is BatchedKV
                    assert np.array_equal(
                        arena.view(stream, stream + 1)[device, 0], core.memory[name]
                    ), f"stream {stream} device {device} KV {name}"

    def test_program_outputs_visible_on_every_core(self, uneven_weights):
        # 515 = 3 x 128 + 131: the three equal shards stack into one LM-head
        # core and the remainder shard gets its own; both must see the one
        # gathered logits vector.
        simulator = DFXFunctionalSimulator(uneven_weights, num_devices=4)
        shards = [core.memory["wte_part"].shape[:3] for core in simulator._lm_cores]
        assert shards == [(3, 1, 128), (1, 1, 131)]
        logits, _ = simulator.forward(np.array([1, 2, 3]))
        first, second = (core.registers["logits"] for core in simulator._lm_cores)
        assert first is second
        assert first.shape == (1, 1, UNEVEN_VOCAB_TINY.vocab_size)
        assert np.array_equal(np.asarray(first, dtype=np.float32)[0, 0], logits)

    @pytest.mark.parametrize(
        "instruction",
        [
            VectorInstruction(VectorOpcode.EXP, dst="y", src1="x"),
            VectorInstruction(VectorOpcode.MUL, dst="y", src1="x", immediate=0.125),
        ],
        ids=["exp", "mul-immediate"],
    )
    def test_unary_op_on_a_float32_register(self, instruction):
        # A register the segment reads from the register file may hold any
        # dtype; only a float16 one may index the FP16 table by its bits.
        (segment,) = link_program(Program("probe", [instruction]), FP16_DFX).segments
        x = np.linspace(-2.0, 2.0, 16, dtype=np.float32).reshape(2, 8)
        fast = FunctionalCore(numerics=FP16_DFX, registers={"x": x})
        slow = FunctionalCore(numerics=FP16_DFX, registers={"x": x})
        segment.body(fast)
        slow.execute_instruction(instruction)
        assert fast.registers["y"].shape == slow.registers["y"].shape == (2, 8)
        assert fast.registers["y"].dtype == slow.registers["y"].dtype
        assert np.array_equal(fast.registers["y"], slow.registers["y"])


def planted_head(rows):
    """``query_local`` and ``kv.key.h0`` whose head-0 scores are ``rows``.

    Key ``j`` is ``e_j + e_{5+j} + 2**-15 e_{10+j}``, so a query row of
    triples ``(a, b, c)`` scores ``a + b + c * 2**-15`` against each key in
    FP32, exactly: ``(0, 0, -2**-15)`` lands on ``-2**-30``, which rounds to
    FP16 ``-0.0``, and ``(65504, 16, 0)`` lands on 65520, which rounds to
    ``inf``.
    """
    query = np.zeros((len(rows), GPT2_TEST_TINY.n_embd), dtype=np.float32)
    key = np.zeros((5, 16), dtype=np.float32)
    for j in range(5):
        key[j, [j, 5 + j, 10 + j]] = 1.0, 1.0, 2.0**-15
    for i, row in enumerate(rows):
        for j, (a, b, c) in enumerate(row):
            query[i, [j, 5 + j, 10 + j]] = a, b, c
    return query.astype(np.float16), key.astype(np.float16)


Z, NEG0, POS0 = (0, 0, 0), (0, 0, -(2.0**-15)), (0, 0, 2.0**-15)
MAX16, EDGE, BELOW_EDGE = (65504, 0, 0), (65504, 16, 0), (65504, 15, 0)
INF, NEG_INF, NEG_EDGE = (65504, 65504, 0), (-65504, -65504, 0), (-65504, -16, 0)
SUBNORMAL = (2.0**-20, 0, 0)

#: Planted head-0 scores of ``compile_decoder_layer(3, 2)``: row ``i`` sees
#: keys ``0..2+i``.  Ties at the row max (``-0.0`` against ``+0.0`` and equal
#: finite maxima), the FP16 overflow edge (65504 stays, 65520 and 131008
#: round to infinity, ``inf - inf`` is NaN in the softmax), a NaN row and
#: FP16 subnormals.
ADVERSARIAL_SCORES = {
    "signed-zero-ties": [
        [NEG0, POS0, (-1, 0, 0), Z, Z],
        [POS0, NEG0, NEG0, POS0, Z],
        [NEG0, NEG0, NEG0, NEG0, NEG0],
    ],
    "overflow-edge": [
        [MAX16, EDGE, (-1, 0, 0), Z, Z],
        [NEG_EDGE, MAX16, MAX16, (-65504, 0, 0), Z],
        [INF, NEG_INF, BELOW_EDGE, MAX16, (-65504, 0, 0)],
    ],
    "nan-and-subnormals": [
        [(np.nan, 0, 0), Z, Z, Z, Z],
        [SUBNORMAL, (-(2.0**-20), 0, 0), (2.0**-18, 0, 0), (2.0**-24, 0, 0), Z],
        [INF, NEG_INF, Z, NEG0, SUBNORMAL],
    ],
}


def assert_same_registers(fast, slow, label):
    """Equal bits wherever the slow path is not NaN, NaN wherever it is."""
    for name, value in slow.items():
        assert fast[name].dtype == value.dtype == np.float16, (label, name)
        nan = np.isnan(value)
        assert np.array_equal(np.isnan(fast[name]), nan), (label, name)
        assert np.array_equal(
            fast[name][~nan].view(np.uint16), value[~nan].view(np.uint16)
        ), (label, name)


class TestAdversarialAttentionHead:
    """One attention head of ``compile_decoder_layer(3, 2)`` on planted
    registers: the linked body and ``execute_instruction`` must agree on
    every register."""

    @staticmethod
    def head_program(numerics):
        compiler = DFXCompiler(GPT2_TEST_TINY, build_partition_plan(GPT2_TEST_TINY, 1))
        instructions = compiler.compile_decoder_layer(3, 2).segments()[0].instructions
        start = next(
            index for index, instruction in enumerate(instructions)
            if instruction.dst == "score.h0"
        )
        head = Program("head0", list(instructions[start : start + 7]))
        assert head.instructions[-1].weight_operand == "kv.value.h0"
        (segment,) = link_program(head, numerics).segments
        return head, segment.body

    @pytest.mark.parametrize("numerics", [FP16_DFX, FP16_GPU], ids=lambda n: n.name)
    def test_linked_head_matches_slow_path(self, numerics, rng):
        program, body = self.head_program(numerics)
        cases = {
            name: planted_head(rows) + (rng.normal(size=(5, 16)).astype(np.float16),)
            for name, rows in ADVERSARIAL_SCORES.items()
        }
        slow = {}
        for name, (query, key, value) in cases.items():
            core = FunctionalCore(
                numerics=numerics,
                registers={"query_local": query},
                memory={"kv.key.h0": key, "kv.value.h0": value},
            )
            with np.errstate(all="ignore"):
                for instruction in program.instructions:
                    core.execute_instruction(instruction)
            slow[name] = core.registers
            fast = FunctionalCore(
                numerics=numerics,
                registers={"query_local": query},
                memory={"kv.key.h0": key, "kv.value.h0": value},
            )
            with np.errstate(all="ignore"):
                body(fast)
            assert_same_registers(fast.registers, core.registers, name)

        # The planted registers hit every edge they name.
        products = np.concatenate([
            query[:, :16].astype(np.float32) @ key.T.astype(np.float32)
            for query, key, _ in cases.values()
        ])
        assert (products == 65504).any() and (products == 65520).any()
        scores = np.concatenate([slow[name]["score.h0"] for name in cases])
        maxima = np.concatenate([slow[name]["score_max.h0"] for name in cases])
        assert np.isposinf(scores).any() and np.isneginf(scores).any()
        assert np.isnan(scores).any()
        assert ((scores != 0) & (np.abs(scores) < 2.0**-14)).any()
        assert ((maxima == 0) & np.signbit(maxima)).any()
        assert ((maxima == 0) & ~np.signbit(maxima)).any()


class TestSlowPathLockstepOracle:
    """The stacked engine against a slow-path cluster, logits compared with ==.

    The oracle builds one plain :class:`FunctionalCore` per device on that
    device's own unstacked memory (straight from the partitioner), runs every
    instruction through ``execute_instruction``, and gathers each sync across
    the cores in device order.
    """

    PROMPT = [5, 111, 42, 7, 300]
    DECODE_STEPS = 3

    class Cluster:
        def __init__(self, weights, num_devices, numerics):
            config = weights.config
            self.numerics = numerics
            self.weights = weights.astype(numerics.dtype)
            plan = build_partition_plan(config, num_devices)
            self.compiler = DFXCompiler(config, plan, device_id=0)
            shards = [
                partition_model_weights(self.weights, plan, device)
                for device in range(num_devices)
            ]
            self.layers = []
            for index in range(config.n_layer):
                cores = []
                for device in range(num_devices):
                    layer = shards[device][index]
                    qkv = layer.w_qkv.shape[1] // 3
                    memory = {
                        "w_query": layer.w_qkv[:, :qkv],
                        "w_key": layer.w_qkv[:, qkv : 2 * qkv],
                        "w_value": layer.w_qkv[:, 2 * qkv :],
                        "b_query": layer.b_qkv[:qkv],
                        "b_key": layer.b_qkv[qkv : 2 * qkv],
                        "b_value": layer.b_qkv[2 * qkv :],
                    }
                    for name in (
                        "w_attn_proj", "b_attn_proj", "w_ffn1", "b_ffn1",
                        "w_ffn2", "b_ffn2", "ln1_gamma", "ln1_beta",
                        "ln2_gamma", "ln2_beta",
                    ):
                        memory[name] = getattr(layer, name)
                    cores.append(FunctionalCore(numerics=numerics, memory=memory))
                self.layers.append(cores)
            base = config.vocab_size // num_devices
            self.lm_cores = [
                FunctionalCore(
                    numerics=numerics,
                    memory={
                        "wte_part": self.weights.wte[
                            device * base : device * base
                            + plan.device(device).vocab_rows
                        ],
                        "ln_f_gamma": self.weights.ln_f_gamma,
                        "ln_f_beta": self.weights.ln_f_beta,
                    },
                )
                for device in range(num_devices)
            ]
            self.past = 0

        def forward(self, tokens):
            rows = len(tokens)
            embedding = FunctionalCore(
                numerics=self.numerics,
                memory={
                    "wte_rows": self.weights.wte[np.asarray(tokens)],
                    "wpe_rows": self.weights.wpe[self.past : self.past + rows],
                },
            )
            for instruction in self.compiler.compile_embedding(rows).instructions:
                embedding.execute_instruction(instruction)
            hidden = embedding.registers["hidden"]
            if rows == 1:
                program = self.compiler.compile_decoder_step()
            else:
                program = self.compiler.compile_decoder_layer(rows, self.past)
            for cores in self.layers:
                for core in cores:
                    core.registers["hidden"] = hidden
                run_slow_lockstep(program, cores)
                hidden = cores[0].registers["hidden_out"]
            for core in self.lm_cores:
                core.registers["hidden_last"] = hidden[-1:, :]
            run_slow_lockstep(self.compiler.compile_lm_head(), self.lm_cores)
            self.past += rows
            return np.asarray(self.lm_cores[0].registers["logits"], dtype=np.float32)[0]

    #: A prompt near test-tiny's 128-position window, then a multi-row chunk
    #: at ``past > 0`` (a masked score with more keys than query rows); the
    #: decode steps after them fill the window.
    WINDOW_CHUNKS = [
        [int(t) for t in np.random.default_rng(11).integers(0, 512, 119)],
        [300, 42, 7, 111, 5, 64],
    ]

    def assert_engine_matches(self, weights, devices, chunks):
        engine = DFXFunctionalSimulator(weights, num_devices=devices, numerics=FP16_DFX)
        oracle = self.Cluster(weights, devices, FP16_DFX)
        steps = [list(chunk) for chunk in chunks] + [None] * self.DECODE_STEPS
        for step, tokens in enumerate(steps):
            tokens = tokens or [token]
            logits, token = engine.forward(np.asarray(tokens))
            expected = oracle.forward(tokens)
            assert logits.shape == (weights.config.vocab_size,)
            assert np.array_equal(logits, expected), f"step {step}"
            assert token == int(np.argmax(expected))
        assert engine.kv_cache_length == oracle.past

    @pytest.mark.parametrize("devices", [1, 2, 4])
    @pytest.mark.parametrize("config", ["tiny", "vocab515"])
    def test_logits_match_stacked_engine(
        self, tiny_weights, uneven_weights, config, devices
    ):
        weights = tiny_weights if config == "tiny" else uneven_weights
        self.assert_engine_matches(weights, devices, [self.PROMPT])

    @pytest.mark.parametrize("devices", [1, 2, 4])
    @pytest.mark.parametrize("config", ["tiny", "vocab515"])
    def test_window_prompt_and_chunk_match_stacked_engine(
        self, tiny_weights, uneven_weights, config, devices
    ):
        weights = tiny_weights if config == "tiny" else uneven_weights
        self.assert_engine_matches(weights, devices, self.WINDOW_CHUNKS)
        assert sum(map(len, self.WINDOW_CHUNKS)) + self.DECODE_STEPS == 128


class TestKVGrowthInCores:
    def test_store_kv_uses_arena_buffers(self, simulator):
        simulator.forward(np.array([7, 8]))
        memory = simulator._layer_memory[0]
        kv_buffers = [v for k, v in memory.items() if k.startswith("kv.")]
        assert kv_buffers, "expected KV buffers after a forward pass"
        assert all(type(buffer) is BatchedKV for buffer in kv_buffers)
        # One arena per (layer, local head) holds every device's shard.
        assert all(buffer.data.shape[0] == 2 for buffer in kv_buffers)
        assert all(buffer.lengths[0] == 2 for buffer in kv_buffers)

    def test_generate_reserves_full_capacity_up_front(self, simulator):
        simulator.generate([1, 2, 3], max_new_tokens=8)
        memory = simulator._layer_memory[0]
        buffer = next(v for k, v in memory.items() if k.startswith("kv."))
        # The last token is never fed back, so it gets no row.
        assert buffer.capacity == 3 + 8 - 1
        assert buffer.lengths[0] == 3 + 8 - 1

    def test_reset_cache_keeps_capacity_and_matches_fresh_run(self, tiny_weights):
        warm = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        first = warm.generate([9, 10, 11], max_new_tokens=6)
        warm.reset_cache()
        assert warm.kv_cache_length == 0
        again = warm.generate([9, 10, 11], max_new_tokens=6)
        fresh = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        assert again == first == fresh.generate([9, 10, 11], max_new_tokens=6)

    def test_warm_generate_reserves_existing_buffers(self, simulator):
        # A short run leaves small warm buffers; a longer run after
        # reset_cache must re-reserve them up front rather than doubling
        # inside the decode loop.
        simulator.generate([1, 2], max_new_tokens=2)
        simulator.reset_cache()
        simulator.generate([1, 2, 3], max_new_tokens=20)
        memory = simulator._layer_memory[0]
        buffer = next(v for k, v in memory.items() if k.startswith("kv."))
        assert buffer.capacity == 3 + 20 - 1

    def test_forward_decode_regrows_arenas_geometrically(self, simulator, tiny_weights):
        # forward() has no up-front reserve: decoding token by token past the
        # arena capacity must regrow it by doubling, not row by row.
        _, token = simulator.forward(np.array([1, 2, 3]))
        tokens = [token]
        capacities = [simulator._pool.capacity]
        for _ in range(29):
            _, token = simulator.forward(np.array([token]))
            tokens.append(token)
            capacities.append(simulator._pool.capacity)
        assert capacities[-1] >= 3 + 29
        grown = sorted(set(capacities))
        assert len(grown) <= 3
        assert all(later >= 2 * earlier for earlier, later in zip(grown, grown[1:]))
        memory = simulator._layer_memory[0]
        buffer = next(v for k, v in memory.items() if k.startswith("kv."))
        assert buffer.capacity == capacities[-1]
        assert buffer.lengths[0] == 3 + 29
        fresh = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        assert tokens == fresh.generate([1, 2, 3], max_new_tokens=30)

    def test_generate_batch_sizes_the_arenas_once(self, tiny_weights, monkeypatch):
        # A batch knows every prompt and budget before its first forward, so
        # it sizes the pool once, one slot per stream, and no arena is
        # reallocated while it runs.
        simulator = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        pool = simulator._pool
        forward_cohort = simulator._forward_cohort
        held = {}  # arena -> its buffer after the previous forward
        reallocations = 0

        def watched(*args):
            nonlocal reallocations
            logits = forward_cohort(*args)
            for arena in pool.arenas:
                if arena in held and held[arena] is not arena.data:
                    reallocations += 1
                held[arena] = arena.data
            return logits

        monkeypatch.setattr(simulator, "_forward_cohort", watched)
        prompts = [list(range(1, length + 1)) for length in range(1, 11)]
        simulator.generate_batch(prompts, 3)
        assert len(held) == len(pool.arenas) > 0
        assert reallocations == 0
        assert pool.slots == 10
        assert all(arena.slots == 10 for arena in pool.arenas)
        assert pool.capacity >= 10 + 3 - 1

    def test_pool_grows_to_what_calls_reserve_within_the_window(self, tiny_weights):
        # generate and generate_batch know their totals, so the pool grows
        # to exactly what they reserve; forward's geometric growth stops at
        # the model's context window.
        simulator = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        pool = simulator._pool
        capacities = []
        for rows in (20, 45, 70, 100):
            simulator.reset_cache()
            simulator.generate([1, 2, 3], rows - 3)  # reserves prompt + budget - 1
            capacities.append(pool.capacity)
        # A batch reserves its longest prompt + budget - 1: 10 + 109 - 1.
        simulator.generate_batch([[1, 2, 3], list(range(1, 11))], [40, 109])
        capacities.append(pool.capacity)
        assert capacities == [19, 44, 69, 99, 118]
        assert all(arena.capacity == 118 for arena in pool.arenas)

        window = GPT2_TEST_TINY.n_positions
        fresh = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        _, token = fresh.forward(np.arange(59))
        grown = [fresh._pool.capacity]
        for _ in range(window - 59):
            _, token = fresh.forward(np.array([token]))
            grown.append(fresh._pool.capacity)
        assert sorted(set(grown)) == [59, 118, window]
        assert all(arena.capacity == window for arena in fresh._pool.arenas)


class TestScatterOwnership:
    def test_scatter_allocates_once_then_writes_in_place(self):
        core = FunctionalCore(numerics=FP16_DFX)
        core.registers["probs"] = np.ones((1, 4), dtype=np.float16)
        core.memory["values"] = np.eye(4, dtype=np.float16)
        instruction = MatrixInstruction(
            MatrixOpcode.MM, dst="attn", input_operand="probs",
            weight_operand="values", rows=1, in_dim=4, out_dim=4,
            dst_col_offset=0, dst_total_cols=8,
        )
        core.execute_instruction(instruction)
        first_buffer = core.registers["attn"]
        second = MatrixInstruction(
            MatrixOpcode.MM, dst="attn", input_operand="probs",
            weight_operand="values", rows=1, in_dim=4, out_dim=4,
            dst_col_offset=4, dst_total_cols=8,
        )
        core.execute_instruction(second)
        # Exclusively-owned buffer is reused in place, both halves populated.
        assert core.registers["attn"] is first_buffer
        np.testing.assert_array_equal(
            core.registers["attn"][0, :4], core.registers["attn"][0, 4:]
        )

    def test_scatter_copies_foreign_buffers(self):
        core = FunctionalCore(numerics=FP16_DFX)
        foreign = np.zeros((1, 8), dtype=np.float16)
        core.registers["attn"] = foreign
        core.registers["probs"] = np.ones((1, 4), dtype=np.float16)
        core.memory["values"] = np.eye(4, dtype=np.float16)
        instruction = MatrixInstruction(
            MatrixOpcode.MM, dst="attn", input_operand="probs",
            weight_operand="values", rows=1, in_dim=4, out_dim=4,
            dst_col_offset=0, dst_total_cols=8,
        )
        core.execute_instruction(instruction)
        # The foreign array must not be mutated in place.
        np.testing.assert_array_equal(foreign, np.zeros((1, 8), dtype=np.float16))
        assert core.registers["attn"] is not foreign

    def test_scatter_into_a_float32_register_then_unary_op(self):
        # The copy of a caller's float32 register holds the mode's dtype, so
        # the linked EXP after the scatter reads FP16, as the slow path does.
        rng = np.random.default_rng(5)
        program = Program(name="scatter-then-exp")
        program.extend([
            MatrixInstruction(
                MatrixOpcode.MM, dst="y", input_operand="x", weight_operand="w",
                rows=2, in_dim=8, out_dim=4, dst_col_offset=0, dst_total_cols=8,
            ),
            VectorInstruction(VectorOpcode.EXP, dst="z", src1="y", length=8, rows=2),
        ])
        x = (0.5 * rng.normal(size=(2, 8))).astype(np.float16)
        w = (0.5 * rng.normal(size=(8, 4))).astype(np.float16)
        slow, fast = (
            FunctionalCore(
                numerics=FP16_DFX,
                registers={"x": x, "y": np.zeros((2, 8), dtype=np.float32)},
                memory={"w": w},
            )
            for _ in range(2)
        )
        for instruction in program:
            slow.execute_instruction(instruction)
        fast.execute(program)
        for name in ("y", "z"):
            assert fast.registers[name].shape == slow.registers[name].shape == (2, 8)
            assert fast.registers[name].dtype == slow.registers[name].dtype == np.float16
            assert np.array_equal(fast.registers[name], slow.registers[name]), name


class TestBatchedEngine:
    """The batched multi-stream engine vs the sequential oracle."""

    PROMPTS = [[1, 2, 3], [4, 5], [6, 7, 8, 9], [10, 11], [3, 1, 4]]
    BUDGETS = [5, 3, 7, 1, 4]

    def _sequential(self, tiny_weights, prompts, budgets):
        outputs = []
        for prompt, budget in zip(prompts, budgets):
            fresh = DFXFunctionalSimulator(
                tiny_weights, num_devices=2, numerics=FP16_DFX
            )
            outputs.append(fresh.generate(list(prompt), budget))
        return outputs

    def test_ragged_batch_bit_identical_to_sequential(self, simulator, tiny_weights):
        batched = simulator.generate_batch(self.PROMPTS, self.BUDGETS)
        assert batched == self._sequential(tiny_weights, self.PROMPTS, self.BUDGETS)

    def test_batch_of_one_matches_unbatched(self, simulator, tiny_weights):
        batched = simulator.generate_batch([[9, 10, 11]], 6)
        fresh = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        assert batched == [fresh.generate([9, 10, 11], 6)]

    def test_batch_of_one_compiles_no_batched_programs(self, simulator):
        simulator.generate_batch([[1, 2, 3]], 4)
        batched_names = [
            name for name in simulator.compiler.compile_counts
            if name.startswith("batched-")
        ]
        assert not batched_names, batched_names

    def test_randomized_sweep_bit_identical(self, tiny_weights, rng):
        simulator = DFXFunctionalSimulator(
            tiny_weights, num_devices=2, numerics=FP16_DFX
        )
        for _ in range(3):
            count = int(rng.integers(2, 6))
            prompts = [
                rng.integers(
                    0, GPT2_TEST_TINY.vocab_size, size=int(rng.integers(1, 7))
                ).tolist()
                for _ in range(count)
            ]
            budgets = [int(rng.integers(1, 8)) for _ in range(count)]
            batched = simulator.generate_batch(prompts, budgets)
            assert batched == self._sequential(tiny_weights, prompts, budgets)

    def test_arena_buffers_reused_across_sessions(self, tiny_weights):
        simulator = DFXFunctionalSimulator(
            tiny_weights, num_devices=2, numerics=FP16_DFX
        )
        first = simulator.generate_batch(self.PROMPTS, self.BUDGETS)
        pool = simulator._pool
        arenas_before = [id(arena.data) for arena in pool.arenas]
        bytes_before = simulator.batched_kv_memory_bytes
        assert bytes_before > 0
        again = simulator.generate_batch(self.PROMPTS, self.BUDGETS)
        assert again == first
        # Same-shaped rerun fits the warm arenas: no reallocation at all.
        assert [id(arena.data) for arena in pool.arenas] == arenas_before
        assert simulator.batched_kv_memory_bytes == bytes_before

    def test_one_cohort_per_prompt_length(self, simulator, tiny_weights):
        # Streams of one prompt length prefill and decode as one cohort.
        # Cohorts start at distinct lengths and all advance one position per
        # step, so they never merge; a cohort ends with its last stream.
        prompts = [[1, 2, 3], [4], [5, 6, 7], [8, 9], [10]]
        budgets = [2, 4, 5, 1, 3]
        lengths = sorted({len(prompt) for prompt in prompts})

        def live_cohorts(steps):
            sizes = [
                sum(1 for prompt, budget in zip(prompts, budgets)
                    if len(prompt) == length and budget > steps)
                for length in lengths
            ]
            return [size for size in sizes if size]

        session = BatchedGenerationSession(simulator, prompts, budgets)
        assert session.cohort_sizes == live_cohorts(0) == [2, 1, 2]
        steps = 0
        while True:
            more = session.step()
            steps += 1
            assert session.cohort_sizes == live_cohorts(steps)
            assert more == bool(session.cohort_sizes)
            if not more:
                break
        assert steps == max(budgets)
        assert [stream.outputs for stream in session.streams] == self._sequential(
            tiny_weights, prompts, budgets
        )

    def test_each_decode_step_runs_one_decode_set(
        self, simulator, tiny_weights, monkeypatch
    ):
        # After the prefill, a step runs each decoder layer's shared ops
        # (LayerNorms, QKV, projections, FFN, residuals) once over every
        # live stream, and only the attention region (KV append, scores,
        # softmax, .V) once per live past-length group.  A spy counts the
        # calls of each linked body of the decoder-layer program.
        prompts = [[1], [2, 3], [4, 5, 6], [7, 8, 9, 10], [11, 12, 13, 14, 15]]
        budgets = [4, 6, 2, 5, 3]
        calls = collections.Counter()

        def counted(index, body):
            def run(core):
                calls[index] += 1
                body(core)
            return run

        layer = simulator._layer
        bodies = {
            index: segment.body
            for index, segment in enumerate(layer.segments)
            if segment.body is not None
        }
        (attention,) = [
            index for index, body in bodies.items() if "_append_kv(" in body.__source__
        ]
        spied = tuple(
            segment._replace(body=counted(index, segment.body))
            if index in bodies else segment
            for index, segment in enumerate(layer.segments)
        )
        monkeypatch.setattr(
            simulator, "_layer", dataclasses.replace(layer, segments=spied)
        )
        session = BatchedGenerationSession(simulator, prompts, budgets)
        session.step()  # the prefill: one forward per prompt length
        layers = GPT2_TEST_TINY.n_layer
        decode_steps = 0
        while session.cohort_sizes:
            groups = len(session.cohort_sizes)
            calls.clear()
            session.step()
            decode_steps += 1
            assert calls == {
                index: layers * (groups if index == attention else 1)
                for index in bodies
            }, f"decode step {decode_steps} over {groups} groups"
        assert decode_steps == max(budgets) - 1
        assert [stream.outputs for stream in session.streams] == self._sequential(
            tiny_weights, prompts, budgets
        )

    def test_departures_pack_survivors_left(self, simulator, tiny_weights, monkeypatch):
        # Equal-length prompts share one cohort.  The streams that finish
        # first sit in its low slots, so each departure moves the survivors
        # above it down into the vacated slots without disturbing their caches.
        prompts = [[1, 2], [3, 4], [5, 6], [7, 8]]
        budgets = [1, 5, 2, 4]
        pool = simulator._pool
        move_slot = pool.move_slot
        moves = []

        def watched(dst, src):
            moves.append((dst, src))
            move_slot(dst, src)

        monkeypatch.setattr(pool, "move_slot", watched)
        batched = simulator.generate_batch(prompts, budgets)
        assert moves == [(0, 1), (1, 2), (2, 3), (1, 2)]
        assert batched == self._sequential(tiny_weights, prompts, budgets)

    def test_finished_session_does_not_keep_simulator_alive(self, tiny_weights):
        # The simulator holds its session weakly: a reference cycle would
        # keep a dropped simulator's weights and arenas until the cyclic
        # collector runs, which raises a serving loop's peak memory.
        simulator = DFXFunctionalSimulator(tiny_weights, num_devices=2)
        simulator.generate_batch([[1, 2], [3, 4, 5]], 2)
        dropped = weakref.ref(simulator)
        gc.disable()
        try:
            del simulator
            assert dropped() is None
        finally:
            gc.enable()

    def test_generate_batch_resets_forward_cache(self, tiny_weights):
        # forward() and generate_batch share one KV store, so a batch resets
        # the forward() cache, and a later generate starts clean although
        # the batch left one of its streams in slot 0.
        simulator = DFXFunctionalSimulator(
            tiny_weights, num_devices=2, numerics=FP16_DFX
        )
        simulator.generate([5, 6, 7], 4)
        assert simulator.kv_cache_length > 0
        batched = simulator.generate_batch([[1, 2, 3], [7, 8, 9]], 6)
        assert simulator.kv_cache_length == 0
        assert batched == self._sequential(
            tiny_weights, [[1, 2, 3], [7, 8, 9]], [6, 6]
        )
        fresh = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        assert simulator.generate([5, 6, 7], 4) == fresh.generate([5, 6, 7], 4)
        simulator.generate_batch([[1, 2, 3], [7, 8, 9]], 6)
        fresh.reset_cache()
        assert simulator.generate([4, 5], 3) == fresh.generate([4, 5], 3)


class TestRaggedBatchLogitOracle:
    """Every logit of a ragged ``generate_batch`` against sequential ``forward``.

    Token comparisons miss a wrong logit that leaves every argmax alone, so
    the oracle wraps ``_record_tokens`` to capture each stream's logits at
    every step of a batch and holds them, byte for byte, to the logits that
    ``forward`` gives for that stream alone.  Besides
    ``TestBatchedEngine.PROMPTS``, each case runs seeded random batches whose
    middle prompt-length group finishes first, so later steps decode groups
    on both sides of the emptied one.
    """

    NUMERICS = {"FP16_DFX": FP16_DFX, "FP16_GPU": FP16_GPU, "FP32_EXACT": FP32_EXACT}

    @staticmethod
    def random_batches(seed, count=2):
        """Ragged batches, shuffled, whose middle prompt length ends first."""
        rng = np.random.default_rng(seed)
        batches = []
        for _ in range(count):
            lengths = sorted(
                rng.choice(np.arange(1, 13), size=int(rng.integers(3, 6)), replace=False)
                .tolist()
            )
            middle = lengths[len(lengths) // 2]
            prompts, budgets = [], []
            for length in lengths:
                for _ in range(int(rng.integers(1, 4))):
                    prompts.append(
                        rng.integers(0, GPT2_TEST_TINY.vocab_size, size=length).tolist()
                    )
                    low, high = (1, 3) if length == middle else (3, 8)
                    budgets.append(int(rng.integers(low, high)))
            order = rng.permutation(len(prompts)).tolist()
            batches.append(([prompts[i] for i in order], [budgets[i] for i in order]))
        return batches

    @staticmethod
    def batch_logits(simulator, prompts, budgets, monkeypatch):
        """Each stream's tokens and per-step logit bytes from one batch."""
        steps = [[] for _ in prompts]
        record = BatchedGenerationSession._record_tokens

        def watched(session, cohort, logits):
            for stream, row in zip(cohort.streams, logits):
                steps[session.streams.index(stream)].append(row.tobytes())
            record(session, cohort, logits)

        with monkeypatch.context() as patch:
            patch.setattr(BatchedGenerationSession, "_record_tokens", watched)
            outputs = simulator.generate_batch(prompts, budgets)
        return outputs, steps

    @staticmethod
    def sequential_logits(simulator, prompt, budget):
        """One stream's tokens and per-step logit bytes from ``forward``."""
        simulator.reset_cache()
        logits, token = simulator.forward(np.asarray(prompt))
        tokens, steps = [token], [logits.tobytes()]
        for _ in range(budget - 1):
            logits, token = simulator.forward(np.asarray([token]))
            tokens.append(token)
            steps.append(logits.tobytes())
        return tokens, steps

    @pytest.mark.parametrize("devices", [1, 2, 4])
    @pytest.mark.parametrize("mode", list(NUMERICS))
    def test_every_logit_matches_sequential_forward(
        self, tiny_weights, mode, devices, monkeypatch
    ):
        numerics = self.NUMERICS[mode]
        batched, sequential = (
            DFXFunctionalSimulator(tiny_weights, num_devices=devices, numerics=numerics)
            for _ in range(2)
        )
        batches = [(TestBatchedEngine.PROMPTS, TestBatchedEngine.BUDGETS)]
        batches += self.random_batches(seed=100 + devices)
        for batch, (prompts, budgets) in enumerate(batches):
            outputs, steps = self.batch_logits(batched, prompts, budgets, monkeypatch)
            for stream, (prompt, budget) in enumerate(zip(prompts, budgets)):
                tokens, expected = self.sequential_logits(sequential, prompt, budget)
                label = f"{mode}/{devices} batch {batch} stream {stream}"
                assert outputs[stream] == tokens, label
                assert len(steps[stream]) == budget, label
                differ = [
                    step for step, (ours, theirs) in enumerate(zip(steps[stream], expected))
                    if ours != theirs
                ]
                assert not differ, f"{label}: logits differ at steps {differ}"


class TestOneComputeCore:
    """The embedding and every decoder layer share one core, as on DFX."""

    def test_forward_switches_one_core_between_layer_memories(
        self, simulator, monkeypatch
    ):
        runs = []
        run_lockstep = DFXFunctionalSimulator._run_lockstep

        def spy(sim, linked, cores):
            runs.append((linked, [(core, core.memory) for core in cores]))
            run_lockstep(sim, linked, cores)

        monkeypatch.setattr(DFXFunctionalSimulator, "_run_lockstep", spy)
        simulator.forward(np.array([1, 2, 3]))
        n_layer = GPT2_TEST_TINY.n_layer
        programs = [simulator._embedding, *[simulator._layer] * n_layer, simulator._lm_head]
        assert len(runs) == len(programs)
        assert all(linked is program for (linked, _), program in zip(runs, programs))
        placed = [cores for _, cores in runs[:-1]]  # the embedding and every layer
        assert all(len(cores) == 1 for cores in placed)
        core = placed[0][0][0]
        assert all(cores[0][0] is core for cores in placed)
        assert set(placed[0][0][1]) == {"wte_rows", "wpe_rows"}
        for layer, cores in enumerate(placed[1:]):
            assert cores[0][1] is simulator._layer_memory[layer], layer

    def test_prefill_holds_each_layer_register_once(self, simulator):
        # A multi-stream prefill leaves one layer's registers and scatter
        # buffers in the simulator, not one set per decoder layer.
        simulator.generate_batch([[1, 2, 3, 4]] * 3, 1)
        cores = [
            core
            for value in vars(simulator).values()
            for core in (value if isinstance(value, (list, tuple)) else [value])
            if isinstance(core, FunctionalCore)
        ]
        program = simulator.compiler.compile_token_step(1, 0).decoder_layer
        written = {instruction.dst for instruction in program.instructions}
        registers = collections.Counter(
            name for core in cores for name in core.registers if name in written
        )
        scatter = collections.Counter(
            name for core in cores for name in core._scatter_buffers
        )
        assert registers["lnorm1"] == registers["attn_local"] == 1
        assert max(registers.values()) == 1
        assert scatter == {"attn_local": 1}


class TestLinkedProgramStructure:
    def test_shared_values_carry_no_device_axis(self, simulator):
        # Each LayerNorm, residual and sync output is computed once per layer
        # for all devices (no device axis); the sharded projections and the
        # attention outputs carry the leading device axis.
        simulator.forward(np.array([1, 2, 3]))
        emb = GPT2_TEST_TINY.n_embd
        registers = simulator._core.registers
        for name in ("lnorm1", "lnorm2", "hidden_out"):
            assert registers[name].shape == (1, 3, emb), name
        for name in ("query_local", "attn_local"):
            assert registers[name].shape == (2, 1, 3, emb // 2), name
        assert len(simulator._layer_memory) == GPT2_TEST_TINY.n_layer
        for memory in simulator._layer_memory:
            assert memory["ln1_gamma"].shape == (emb,)
            assert memory["w_query"].shape == (2, 1, emb, emb // 2)

    def test_linker_keeps_attention_after_the_shared_ops_it_may_pass(self):
        # A run's attention region (its KV appends and every op reading the
        # cache) runs after the run's shared ops, so an append moves past
        # them.  Moving it past a write of the register it appends would
        # append the new value, so the linker refuses.
        append = DMAInstruction(DMAOpcode.STORE_KV, dst="kv.key.h0", src="key_local")
        overwrite = VectorInstruction(
            VectorOpcode.ADD, dst="key_local", src1="hidden", immediate=1.0
        )
        with pytest.raises(ExecutionError, match="before attention"):
            link_program(Program("append-then-overwrite", [append, overwrite]), FP16_DFX)
        shared, attention = link_program(
            Program("overwrite-then-append", [overwrite, append]), FP16_DFX
        ).segments
        assert shared.group_io is None
        assert attention.group_io == (("key_local",), ())
