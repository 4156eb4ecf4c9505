"""GPT-2 model configurations (paper Table I).

The paper evaluates three GPT-2 sizes.  Note that the 1.5B configuration is
the paper's *adjusted* one: OpenAI's 1.5B model uses 25 attention heads with
embedding 1600, which the authors change to 24 heads / embedding 1536 so the
model parallelizes evenly across 2 and 4 devices (Sec. VII).  We reproduce the
adjusted configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError, check_number

#: GPT-2 byte-pair-encoding vocabulary size used by all paper models.
GPT2_VOCAB_SIZE = 50257

#: Maximum context length supported by GPT-2.
GPT2_MAX_POSITIONS = 1024


@dataclass(frozen=True)
class GPT2Config:
    """Hyperparameters of a GPT-2 style decoder-only transformer.

    Attributes:
        name: Human-readable label, e.g. ``"gpt2-1.5b"``.
        n_layer: Number of decoder layers.
        n_embd: Embedding (hidden) dimension.
        n_head: Number of attention heads.
        vocab_size: Token vocabulary size.
        n_positions: Maximum sequence length (WPE rows).
        ffn_mult: Feed-forward inner dimension as a multiple of ``n_embd``.
        layer_norm_eps: Epsilon used inside layer normalization.
    """

    name: str
    n_layer: int
    n_embd: int
    n_head: int
    vocab_size: int = GPT2_VOCAB_SIZE
    n_positions: int = GPT2_MAX_POSITIONS
    ffn_mult: int = 4
    layer_norm_eps: float = 1e-5

    def __post_init__(self) -> None:
        for name in ("n_layer", "n_embd", "n_head", "vocab_size", "n_positions",
                     "ffn_mult"):
            check_number(name, getattr(self, name), 1, integer=True)
        if self.n_embd % self.n_head != 0:
            raise ConfigurationError(
                f"n_embd ({self.n_embd}) must be divisible by n_head ({self.n_head})"
            )

    # ------------------------------------------------------------------ sizes
    @property
    def head_dim(self) -> int:
        """Per-head dimension (64 for every paper model)."""
        return self.n_embd // self.n_head

    @property
    def ffn_dim(self) -> int:
        """Feed-forward inner dimension."""
        return self.n_embd * self.ffn_mult

    def layer_parameter_count(self) -> int:
        """Number of parameters in a single decoder layer.

        Counts QKV projection, attention output projection, the two FFN
        matrices, their biases, and the two LayerNorm parameter pairs.
        """
        emb = self.n_embd
        ffn = self.ffn_dim
        attention = emb * (3 * emb) + 3 * emb          # QKV weights + biases
        attention += emb * emb + emb                   # output projection
        feed_forward = emb * ffn + ffn + ffn * emb + emb
        layer_norms = 2 * (2 * emb)
        return attention + feed_forward + layer_norms

    def embedding_parameter_count(self) -> int:
        """Parameters in WTE + WPE (the LM head reuses WTE transposed)."""
        return self.vocab_size * self.n_embd + self.n_positions * self.n_embd

    def total_parameter_count(self) -> int:
        """Total parameter count of the model, including the final LayerNorm."""
        final_layer_norm = 2 * self.n_embd
        return (
            self.n_layer * self.layer_parameter_count()
            + self.embedding_parameter_count()
            + final_layer_norm
        )

    def total_weight_bytes(self, bytes_per_element: int = 2) -> int:
        """Bytes of all model weights at the given precision (FP16 default)."""
        return self.total_parameter_count() * bytes_per_element

    def scaled(self, **overrides: object) -> "GPT2Config":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]


# --------------------------------------------------------------------- presets
#: Paper Table I: 345M model (Megatron-LM release).
GPT2_345M = GPT2Config(name="gpt2-345m", n_layer=24, n_embd=1024, n_head=16)

#: Paper Table I: 774M model (OpenAI release).
GPT2_774M = GPT2Config(name="gpt2-774m", n_layer=36, n_embd=1280, n_head=20)

#: Paper Table I: 1.5B model with head count adjusted from 25 to 24.
GPT2_1_5B = GPT2Config(name="gpt2-1.5b", n_layer=48, n_embd=1536, n_head=24)

#: Tiny configuration for fast functional tests (not a paper model).
GPT2_TEST_TINY = GPT2Config(
    name="gpt2-test-tiny",
    n_layer=2,
    n_embd=64,
    n_head=4,
    vocab_size=512,
    n_positions=128,
)

#: Small configuration for integration tests (not a paper model).
GPT2_TEST_SMALL = GPT2Config(
    name="gpt2-test-small",
    n_layer=4,
    n_embd=128,
    n_head=8,
    vocab_size=1024,
    n_positions=256,
)

_PRESETS: dict[str, GPT2Config] = {
    "345m": GPT2_345M,
    "774m": GPT2_774M,
    "1.5b": GPT2_1_5B,
    "test-tiny": GPT2_TEST_TINY,
    "test-small": GPT2_TEST_SMALL,
}


def available_presets() -> list[str]:
    """Names accepted by :func:`from_preset`."""
    return sorted(_PRESETS)


def from_preset(name: str) -> GPT2Config:
    """Look up a model configuration by preset name (case-insensitive)."""
    key = name.strip().lower()
    if key.startswith("gpt2-"):
        key = key[len("gpt2-"):]
    if key not in _PRESETS:
        raise ConfigurationError(
            f"unknown GPT-2 preset {name!r}; available: {available_presets()}"
        )
    return _PRESETS[key]


#: Paper Table I rows, used by the Table I benchmark.
PAPER_MODELS: tuple[GPT2Config, ...] = (GPT2_345M, GPT2_774M, GPT2_1_5B)
