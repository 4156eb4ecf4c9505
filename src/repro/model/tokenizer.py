"""Deterministic synthetic tokenizer.

The paper's pipeline converts words to token IDs with GPT-2's BPE vocabulary.
The BPE merges file is unavailable offline, so this module provides a
word-level tokenizer that hashes words into a fixed vocabulary range.  It is
deterministic, reversible for words it has seen (it keeps a dictionary), and
produces IDs in ``[0, vocab_size)`` — everything the embedding lookup, the LM
head, and the examples need.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from repro.errors import check_number

#: Reserved IDs at the start of the vocabulary.
PAD_TOKEN_ID = 0
UNKNOWN_TOKEN_ID = 1
END_OF_TEXT_TOKEN_ID = 2
NUM_RESERVED_TOKENS = 3

_WORD_PATTERN = re.compile(r"\w+|[^\w\s]")


def _stable_hash(word: str) -> int:
    """Stable (process-independent) hash of a word."""
    digest = hashlib.sha256(word.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class SyntheticTokenizer:
    """Word-level tokenizer mapping words to hashed IDs in a fixed vocabulary.

    Attributes:
        vocab_size: Size of the ID space; IDs are in ``[0, vocab_size)``.
        lowercase: Whether to lowercase words before hashing.
    """

    vocab_size: int = 50257
    lowercase: bool = True
    _id_to_word: dict[int, str] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        check_number("vocab_size", self.vocab_size, NUM_RESERVED_TOKENS + 1,
                     integer=True, error=ValueError)

    # ------------------------------------------------------------------ encode
    def token_id(self, word: str) -> int:
        """Map a single word to its token ID and remember the mapping."""
        normalized = word.lower() if self.lowercase else word
        usable = self.vocab_size - NUM_RESERVED_TOKENS
        token = NUM_RESERVED_TOKENS + (_stable_hash(normalized) % usable)
        self._id_to_word.setdefault(token, normalized)
        return token

    def encode(self, text: str) -> list[int]:
        """Split ``text`` into words/punctuation and map each to a token ID."""
        return [self.token_id(word) for word in _WORD_PATTERN.findall(text)]

    # ------------------------------------------------------------------ decode
    def decode(self, token_ids: list[int]) -> str:
        """Reconstruct text from token IDs.

        Words never seen by this tokenizer instance decode to ``<unk-ID>``
        placeholders; reserved tokens decode to symbolic names.
        """
        words: list[str] = []
        for token in token_ids:
            if token == PAD_TOKEN_ID:
                words.append("<pad>")
            elif token == UNKNOWN_TOKEN_ID:
                words.append("<unk>")
            elif token == END_OF_TEXT_TOKEN_ID:
                words.append("<|endoftext|>")
            else:
                words.append(self._id_to_word.get(token, f"<unk-{token}>"))
        return " ".join(words)

    def __len__(self) -> int:
        return self.vocab_size
