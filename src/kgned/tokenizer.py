"""Deterministic whitespace-and-punctuation tokenizer with its own vocab.

Text is lowercased and split into runs of word characters plus single
punctuation marks, so "Sydney-Canberra" becomes ["sydney", "-",
"canberra"].  The vocabulary assigns ids 4.. to tokens sorted by
(descending frequency, lexicographic); ids 0..3 are reserved.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN)
N_RESERVED = len(RESERVED_TOKENS)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased word/punctuation tokens; deterministic, vocab-independent."""
    return _TOKEN_RE.findall(text.lower())


class Vocab:
    """Token-to-id map with fixed reserved ids PAD=0 UNK=1 CLS=2 SEP=3."""

    def __init__(self, tokens: Iterable[str]):
        self._tokens = list(tokens)
        self._ids = {}
        for offset, token in enumerate(self._tokens):
            if token in RESERVED_TOKENS:
                raise ValueError(f"reserved token {token!r} cannot be a vocab entry")
            if token in self._ids:
                raise ValueError(f"duplicate vocab token {token!r}")
            self._ids[token] = N_RESERVED + offset

    @property
    def size(self) -> int:
        return N_RESERVED + len(self._tokens)

    @property
    def tokens(self) -> list[str]:
        """Non-reserved tokens in id order."""
        return list(self._tokens)

    def encode_tokens(self, tokens: Iterable[str]) -> list[int]:
        """Ids of ``tokens``; out-of-vocabulary tokens map to UNK."""
        return [self._ids.get(t, UNK_ID) for t in tokens]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self._tokens == other._tokens


def build_vocab(corpus: Iterable[str]) -> Vocab:
    """Every token of the ``corpus`` lines, ordered by (descending frequency,
    lexicographic) so that identical token multisets always produce
    identical id assignments."""
    counts: Counter[str] = Counter()
    for text in corpus:
        counts.update(tokenize(text))
    return Vocab(sorted(counts, key=lambda t: (-counts[t], t)))


def save_vocab(vocab: Vocab, path: str) -> None:
    """One token per line; line index plus the reserved offset is the id."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for token in vocab.tokens:
            fh.write(token + "\n")


def load_vocab(path: str) -> Vocab:
    with open(path, encoding="utf-8", newline="") as fh:
        tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
    return Vocab(tokens)
