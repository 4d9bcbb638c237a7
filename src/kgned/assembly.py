"""Classifier input assembly.

Layout of one example, padded to ``max_seq_len``::

    [CLS] sentence .. [SEP] surface .. [SEP] triple1 .. [SEP] ... tripleK .. [SEP]

Segment ids: 0 for CLS + sentence + its SEP, 1 for the surface + its SEP,
then 2, 3, ... with every kept triple (and its SEP) in its own segment so
the model can tell triples apart at the embedding layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import ContextBundle, ContextConfig
from .tokenizer import CLS_ID, PAD_ID, SEP_ID, Vocab, tokenize


@dataclass(frozen=True)
class Sentence:
    text: str
    tokens: tuple[str, ...]

    @classmethod
    def from_text(cls, text: str) -> "Sentence":
        return cls(text=text, tokens=tuple(tokenize(text)))


@dataclass(frozen=True)
class Mention:
    """A character span of ``sentence`` naming an entity; end is exclusive."""

    sentence: Sentence
    start: int
    end: int
    surface: str

    def __post_init__(self):
        if not (0 <= self.start < self.end <= len(self.sentence.text)):
            raise ValueError(f"span [{self.start}, {self.end}) out of bounds")
        actual = self.sentence.text[self.start:self.end]
        if actual != self.surface:
            raise ValueError(f"surface {self.surface!r} does not match span text {actual!r}")

    @classmethod
    def make(cls, text: str, start: int, end: int) -> "Mention":
        sentence = Sentence.from_text(text)
        return cls(sentence=sentence, start=start, end=end, surface=text[start:end])


@dataclass(eq=False)
class AssembledInput:
    """Fixed-length arrays ready for the classifier."""

    token_ids: np.ndarray
    segment_ids: np.ndarray
    mask: np.ndarray
    length: int

    def same_as(self, other: "AssembledInput") -> bool:
        return (self.length == other.length
                and np.array_equal(self.token_ids, other.token_ids)
                and np.array_equal(self.segment_ids, other.segment_ids)
                and np.array_equal(self.mask, other.mask))


def encode_triples(vocab: Vocab, texts) -> tuple[np.ndarray, np.ndarray]:
    """Token ids of each text followed by one SEP, flattened into one int32
    array, and the running end offset of each triple in it: the prefix
    costs the budget cut compares against."""
    ids: list[int] = []
    ends: list[int] = []
    for text in texts:
        ids.extend(vocab.encode_tokens(tokenize(text)))
        ids.append(SEP_ID)
        ends.append(len(ids))
    return np.asarray(ids, dtype=np.int32), np.asarray(ends, dtype=np.int32)


def lay_out(vocab: Vocab, mention: Mention, ids: np.ndarray, ends: np.ndarray,
            cfg: ContextConfig) -> AssembledInput:
    """Build the padded input for one mention and the first ``len(ends)``
    triples of ``ids`` (as :func:`encode_triples` returns them).

    If the sentence and surface alone exceed ``cfg.max_seq_len`` the
    sentence is tail-truncated (and, in the pathological case of an
    oversized surface, the surface too); that situation implies a zero
    context budget, so no triple may be kept.  Kept triples that do not
    fit the remaining room are a caller error and raise ValueError.
    """
    limit = cfg.max_seq_len
    sent_tokens = list(mention.sentence.tokens)
    surf_tokens = tokenize(mention.surface)

    # CLS plus two SEPs are always present.
    fixed = 3 + len(surf_tokens)
    if fixed + len(sent_tokens) > limit:
        sent_tokens = sent_tokens[: max(0, limit - fixed)]
        if fixed > limit:
            surf_tokens = surf_tokens[: limit - 3]

    head = ([CLS_ID] + vocab.encode_tokens(sent_tokens) + [SEP_ID]
            + vocab.encode_tokens(surf_tokens) + [SEP_ID])
    n_context = int(ends[-1]) if len(ends) else 0
    length = len(head) + n_context
    if length > limit:
        raise ValueError(
            f"kept context overflows max_seq_len ({length} > {limit}); "
            "build the bundle against the budget this layout leaves")

    token_ids = np.full(limit, PAD_ID, dtype=np.int64)
    token_ids[:len(head)] = head
    token_ids[len(head):length] = ids[:n_context]
    segment_ids = np.zeros(limit, dtype=np.int64)
    segment_ids[len(sent_tokens) + 2:len(head)] = 1
    segment_ids[len(head):length] = np.repeat(np.arange(2, 2 + len(ends)),
                                              np.diff(ends, prepend=0))
    mask = np.zeros(limit, dtype=np.int64)
    mask[:length] = 1
    return AssembledInput(token_ids=token_ids, segment_ids=segment_ids,
                          mask=mask, length=length)


def assemble(vocab: Vocab, mention: Mention, bundle: ContextBundle,
             cfg: ContextConfig) -> AssembledInput:
    """Build the padded input for one (mention, candidate-context) pair."""
    ids, ends = encode_triples(vocab, (vt.text for vt in bundle.kept))
    return lay_out(vocab, mention, ids, ends, cfg)


def context_budget(mention: Mention, cfg: ContextConfig) -> int:
    """Tokens left for context after CLS, sentence, surface, and two SEPs."""
    surf = len(tokenize(mention.surface))
    return max(0, cfg.max_seq_len - (3 + len(mention.sentence.tokens) + surf))
