"""Verbalized KG context for a candidate entity.

A triple is rendered as "head-label relation-label tail-label" with single
joining spaces; the tail uses its raw string when it is a literal.  The
full ordered context is then cut down to the longest prefix of whole
triples that fits a token budget, one separator token per triple included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kg import HOP_ONE, HOP_ONE_TWO, Triple, TripleStore, check_hops
from .tokenizer import tokenize


@dataclass(frozen=True)
class ContextConfig:
    """Context-size knobs: hop levels, triple cap, and sequence budget."""

    hops: str = HOP_ONE
    max_triples: int = 15
    max_seq_len: int = 512

    def __post_init__(self):
        check_hops(self.hops)
        if self.max_triples < 0:
            raise ValueError(f"max_triples must be >= 0, got {self.max_triples}")
        if self.max_seq_len < 16:
            raise ValueError(f"max_seq_len must be >= 16, got {self.max_seq_len}")

    @property
    def n_segments(self) -> int:
        # CLS+sentence segment, surface segment, one per possible triple.
        return 2 + self.max_triples


@dataclass(frozen=True)
class VerbalizedTriple:
    text: str
    source: Triple

    def token_count(self) -> int:
        return len(tokenize(self.text))


@dataclass(frozen=True)
class ContextBundle:
    """Ordered verbalized triples plus the prefix that fits the budget."""

    full: tuple[VerbalizedTriple, ...]
    kept: tuple[VerbalizedTriple, ...]

    @property
    def dropped_count(self) -> int:
        return len(self.full) - len(self.kept)

    @staticmethod
    def empty() -> "ContextBundle":
        return ContextBundle((), ())


def verbalize(store: TripleStore, triple: Triple) -> VerbalizedTriple:
    """Render ``triple`` with primary labels for head and relation; literal
    tails keep their raw string.  Components are stripped and joined with
    single spaces, so internal spaces in labels survive untouched."""
    head = store.primary_label(triple.head)
    relation = store.primary_label(triple.relation)
    tail = triple.tail if triple.is_literal else store.primary_label(triple.tail)
    parts = [p.strip() for p in (head, relation, tail)]
    text = " ".join(p for p in parts if p)
    return VerbalizedTriple(text=text, source=triple)


def context_triples(store: TripleStore, entity: str,
                    cfg: ContextConfig) -> tuple[VerbalizedTriple, ...]:
    """The first ``cfg.max_triples`` verbalized neighbors of ``entity`` at
    the configured hop levels, in rank order."""
    triples = store.neighbors(entity, cfg.hops)[: cfg.max_triples]
    return tuple(verbalize(store, t) for t in triples)


def fit_count(ends, budget: int) -> int:
    """Length of the longest prefix of triples whose cost fits ``budget``;
    ``ends`` holds the running cost (tokens plus one SEP per triple)."""
    return int(np.searchsorted(ends, budget, side="right"))


def build_context(store: TripleStore, entity: str, cfg: ContextConfig,
                  budget: int) -> ContextBundle:
    """Context for ``entity`` under ``cfg`` within ``budget`` tokens.

    The full list is :func:`context_triples`; the kept list is the longest
    prefix whose tokenized triples, plus one separator each, fit the
    budget.  Triples are never split: either a triple fits whole or it is
    dropped along with everything after it.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if cfg.max_triples == 0:
        # No-context configuration: the store is deliberately never touched.
        return ContextBundle.empty()
    full = context_triples(store, entity, cfg)
    ends = np.cumsum([vt.token_count() + 1 for vt in full])
    return ContextBundle(full=full, kept=full[:fit_count(ends, budget)])
