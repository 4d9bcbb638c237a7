"""Dataset representation and the pipeline from raw examples to labeled inputs.

Canonical example format is JSONL, one object per line::

    {"sentence": "...", "surface": "...", "span": [start, end],
     "gold": "Q1" | null, "candidates": ["Q1", "Q2"], "negatives": ["Q2"],
     "id": "m00001"}

``negatives`` and ``id`` are optional; ids default to ``m<line-index>``.
``gold`` may be null for out-of-KB mentions.  The gold entity is not
required to appear in ``candidates``; when it does not, the example can
never be ranked correctly, which the accuracy accounting keeps visible
rather than patching.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

# Unused here: perfbench/tracing.py wraps assemble and build_context in this module.
from .assembly import (AssembledInput, Mention, assemble, context_budget, encode_triples,
                       lay_out)
from .context import ContextConfig, build_context, context_triples, fit_count, verbalize
from .kg import TripleStore
from .tokenizer import Vocab


class DatasetError(ValueError):
    """A dataset file line that fails validation; carries the line number."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


@dataclass(frozen=True)
class MentionExample:
    id: str
    sentence: str
    surface: str
    start: int
    end: int
    gold: str | None
    candidates: tuple[str, ...]
    negatives: tuple[str, ...] = ()

    def to_mention(self) -> Mention:
        return Mention.make(self.sentence, self.start, self.end)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "sentence": self.sentence,
            "surface": self.surface,
            "span": [self.start, self.end],
            "gold": self.gold,
            "candidates": list(self.candidates),
            "negatives": list(self.negatives),
        }


@dataclass(frozen=True)
class PairExample:
    """One (mention, candidate entity) classification instance."""

    example: MentionExample
    candidate: str
    label: int


def _parse_example(obj: dict, path: str, line_no: int, default_id: str) -> MentionExample:
    for required in ("sentence", "surface", "span", "gold", "candidates"):
        if required not in obj:
            raise DatasetError(path, line_no, f"missing field {required!r}")
    sentence = obj["sentence"]
    surface = obj["surface"]
    span = obj["span"]
    if (not isinstance(span, (list, tuple)) or len(span) != 2
            or not all(isinstance(v, int) for v in span)):
        raise DatasetError(path, line_no, f"span must be [start, end], got {span!r}")
    start, end = span
    if not (0 <= start < end <= len(sentence)):
        raise DatasetError(path, line_no, f"span [{start}, {end}) out of bounds")
    if sentence[start:end] != surface:
        raise DatasetError(
            path, line_no,
            f"span text {sentence[start:end]!r} does not match surface {surface!r}")
    gold = obj["gold"]
    if gold is not None and not isinstance(gold, str):
        raise DatasetError(path, line_no, f"gold must be a string or null, got {gold!r}")
    candidates = obj["candidates"]
    if not isinstance(candidates, list) or not all(isinstance(c, str) for c in candidates):
        raise DatasetError(path, line_no, "candidates must be a list of entity ids")
    negatives = obj.get("negatives", [])
    if not isinstance(negatives, list) or not all(isinstance(c, str) for c in negatives):
        raise DatasetError(path, line_no, "negatives must be a list of entity ids")
    return MentionExample(
        id=str(obj.get("id", default_id)),
        sentence=sentence, surface=surface, start=start, end=end,
        gold=gold, candidates=tuple(candidates), negatives=tuple(negatives))


def iter_json_objects(path: str) -> Iterator[tuple[int, dict]]:
    """``(line_no, object)`` for each non-blank line of a JSONL file; a line
    that is not a JSON object raises :class:`DatasetError`."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(path, line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise DatasetError(path, line_no, "expected a JSON object")
            yield line_no, obj


def load_jsonl(path: str) -> list[MentionExample]:
    """Load examples in file order, validating every line."""
    return [_parse_example(obj, str(path), line_no, default_id=f"m{line_no:05d}")
            for line_no, obj in iter_json_objects(path)]


def save_jsonl(examples: list[MentionExample], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for example in examples:
            fh.write(json.dumps(example.to_json(), ensure_ascii=False) + "\n")


def to_pairs(examples: list[MentionExample]) -> list[PairExample]:
    """Expand examples into labeled pairs: one positive per non-null gold,
    one negative per explicit negative entity."""
    pairs = []
    for example in examples:
        if example.gold is not None:
            pairs.append(PairExample(example, example.gold, 1))
        for negative in example.negatives:
            pairs.append(PairExample(example, negative, 0))
    return pairs


def vocab_lines(examples: list[MentionExample], store: TripleStore | None) -> list[str]:
    """Every text the pipeline may tokenize: sentences, surfaces, and the
    verbalization of every triple in ``store``."""
    lines = [text for example in examples for text in (example.sentence, example.surface)]
    if store is not None:
        lines.extend(verbalize(store, triple).text for triple in store.all_triples())
    return lines


@dataclass(eq=False)
class EncodingPipeline:
    """The one route from a (mention, candidate) pair to model input.

    A candidate's context triples are verbalized, tokenized and mapped to
    vocab ids once, on first use, and cached as int32 ids plus the running
    cost of each triple; every pair then keeps the longest prefix that
    fits its budget.  The store (and the vocab and config) must not change
    after the pipeline is built, or the cache goes stale.
    """

    vocab: Vocab
    ctx: ContextConfig
    store: TripleStore | None = None
    _encoded: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.ctx.max_triples > 0 and self.store is None:
            raise ValueError("a triple store is required when max_triples > 0")

    def _context(self, entity: str) -> tuple[np.ndarray, np.ndarray]:
        if self.ctx.max_triples == 0:
            # No-context configuration: the store is deliberately never touched.
            return encode_triples(self.vocab, ())
        encoded = self._encoded.get(entity)
        if encoded is None:
            triples = context_triples(self.store, entity, self.ctx)
            encoded = encode_triples(self.vocab, (vt.text for vt in triples))
            self._encoded[entity] = encoded
        return encoded

    def encode_pair(self, mention: Mention, candidate: str) -> AssembledInput:
        ids, ends = self._context(candidate)
        kept = fit_count(ends, context_budget(mention, self.ctx))
        return lay_out(self.vocab, mention, ids, ends[:kept], self.ctx)

    def encode_pairs(self, pairs: list[PairExample]) -> list[tuple[AssembledInput, int]]:
        """(model input, label) for each labeled pair, in order."""
        return [(self.encode_pair(pair.example.to_mention(), pair.candidate), pair.label)
                for pair in pairs]
