"""Candidate generation from a label/alias index.

The selection operation is realized as plain label matching: ``exact``
returns entities whose normalized label or alias equals the normalized
surface form, ``contains`` returns entities with any key containing it as
a substring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kg import KIND_ALIAS, KIND_LABEL, TripleStore

MODE_EXACT = "exact"
MODE_CONTAINS = "contains"


def normalize_label(text: str) -> str:
    """Lowercase and collapse all whitespace runs to single spaces."""
    return " ".join(text.lower().split())


class LabelIndex:
    def __init__(self) -> None:
        self._by_key: dict[str, set[str]] = {}

    def add(self, key: str, entity: str) -> None:
        key = normalize_label(key)
        if key:
            self._by_key.setdefault(key, set()).add(entity)

    def keys(self) -> list[str]:
        return list(self._by_key.keys())

    def entities_for(self, key: str) -> set[str]:
        return set(self._by_key.get(key, ()))

    def __len__(self) -> int:
        return len(self._by_key)


@dataclass
class CandidateSet:
    """Ordered candidate entities for one surface form."""

    entities: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.entities)


def build_index(store: TripleStore) -> LabelIndex:
    """Index every primary label and alias under its normalized form."""
    index = LabelIndex()
    for record in store.all_label_records():
        if record.kind in (KIND_LABEL, KIND_ALIAS):
            index.add(record.text, record.subject)
    return index


def lookup(index: LabelIndex, surface: str, mode: str = MODE_EXACT) -> CandidateSet:
    """Entities matching ``surface`` in ascending-id order.

    An empty (or all-whitespace) surface matches nothing in either mode.
    """
    if mode not in (MODE_EXACT, MODE_CONTAINS):
        raise ValueError(f"mode must be 'exact' or 'contains', got {mode!r}")
    needle = normalize_label(surface)
    if not needle:
        return CandidateSet(entities=())
    if mode == MODE_EXACT:
        found = index.entities_for(needle)
    else:
        found = set()
        for key in index.keys():
            if needle in key:
                found |= index.entities_for(key)
    return CandidateSet(entities=tuple(sorted(found)))

