"""Triple store for knowledge-graph context.

Holds directed triples around head entities together with the label table
(primary labels, aliases, descriptions) used to verbalize them.  Both live
in plain TSV files:

* triples: ``head<TAB>relation<TAB>tail<TAB>hop<TAB>is_literal(0|1)``
* labels:  ``subject<TAB>kind(label|alias|description)<TAB>text``

UTF-8, LF line endings, no header.  Within each ``(head, hop)`` group the
file order defines the triple rank, which downstream code treats as the
retrieval order and never re-sorts.

The store keeps each ``(head, hop)`` group as an insertion-ordered dict
``{(relation, tail): is_literal}``, so a triple's rank is its insertion
position and a duplicate row collapses in O(1).  :class:`Triple` objects
are built when read, by :meth:`TripleStore.neighbors` and
:meth:`TripleStore.all_triples`.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

HOP_ONE = "1"
HOP_ONE_TWO = "1&2"

KIND_LABEL = "label"
KIND_ALIAS = "alias"
KIND_DESCRIPTION = "description"
_KINDS = (KIND_LABEL, KIND_ALIAS, KIND_DESCRIPTION)


class ParseError(ValueError):
    """A TSV row that does not conform to the store formats."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def check_hops(hops: str) -> str:
    if hops not in (HOP_ONE, HOP_ONE_TWO):
        raise ValueError(f"hops must be {HOP_ONE!r} or {HOP_ONE_TWO!r}, got {hops!r}")
    return hops


# ``\S`` on a str pattern is exactly ``not str.isspace()``; tests/test_kg.py
# checks that on every code point.
_ID = re.compile(r"\S+")
# A well-formed triples row, including its line end if any.  A literal tail
# may hold spaces or be empty; an entity tail is an id.
_TRIPLE_ROW = re.compile(
    r"(\S+)\t(\S+)\t(?:(\S+)\t([12])\t0|([^\t\n\r]*)\t([12])\t1)\n?")


def _check_id(value: str, what: str) -> str:
    if not _ID.fullmatch(value):
        raise ValueError(f"{what} must be non-empty without whitespace: {value!r}")
    return value


def _check_text(value: str, what: str) -> str:
    # Tabs and newlines would corrupt the TSV round-trip.
    if "\t" in value or "\n" in value or "\r" in value:
        raise ValueError(f"{what} may not contain tabs or newlines: {value!r}")
    return value


@dataclass(frozen=True)
class Triple:
    """One edge ``(head, relation, tail)`` at a given hop distance.

    ``rank`` is the position within the ``(head, hop)`` group, starting at 0.
    ``is_literal`` marks tails that are raw strings (dates, numbers, free
    text) rather than entity identifiers.
    """

    head: str
    relation: str
    tail: str
    hop: int
    rank: int
    is_literal: bool


@dataclass(frozen=True)
class LabelRecord:
    subject: str
    kind: str
    text: str


class TripleStore:
    """Immutable-after-load collection of triples and label records.

    Mutation happens only through :meth:`add_triple` / :meth:`add_label`
    while a loader or fetcher populates the store; afterwards it is safe
    for concurrent readers, since reads build fresh :class:`Triple` objects
    and never write to the store.  A triple's rank is its insertion
    position within its ``(head, hop)`` group.
    """

    def __init__(self) -> None:
        # (head, hop) -> {(relation, tail): is_literal}, in rank order.
        self._groups: dict[tuple[str, int], dict[tuple[str, str], bool]] = {}
        self._labels: dict[str, list[LabelRecord]] = {}

    # -- population ------------------------------------------------------

    def add_triple(self, head: str, relation: str, tail: str, hop: int,
                   is_literal: bool) -> Triple | None:
        """Append one triple, collapsing duplicates of (head, relation, tail, hop).

        Returns the stored triple, or None when the row collapsed into an
        earlier occurrence.
        """
        _check_id(head, "head")
        _check_id(relation, "relation")
        if is_literal:
            _check_text(tail, "literal tail")
        else:
            _check_id(tail, "tail")
        if hop not in (1, 2):
            raise ValueError(f"hop must be 1 or 2, got {hop!r}")
        group = self._groups.setdefault((head, hop), {})
        if (relation, tail) in group:
            return None
        group[relation, tail] = is_literal
        return Triple(head, relation, tail, hop, rank=len(group) - 1, is_literal=is_literal)

    def add_label(self, subject: str, kind: str, text: str) -> None:
        """Record a label; duplicate rows and second primary labels are dropped."""
        _check_id(subject, "subject")
        _check_text(text, "label text")
        if kind not in _KINDS:
            raise ValueError(f"unknown label kind {kind!r}")
        records = self._labels.setdefault(subject, [])
        if kind == KIND_LABEL and any(r.kind == KIND_LABEL for r in records):
            return
        candidate = LabelRecord(subject, kind, text)
        if candidate in records:
            return
        records.append(candidate)

    def drop_head(self, head: str, hop: int) -> None:
        """Remove one ``(head, hop)`` group; used when re-fetching an entity."""
        self._groups.pop((head, hop), None)

    def drop_labels(self, subject: str) -> None:
        """Remove all label records for ``subject`` ahead of a re-fetch."""
        self._labels.pop(subject, None)

    # -- queries ---------------------------------------------------------

    def neighbors(self, head: str, hops: str = HOP_ONE) -> list[Triple]:
        """Triples around ``head`` in rank order.

        With ``hops="1&2"`` all hop-1 triples come first, then all hop-2
        triples.  Unknown heads give an empty list.
        """
        check_hops(hops)
        out = self._group_triples(head, 1)
        if hops == HOP_ONE_TWO:
            out += self._group_triples(head, 2)
        return out

    def _group_triples(self, head: str, hop: int) -> list[Triple]:
        return [Triple(head, relation, tail, hop, rank, is_literal)
                for rank, ((relation, tail), is_literal)
                in enumerate(self._groups.get((head, hop), {}).items())]

    def labels(self, subject: str) -> list[LabelRecord]:
        """All label records for ``subject``: primary first, then aliases,
        then descriptions.  Total: unknown subjects yield a synthetic
        primary label equal to the raw identifier."""
        records = self._labels.get(subject)
        if not records:
            return [LabelRecord(subject, KIND_LABEL, subject)]
        primary = [r for r in records if r.kind == KIND_LABEL]
        aliases = [r for r in records if r.kind == KIND_ALIAS]
        descriptions = [r for r in records if r.kind == KIND_DESCRIPTION]
        if not primary:
            primary = [LabelRecord(subject, KIND_LABEL, subject)]
        return primary + aliases + descriptions

    def stored_labels(self, subject: str) -> list[LabelRecord]:
        """The records actually stored for ``subject``, in insertion order;
        unlike :meth:`labels`, unknown subjects give an empty list."""
        return list(self._labels.get(subject, ()))

    def primary_label(self, subject: str) -> str:
        return self.labels(subject)[0].text

    def heads(self) -> list[tuple[str, int]]:
        return list(self._groups.keys())

    def all_triples(self) -> Iterator[Triple]:
        for head, hop in self._groups:
            yield from self._group_triples(head, hop)

    def all_label_records(self) -> Iterator[LabelRecord]:
        for records in self._labels.values():
            yield from records

    def label_subjects(self) -> list[str]:
        return list(self._labels.keys())

    def __len__(self) -> int:
        return sum(len(g) for g in self._groups.values())


def load_store(triples_file: str, labels_file: str) -> TripleStore:
    """Read a store from its two TSV files.

    Ranks follow file order within each ``(head, hop)`` group; duplicate
    rows collapse to the first occurrence.  Malformed rows raise
    :class:`ParseError` naming the file and line number.
    """
    store = TripleStore()
    groups = store._groups
    match_row = _TRIPLE_ROW.fullmatch
    intern = sys.intern
    last_head = last_hop = group = None
    with open(triples_file, encoding="utf-8", newline="") as fh:
        # Lines split as universal newlines do, so a lone "\r" ends a line
        # too; the row pattern rejects it and the checks below report it.
        for line_no, line in enumerate(fh, start=1):
            m = match_row(line)
            if m is not None:
                head, relation, tail, hop_s, text, text_hop_s = m.groups()
                if tail is None:
                    tail, hop_s, is_literal = text, text_hop_s, True
                else:
                    tail, is_literal = intern(tail), False
                # Rows of one group usually sit together: look it up per run.
                if head != last_head or hop_s != last_hop:
                    last_head, last_hop = head, hop_s
                    key = (intern(head), 1 if hop_s == "1" else 2)
                    group = groups.get(key)
                    if group is None:
                        group = groups[key] = {}
                group.setdefault((intern(relation), tail), is_literal)
                continue
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 5:
                raise ParseError(str(triples_file), line_no,
                                 f"expected 5 tab-separated columns, got {len(cols)}")
            head, relation, tail, hop_s, lit_s = cols
            if hop_s not in ("1", "2"):
                raise ParseError(str(triples_file), line_no, f"unknown hop value {hop_s!r}")
            if lit_s not in ("0", "1"):
                raise ParseError(str(triples_file), line_no,
                                 f"is_literal must be 0 or 1, got {lit_s!r}")
            try:
                store.add_triple(head, relation, tail, int(hop_s), lit_s == "1")
            except ValueError as exc:
                raise ParseError(str(triples_file), line_no, str(exc)) from exc
    with open(labels_file, encoding="utf-8", newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise ParseError(str(labels_file), line_no,
                                 f"expected 3 tab-separated columns, got {len(cols)}")
            subject, kind, text = cols
            try:
                store.add_label(subject, kind, text)
            except ValueError as exc:
                raise ParseError(str(labels_file), line_no, str(exc)) from exc
    return store


def save_store(store: TripleStore, triples_file: str, labels_file: str) -> None:
    """Write the two TSV files in canonical order (group order, then rank).

    ``load_store(save_store(s))`` reproduces the same triples, ranks, and
    labels; saving a freshly loaded store is byte-identical to its input.
    """
    with open(triples_file, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_triple_rows(store))
    with open(labels_file, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_label_rows(store))


def _triple_rows(store: TripleStore) -> Iterator[str]:
    for (head, hop), group in store._groups.items():
        for (relation, tail), is_literal in group.items():
            yield f"{head}\t{relation}\t{tail}\t{hop}\t{1 if is_literal else 0}\n"


def _label_rows(store: TripleStore) -> Iterator[str]:
    for record in store.all_label_records():
        yield f"{record.subject}\t{record.kind}\t{record.text}\n"


def dump_store(store: TripleStore) -> tuple[str, str]:
    """In-memory TSV serialization, handy for tests and hashing."""
    return "".join(_triple_rows(store)), "".join(_label_rows(store))


def store_from_rows(triples: Iterable[tuple[str, str, str, int, bool]],
                    labels: Iterable[tuple[str, str, str]] = ()) -> TripleStore:
    """Build a store from in-memory rows; used by fixtures and the fetcher."""
    store = TripleStore()
    for head, relation, tail, hop, is_literal in triples:
        store.add_triple(head, relation, tail, hop, is_literal)
    for subject, kind, text in labels:
        store.add_label(subject, kind, text)
    return store
