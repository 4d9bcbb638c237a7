import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgned.kg import (_ID, HOP_ONE, HOP_ONE_TWO, LabelRecord, ParseError, TripleStore,
                      dump_store, load_store, save_store, store_from_rows)

from conftest import HIGHWAY_LABELS, HIGHWAY_TRIPLES


def _write_store_files(tmp_path, triples_text, labels_text):
    t = tmp_path / "triples.tsv"
    l = tmp_path / "labels.tsv"
    t.write_text(triples_text, encoding="utf-8")
    l.write_text(labels_text, encoding="utf-8")
    return str(t), str(l)


def test_duplicate_rows_collapse_to_first(tmp_path):
    t, l = _write_store_files(tmp_path, "Q1\tP31\tQ2\t1\t0\nQ1\tP31\tQ2\t1\t0\n", "")
    store = load_store(t, l)
    triples = store.neighbors("Q1")
    assert len(triples) == 1
    assert triples[0].rank == 0


def test_empty_files_give_empty_store(tmp_path):
    t, l = _write_store_files(tmp_path, "", "")
    store = load_store(t, l)
    assert len(store) == 0
    assert store.neighbors("Q1") == []
    assert store.neighbors("anything", HOP_ONE_TWO) == []


def test_highway_fixture_neighbors_in_file_order(highway_store):
    triples = highway_store.neighbors("Q1967298", HOP_ONE)
    assert len(triples) == 3
    assert [t.relation for t in triples] == ["description", "label", "dateModified"]
    assert [t.rank for t in triples] == [0, 1, 2]


def test_labels_order_primary_then_alias_then_description():
    store = store_from_rows([], [
        ("Q5", "alias", "second name"),
        ("Q5", "description", "a thing"),
        ("Q5", "label", "first name"),
        ("Q5", "alias", "third name"),
    ])
    records = store.labels("Q5")
    # 1 primary + 2 aliases + 1 description
    assert len(records) == 1 + 2 + 1
    assert records[0].kind == "label" and records[0].text == "first name"
    assert [r.kind for r in records] == ["label", "alias", "alias", "description"]


def test_labels_total_with_raw_id_fallback(highway_store):
    assert highway_store.labels("Q0") == [LabelRecord("Q0", "label", "Q0")]
    assert highway_store.primary_label("Q0") == "Q0"
    # Present in the label table: the stored description comes back.
    texts = [r.text for r in highway_store.labels("Q1967298")]
    assert "highway system in Australia" in texts


def test_neighbors_hop_groups(highway_store):
    both = highway_store.neighbors("Q1967298", HOP_ONE_TWO)
    assert len(both) == 5
    assert [t.hop for t in both] == [1, 1, 1, 2, 2]
    assert highway_store.neighbors("missing", HOP_ONE_TWO) == []


def test_hop_one_is_prefix_of_hop_one_two(highway_store):
    one = highway_store.neighbors("Q1967298", HOP_ONE)
    both = highway_store.neighbors("Q1967298", HOP_ONE_TWO)
    assert both[:len(one)] == one


def test_malformed_row_names_line(tmp_path):
    t, l = _write_store_files(tmp_path, "Q1\tP31\tQ2\t1\t0\nQ1\tP31\tQ2\n", "")
    with pytest.raises(ParseError) as err:
        load_store(t, l)
    assert err.value.line_no == 2
    assert "columns" in str(err.value)


def test_unknown_hop_rejected(tmp_path):
    t, l = _write_store_files(tmp_path, "Q1\tP31\tQ2\t3\t0\n", "")
    with pytest.raises(ParseError, match="hop"):
        load_store(t, l)


def test_bad_label_kind_rejected(tmp_path):
    t, l = _write_store_files(tmp_path, "", "Q1\tnickname\tfoo\n")
    with pytest.raises(ParseError, match="kind"):
        load_store(t, l)


def test_duplicate_primary_label_keeps_first():
    store = store_from_rows([], [("Q1", "label", "first"), ("Q1", "label", "second")])
    assert store.primary_label("Q1") == "first"


def test_drop_head_and_labels():
    store = store_from_rows(HIGHWAY_TRIPLES, HIGHWAY_LABELS)
    store.drop_head("Q1967298", 1)
    assert store.neighbors("Q1967298", HOP_ONE) == []
    assert len(store.neighbors("Q1967298", HOP_ONE_TWO)) == 2
    store.drop_labels("Q1967298")
    assert store.primary_label("Q1967298") == "Q1967298"


def test_saved_store_reloads_byte_identically(tmp_path, highway_store):
    t1, l1 = str(tmp_path / "t1.tsv"), str(tmp_path / "l1.tsv")
    save_store(highway_store, t1, l1)
    reloaded = load_store(t1, l1)
    t2, l2 = str(tmp_path / "t2.tsv"), str(tmp_path / "l2.tsv")
    save_store(reloaded, t2, l2)
    assert Path(t1).read_bytes() == Path(t2).read_bytes()
    assert Path(l1).read_bytes() == Path(l2).read_bytes()


_ids = st.from_regex(r"[A-Za-z0-9_]{1,6}", fullmatch=True)
_literal = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="\t\n\r"),
    min_size=1, max_size=12).filter(lambda s: s.strip())
_triple_rows = st.lists(
    st.tuples(_ids, _ids, _ids, st.sampled_from([1, 2]), st.just(False))
    | st.tuples(_ids, _ids, _literal, st.sampled_from([1, 2]), st.just(True)),
    max_size=30)
_label_rows = st.lists(
    st.tuples(_ids, st.sampled_from(["label", "alias", "description"]), _literal),
    max_size=20)


@settings(max_examples=60, deadline=None)
@given(triples=_triple_rows, labels=_label_rows)
def test_round_trip_preserves_triples_ranks_and_labels(triples, labels):
    store = store_from_rows(triples, labels)
    with tempfile.TemporaryDirectory() as tmp:
        t, l = str(Path(tmp) / "t.tsv"), str(Path(tmp) / "l.tsv")
        save_store(store, t, l)
        reloaded = load_store(t, l)
    assert list(store.all_triples()) == list(reloaded.all_triples())
    for subject in set(store.label_subjects()) | set(reloaded.label_subjects()):
        assert store.labels(subject) == reloaded.labels(subject)
    assert dump_store(store) == dump_store(reloaded)


@settings(max_examples=60, deadline=None)
@given(triples=_triple_rows)
def test_hop_prefix_property_for_every_head(triples):
    store = store_from_rows(triples)
    for head, _ in store.heads():
        one = store.neighbors(head, HOP_ONE)
        both = store.neighbors(head, HOP_ONE_TWO)
        assert both[:len(one)] == one


def test_validation_rejects_bad_ids():
    store = TripleStore()
    with pytest.raises(ValueError):
        store.add_triple("has space", "P31", "Q2", 1, False)
    with pytest.raises(ValueError):
        store.add_triple("Q1", "P31", "tab\ttail", 1, True)
    with pytest.raises(ValueError):
        store.add_triple("Q1", "P31", "Q2", 3, False)
    with pytest.raises(ValueError):
        store.add_label("Q1", "label", "multi\nline")


# -- the loader against the per-row rules it replaced ---------------------


def test_id_pattern_agrees_with_isspace_on_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(_ID.findall(every)) == "".join(c for c in every if not c.isspace())


def _reference_load(triples_file, labels_file):
    """The loader's per-row rules, one check at a time: the dump_store text
    of the store, or the ParseError message."""

    def check_id(value, what, where):
        if not value or any(c.isspace() for c in value):
            raise ParseError(*where, f"{what} must be non-empty without whitespace: {value!r}")

    def check_text(value, what, where):
        if "\t" in value or "\n" in value or "\r" in value:
            raise ParseError(*where, f"{what} may not contain tabs or newlines: {value!r}")

    def rows(path, n_cols):
        with open(path, encoding="utf-8", newline="") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                cols = line.split("\t")
                if len(cols) != n_cols:
                    raise ParseError(path, line_no,
                                     f"expected {n_cols} tab-separated columns, got {len(cols)}")
                yield (path, line_no), cols

    groups, labels = {}, {}
    try:
        for where, (head, relation, tail, hop_s, lit_s) in rows(triples_file, 5):
            if hop_s not in ("1", "2"):
                raise ParseError(*where, f"unknown hop value {hop_s!r}")
            if lit_s not in ("0", "1"):
                raise ParseError(*where, f"is_literal must be 0 or 1, got {lit_s!r}")
            check_id(head, "head", where)
            check_id(relation, "relation", where)
            if lit_s == "1":
                check_text(tail, "literal tail", where)
            else:
                check_id(tail, "tail", where)
            group = groups.setdefault((head, hop_s), [])
            if all((relation, tail) != (r, t) for r, t, _ in group):
                group.append((relation, tail, lit_s))
        for where, (subject, kind, text) in rows(labels_file, 3):
            check_id(subject, "subject", where)
            check_text(text, "label text", where)
            if kind not in ("label", "alias", "description"):
                raise ParseError(*where, f"unknown label kind {kind!r}")
            records = labels.setdefault(subject, [])
            if kind == "label" and any(k == "label" for k, _ in records):
                continue
            if (kind, text) not in records:
                records.append((kind, text))
    except ParseError as exc:
        return str(exc)
    return ("".join(f"{head}\t{r}\t{t}\t{hop}\t{lit}\n"
                    for (head, hop), group in groups.items() for r, t, lit in group),
            "".join(f"{subject}\t{kind}\t{text}\n"
                    for subject, records in labels.items() for kind, text in records))


# Characters str.isspace() accepts, in and beyond ASCII; a universal-newline
# read also ends a line at "\r".
_SPACES = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
           " ", "\x0b", "\x0c", "\r"]
_ids = st.sampled_from(["Q1", "Q2", "P31", "P17", "é"])
_texts = _ids | st.sampled_from(["", " ", "a b", " x ", "31 May 2019", "\x85a", "b\u3000"])
_hops = st.sampled_from(["1", "2"])
_odd = st.text(alphabet=st.sampled_from(_SPACES + ["Q", "1"]), max_size=3)
_odd_line = st.sampled_from(["\r", "Q1\tP31\tQ2\t1", "Q1\tP31\tQ2\t1\t0\t0",
                             "Q1\tP31\tQ2\t1\t0\r"])


def _tsv(row):
    """Lines of ``row`` (an empty one is a blank line), with or without a
    final newline."""
    lines = st.lists(row | st.just(""), max_size=20)
    return st.builds(lambda ls, end: "\n".join(ls) + end, lines, st.sampled_from(["", "\n"]))


_valid_triple = st.one_of(
    st.tuples(_ids, _ids, _ids, _hops, st.just("0")),
    st.tuples(_ids, _ids, _texts, _hops, st.just("1"))).map("\t".join)
_any_triple = st.tuples(_ids | _odd, _ids | _odd, _texts | _odd,
                        _hops | st.sampled_from(["3", "", "12", "1 "]),
                        st.sampled_from(["0", "1", "2", "", "01"])).map("\t".join)
_valid_label = st.tuples(_ids, st.sampled_from(["label", "alias", "description"]),
                         _texts).map("\t".join)
_any_label = st.tuples(_ids | _odd, st.sampled_from(["label", "alias", "nick", ""]),
                       _texts | _odd).map("\t".join)
# Half the files are valid throughout; the rest mix in malformed rows.
_triples_tsv = _tsv(_valid_triple) | _tsv(_valid_triple | _any_triple | _odd_line)
_labels_tsv = _tsv(_valid_label) | _tsv(_valid_label | _any_label | _odd_line)


@settings(max_examples=300, deadline=None)
@given(triples=_triples_tsv, labels=_labels_tsv)
@example(triples="Q1\tP31\tQ\x1c2\t1\t0\n", labels="")
@example(triples="Q1\tP\u202831\tx\t1\t1\n", labels="")
@example(triples="Q1\tP31\ta\rb\t1\t1\n", labels="")
@example(triples="Q1\tP31\tQ2\t1\t0\n\r\nQ1\tP31\tQ3\t1\t0\n", labels="")
@example(triples="Q1\tP31\tQ2\t1\t0\r\n", labels="")
@example(triples="Q1\tP31\t\t1\t1\nQ1\tP31\t \t2\t1", labels="")
@example(triples="Q1\tP31\tQ2\t1\t1\nQ1\tP31\tQ2\t1\t0\n\nQ1\tP17\tQ2\t1\t0", labels="")
@example(triples="", labels="Q\xa01\tlabel\tx\n")
@example(triples="", labels="Q1\tlabel\ta\nQ1\tlabel\tb\nQ1\talias\ta\nQ1\talias\ta")
def test_load_store_matches_the_per_row_rules(triples, labels):
    with tempfile.TemporaryDirectory() as tmp:
        t, l = str(Path(tmp) / "t.tsv"), str(Path(tmp) / "l.tsv")
        Path(t).write_bytes(triples.encode("utf-8"))
        Path(l).write_bytes(labels.encode("utf-8"))
        expected = _reference_load(t, l)
        try:
            got = dump_store(load_store(t, l))
        except ParseError as exc:
            got = str(exc)
        assert got == expected
        if isinstance(expected, str):
            return
        # Saving writes the canonical form, and the canonical form is a fixpoint.
        save_store(load_store(t, l), t, l)
        assert tuple(Path(f).read_bytes().decode("utf-8") for f in (t, l)) == expected
        before = Path(t).read_bytes(), Path(l).read_bytes()
        save_store(load_store(t, l), t, l)
        assert (Path(t).read_bytes(), Path(l).read_bytes()) == before
