import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgned.candidates import MODE_CONTAINS, MODE_EXACT, build_index, lookup, normalize_label
from kgned.kg import store_from_rows


def test_normalize_label():
    assert normalize_label("  National\t HIGHWAY ") == "national highway"
    assert normalize_label("") == ""
    assert normalize_label(" \t ") == ""


def test_shared_label_lands_under_one_key():
    store = store_from_rows([], [("Q1", "label", "National Highway"),
                                 ("Q2", "label", "national  highway")])
    index = build_index(store)
    assert len(index) == 1
    assert index.entities_for("national highway") == {"Q1", "Q2"}


def test_empty_store_empty_index():
    index = build_index(store_from_rows([]))
    assert len(index) == 0
    assert lookup(index, "anything").entities == ()


def test_label_plus_two_aliases_three_keys():
    store = store_from_rows([], [("Q1", "label", "alpha"),
                                 ("Q1", "alias", "beta"),
                                 ("Q1", "alias", "gamma"),
                                 ("Q1", "description", "not indexed")])
    index = build_index(store)
    assert sorted(index.keys()) == ["alpha", "beta", "gamma"]
    for key in ("alpha", "beta", "gamma"):
        assert index.entities_for(key) == {"Q1"}


def test_exact_lookup_on_four_way_share():
    entities = ["Q9", "Q2", "Q31", "Q1"]
    store = store_from_rows([], [(e, "label", "National Highway") for e in entities])
    index = build_index(store)
    found = lookup(index, "national highway", MODE_EXACT)
    # brute-force scan oracle, sorted ascending
    expected = tuple(sorted(e for e in entities))
    assert found.entities == expected


def test_lookup_misses_and_empty_surface():
    store = store_from_rows([], [("Q1", "label", "alpha")])
    index = build_index(store)
    assert lookup(index, "beta").entities == ()
    assert lookup(index, "").entities == ()
    assert lookup(index, "   ").entities == ()


def test_contains_superset_of_exact():
    store = store_from_rows([], [("Q1", "label", "national highway"),
                                 ("Q2", "label", "highway"),
                                 ("Q3", "alias", "the national highway of australia"),
                                 ("Q4", "label", "railway")])
    index = build_index(store)
    for surface in ("highway", "national highway", "rail", "nothing"):
        exact = set(lookup(index, surface, MODE_EXACT).entities)
        contains = set(lookup(index, surface, MODE_CONTAINS).entities)
        assert exact <= contains
    assert lookup(index, "highway", MODE_CONTAINS).entities == ("Q1", "Q2", "Q3")


def test_bad_mode_rejected():
    index = build_index(store_from_rows([]))
    with pytest.raises(ValueError):
        lookup(index, "x", mode="fuzzy")


_label_text = st.lists(st.from_regex(r"[a-z]{1,6}", fullmatch=True),
                       min_size=1, max_size=3).map(" ".join)


@settings(max_examples=50, deadline=None)
@given(records=st.lists(
    st.tuples(st.from_regex(r"Q[0-9]{1,4}", fullmatch=True),
              st.sampled_from(["label", "alias"]), _label_text),
    max_size=25), surface=_label_text)
def test_exact_lookup_matches_brute_force_scan(records, surface):
    store = store_from_rows([], records)
    index = build_index(store)
    got = lookup(index, surface, MODE_EXACT).entities
    # independent oracle: linear scan over the store's label records
    want = sorted({r.subject for r in store.all_label_records()
                   if r.kind in ("label", "alias")
                   and normalize_label(r.text) == normalize_label(surface)})
    assert list(got) == want
