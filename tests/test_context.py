import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgned.context import ContextBundle, ContextConfig, build_context, verbalize
from kgned.kg import store_from_rows


def test_fig_description_triple_verbalization(highway_store):
    triple = highway_store.neighbors("Q1967298")[0]
    out = verbalize(highway_store, triple)
    assert out.text == "National Highway description highway system in Australia"
    assert out.source is triple


def test_identity_labels_join():
    store = store_from_rows([("A", "b", "C", 1, False)],
                            [("A", "label", "A"), ("b", "label", "b"),
                             ("C", "label", "C")])
    assert verbalize(store, store.neighbors("A")[0]).text == "A b C"


def test_internal_spaces_preserved_single_joins():
    head_label = "New South Wales"
    tail = "state of Australia"
    store = store_from_rows([("Q3224", "description", tail, 1, True)],
                            [("Q3224", "label", head_label)])
    text = verbalize(store, store.neighbors("Q3224")[0]).text
    assert text == " ".join([head_label, "description", tail])
    assert "  " not in text and text == text.strip()


def test_verbalize_total_via_fallback_labels():
    store = store_from_rows([("Q1", "P2", "Q3", 1, False)])
    assert verbalize(store, store.neighbors("Q1")[0]).text == "Q1 P2 Q3"


def test_budget_zero_keeps_nothing(highway_store):
    cfg = ContextConfig(max_triples=15, max_seq_len=64)
    bundle = build_context(highway_store, "Q1967298", cfg, budget=0)
    assert bundle.kept == ()
    assert bundle.dropped_count == len(bundle.full) == 3


def test_generous_budget_keeps_all_three_in_order(highway_store):
    cfg = ContextConfig(max_triples=15, max_seq_len=512)
    bundle = build_context(highway_store, "Q1967298", cfg, budget=400)
    assert [vt.text for vt in bundle.kept] == [
        "National Highway description highway system in Australia",
        "National Highway label National Highway",
        "National Highway date modified 31 May 2019",
    ]
    assert bundle.dropped_count == 0


def _ten_token_store(n=5):
    # Each triple verbalizes to exactly 10 tokens: 1 head + 1 relation + 8 tail.
    return store_from_rows(
        [("E0", f"r{i}", " ".join(f"w{i}{j}" for j in range(8)), 1, True)
         for i in range(n)])


def test_budget_arithmetic_whole_triples_only():
    store = _ten_token_store()
    for vt in build_context(store, "E0", ContextConfig(), budget=1000).full:
        assert vt.token_count() == 10
    # cost per triple = 10 tokens + 1 separator; floor(33 / 11) = 3
    bundle = build_context(store, "E0", ContextConfig(), budget=33)
    assert len(bundle.kept) == 3
    assert bundle.dropped_count == 2


def test_max_triples_zero_never_touches_store():
    cfg = ContextConfig(max_triples=0)
    bundle = build_context(None, "Q1", cfg, budget=100)
    assert bundle == ContextBundle.empty()


def test_negative_budget_rejected(highway_store):
    with pytest.raises(ValueError):
        build_context(highway_store, "Q1967298", ContextConfig(), budget=-1)


def test_max_triples_caps_full_list():
    store = _ten_token_store(n=20)
    bundle = build_context(store, "E0", ContextConfig(max_triples=15), budget=10_000)
    assert len(bundle.full) == 15


def test_hops_config_selects_hop_two(highway_store):
    one = build_context(highway_store, "Q1967298", ContextConfig(hops="1"), 1000)
    both = build_context(highway_store, "Q1967298", ContextConfig(hops="1&2"), 1000)
    assert len(one.full) == 3 and len(both.full) == 5
    assert [vt.text for vt in both.full[:3]] == [vt.text for vt in one.full]


def test_duplicate_verbalizations_kept():
    store = store_from_rows([("Q1", "r1", "same text", 1, True),
                             ("Q1", "r2", "same text", 1, True)],
                            [("r1", "label", "r"), ("r2", "label", "r")])
    bundle = build_context(store, "Q1", ContextConfig(), budget=100)
    assert [vt.text for vt in bundle.kept] == ["Q1 r same text", "Q1 r same text"]


def test_config_validation():
    with pytest.raises(ValueError):
        ContextConfig(hops="3")
    with pytest.raises(ValueError):
        ContextConfig(max_triples=-1)
    with pytest.raises(ValueError):
        ContextConfig(max_seq_len=8)
    assert ContextConfig().n_segments == 17
    assert ContextConfig(max_triples=0).n_segments == 2


_words = st.lists(st.from_regex(r"[a-z]{1,8}", fullmatch=True), min_size=1, max_size=6)
_random_rows = st.lists(
    st.tuples(st.just("H"), st.from_regex(r"[a-z]{1,5}", fullmatch=True),
              _words.map(" ".join), st.sampled_from([1, 2]), st.just(True)),
    min_size=0, max_size=12)


@settings(max_examples=80, deadline=None)
@given(rows=_random_rows, budget=st.integers(0, 80),
       max_triples=st.integers(0, 10), hops=st.sampled_from(["1", "1&2"]))
def test_prefix_and_granularity_properties(rows, budget, max_triples, hops):
    store = store_from_rows(rows)
    cfg = ContextConfig(hops=hops, max_triples=max_triples)
    bundle = build_context(store, "H", cfg, budget)
    # kept is a prefix of full
    assert bundle.kept == bundle.full[:len(bundle.kept)]
    assert bundle.dropped_count == len(bundle.full) - len(bundle.kept)
    # whole-triple granularity: kept fits, the next triple would not
    cost = sum(vt.token_count() + 1 for vt in bundle.kept)
    assert cost <= budget
    if bundle.dropped_count:
        nxt = bundle.full[len(bundle.kept)]
        assert cost + nxt.token_count() + 1 > budget
    # monotonicity: one more token of budget never loses a triple
    wider = build_context(store, "H", cfg, budget + 1)
    assert len(wider.kept) >= len(bundle.kept)
