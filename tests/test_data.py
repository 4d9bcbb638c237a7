import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgned.assembly import assemble
from kgned.context import ContextBundle, ContextConfig
from kgned.data import (DatasetError, EncodingPipeline, MentionExample, load_jsonl,
                        save_jsonl, to_pairs)
from kgned.tokenizer import build_vocab


def _write(path, lines):
    path.write_text("".join(json.dumps(o) + "\n" for o in lines), encoding="utf-8")


GOOD_LINE = {
    "id": "m1",
    "sentence": "The National Highway connects Sydney and Canberra.",
    "surface": "National Highway",
    "span": [4, 20],
    "gold": "Q1967298",
    "candidates": ["Q1967298", "Q1967342"],
    "negatives": ["Q1967342"],
}


def test_empty_file_loads_empty(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("")
    assert load_jsonl(str(path)) == []


def test_three_line_fixture_order(tmp_path):
    path = tmp_path / "d.jsonl"
    lines = []
    for i in range(3):
        line = dict(GOOD_LINE)
        line["id"] = f"m{i}"
        lines.append(line)
    _write(path, lines)
    out = load_jsonl(str(path))
    assert [e.id for e in out] == ["m0", "m1", "m2"]


def test_span_not_matching_surface_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    bad = dict(GOOD_LINE)
    bad["span"] = [0, 3]
    _write(path, [GOOD_LINE, bad])
    with pytest.raises(DatasetError) as err:
        load_jsonl(str(path))
    assert err.value.line_no == 2


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    bad = dict(GOOD_LINE)
    del bad["surface"]
    _write(path, [bad])
    with pytest.raises(DatasetError, match="surface"):
        load_jsonl(str(path))


def test_invalid_json_names_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(GOOD_LINE) + "\n{broken\n")
    with pytest.raises(DatasetError) as err:
        load_jsonl(str(path))
    assert err.value.line_no == 2


def test_missing_id_gets_line_based_default(tmp_path):
    path = tmp_path / "d.jsonl"
    line = dict(GOOD_LINE)
    del line["id"]
    _write(path, [line])
    assert load_jsonl(str(path))[0].id == "m00001"


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "d.jsonl"
    _write(path, [GOOD_LINE])
    examples = load_jsonl(str(path))
    out = tmp_path / "copy.jsonl"
    save_jsonl(examples, str(out))
    assert load_jsonl(str(out)) == examples


def test_gold_missing_flag():
    example = MentionExample(id="m", sentence="a b", surface="a", start=0, end=1,
                             gold="Q9", candidates=("Q1",))
    assert example.gold_missing
    assert not MentionExample(id="m", sentence="a b", surface="a", start=0, end=1,
                              gold="Q1", candidates=("Q1",)).gold_missing


def test_to_pairs_gold_plus_negative():
    example = MentionExample(id="m", sentence="a b", surface="a", start=0, end=1,
                             gold="Q1", candidates=("Q1", "Q2"), negatives=("Q2",))
    pairs = to_pairs([example])
    assert [(p.candidate, p.label) for p in pairs] == [("Q1", 1), ("Q2", 0)]


def test_to_pairs_null_gold_negatives_only():
    example = MentionExample(id="m", sentence="a b", surface="a", start=0, end=1,
                             gold=None, candidates=("Q1", "Q2"),
                             negatives=("Q1", "Q2"))
    pairs = to_pairs([example])
    assert [p.label for p in pairs] == [0, 0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 4)), max_size=12))
def test_to_pairs_count_closed_form(shape):
    examples = []
    for i, (has_gold, n_neg) in enumerate(shape):
        examples.append(MentionExample(
            id=f"m{i}", sentence="x y", surface="x", start=0, end=1,
            gold="Q0" if has_gold else None,
            candidates=("Q0",) + tuple(f"Q{j + 1}" for j in range(n_neg)),
            negatives=tuple(f"Q{j + 1}" for j in range(n_neg))))
    pairs = to_pairs(examples)
    expected = sum(int(has_gold) + n_neg for has_gold, n_neg in shape)
    assert len(pairs) == expected
    assert sum(p.label for p in pairs) == sum(int(g) for g, _ in shape)


def _example(**overrides):
    base = dict(id="m1", sentence=GOOD_LINE["sentence"],
                surface=GOOD_LINE["surface"], start=4, end=20, gold="Q1967298",
                candidates=("Q1967298", "Q1967342"), negatives=("Q1967342",))
    base.update(overrides)
    return MentionExample(**base)


def test_prepare_no_context_matches_store_free_assembly(highway_store, highway_vocab):
    example = _example()
    pair = to_pairs([example])[0]
    cfg = ContextConfig(max_triples=0, max_seq_len=48)
    with_pipeline = EncodingPipeline(highway_vocab, cfg, highway_store)
    [(with_store, label)] = with_pipeline.encode_pairs([pair])
    without_store = EncodingPipeline(highway_vocab, cfg).encode_pair(
        example.to_mention(), pair.candidate)
    direct = assemble(highway_vocab, example.to_mention(), ContextBundle.empty(), cfg)
    assert label == 1
    assert with_store.same_as(without_store)
    assert with_store.same_as(direct)


def test_prepare_injects_description_tokens(highway_store, highway_vocab):
    example = _example()
    cfg = ContextConfig(max_triples=15, max_seq_len=96)
    pipeline = EncodingPipeline(highway_vocab, cfg, highway_store)
    inp = pipeline.encode_pair(example.to_mention(), "Q1967298")
    ids = inp.token_ids.tolist()
    for token in ("highway", "system", "in", "australia"):
        assert highway_vocab.id_of(token) in ids


def test_prepare_oversized_sentence_keeps_zero_triples(highway_store, highway_vocab):
    text = "filler " * 80 + "National Highway."
    start = text.index("National Highway")
    example = MentionExample(id="m", sentence=text, surface="National Highway",
                             start=start, end=start + 16, gold="Q1967298",
                             candidates=("Q1967298",))
    cfg = ContextConfig(max_triples=15, max_seq_len=32)
    pipeline = EncodingPipeline(highway_vocab, cfg, highway_store)
    inp = pipeline.encode_pair(example.to_mention(), "Q1967298")
    # budget is 0, so only the sentence/surface separators appear
    assert int((inp.token_ids == 3).sum()) == 2


def test_prepare_requires_store_when_context_on(highway_vocab):
    with pytest.raises(ValueError, match="store"):
        EncodingPipeline(highway_vocab, ContextConfig(max_triples=5))
