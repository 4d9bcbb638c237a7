import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgned.assembly import Mention, Sentence, assemble, context_budget
from kgned.context import ContextBundle, ContextConfig, build_context
from kgned.data import EncodingPipeline
from kgned.kg import store_from_rows
from kgned.tokenizer import CLS_ID, PAD_ID, SEP_ID, build_vocab, tokenize

SENTENCE = "The National Highway connects Sydney and Canberra."


def _same(a, b):
    """Equal lengths and equal token, segment and mask arrays."""
    return a.length == b.length and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("token_ids", "segment_ids", "mask"))


def _mention():
    start = SENTENCE.index("National Highway")
    return Mention.make(SENTENCE, start, start + len("National Highway"))


def _vocab():
    return build_vocab([SENTENCE, "highway system in australia",
                        "national highway label national highway",
                        "national highway date modified 31 may 2019"])


def test_zero_triples_layout():
    cfg = ContextConfig(max_triples=0, max_seq_len=32)
    out = assemble(_vocab(), _mention(), ContextBundle.empty(), cfg)
    sep_count = int((out.token_ids == SEP_ID).sum())
    assert sep_count == 2
    assert out.segment_ids[:out.length].max() == 1
    assert out.token_ids[0] == CLS_ID and out.segment_ids[0] == 0


def test_three_triples_layout(highway_store, highway_vocab):
    cfg = ContextConfig(max_triples=15, max_seq_len=64)
    mention = _mention()
    bundle = build_context(highway_store, "Q1967298", cfg,
                           context_budget(mention, cfg))
    assert len(bundle.kept) == 3
    out = assemble(highway_vocab, mention, bundle, cfg)
    assert int((out.token_ids == SEP_ID).sum()) == 2 + 3
    used = set(out.segment_ids[:out.length].tolist())
    assert used == {0, 1, 2, 3, 4}


def test_surface_tokens_recur_in_triple_segments(highway_store, highway_vocab):
    # The surface form shows up once as its own segment and again inside
    # the verbalized triples (the head label is the same string).
    cfg = ContextConfig(max_triples=15, max_seq_len=64)
    mention = _mention()
    bundle = build_context(highway_store, "Q1967298", cfg,
                           context_budget(mention, cfg))
    out = assemble(highway_vocab, mention, bundle, cfg)
    [nat] = highway_vocab.encode_tokens(["national"])
    segs_with_nat = {int(s) for t, s in zip(out.token_ids, out.segment_ids)
                     if t == nat}
    assert 1 in segs_with_nat                 # surface segment
    assert any(s >= 2 for s in segs_with_nat)  # inside a triple segment


def test_arrays_padded_to_max_seq_len():
    cfg = ContextConfig(max_triples=0, max_seq_len=40)
    out = assemble(_vocab(), _mention(), ContextBundle.empty(), cfg)
    assert out.token_ids.shape == out.segment_ids.shape == out.mask.shape == (40,)
    assert int(out.mask.sum()) == out.length
    assert np.all(out.token_ids[out.length:] == PAD_ID)
    assert np.all(out.segment_ids[out.length:] == 0)


def test_oversized_sentence_tail_truncates():
    text = "word " * 60 + "National Highway here."
    start = text.index("National Highway")
    mention = Mention.make(text, start, start + len("National Highway"))
    cfg = ContextConfig(max_triples=15, max_seq_len=32)
    assert context_budget(mention, cfg) == 0
    out = assemble(_vocab(), mention, ContextBundle.empty(), cfg)
    assert out.length <= 32
    assert int((out.token_ids == SEP_ID).sum()) == 2


def test_overflowing_bundle_is_a_caller_error(highway_store, highway_vocab):
    cfg = ContextConfig(max_triples=15, max_seq_len=24)
    mention = _mention()
    # Bundle built against a budget far larger than the layout can hold.
    bundle = build_context(highway_store, "Q1967298", cfg, budget=400)
    with pytest.raises(ValueError, match="overflow"):
        assemble(highway_vocab, mention, bundle, cfg)


def test_context_budget_formula():
    cfg = ContextConfig(max_seq_len=64)
    mention = _mention()
    sent = len(mention.sentence.tokens)
    surf = len(tokenize(mention.surface))
    assert context_budget(mention, cfg) == 64 - 3 - sent - surf


def test_mention_span_validation():
    with pytest.raises(ValueError):
        Mention.make("short", 2, 2)
    with pytest.raises(ValueError):
        Mention.make("short", 0, 99)
    with pytest.raises(ValueError):
        Mention(Sentence.from_text("abcdef"), 0, 3, surface="xyz")


def test_assemble_is_deterministic(highway_store, highway_vocab):
    cfg = ContextConfig(max_triples=15, max_seq_len=64)
    mention = _mention()
    bundle = build_context(highway_store, "Q1967298", cfg,
                           context_budget(mention, cfg))
    a = assemble(highway_vocab, mention, bundle, cfg)
    b = assemble(highway_vocab, mention, bundle, cfg)
    assert _same(a, b)


_sentence_words = st.lists(st.from_regex(r"[a-z]{1,7}", fullmatch=True),
                           min_size=1, max_size=20)
_tail_words = st.lists(st.from_regex(r"[a-z]{1,6}", fullmatch=True),
                       min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(words=_sentence_words,
       tails=st.lists(_tail_words.map(" ".join), max_size=6),
       max_triples=st.integers(0, 6),
       data=st.data())
def test_structural_invariants_fuzzed(words, tails, max_triples, data):
    text = " ".join(words)
    start_word = data.draw(st.integers(0, len(words) - 1))
    start = len(" ".join(words[:start_word])) + (1 if start_word else 0)
    mention = Mention.make(text, start, start + len(words[start_word]))
    store = store_from_rows([("H", f"r{i}", tail, 1, True)
                             for i, tail in enumerate(tails)])
    cfg = ContextConfig(max_triples=max_triples, max_seq_len=48)
    bundle = build_context(store, "H", cfg, context_budget(mention, cfg)) \
        if max_triples else ContextBundle.empty()
    vocab = build_vocab([text] + tails)
    out = assemble(vocab, mention, bundle, cfg)

    assert len(out.token_ids) == len(out.segment_ids) == len(out.mask) == 48
    assert out.length <= 48
    assert int((out.token_ids == SEP_ID).sum()) == 2 + len(bundle.kept)
    used = sorted(set(out.segment_ids[:out.length].tolist()))
    assert used == list(range(2 + len(bundle.kept)))

    # The pipeline lays out the same arrays, and its cached second encoding
    # of the pair does too.
    pipeline = EncodingPipeline(vocab=vocab, ctx=cfg, store=store)
    assert _same(pipeline.encode_pair(mention, "H"), out)
    assert _same(pipeline.encode_pair(mention, "H"), out)
