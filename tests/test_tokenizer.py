import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgned.tokenizer import (CLS_ID, N_RESERVED, PAD_ID, SEP_ID, UNK_ID, Vocab,
                             build_vocab, load_vocab, save_vocab, tokenize)


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Sydney-Canberra") == ["sydney", "-", "canberra"]
    assert tokenize("National Highway") == ["national", "highway"]
    assert tokenize("31 May 2019") == ["31", "may", "2019"]
    assert tokenize("") == []


def test_reserved_ids_are_fixed():
    assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID) == (0, 1, 2, 3)


def test_build_vocab_case_folds():
    vocab = build_vocab(["A a"])
    assert vocab.size == N_RESERVED + 1
    assert vocab.encode_tokens(["a"]) == [N_RESERVED]


def test_identical_multisets_get_identical_ids():
    # Same token counts arriving in different line orders must not change
    # a single id assignment.
    a = build_vocab(["red green", "green blue", "blue blue"])
    b = build_vocab(["blue blue", "blue green", "green red"])
    assert a == b
    assert a.tokens == b.tokens
    assert a.encode_tokens(a.tokens) == b.encode_tokens(a.tokens)


def test_frequency_then_lexicographic_order():
    vocab = build_vocab(["b b a a c"])
    # a and b tie on frequency 2; lexicographic breaks the tie.
    assert vocab.tokens == ["a", "b", "c"]


def test_encode_empty_and_oov():
    vocab = build_vocab(["known words here"])
    assert vocab.encode_tokens(tokenize("")) == []
    assert vocab.encode_tokens(tokenize("totally unseen stuff")) == [UNK_ID, UNK_ID, UNK_ID]


def test_encode_round_trips_token_count():
    vocab = build_vocab(["the quick brown fox jumps"])
    text = "the quick fox"
    assert len(vocab.encode_tokens(tokenize(text))) == len(tokenize(text))


def test_vocab_rejects_reserved_and_duplicate_entries():
    with pytest.raises(ValueError):
        Vocab(["[PAD]"])
    with pytest.raises(ValueError):
        Vocab(["a", "a"])


def test_unknown_token_maps_to_unk():
    vocab = Vocab(["x"])
    assert vocab.encode_tokens(["y", "x"]) == [UNK_ID, N_RESERVED]


def test_save_load_round_trip(tmp_path):
    vocab = build_vocab(["alpha beta beta gamma"])
    path = str(tmp_path / "vocab.txt")
    save_vocab(vocab, path)
    lines = (tmp_path / "vocab.txt").read_text().splitlines()
    assert lines == vocab.tokens  # one token per line, line order = id order
    assert load_vocab(path) == vocab


@given(st.text(max_size=60))
def test_encode_length_matches_tokenize(text):
    vocab = build_vocab(["some fixed words"])
    assert len(vocab.encode_tokens(tokenize(text))) == len(tokenize(text))


@given(st.text(max_size=60))
def test_tokenize_is_deterministic_and_lowercase(text):
    once = tokenize(text)
    assert once == tokenize(text)
    assert all(t == t.lower() for t in once)
