"""Pinned encodings: every pair of the criterion-1 corpus, hashed.

Each digest covers the token, segment and mask arrays (dtype included)
and the length of every pair, in order, so any change to the budget cut,
the layout or the vocab ids shows up as a changed digest.
"""

import hashlib

import pytest

from kgned.context import ContextConfig, verbalize
from kgned.data import EncodingPipeline, to_pairs
from kgned.kg import HOP_ONE, HOP_ONE_TWO
from kgned.synthetic import CorpusSpec, build_corpus
from kgned.tokenizer import build_vocab

# name -> (max_triples, hops, max_seq_len, sha256 over every pair's arrays)
VARIANTS = {
    "none": (0, HOP_ONE, 96,
             "a9d4f83a82b251fa975de2197f4f8d4e30a0fea31db5a8d63488865741feab3f"),
    "hop1": (15, HOP_ONE, 96,
             "5911b670ee600702167f1aba2e783bc6c21c6721ffdf071b901add1432fbca6b"),
    "hop12": (15, HOP_ONE_TWO, 96,
              "054a83095a924d177143853e07c8435b15c4801c252103de03deb9a64dd86e43"),
    # Drops triples: the budget holds only part of each context.
    "hop12-24": (15, HOP_ONE_TWO, 24,
                 "a151a17c13051ac84072e076b5f7974e9b89e14d08fb34edc4e1c21dc362dc40"),
    # Truncates the sentence of 153 of the 918 pairs and keeps no triple.
    "hop12-16": (15, HOP_ONE_TWO, 16,
                 "78691cb07f8f32c7b3ff133c76c8f0d9a4e8b8b2f6e0d281d9c65560afd8d8c7"),
}


@pytest.fixture(scope="module")
def criterion_1():
    corpus = build_corpus(CorpusSpec(n_labels=50, seed=7))
    examples = corpus.train + corpus.eval
    lines = [text for ex in examples for text in (ex.sentence, ex.surface)]
    lines += [verbalize(corpus.store, t).text for t in corpus.store.all_triples()]
    return corpus.store, build_vocab(lines), to_pairs(examples)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_encoding_digest(criterion_1, name):
    store, vocab, pairs = criterion_1
    max_triples, hops, max_seq_len, expected = VARIANTS[name]
    ctx = ContextConfig(hops=hops, max_triples=max_triples, max_seq_len=max_seq_len)
    pipeline = EncodingPipeline(vocab=vocab, ctx=ctx, store=store)
    digest = hashlib.sha256()
    for pair in pairs:
        inp = pipeline.encode_pair(pair.example.to_mention(), pair.candidate)
        for array in (inp.token_ids, inp.segment_ids, inp.mask):
            digest.update(array.dtype.str.encode())
            digest.update(array.tobytes())
        digest.update(f"{inp.length};".encode())
    assert len(pairs) == 918
    assert digest.hexdigest() == expected
