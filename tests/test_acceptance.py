"""Acceptance gate for the toolkit.

Each test prints one ``criterion N: PASS/FAIL (...)`` line with the
measured numbers, so a verbose test log doubles as a sign-off sheet.
The ablation fixture trains three small models (no context, 1-hop
context, 1&2-hop context) once and shares them across criteria.
"""

import json
import time

import numpy as np
import pytest

from kgned.assembly import Mention, context_budget
from kgned.candidates import MODE_CONTAINS, MODE_EXACT, build_index, lookup, normalize_label
from kgned.cli import main as cli_main
from kgned.context import ContextConfig, build_context
from kgned.data import EncodingPipeline, to_pairs, vocab_lines
from kgned.kg import HOP_ONE, HOP_ONE_TWO, TripleStore
from kgned.metrics import f1_score, flip_analysis, inkb_accuracy
from kgned.model import Classifier, ModelConfig, TrainConfig, grad_check, predict, train
from kgned.synthetic import CorpusSpec, build_corpus, write_corpus
from kgned.tokenizer import SEP_ID, build_vocab


MAX_SEQ_LEN = 96
MODEL_KW = dict(d_model=32, n_layers=2, n_heads=2, ffn_dim=64, n_segments=17,
                max_seq_len=MAX_SEQ_LEN, dropout=0.0)
TRAIN_CFG = TrainConfig(learning_rate=3e-3, batch_size=32, epochs=100, seed=11)
MODEL_SEED = 11


def _verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def ablation():
    started = time.perf_counter()
    corpus = build_corpus(CorpusSpec(n_labels=50, seed=7))
    vocab = build_vocab(vocab_lines(corpus.train + corpus.eval, corpus.store))
    gold = {example.id: example.gold for example in corpus.eval}
    variants = {
        "none": (0, HOP_ONE),
        "hop1": (15, HOP_ONE),
        "hop12": (15, HOP_ONE_TWO),
    }
    runs = {}
    for name, (max_triples, hops) in variants.items():
        ctx = ContextConfig(hops=hops, max_triples=max_triples,
                            max_seq_len=MAX_SEQ_LEN)
        store = corpus.store if max_triples else None
        pipeline = EncodingPipeline(vocab=vocab, ctx=ctx, store=store)
        batch = pipeline.encode_pairs(to_pairs(corpus.train))
        model = Classifier(ModelConfig(vocab_size=vocab.size, **MODEL_KW),
                           seed=MODEL_SEED)
        train(model, batch, TRAIN_CFG)
        predictions = {
            example.id: predict(model, example.to_mention(),
                                list(example.candidates), pipeline).chosen
            for example in corpus.eval
        }
        runs[name] = {"accuracy": inkb_accuracy(predictions, gold),
                      "predictions": predictions}
    return {"corpus": corpus, "gold": gold, "runs": runs,
            "elapsed": time.perf_counter() - started}


def test_criterion_1_context_utility(ablation, capsys):
    corpus = ablation["corpus"]
    n_mentions = len(corpus.train) + len(corpus.eval)
    groups = {}
    for record in corpus.entities:
        groups.setdefault(record.label, []).append(record)
    sizes_ok = all(2 <= len(g) <= 4 for g in groups.values())

    no_ctx = ablation["runs"]["none"]["accuracy"]
    with_ctx = ablation["runs"]["hop1"]["accuracy"]
    flips = flip_analysis(ablation["runs"]["none"]["predictions"],
                          ablation["runs"]["hop1"]["predictions"],
                          ablation["gold"])
    up, down = len(flips.wrong_to_right), len(flips.right_to_wrong)
    elapsed = ablation["elapsed"]

    ok = (len(groups) >= 50 and n_mentions >= 200 and sizes_ok
          and with_ctx >= 0.95 and no_ctx <= 0.65
          and up >= 1 and up >= 5 * down and elapsed <= 600.0)
    detail = (f"context {with_ctx:.3f} >= 0.95, no-context {no_ctx:.3f} <= 0.65, "
              f"flips {up} up / {down} down, {n_mentions} mentions over "
              f"{len(groups)} labels, {elapsed:.1f}s")
    _verdict(capsys, 1, ok, detail)
    assert ok, detail


def test_criterion_2_two_hop_direction(ablation, capsys):
    hop1 = ablation["runs"]["hop1"]["accuracy"]
    hop12 = ablation["runs"]["hop12"]["accuracy"]
    ok = hop12 <= hop1 + 0.01
    detail = f"1-hop {hop1:.3f}, 1&2-hop {hop12:.3f}, allowed excess 0.01"
    _verdict(capsys, 2, ok, detail)
    assert ok, detail


def test_criterion_3_f1_oracle(capsys):
    pairs = [((91.48, 93.23), 92.35), ((96.39, 89.11), 92.61)]
    computed = [f1_score(p, r) for (p, r), _ in pairs]
    errors = [abs(c - expected) for c, (_, expected) in zip(computed, pairs)]
    ok = all(err <= 0.01 for err in errors)
    detail = (f"F1 {computed[0]:.4f} vs 92.35 and {computed[1]:.4f} vs 92.61, "
              f"max error {max(errors):.4f} <= 0.01")
    _verdict(capsys, 3, ok, detail)
    assert ok, detail


def test_criterion_4_gradient_check(capsys):
    started = time.perf_counter()
    worst = grad_check(n_probes=100, seed=0)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-3 and elapsed < 30.0
    detail = f"max relative error {worst:.2e} < 1e-3 over 100 probes in {elapsed:.1f}s"
    _verdict(capsys, 4, ok, detail)
    assert ok, detail


# -- criterion 5 helpers -------------------------------------------------

_WORDS = ("amber", "basalt", "cedar", "delta", "ember", "fjord", "granite",
          "harbor", "indigo", "juniper", "kelp", "lagoon")


def _words(rng, low, high):
    size = int(rng.integers(low, high + 1))
    return " ".join(_WORDS[int(i)] for i in rng.integers(0, len(_WORDS), size=size))


def _random_store(rng, n_triples):
    store = TripleStore()
    head_label = _words(rng, 1, 3)
    store.add_label("E", "label", head_label)
    texts = []
    for j in range(n_triples):
        tail = _words(rng, 1, 5)
        relation_label = _words(rng, 1, 2)
        store.add_triple("E", f"r{j}", tail, 1, True)
        store.add_label(f"r{j}", "label", relation_label)
        texts.append(f"{head_label} {relation_label} {tail}")
    return store, texts


def _fuzz_context_prefix(rng, cases):
    for _ in range(cases):
        n = int(rng.integers(1, 9))
        store, texts = _random_store(rng, n)
        max_triples = int(rng.integers(0, 9))
        budget = int(rng.integers(0, 41))
        cfg = ContextConfig(hops="1", max_triples=max_triples, max_seq_len=MAX_SEQ_LEN)
        bundle = build_context(store, "E", cfg, budget)

        eligible = texts[:max_triples]
        expected, spent = [], 0
        for text in eligible:
            cost = len(text.split()) + 1
            if spent + cost > budget:
                break
            spent += cost
            expected.append(text)
        assert [vt.text for vt in bundle.full] == eligible
        assert [vt.text for vt in bundle.kept] == expected
    return cases


def _fuzz_assembly(rng, cases, vocab):
    from kgned.assembly import assemble

    sep_checked = segment_checked = 0
    for _ in range(cases):
        n_words = int(rng.integers(1, 26))
        words = [_WORDS[int(i)] for i in rng.integers(0, len(_WORDS), size=n_words)]
        text = " ".join(words)
        i = int(rng.integers(0, n_words))
        j = i + int(rng.integers(1, min(3, n_words - i) + 1))
        start = len(" ".join(words[:i])) + (1 if i else 0)
        end = start + len(" ".join(words[i:j]))
        mention = Mention.make(text, start, end)

        max_seq_len = int(rng.integers(16, 65))
        max_triples = int(rng.integers(0, 9))
        cfg = ContextConfig(hops="1", max_triples=max_triples, max_seq_len=max_seq_len)
        store, _ = _random_store(rng, int(rng.integers(1, 7)))
        bundle = build_context(store, "E", cfg, context_budget(mention, cfg))
        inp = assemble(vocab, mention, bundle, cfg)

        assert inp.length <= max_seq_len
        assert inp.token_ids.shape == (max_seq_len,)
        assert int((inp.token_ids == SEP_ID).sum()) == 2 + len(bundle.kept)
        sep_checked += 1
        observed = set(inp.segment_ids[: inp.length].tolist())
        assert observed == set(range(2 + len(bundle.kept)))
        segment_checked += 1
        assert inp.mask[: inp.length].all() and not inp.mask[inp.length:].any()
    return sep_checked, segment_checked


def _fuzz_padding_invariance(rng, cases):
    cfg = ModelConfig(vocab_size=64, d_model=16, n_layers=1, n_heads=2,
                      ffn_dim=32, n_segments=4, max_seq_len=32, dropout=0.0)
    model = Classifier(cfg, seed=1)
    done = 0
    chunk = 50
    while done < cases:
        size = min(chunk, cases - done)
        lengths = rng.integers(1, cfg.max_seq_len + 1, size=size)
        columns = np.arange(cfg.max_seq_len)[None, :]
        mask = (columns < lengths[:, None]).astype(np.int64)
        tok = rng.integers(0, cfg.vocab_size, size=(size, cfg.max_seq_len))
        seg = rng.integers(0, cfg.n_segments, size=(size, cfg.max_seq_len))
        base_tok = np.where(mask == 1, tok, 0)
        base_seg = np.where(mask == 1, seg, 0)
        noise_tok = np.where(mask == 1, tok,
                             rng.integers(0, cfg.vocab_size, size=tok.shape))
        noise_seg = np.where(mask == 1, seg,
                             rng.integers(0, cfg.n_segments, size=seg.shape))
        base = model.forward_batch(base_tok, base_seg, mask)
        noisy = model.forward_batch(noise_tok, noise_seg, mask)
        assert np.array_equal(base, noisy)
        done += size
    return done


def test_criterion_5_structural_fuzz(capsys):
    rng = np.random.default_rng(20240823)
    vocab = build_vocab([" ".join(_WORDS)])
    n_prefix = _fuzz_context_prefix(rng, 1000)
    n_sep, n_segment = _fuzz_assembly(rng, 1000, vocab)
    n_pad = _fuzz_padding_invariance(rng, 1000)
    ok = n_prefix == 1000 and n_sep == 1000 and n_segment == 1000 and n_pad == 1000
    detail = (f"context prefix {n_prefix}, layout/SEP/segment {n_sep}, "
              f"padding invariance {n_pad} cases, all exact")
    _verdict(capsys, 5, ok, detail)
    assert ok, detail


def test_criterion_6_lookup_oracle(capsys):
    rng = np.random.default_rng(6)
    adjectives = ("north", "south", "east", "west", "old", "new", "upper",
                  "lower", "great", "little", "royal", "free", "twin", "high",
                  "deep", "green", "white", "black", "red", "golden")
    nouns = ("bay", "bridge", "canyon", "city", "creek", "falls", "field",
             "forest", "gate", "grove", "harbor", "hill", "island", "lake",
             "mesa", "pass", "peak", "plain", "point", "port", "ridge",
             "river", "spring", "valley", "wood")
    store = TripleStore()
    texts = []
    for i in range(10_000):
        adj = adjectives[int(rng.integers(0, len(adjectives)))]
        noun = nouns[int(rng.integers(0, len(nouns)))]
        label = f"{adj} {noun}"
        entity = f"Q{i:05d}"
        store.add_label(entity, "label", label)
        texts.append(label)
        if rng.random() < 0.3:
            alias = f"{adjectives[int(rng.integers(0, len(adjectives)))]} {noun}"
            store.add_label(entity, "alias", alias)
            texts.append(alias)
        if rng.random() < 0.1:
            store.add_label(entity, "description", f"a {noun} somewhere")

    index = build_index(store)
    flat = [(normalize_label(r.text), r.subject) for r in store.all_label_records()
            if r.kind in ("label", "alias")]

    mismatches = 0
    n_queries = 1000
    for _ in range(n_queries):
        if rng.random() < 0.7:
            query = texts[int(rng.integers(0, len(texts)))]
            if rng.random() < 0.5:
                query = query.upper()
            if rng.random() < 0.3:
                query = "  " + query.replace(" ", "   ") + " "
        else:
            query = _words(rng, 1, 2)
        mode = MODE_EXACT if rng.random() < 0.5 else MODE_CONTAINS
        needle = normalize_label(query)
        if not needle:
            expected = ()
        elif mode == MODE_EXACT:
            expected = tuple(sorted({s for t, s in flat if t == needle}))
        else:
            expected = tuple(sorted({s for t, s in flat if needle in t}))
        got = lookup(index, query, mode=mode).entities
        if got != expected:
            mismatches += 1
    ok = mismatches == 0
    detail = (f"{n_queries} random queries against a {len(store.label_subjects())}"
              f"-entity store, {mismatches} mismatches")
    _verdict(capsys, 6, ok, detail)
    assert ok, detail


def test_criterion_7_determinism(tmp_path, capsys):
    corpus = build_corpus(CorpusSpec(n_labels=4, seed=5))
    paths = write_corpus(corpus, tmp_path / "corpus")
    kg_dir = str(paths["triples"].parent)

    artifacts = {"history": [], "pairs_report": [], "argmax_report": [],
                 "predictions": []}
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        ckpt = out / "model.npz"
        history = out / "history.json"
        rc = cli_main(["train", "--data", str(paths["train"]), "--kg", kg_dir,
                       "--out", str(ckpt), "--history", str(history),
                       "--max-seq-len", "64", "--epochs", "3",
                       "--batch-size", "8", "--seed", "9"])
        assert rc == 0
        pairs_report = out / "pairs.json"
        rc = cli_main(["eval", "--data", str(paths["eval"]), "--checkpoint",
                       str(ckpt), "--kg", kg_dir, "--protocol", "pairs",
                       "--report", str(pairs_report)])
        assert rc == 0
        argmax_report = out / "argmax.json"
        predictions = out / "predictions.jsonl"
        rc = cli_main(["eval", "--data", str(paths["eval"]), "--checkpoint",
                       str(ckpt), "--kg", kg_dir, "--protocol", "argmax",
                       "--report", str(argmax_report),
                       "--predictions", str(predictions)])
        assert rc == 0
        artifacts["history"].append(history.read_bytes())
        artifacts["pairs_report"].append(pairs_report.read_bytes())
        artifacts["argmax_report"].append(argmax_report.read_bytes())
        artifacts["predictions"].append(predictions.read_bytes())

    identical = {name: blobs[0] == blobs[1] for name, blobs in artifacts.items()}
    ok = all(identical.values())
    detail = ("byte-identical across reruns: "
              + ", ".join(f"{name} {'yes' if same else 'NO'}"
                          for name, same in identical.items()))
    _verdict(capsys, 7, ok, detail)
    assert ok, detail
