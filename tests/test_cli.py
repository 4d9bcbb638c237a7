"""Command-line interface: config resolution, subcommands, exit codes.

Everything runs through ``main(argv)`` in-process; the fetch tests use
the mock endpoint from conftest, and the eval oracle is a checkpoint with
all parameters zeroed, which scores every pair at exactly 0.5 and makes
the expected precision/recall computable by hand from the data file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import literal_binding, triple_binding, uri_binding
from kgned.cli import (
    DEFAULTS,
    EXIT_ABORT,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    build_parser,
    hops_value,
    load_config_file,
    main,
    resolve_config,
)
from kgned.context import ContextConfig
from kgned.data import vocab_lines
from kgned.model import Classifier, ModelConfig, TrainingAborted, save_checkpoint
from kgned.synthetic import CorpusSpec, build_corpus, write_corpus
from kgned.tokenizer import build_vocab


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small written-out corpus plus a zero-parameter checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    corpus = build_corpus(CorpusSpec(n_labels=4, seed=5))
    paths = write_corpus(corpus, root / "corpus")

    vocab = build_vocab(vocab_lines(corpus.train + corpus.eval, corpus.store))
    ctx = ContextConfig(hops="1", max_triples=15, max_seq_len=64)
    cfg = ModelConfig(vocab_size=vocab.size, d_model=16, n_layers=1, n_heads=2,
                      ffn_dim=32, n_segments=ctx.n_segments, max_seq_len=64,
                      dropout=0.0)
    model = Classifier(cfg, seed=0)
    for value in model.params.values():
        value[:] = 0.0
    zero_ckpt = root / "zero.npz"
    save_checkpoint(str(zero_ckpt), model, vocab=vocab, ctx=ctx)

    return {"root": root, "corpus": corpus, "kg": paths["triples"].parent,
            "train": paths["train"], "eval": paths["eval"], "zero": zero_ckpt}


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    """A context model actually trained on the small corpus."""
    root = tmp_path_factory.mktemp("trained")
    model_cfg = root / "model.cfg"
    model_cfg.write_text("d_model=32\nffn_dim=64\ndropout=0.0\n", encoding="utf-8")
    ckpt = root / "model.npz"
    rc = main(["train", "--data", str(workspace["train"]),
               "--kg", str(workspace["kg"]), "--out", str(ckpt),
               "--model-cfg", str(model_cfg), "--max-seq-len", "64",
               "--epochs", "60", "--lr", "3e-3", "--batch-size", "8",
               "--seed", "3"])
    assert rc == EXIT_OK
    return ckpt


# -- configuration plumbing ----------------------------------------------


def test_hops_value_mapping():
    assert hops_value("1") == "1"
    assert hops_value("12") == "1&2"


def test_load_config_file_json_and_key_value(tmp_path):
    as_json = tmp_path / "c.json"
    as_json.write_text('{"epochs": 3, "lr": 0.01}', encoding="utf-8")
    assert load_config_file(str(as_json)) == {"epochs": 3, "lr": 0.01}

    as_lines = tmp_path / "c.cfg"
    as_lines.write_text("# comment\nepochs = 3\nlr=0.01\n\n", encoding="utf-8")
    assert load_config_file(str(as_lines)) == {"epochs": "3", "lr": "0.01"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs 3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config_file(str(bad))


def _train_args(extra=()):
    argv = ["train", "--data", "d.jsonl", "--out", "m.npz", *extra]
    return build_parser().parse_args(argv)


def test_resolve_config_default_env_flag_precedence(tmp_path):
    args = _train_args()
    assert resolve_config(args, environ={})["epochs"] == DEFAULTS["epochs"]

    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("epochs=33\n", encoding="utf-8")
    args = build_parser().parse_args(["--config", str(cfg_file), "train",
                                      "--data", "d", "--out", "m"])
    assert resolve_config(args, environ={})["epochs"] == 33
    assert resolve_config(args, environ={"KGNED_EPOCHS": "44"})["epochs"] == 44

    args = build_parser().parse_args(["--config", str(cfg_file), "train",
                                      "--data", "d", "--out", "m",
                                      "--epochs", "55"])
    assert resolve_config(args, environ={"KGNED_EPOCHS": "44"})["epochs"] == 55


def test_resolve_config_rejects_unknown_file_key(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("optimizer=sgd\n", encoding="utf-8")
    args = build_parser().parse_args(["--config", str(cfg_file), "train",
                                      "--data", "d", "--out", "m"])
    with pytest.raises(UsageError, match="optimizer"):
        resolve_config(args, environ={})


def test_resolve_config_validates_enums():
    args = _train_args()
    with pytest.raises(UsageError, match="hops"):
        resolve_config(args, environ={"KGNED_HOPS": "3"})
    with pytest.raises(UsageError, match="protocol"):
        resolve_config(args, environ={"KGNED_PROTOCOL": "ranked"})
    with pytest.raises(UsageError, match="match"):
        resolve_config(args, environ={"KGNED_MATCH": "fuzzy"})


@pytest.mark.parametrize("text, key", [('{"epochs": [1]}', "epochs"),
                                       ('{"lr": null}', "lr"),
                                       ('{"epochs": "abc"}', "epochs")])
def test_uncoercible_config_file_value_is_data_error(text, key, tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(text, encoding="utf-8")
    rc = main(["--config", str(cfg_file), "train", "--data", "d", "--out", "m"])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert str(cfg_file) in err and repr(key) in err


def test_uncoercible_env_value_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("KGNED_EPOCHS", "abc")
    assert main(["train", "--data", "d", "--out", "m"]) == EXIT_USAGE
    assert "KGNED_EPOCHS" in capsys.readouterr().err


# -- usage errors through main -------------------------------------------


def test_main_without_command_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_main_unknown_flag_is_usage_error(capsys):
    assert main(["train", "--data", "d", "--out", "m", "--frobnicate"]) == EXIT_USAGE


def test_main_missing_required_flag_is_usage_error(capsys):
    assert main(["train", "--data", "d"]) == EXIT_USAGE


def test_main_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert main(["train", "--help"]) == EXIT_OK


# -- train ---------------------------------------------------------------


def test_train_writes_checkpoint_and_history(workspace, tmp_path, capsys):
    ckpt = tmp_path / "model.npz"
    rc = main(["train", "--data", str(workspace["train"]),
               "--kg", str(workspace["kg"]), "--out", str(ckpt),
               "--max-seq-len", "64", "--epochs", "2", "--batch-size", "8",
               "--seed", "1"])
    assert rc == EXIT_OK
    assert ckpt.is_file()
    history = json.loads((tmp_path / "model.npz.history.json").read_text())
    assert history["format"] == "kgned-history/1"
    assert history["seed"] == 1
    assert len(history["history"]) == 2
    assert history["config"]["epochs"] == 2
    assert "trained 2 epochs" in capsys.readouterr().out


def test_train_same_seed_byte_identical_history(workspace, tmp_path, capsys):
    outputs = []
    for name in ("a", "b"):
        ckpt = tmp_path / f"{name}.npz"
        history = tmp_path / f"{name}.history.json"
        rc = main(["train", "--data", str(workspace["train"]),
                   "--kg", str(workspace["kg"]), "--out", str(ckpt),
                   "--history", str(history), "--max-seq-len", "64",
                   "--epochs", "2", "--batch-size", "8", "--seed", "9"])
        assert rc == EXIT_OK
        outputs.append(history.read_bytes())
    assert outputs[0] == outputs[1]


def test_train_env_and_flag_epochs(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KGNED_EPOCHS", "2")
    ckpt = tmp_path / "env.npz"
    rc = main(["train", "--data", str(workspace["train"]),
               "--kg", str(workspace["kg"]), "--out", str(ckpt),
               "--max-seq-len", "64", "--batch-size", "8"])
    assert rc == EXIT_OK
    history = json.loads((tmp_path / "env.npz.history.json").read_text())
    assert len(history["history"]) == 2

    rc = main(["train", "--data", str(workspace["train"]),
               "--kg", str(workspace["kg"]), "--out", str(ckpt),
               "--max-seq-len", "64", "--batch-size", "8", "--epochs", "1"])
    assert rc == EXIT_OK
    history = json.loads((tmp_path / "env.npz.history.json").read_text())
    assert len(history["history"]) == 1


def test_train_builds_vocab_lines_only_without_a_vocab_file(
        workspace, tmp_path, monkeypatch, capsys):
    calls = []

    def counting_vocab_lines(examples, store):
        calls.append(1)
        return vocab_lines(examples, store)

    monkeypatch.setattr("kgned.cli.vocab_lines", counting_vocab_lines)
    vocab_path = tmp_path / "vocab.txt"
    histories = []
    for name, extra in (("plain", []), ("first", ["--vocab", str(vocab_path)]),
                        ("rerun", ["--vocab", str(vocab_path)])):
        calls.clear()
        history = tmp_path / f"{name}.history.json"
        rc = main(["train", "--data", str(workspace["train"]),
                   "--kg", str(workspace["kg"]), "--out", str(tmp_path / f"{name}.npz"),
                   "--history", str(history), "--max-seq-len", "64",
                   "--epochs", "1", "--batch-size", "8", *extra])
        assert rc == EXIT_OK
        assert len(calls) == (0 if name == "rerun" else 1), name
        histories.append(history.read_bytes())
    assert vocab_path.is_file()
    assert histories[0] == histories[1] == histories[2]


def test_train_without_kg_when_context_disabled(workspace, tmp_path, capsys):
    ckpt = tmp_path / "noctx.npz"
    rc = main(["train", "--data", str(workspace["train"]), "--out", str(ckpt),
               "--max-triples", "0", "--max-seq-len", "64", "--epochs", "1",
               "--batch-size", "8"])
    assert rc == EXIT_OK
    assert ckpt.is_file()


def test_train_context_requires_kg_flag(workspace, tmp_path, capsys):
    rc = main(["train", "--data", str(workspace["train"]),
               "--out", str(tmp_path / "m.npz"), "--max-seq-len", "64"])
    assert rc == EXIT_USAGE
    assert "--kg" in capsys.readouterr().err


def test_train_missing_kg_directory_is_data_error(workspace, tmp_path, capsys):
    rc = main(["train", "--data", str(workspace["train"]),
               "--kg", str(tmp_path / "nowhere"),
               "--out", str(tmp_path / "m.npz"), "--max-seq-len", "64"])
    assert rc == EXIT_DATA


def test_train_missing_data_file_is_data_error(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "absent.jsonl"),
               "--out", str(tmp_path / "m.npz"), "--max-triples", "0"])
    assert rc == EXIT_DATA


def test_train_abort_maps_to_exit_three(workspace, tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise TrainingAborted("non-finite loss at epoch 0 batch 0")

    monkeypatch.setattr("kgned.cli.train", boom)
    rc = main(["train", "--data", str(workspace["train"]),
               "--kg", str(workspace["kg"]), "--out", str(tmp_path / "m.npz"),
               "--max-seq-len", "64", "--epochs", "1"])
    assert rc == EXIT_ABORT
    assert "epoch 0 batch 0" in capsys.readouterr().err


def test_train_model_cfg_rejects_unknown_key(workspace, tmp_path, capsys):
    bad = tmp_path / "model.cfg"
    bad.write_text("optimizer=sgd\n", encoding="utf-8")
    rc = main(["train", "--data", str(workspace["train"]),
               "--kg", str(workspace["kg"]), "--out", str(tmp_path / "m.npz"),
               "--model-cfg", str(bad), "--max-seq-len", "64"])
    assert rc == EXIT_DATA


def test_train_model_cfg_uncoercible_value_is_data_error(workspace, tmp_path, capsys):
    bad = tmp_path / "model.cfg"
    bad.write_text("d_model=abc\n", encoding="utf-8")
    rc = main(["train", "--data", str(workspace["train"]),
               "--kg", str(workspace["kg"]), "--out", str(tmp_path / "m.npz"),
               "--model-cfg", str(bad), "--max-seq-len", "64"])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert str(bad) in err and "'d_model'" in err


def test_train_writes_the_checkpoint_at_the_path_given(workspace, tmp_path, capsys):
    ckpt = tmp_path / "model.bin"
    rc = main(["train", "--data", str(workspace["train"]),
               "--kg", str(workspace["kg"]), "--out", str(ckpt),
               "--max-seq-len", "64", "--epochs", "1", "--batch-size", "8"])
    assert rc == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin",
                                                          "model.bin.history.json"]
    rc = main(["eval", "--data", str(workspace["eval"]), "--checkpoint", str(ckpt),
               "--kg", str(workspace["kg"])])
    assert rc == EXIT_OK


# -- eval ----------------------------------------------------------------


def test_eval_pairs_zero_model_matches_hand_computation(workspace, tmp_path, capsys):
    # Zero parameters give probability exactly 0.5 for every pair, and the
    # 0.5 threshold calls them all positive: tp = positives, fp = negatives.
    report_path = tmp_path / "report.json"
    rc = main(["eval", "--data", str(workspace["eval"]),
               "--checkpoint", str(workspace["zero"]),
               "--kg", str(workspace["kg"]), "--protocol", "pairs",
               "--report", str(report_path)])
    assert rc == EXIT_OK

    npos = nneg = 0
    for line in workspace["eval"].read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        npos += 1
        nneg += len(row["negatives"])
    metrics = json.loads(report_path.read_text(encoding="utf-8"))["metrics"]
    assert metrics["tp"] == npos
    assert metrics["fp"] == nneg
    assert metrics["fn"] == 0 and metrics["tn"] == 0
    assert metrics["n_pairs"] == npos + nneg
    precision = npos / (npos + nneg)
    assert metrics["precision"] == pytest.approx(precision, abs=1e-12)
    assert metrics["recall"] == 1.0
    assert metrics["f1"] == pytest.approx(2 * precision / (1 + precision), abs=1e-12)
    out = capsys.readouterr().out
    assert "recall: 100.00%" in out


def test_eval_argmax_single_candidate_data_is_perfect(workspace, tmp_path, capsys):
    # With one candidate per mention the argmax cannot miss, whatever the
    # model; this pins the protocol plumbing rather than model quality.
    forced = tmp_path / "single.jsonl"
    with open(forced, "w", encoding="utf-8") as fh:
        for example in workspace["corpus"].eval:
            row = example.to_json()
            row["candidates"] = [example.gold]
            row["negatives"] = []
            fh.write(json.dumps(row) + "\n")
    predictions_path = tmp_path / "preds.jsonl"
    report_path = tmp_path / "report.json"
    rc = main(["eval", "--data", str(forced), "--checkpoint", str(workspace["zero"]),
               "--kg", str(workspace["kg"]), "--protocol", "argmax",
               "--report", str(report_path), "--predictions", str(predictions_path)])
    assert rc == EXIT_OK
    metrics = json.loads(report_path.read_text(encoding="utf-8"))["metrics"]
    assert metrics["inkb_accuracy"] == 1.0
    assert metrics["n_mentions"] == len(workspace["corpus"].eval)

    gold = {e.id: e.gold for e in workspace["corpus"].eval}
    for line in predictions_path.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        assert row["predicted"] == gold[row["mention_id"]]
        assert row["score"] == pytest.approx(0.5)


def test_eval_missing_checkpoint_is_data_error(workspace, tmp_path, capsys):
    rc = main(["eval", "--data", str(workspace["eval"]),
               "--checkpoint", str(tmp_path / "absent.npz"),
               "--kg", str(workspace["kg"])])
    assert rc == EXIT_DATA


def test_eval_checkpoint_without_vocab_is_data_error(workspace, tmp_path, capsys):
    cfg = ModelConfig(vocab_size=8, d_model=8, n_layers=1, n_heads=2,
                      ffn_dim=16, n_segments=17, max_seq_len=64, dropout=0.0)
    bare = tmp_path / "bare.npz"
    save_checkpoint(str(bare), Classifier(cfg, seed=0))
    rc = main(["eval", "--data", str(workspace["eval"]), "--checkpoint", str(bare),
               "--kg", str(workspace["kg"])])
    assert rc == EXIT_DATA
    assert "vocab" in capsys.readouterr().err


@pytest.mark.parametrize("model_config", [None, '{"vocab_size": 40, "colour": "red"}'])
def test_eval_bad_checkpoint_config_is_data_error(workspace, tmp_path, model_config):
    with np.load(str(workspace["zero"]), allow_pickle=False) as data:
        arrays = dict(data)
    if model_config is None:
        del arrays["model_config"]
    else:
        arrays["model_config"] = np.array(model_config)
    bad = tmp_path / "bad-config.npz"
    np.savez(str(bad), **arrays)
    # A real process, so that an escaped exception would show as a traceback.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "kgned.cli", "eval", "--data", str(workspace["eval"]),
         "--checkpoint", str(bad), "--kg", str(workspace["kg"])],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_DATA
    assert str(bad) in proc.stderr
    assert "Traceback" not in proc.stderr


# -- diff ----------------------------------------------------------------


def _write_predictions(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for mention_id, predicted in rows:
            fh.write(json.dumps({"mention_id": mention_id,
                                 "predicted": predicted}) + "\n")


def _write_gold(path, golds):
    with open(path, "w", encoding="utf-8") as fh:
        for mention_id, gold in golds:
            fh.write(json.dumps({
                "id": mention_id,
                "sentence": "The thing is here.",
                "surface": "thing",
                "span": [4, 9],
                "gold": gold,
                "candidates": [gold or "QX", "QY"],
            }) + "\n")


def test_diff_identical_runs_report_zero_flips(tmp_path, capsys):
    gold_path = tmp_path / "gold.jsonl"
    _write_gold(gold_path, [("m1", "Q1"), ("m2", "Q2")])
    preds = tmp_path / "preds.jsonl"
    _write_predictions(preds, [("m1", "Q1"), ("m2", "QX")])
    rc = main(["diff", "--before", str(preds), "--after", str(preds),
               "--gold", str(gold_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "n_wrong_to_right: 0" in out
    assert "n_right_to_wrong: 0" in out


def test_diff_engineered_flips(tmp_path, capsys):
    gold_path = tmp_path / "gold.jsonl"
    _write_gold(gold_path, [("m1", "Q1"), ("m2", "Q2"), ("m3", "Q3"),
                            ("m4", "Q4"), ("m5", None)])
    before = tmp_path / "before.jsonl"
    after = tmp_path / "after.jsonl"
    _write_predictions(before, [("m1", "QX"), ("m2", "QX"), ("m3", "Q3"),
                                ("m4", "Q4"), ("m5", None)])
    _write_predictions(after, [("m1", "Q1"), ("m2", "Q2"), ("m3", "QX"),
                               ("m4", "Q4"), ("m5", "Q9")])
    report_path = tmp_path / "flips.json"
    rc = main(["diff", "--before", str(before), "--after", str(after),
               "--gold", str(gold_path), "--report", str(report_path)])
    assert rc == EXIT_OK
    metrics = json.loads(report_path.read_text(encoding="utf-8"))["metrics"]
    assert metrics["wrong_to_right"] == ["m1", "m2"]
    assert metrics["right_to_wrong"] == ["m3"]
    assert metrics["net"] == 1
    assert metrics["entities_gained"] == 2


def test_diff_invalid_predictions_file(tmp_path, capsys):
    gold_path = tmp_path / "gold.jsonl"
    _write_gold(gold_path, [("m1", "Q1")])
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"predicted": "Q1"}\n', encoding="utf-8")
    rc = main(["diff", "--before", str(bad), "--after", str(bad),
               "--gold", str(gold_path)])
    assert rc == EXIT_DATA


@pytest.mark.parametrize("command", ["train", "eval", "diff"])
def test_non_object_json_line_is_a_data_error(command, workspace, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n5\n", encoding="utf-8")
    argv = {
        "train": ["train", "--data", str(bad), "--kg", str(workspace["kg"]),
                  "--out", str(tmp_path / "m.npz")],
        "eval": ["eval", "--data", str(bad), "--kg", str(workspace["kg"]),
                 "--checkpoint", str(workspace["zero"])],
        "diff": ["diff", "--before", str(bad), "--after", str(bad),
                 "--gold", str(workspace["eval"])],
    }[command]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert f"{bad}:2: expected a JSON object" in err
    assert "Traceback" not in err


# -- disambiguate --------------------------------------------------------


def test_disambiguate_context_model_ranks_matching_topic_first(
        workspace, trained, capsys):
    rc = main(["disambiguate",
               "--sentence", "The national highway is a well known attraction in australia.",
               "--surface", "national highway",
               "--kg", str(workspace["kg"]), "--checkpoint", str(trained)])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    top_rank, top_entity, top_score, top_label = lines[0].split("\t")
    assert (top_rank, top_entity) == ("1", "Q1967298")
    assert top_label == "national highway"
    runner_up_score = float(lines[1].split("\t")[2])
    assert float(top_score) > runner_up_score


def test_disambiguate_finds_surface_case_insensitively(workspace, trained, capsys):
    rc = main(["disambiguate",
               "--sentence", "Officials in india announced upgrades to the National Highway.",
               "--surface", "national highway",
               "--kg", str(workspace["kg"]), "--checkpoint", str(trained)])
    assert rc == EXIT_OK
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_disambiguate_unknown_surface_reports_no_candidates(
        workspace, trained, capsys):
    rc = main(["disambiguate",
               "--sentence", "The unicorn palace is closed today.",
               "--surface", "unicorn palace",
               "--kg", str(workspace["kg"]), "--checkpoint", str(trained)])
    assert rc == EXIT_OK
    assert "no candidates" in capsys.readouterr().out


def test_disambiguate_surface_absent_from_sentence(workspace, trained, capsys):
    rc = main(["disambiguate",
               "--sentence", "Nothing relevant happens here.",
               "--surface", "national highway",
               "--kg", str(workspace["kg"]), "--checkpoint", str(trained)])
    assert rc == EXIT_DATA
    assert "does not occur" in capsys.readouterr().err


# -- fetch ---------------------------------------------------------------


def test_fetch_empty_entity_file_is_a_no_op(tmp_path, capsys):
    entities = tmp_path / "entities.txt"
    entities.write_text("# nothing but comments\n\n", encoding="utf-8")
    rc = main(["fetch", "--endpoint", "http://127.0.0.1:1/sparql",
               "--entities", str(entities), "--out", str(tmp_path / "cache")])
    assert rc == EXIT_OK
    assert "no entities" in capsys.readouterr().out


def test_fetch_then_rerun_uses_cache(mock, tmp_path, capsys):
    mock.seed_highway()
    mock.hop1["Q42"] = [triple_binding(
        uri_binding("http://p.example/P1"), literal_binding("answer"))]
    entities = tmp_path / "entities.txt"
    entities.write_text("Q1967298\nQ42\n", encoding="utf-8")
    cache = tmp_path / "cache"
    rc = main(["fetch", "--endpoint", mock.url, "--entities", str(entities),
               "--out", str(cache)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "Q1967298: fetched 3 triples" in out
    assert (cache / "triples.tsv").is_file()

    rc = main(["fetch", "--endpoint", mock.url, "--entities", str(entities),
               "--out", str(cache)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("cached, skipped") == 2


def test_fetch_honors_cap_flag(mock, tmp_path, capsys):
    mock.hop1["Q5"] = [triple_binding(uri_binding(f"http://p.example/P{i}"),
                                      literal_binding(f"t{i}"))
                       for i in range(10)]
    entities = tmp_path / "entities.txt"
    entities.write_text("Q5\n", encoding="utf-8")
    rc = main(["fetch", "--endpoint", mock.url, "--entities", str(entities),
               "--out", str(tmp_path / "cache"), "--cap", "2"])
    assert rc == EXIT_OK
    assert "fetched 2 triples" in capsys.readouterr().out


def test_fetch_all_failures_exit_three(mock, tmp_path, capsys):
    mock.behavior = "http-error"
    entities = tmp_path / "entities.txt"
    entities.write_text("Q1\nQ2\n", encoding="utf-8")
    rc = main(["fetch", "--endpoint", mock.url, "--entities", str(entities),
               "--out", str(tmp_path / "cache"), "--retries", "0"])
    assert rc == EXIT_ABORT
    assert "all fetches failed" in capsys.readouterr().err
