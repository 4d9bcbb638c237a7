"""Command-line entry point.

Subcommands cover the full pipeline: ``fetch`` pulls KG neighborhoods into
a local cache, ``train`` fits the classifier, ``eval`` scores a dataset
under either protocol, ``diff`` compares two prediction files, and
``disambiguate`` resolves one mention interactively.

Configuration precedence is flags > environment (``KGNED_`` prefix) >
config file (JSON or ``key=value`` lines) > defaults.  The resolved
semantic configuration (never file paths) is echoed into every report so
that identical runs produce identical bytes.

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .assembly import Mention
from .candidates import MODE_CONTAINS, MODE_EXACT, build_index, lookup
from .context import ContextConfig
from .data import (DatasetError, EncodingPipeline, iter_json_objects, load_jsonl, to_pairs,
                   vocab_lines)
from .kg import HOP_ONE, HOP_ONE_TWO, ParseError, TripleStore, load_store
from .metrics import (ReportError, flip_analysis, flip_report_dict, format_report,
                      inkb_accuracy, make_report, pair_confusion, prf, write_report)
from .model import (CheckpointError, Classifier, ModelConfig, TrainConfig,
                    TrainingAborted, load_checkpoint, predict, save_checkpoint, score,
                    train)
from .sparql import EndpointError, FetchError, ProtocolError, fetch_many
from .tokenizer import Vocab, build_vocab, load_vocab, save_vocab

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ABORT = 3

ENV_PREFIX = "KGNED_"

HISTORY_FORMAT = "kgned-history/1"

DEFAULTS = {
    "hops": "1",
    "max_triples": 15,
    "max_seq_len": 512,
    "seed": 0,
    "lr": 1e-3,
    "batch_size": 16,
    "epochs": 10,
    "clip_norm": 1.0,
    "cap": 50,
    "protocol": "pairs",
    "match": MODE_EXACT,
    "d_model": 64,
    "n_layers": 2,
    "n_heads": 2,
    "ffn_dim": 128,
    "dropout": 0.1,
}

_COERCE = {
    "max_triples": int, "max_seq_len": int, "seed": int, "batch_size": int,
    "epochs": int, "cap": int, "d_model": int, "n_layers": int, "n_heads": int,
    "ffn_dim": int, "lr": float, "clip_norm": float, "dropout": float,
    "hops": str, "protocol": str, "match": str,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the exit-code contract
    # reserves 2 for data errors, so usage problems are re-raised instead.
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def hops_value(flag: str) -> str:
    return HOP_ONE_TWO if flag == "12" else HOP_ONE


def load_config_file(path: str) -> dict:
    """JSON object, or ``key=value`` lines with # comments."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise DatasetError(path, 1, "config JSON must be an object")
        return obj
    out = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DatasetError(path, line_no, f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _coerce(key: str, value, error):
    """``value`` converted to ``key``'s type; a value that does not convert
    raises ``error(message)``."""
    try:
        return _COERCE[key](value)
    except (TypeError, ValueError) as exc:
        raise error(f"bad value {value!r} for {key!r} ({exc})") from exc


def _file_error(path: str):
    return lambda message: DatasetError(path, 0, message)


def resolve_config(args: argparse.Namespace, environ=None) -> dict:
    """Merge flag / env / file / default values for every semantic key."""
    environ = os.environ if environ is None else environ
    file_cfg = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key in file_cfg:
        if key not in DEFAULTS:
            raise UsageError(f"unknown config key {key!r} in {args.config}")
    resolved = {}
    for key, default in DEFAULTS.items():
        value = default
        if key in file_cfg:
            value = _coerce(key, file_cfg[key], _file_error(args.config))
        env_key = ENV_PREFIX + key.upper()
        if env_key in environ:
            value = _coerce(key, environ[env_key],
                            lambda message: UsageError(f"{env_key}: {message}"))
        flag = getattr(args, key, None)
        if flag is not None:
            value = _coerce(key, flag, UsageError)
        resolved[key] = value
    if resolved["hops"] not in ("1", "12"):
        raise UsageError(f"hops must be 1 or 12, got {resolved['hops']!r}")
    if resolved["protocol"] not in ("pairs", "argmax"):
        raise UsageError(f"protocol must be pairs or argmax, got {resolved['protocol']!r}")
    if resolved["match"] not in (MODE_EXACT, MODE_CONTAINS):
        raise UsageError(f"match must be exact or contains, got {resolved['match']!r}")
    return resolved


def _config_echo(config: dict, keys: tuple[str, ...]) -> dict:
    return {key: config[key] for key in keys}


_TRAIN_KEYS = ("hops", "max_triples", "max_seq_len", "seed", "lr", "batch_size",
               "epochs", "clip_norm", "d_model", "n_layers", "n_heads",
               "ffn_dim", "dropout")
_EVAL_KEYS = ("protocol", "hops", "max_triples", "max_seq_len", "seed")


def _load_kg(kg_dir: str) -> TripleStore:
    root = Path(kg_dir)
    triples = root / "triples.tsv"
    labels = root / "labels.tsv"
    if not triples.is_file() or not labels.is_file():
        raise DatasetError(str(root), 0,
                           "KG directory must contain triples.tsv and labels.tsv")
    return load_store(str(triples), str(labels))


def _ensure_vocab(path: str | None, make_lines) -> Vocab:
    """The vocab at ``path`` if that file exists; otherwise one built from
    ``make_lines()``, called only then, and saved to ``path`` when given."""
    if path and Path(path).is_file():
        return load_vocab(path)
    vocab = build_vocab(make_lines())
    if path:
        save_vocab(vocab, path)
    return vocab


# -- subcommands ---------------------------------------------------------


def cmd_fetch(args, config) -> int:
    entities = []
    for line in Path(args.entities).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entities.append(line)
    if not entities:
        print("no entities to fetch")
        return EXIT_OK
    results = fetch_many(args.endpoint, entities, hops=hops_value(config["hops"]),
                         cap=config["cap"], cache_dir=args.out,
                         retries=args.retries, max_workers=args.max_workers)
    failures = 0
    for entity in entities:
        outcome = results[entity]
        if isinstance(outcome, Exception):
            failures += 1
            print(f"{entity}: {outcome}", file=sys.stderr)
        elif outcome.from_cache:
            print(f"{entity}: cached, skipped")
        else:
            print(f"{entity}: fetched {len(outcome.triples)} triples, "
                  f"{len(outcome.labels)} labels")
    if failures == len(entities):
        print("all fetches failed", file=sys.stderr)
        return EXIT_ABORT
    return EXIT_OK


def cmd_train(args, config) -> int:
    examples = load_jsonl(args.data)
    ctx = ContextConfig(hops=hops_value(config["hops"]),
                        max_triples=config["max_triples"],
                        max_seq_len=config["max_seq_len"])
    store = None
    if ctx.max_triples > 0:
        if not args.kg:
            raise UsageError("--kg is required when max-triples > 0")
        store = _load_kg(args.kg)
    if args.model_cfg:
        overrides = load_config_file(args.model_cfg)
        for key in overrides:
            if key not in ("d_model", "n_layers", "n_heads", "ffn_dim", "dropout"):
                raise DatasetError(args.model_cfg, 0, f"unknown model key {key!r}")
            config[key] = _coerce(key, overrides[key], _file_error(args.model_cfg))

    vocab = _ensure_vocab(args.vocab, lambda: vocab_lines(examples, store))
    pairs = to_pairs(examples)
    if not pairs:
        raise DatasetError(args.data, 0, "dataset produced no training pairs")
    batch = EncodingPipeline(vocab=vocab, ctx=ctx, store=store).encode_pairs(pairs)

    model_cfg = ModelConfig(vocab_size=vocab.size, d_model=config["d_model"],
                            n_layers=config["n_layers"], n_heads=config["n_heads"],
                            ffn_dim=config["ffn_dim"], n_segments=ctx.n_segments,
                            max_seq_len=ctx.max_seq_len, dropout=config["dropout"])
    model = Classifier(model_cfg, seed=config["seed"])
    train_cfg = TrainConfig(learning_rate=config["lr"], batch_size=config["batch_size"],
                            epochs=config["epochs"], seed=config["seed"],
                            clip_norm=config["clip_norm"])
    result = train(model, batch, train_cfg)

    save_checkpoint(args.out, model, vocab=vocab, ctx=ctx)
    history_path = args.history or args.out + ".history.json"
    history = {
        "format": HISTORY_FORMAT,
        "seed": config["seed"],
        "config": _config_echo(config, _TRAIN_KEYS),
        "history": result.history,
    }
    with open(history_path, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"trained {train_cfg.epochs} epochs on {len(batch)} pairs, "
          f"final loss {result.history[-1]:.6f}")
    print(f"checkpoint: {args.out}")
    return EXIT_OK


def cmd_eval(args, config) -> int:
    bundle = load_checkpoint(args.checkpoint)
    model = bundle.model
    if bundle.vocab is None:
        raise CheckpointError(f"{args.checkpoint}: no embedded vocab; cannot evaluate")
    ctx = bundle.ctx or ContextConfig(hops=hops_value(config["hops"]),
                                      max_triples=config["max_triples"],
                                      max_seq_len=config["max_seq_len"])
    store = None
    if ctx.max_triples > 0:
        if not args.kg:
            raise UsageError("--kg is required when the checkpoint uses context")
        store = _load_kg(args.kg)
    examples = load_jsonl(args.data)
    pipeline = EncodingPipeline(vocab=bundle.vocab, ctx=ctx, store=store)

    echo = _config_echo(config, _EVAL_KEYS)
    echo["hops"] = ctx.hops
    echo["max_triples"] = ctx.max_triples
    echo["max_seq_len"] = ctx.max_seq_len

    if config["protocol"] == "pairs":
        pairs = to_pairs(examples)
        probs = score(model, [inp for inp, _ in pipeline.encode_pairs(pairs)])
        counts = pair_confusion([(float(p), pair.label) for p, pair in zip(probs, pairs)])
        measures = prf(counts)
        metrics = {
            "precision": measures.precision,
            "recall": measures.recall,
            "f1": measures.f1,
            "tp": counts.tp, "fp": counts.fp, "fn": counts.fn, "tn": counts.tn,
            "n_pairs": counts.total,
        }
    else:
        predictions: dict[str, str | None] = {}
        best_scores: dict[str, float] = {}
        for example in examples:
            outcome = predict(model, example.to_mention(),
                              list(example.candidates), pipeline)
            predictions[example.id] = outcome.chosen
            if outcome.chosen is not None:
                best_scores[example.id] = outcome.scores[outcome.chosen]
        gold = {example.id: example.gold for example in examples}
        accuracy = inkb_accuracy(predictions, gold)
        n_inkb = sum(1 for g in gold.values() if g is not None)
        metrics = {
            "inkb_accuracy": accuracy,
            "n_mentions": len(examples),
            "n_inkb": n_inkb,
        }
        if args.predictions:
            with open(args.predictions, "w", encoding="utf-8") as fh:
                for example in examples:
                    fh.write(json.dumps({
                        "mention_id": example.id,
                        "predicted": predictions[example.id],
                        "score": best_scores.get(example.id),
                    }, sort_keys=True) + "\n")

    report = make_report(metrics, echo, seed=config["seed"], protocol=config["protocol"])
    print(format_report(report), end="")
    if args.report:
        write_report(args.report, report)
    return EXIT_OK


def _read_predictions(path: str) -> dict[str, str | None]:
    out: dict[str, str | None] = {}
    for line_no, obj in iter_json_objects(path):
        if "mention_id" not in obj or "predicted" not in obj:
            raise DatasetError(path, line_no, "need mention_id and predicted fields")
        out[str(obj["mention_id"])] = obj["predicted"]
    return out


def cmd_diff(args, config) -> int:
    before = _read_predictions(args.before)
    after = _read_predictions(args.after)
    gold = {example.id: example.gold for example in load_jsonl(args.gold)}
    flips = flip_analysis(before, after, gold)
    report = make_report(flip_report_dict(flips), {}, seed=config["seed"])
    print(format_report(report), end="")
    if args.report:
        write_report(args.report, report)
    return EXIT_OK


def cmd_disambiguate(args, config) -> int:
    store = _load_kg(args.kg)
    bundle = load_checkpoint(args.checkpoint)
    if bundle.vocab is None:
        raise CheckpointError(f"{args.checkpoint}: no embedded vocab")
    ctx = bundle.ctx or ContextConfig(hops=hops_value(config["hops"]),
                                      max_triples=config["max_triples"],
                                      max_seq_len=config["max_seq_len"])
    sentence = args.sentence
    surface = args.surface
    start = sentence.find(surface)
    if start < 0:
        lowered = sentence.lower().find(surface.lower())
        if lowered < 0:
            raise DatasetError("<sentence>", 0,
                               f"surface {surface!r} does not occur in the sentence")
        start = lowered
        surface = sentence[start:start + len(surface)]
    mention = Mention.make(sentence, start, start + len(surface))

    index = build_index(store)
    candidates = lookup(index, surface, mode=config["match"])
    if not candidates.entities:
        print("no candidates")
        return EXIT_OK
    pipeline = EncodingPipeline(vocab=bundle.vocab, ctx=ctx, store=store)
    outcome = predict(bundle.model, mention, list(candidates.entities), pipeline)
    ranked = sorted(outcome.scores, key=lambda e: (-outcome.scores[e], e))
    for rank, entity in enumerate(ranked, start=1):
        label = store.primary_label(entity)
        print(f"{rank}\t{entity}\t{outcome.scores[entity]:.4f}\t{label}")
    return EXIT_OK


# -- wiring --------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="kgned",
                     description="Entity disambiguation with KG triple context")
    parser.add_argument("--config", help="JSON or key=value config file")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("fetch", help="fetch entity neighborhoods into a KG cache")
    p.add_argument("--endpoint", required=True)
    p.add_argument("--entities", required=True, help="file with one entity id per line")
    p.add_argument("--hops", choices=["1", "12"])
    p.add_argument("--cap", type=int)
    p.add_argument("--out", required=True, help="cache directory")
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--max-workers", type=int, default=4)
    p.set_defaults(handler=cmd_fetch)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--data", required=True, help="mention JSONL")
    p.add_argument("--kg", help="directory with triples.tsv and labels.tsv")
    p.add_argument("--vocab", help="vocab file; built and saved if absent")
    p.add_argument("--ctx-hops", dest="hops", choices=["1", "12"])
    p.add_argument("--max-triples", type=int, dest="max_triples")
    p.add_argument("--max-seq-len", type=int, dest="max_seq_len")
    p.add_argument("--model-cfg", help="JSON or key=value model settings")
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--epochs", type=int)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", help="loss history JSON (default: <out>.history.json)")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--kg", help="KG directory (needed when the model uses context)")
    p.add_argument("--protocol", choices=["pairs", "argmax"])
    p.add_argument("--report", help="write report JSON here")
    p.add_argument("--predictions", help="write per-mention predictions JSONL (argmax)")
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("diff", help="flip analysis between two prediction files")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--gold", required=True, help="mention JSONL with gold entities")
    p.add_argument("--report")
    p.set_defaults(handler=cmd_diff)

    p = sub.add_parser("disambiguate", help="resolve one mention against the KG")
    p.add_argument("--sentence", required=True)
    p.add_argument("--surface", required=True)
    p.add_argument("--kg", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--match", choices=[MODE_EXACT, MODE_CONTAINS])
    p.set_defaults(handler=cmd_disambiguate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "handler", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        config = resolve_config(args)
        return args.handler(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (DatasetError, ParseError, CheckpointError, ReportError,
            FileNotFoundError, NotADirectoryError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingAborted, FetchError, EndpointError, ProtocolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
