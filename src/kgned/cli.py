"""Command-line entry point.

Subcommands cover the full pipeline: ``fetch`` pulls KG neighborhoods into
a local cache, ``train`` fits the classifier, ``eval`` scores a dataset
under either protocol, ``diff`` compares two prediction files, and
``disambiguate`` resolves one mention interactively.

Each setting is one row of ``SETTINGS``.  Precedence is flags > environment
(``KGNED_`` prefix) > config file (JSON or ``key=value`` lines) > defaults,
and ``train --model-cfg`` overrides all of them for the model keys.  The
resolved semantic configuration (never file paths) is echoed into every
report so that identical runs produce identical bytes.

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .assembly import Mention
from .candidates import MODE_CONTAINS, MODE_EXACT, build_index, lookup
from .context import ContextConfig
from .data import (DatasetError, EncodingPipeline, iter_json_objects, load_jsonl, to_pairs,
                   vocab_lines)
from .kg import HOP_ONE, HOP_ONE_TWO, TripleStore, load_store
from .metrics import (flip_analysis, flip_report_dict, format_report, inkb_accuracy,
                      make_report, pair_confusion, prf, write_report)
from .model import (CheckpointError, Classifier, ModelConfig, TrainConfig,
                    TrainingAborted, load_checkpoint, predict, save_checkpoint, score,
                    train)
from .sparql import EndpointError, FetchError, ProtocolError, fetch_many
from .tokenizer import build_vocab, load_vocab, save_vocab

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ABORT = 3

ENV_PREFIX = "KGNED_"

HISTORY_FORMAT = "kgned-history/1"


@dataclass(frozen=True)
class Setting:
    """One configuration key.  Its values take the type of ``default``:
    booleans, nulls, lists and objects are rejected, and so is a
    non-integral number for an int key.  When ``choices`` is not empty the
    value must be one of them."""

    key: str
    default: int | float | str
    choices: tuple[str, ...] = ()
    flags: dict[str, str] = field(default_factory=dict)  # command -> flag
    echo: tuple[str, ...] = ()  # commands whose history or report echoes it
    model: bool = False  # ``train --model-cfg`` may set it


_CTX, _TRAIN, _MODEL = ContextConfig(), TrainConfig(), ModelConfig(vocab_size=1)
_T, _TE = ("train",), ("train", "eval")  # the commands that echo a setting

SETTINGS = {s.key: s for s in (
    Setting("hops", "1", ("1", "12"), {"fetch": "--hops", "train": "--ctx-hops"}, _TE),
    Setting("max_triples", _CTX.max_triples, flags={"train": "--max-triples"}, echo=_TE),
    Setting("max_seq_len", _CTX.max_seq_len, flags={"train": "--max-seq-len"}, echo=_TE),
    Setting("seed", _TRAIN.seed, flags={"train": "--seed", "eval": "--seed"}, echo=_TE),
    Setting("lr", _TRAIN.learning_rate, flags={"train": "--lr"}, echo=_T),
    Setting("batch_size", _TRAIN.batch_size, flags={"train": "--batch-size"}, echo=_T),
    Setting("epochs", _TRAIN.epochs, flags={"train": "--epochs"}, echo=_T),
    Setting("clip_norm", _TRAIN.clip_norm, echo=_T),
    Setting("cap", 50, flags={"fetch": "--cap"}),
    Setting("protocol", "pairs", ("pairs", "argmax"), {"eval": "--protocol"}, ("eval",)),
    Setting("match", MODE_EXACT, (MODE_EXACT, MODE_CONTAINS), {"disambiguate": "--match"}),
    Setting("d_model", _MODEL.d_model, echo=_T, model=True),
    Setting("n_layers", _MODEL.n_layers, echo=_T, model=True),
    Setting("n_heads", _MODEL.n_heads, echo=_T, model=True),
    Setting("ffn_dim", _MODEL.ffn_dim, echo=_T, model=True),
    Setting("dropout", _MODEL.dropout, echo=_T, model=True),
)}

DEFAULTS = {key: s.default for key, s in SETTINGS.items()}


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
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(path, data.count(b"\n", 0, exc.start) + 1,
                           f"not UTF-8: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatasetError(path, exc.lineno, f"invalid JSON: {exc}") from exc
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


def _coerce(setting: Setting, value, error):
    """``value`` converted to ``setting``'s type and checked against its
    choices; a value that does not fit raises ``error(message)``."""
    kind = type(setting.default)
    try:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise TypeError("not a number or a string")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("not an integer")
        converted = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"bad value {value!r} for {setting.key!r} ({exc})") from exc
    if setting.choices and converted not in setting.choices:
        raise error(f"{setting.key!r} must be one of {setting.choices}, got {converted!r}")
    return converted


def _read_settings(path: str, keys, unknown) -> dict:
    """The settings in config file ``path``, converted; a key outside
    ``keys`` raises ``unknown(key)``."""
    raw = load_config_file(path)
    for key in raw:
        if key not in keys:
            raise unknown(key)
    return {key: _coerce(SETTINGS[key], value, lambda message: DatasetError(path, 0, message))
            for key, value in raw.items()}


def resolve_config(args: argparse.Namespace, environ=None) -> dict:
    """Merge flag / env / file / default values for every setting."""
    environ = os.environ if environ is None else environ
    path = getattr(args, "config", None)
    file_cfg = _read_settings(path, SETTINGS, lambda key: UsageError(
        f"unknown config key {key!r} in {path}")) if path else {}
    resolved = {}
    for key, setting in SETTINGS.items():
        value = file_cfg.get(key, setting.default)
        env_key = ENV_PREFIX + key.upper()
        if env_key in environ:
            value = _coerce(setting, environ[env_key],
                            lambda message: UsageError(f"{env_key}: {message}"))
        if getattr(args, key, None) is not None:
            value = _coerce(setting, getattr(args, key), UsageError)
        resolved[key] = value
    return resolved


def _echo(config: dict, command: str) -> dict:
    return {key: config[key] for key, s in SETTINGS.items() if command in s.echo}


def _context(config: dict) -> ContextConfig:
    return ContextConfig(hops=hops_value(config["hops"]), max_triples=config["max_triples"],
                         max_seq_len=config["max_seq_len"])


def _load_kg(kg_dir: str | None, ctx: ContextConfig, need: bool = False) -> TripleStore | None:
    """The KG at ``kg_dir`` when ``ctx`` uses triples or ``need`` is set."""
    if not (need or ctx.max_triples > 0):
        return None
    if not kg_dir:
        raise UsageError("--kg is required when the context uses triples (max-triples > 0)")
    root = Path(kg_dir)
    triples, labels = root / "triples.tsv", root / "labels.tsv"
    if not triples.is_file() or not labels.is_file():
        raise DatasetError(str(root), 0,
                           "KG directory must contain triples.tsv and labels.tsv")
    return load_store(str(triples), str(labels))


def _load_scorer(args, config, need_kg: bool = False) -> tuple[Classifier, EncodingPipeline]:
    """The checkpoint's model and a pipeline for its embedded vocab and
    context config, or ``config``'s context when it has none."""
    bundle = load_checkpoint(args.checkpoint)
    if bundle.vocab is None:
        raise CheckpointError(f"{args.checkpoint}: no embedded vocab")
    ctx = bundle.ctx or _context(config)
    store = _load_kg(args.kg, ctx, need_kg)
    return bundle.model, EncodingPipeline(vocab=bundle.vocab, ctx=ctx, store=store)


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
    ctx = _context(config)
    store = _load_kg(args.kg, ctx)
    model_keys = [key for key, s in SETTINGS.items() if s.model]
    if args.model_cfg:
        config.update(_read_settings(args.model_cfg, model_keys, lambda key: DatasetError(
            args.model_cfg, 0, f"unknown model key {key!r}")))

    if args.vocab and Path(args.vocab).is_file():
        vocab = load_vocab(args.vocab)
    else:  # the KG's texts are read only when the vocab must be built
        vocab = build_vocab(vocab_lines(examples, store))
        if args.vocab:
            save_vocab(vocab, args.vocab)
    pairs = to_pairs(examples)
    if not pairs:
        raise DatasetError(args.data, 0, "dataset produced no training pairs")
    batch = EncodingPipeline(vocab=vocab, ctx=ctx, store=store).encode_pairs(pairs)

    model_cfg = ModelConfig(vocab_size=vocab.size, n_segments=ctx.n_segments,
                            max_seq_len=ctx.max_seq_len,
                            **{key: config[key] for key in model_keys})
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
        "config": _echo(config, "train"),
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
    model, pipeline = _load_scorer(args, config)
    examples = load_jsonl(args.data)
    echo = {**_echo(config, "eval"), **asdict(pipeline.ctx)}

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
        metrics = {
            "inkb_accuracy": inkb_accuracy(predictions, gold),
            "n_mentions": len(examples),
            "n_inkb": sum(1 for g in gold.values() if g is not None),
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
        mention_id, predicted = obj["mention_id"], obj["predicted"]
        if not isinstance(mention_id, str) or not isinstance(predicted, (str, type(None))):
            raise DatasetError(path, line_no,
                               "mention_id must be a string and predicted a string or null")
        out[mention_id] = predicted
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
    model, pipeline = _load_scorer(args, config, need_kg=True)
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

    store = pipeline.store
    candidates = lookup(build_index(store), surface, mode=config["match"])
    if not candidates.entities:
        print("no candidates")
        return EXIT_OK
    outcome = predict(model, mention, list(candidates.entities), pipeline)
    ranked = sorted(outcome.scores, key=lambda e: (-outcome.scores[e], e))
    for rank, entity in enumerate(ranked, start=1):
        label = store.primary_label(entity)
        print(f"{rank}\t{entity}\t{outcome.scores[entity]:.4f}\t{label}")
    return EXIT_OK


# -- wiring --------------------------------------------------------------


def _add_setting_flags(parser: argparse.ArgumentParser, command: str) -> None:
    for key, s in SETTINGS.items():
        if command in s.flags:
            kind = {"choices": list(s.choices)} if s.choices else {"type": type(s.default)}
            parser.add_argument(s.flags[command], dest=key, **kind)


def build_parser() -> _Parser:
    parser = _Parser(prog="kgned",
                     description="Entity disambiguation with KG triple context")
    parser.add_argument("--config", help="JSON or key=value config file")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("fetch", help="fetch entity neighborhoods into a KG cache")
    p.add_argument("--endpoint", required=True)
    p.add_argument("--entities", required=True, help="file with one entity id per line")
    _add_setting_flags(p, "fetch")
    p.add_argument("--out", required=True, help="cache directory")
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--max-workers", type=int, default=4)
    p.set_defaults(handler=cmd_fetch)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--data", required=True, help="mention JSONL")
    p.add_argument("--kg", help="directory with triples.tsv and labels.tsv")
    p.add_argument("--vocab", help="vocab file; built and saved if absent")
    p.add_argument("--model-cfg", help="JSON or key=value model settings")
    _add_setting_flags(p, "train")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", help="loss history JSON (default: <out>.history.json)")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--kg", help="KG directory (needed when the model uses context)")
    _add_setting_flags(p, "eval")
    p.add_argument("--report", help="write report JSON here")
    p.add_argument("--predictions", help="write per-mention predictions JSONL (argmax)")
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
    _add_setting_flags(p, "disambiguate")
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
    except (ValueError, CheckpointError, FileNotFoundError, NotADirectoryError,
            IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingAborted, FetchError, EndpointError, ProtocolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
