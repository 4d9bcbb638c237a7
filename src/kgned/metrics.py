"""Evaluation metrics and report plumbing.

Two protocols are supported downstream.  The pair protocol scores every
(mention, candidate) pair as an independent binary decision and reports
precision, recall, and F1 over the positive class.  The argmax protocol
picks one entity per mention and reports in-KB accuracy, meaning accuracy
over mentions whose gold entity exists at all; mentions annotated as
out-of-KB are excluded from the denominator.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

REPORT_FORMAT = "kgned-report"
REPORT_VERSION = 1


class ReportError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean; 0 when both inputs are 0 rather than dividing by zero.

    Scale-invariant, so it accepts precision and recall either as fractions
    or as percentage points.
    """
    if precision < 0 or recall < 0:
        raise ValueError("precision and recall must be non-negative")
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def prf(counts: ConfusionCounts) -> PRF:
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    return PRF(precision, recall, f1_score(precision, recall))


def pair_confusion(scored: list[tuple[float, int]], threshold: float = 0.5) -> ConfusionCounts:
    """Confusion counts for (probability, 0/1 label) pairs at a threshold."""
    tp = fp = fn = tn = 0
    for prob, label in scored:
        positive = prob >= threshold
        if positive and label == 1:
            tp += 1
        elif positive and label == 0:
            fp += 1
        elif not positive and label == 1:
            fn += 1
        else:
            tn += 1
    return ConfusionCounts(tp, fp, fn, tn)


def inkb_accuracy(predictions: dict[str, str | None], gold: dict[str, str | None]) -> float:
    """Accuracy over mentions whose gold entity is in the KB (non-null).

    Every gold mention id must have a prediction entry (possibly None).
    With no in-KB mentions at all the metric is undefined; returns NaN
    after warning instead of inventing a number.
    """
    missing = sorted(set(gold) - set(predictions))
    if missing:
        shown = ", ".join(missing[:5])
        raise ValueError(f"predictions missing for {len(missing)} gold mentions ({shown})")
    eligible = [m for m, entity in gold.items() if entity is not None]
    if not eligible:
        warnings.warn("no in-KB gold mentions; in-KB accuracy is undefined")
        return float("nan")
    correct = sum(1 for m in eligible if predictions[m] == gold[m])
    return correct / len(eligible)


@dataclass(frozen=True)
class FlipReport:
    """Mentions whose correctness changed between two prediction runs."""

    wrong_to_right: tuple[str, ...]
    right_to_wrong: tuple[str, ...]
    entities_gained: int
    entities_lost: int

    @property
    def net(self) -> int:
        return len(self.wrong_to_right) - len(self.right_to_wrong)


def flip_analysis(before: dict[str, str | None], after: dict[str, str | None],
                  gold: dict[str, str | None]) -> FlipReport:
    """Compare two prediction maps against gold, mention by mention.

    Only in-KB mentions participate.  The entity counts are the number of
    distinct gold entities behind each flip direction, which separates a
    broad improvement from repeated flips on one heavily-mentioned entity.
    """
    for name, preds in (("before", before), ("after", after)):
        missing = sorted(set(gold) - set(preds))
        if missing:
            raise ValueError(f"{name} predictions missing for mention {missing[0]!r}")
    wrong_to_right = []
    right_to_wrong = []
    gained = set()
    lost = set()
    for mention_id in sorted(gold):
        entity = gold[mention_id]
        if entity is None:
            continue
        was_right = before[mention_id] == entity
        is_right = after[mention_id] == entity
        if not was_right and is_right:
            wrong_to_right.append(mention_id)
            gained.add(entity)
        elif was_right and not is_right:
            right_to_wrong.append(mention_id)
            lost.add(entity)
    return FlipReport(tuple(wrong_to_right), tuple(right_to_wrong),
                      len(gained), len(lost))


def flip_report_dict(report: FlipReport) -> dict:
    return {
        "wrong_to_right": list(report.wrong_to_right),
        "right_to_wrong": list(report.right_to_wrong),
        "n_wrong_to_right": len(report.wrong_to_right),
        "n_right_to_wrong": len(report.right_to_wrong),
        "net": report.net,
        "entities_gained": report.entities_gained,
        "entities_lost": report.entities_lost,
    }


def make_report(metrics: dict, config: dict, seed: int | None = None,
                protocol: str | None = None) -> dict:
    """Self-describing result blob: metrics plus the configuration and seed
    that produced them, under a versioned format tag."""
    report = {
        "format": f"{REPORT_FORMAT}/{REPORT_VERSION}",
        "metrics": dict(metrics),
        "config": dict(config),
    }
    if seed is not None:
        report["seed"] = seed
    if protocol is not None:
        report["protocol"] = protocol
    return report


def _format_value(key: str, value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        if 0.0 <= value <= 1.0:
            return f"{100.0 * value:.2f}%"
        return f"{value:.4f}"
    return str(value)


def format_report(report: dict) -> str:
    """Readable rendering; fractional metrics come out as two-decimal
    percentages."""
    lines = [report.get("format", "")]
    if "protocol" in report:
        lines.append(f"protocol: {report['protocol']}")
    if "seed" in report:
        lines.append(f"seed: {report['seed']}")
    for key in sorted(report.get("metrics", {})):
        lines.append(f"{key}: {_format_value(key, report['metrics'][key])}")
    for key in sorted(report.get("config", {})):
        lines.append(f"config.{key}: {report['config'][key]}")
    return "\n".join(lines) + "\n"


def write_report(path: str, report: dict) -> None:
    if report.get("format") != f"{REPORT_FORMAT}/{REPORT_VERSION}":
        raise ReportError(f"refusing to write report with format {report.get('format')!r}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ReportError(f"{path}: not valid JSON ({exc.msg})") from exc
    fmt = report.get("format")
    if fmt != f"{REPORT_FORMAT}/{REPORT_VERSION}":
        raise ReportError(f"{path}: unsupported report format {fmt!r}")
    return report
