"""A tour of the evaluation toolbox: pair metrics, mention metrics, flip
analysis, and the report files everything gets written into.

The classifier scores (sentence, candidate) pairs, so there are two
natural views of quality: precision/recall/F1 over the pair decisions at
a threshold, and accuracy over mentions after the per-mention argmax.
Flip analysis then explains a delta between two runs mention by mention.
"""

import json
import tempfile
from pathlib import Path

from kgned.metrics import (ConfusionCounts, f1_score, flip_analysis,
                           flip_report_dict, format_report, inkb_accuracy,
                           make_report, pair_confusion, prf, write_report)

# Pair-level metrics straight from a confusion table.
counts = ConfusionCounts(tp=8, fp=2, fn=4, tn=16)
scores = prf(counts)
print(f"counts: {counts}")
print(f"precision {scores.precision:.4f}  recall {scores.recall:.4f}  "
      f"f1 {scores.f1:.4f}")

# f1_score is scale invariant, so it also takes percentage points as
# printed in results tables.
print(f"\nf1 from percentages: f1(88.40, 91.20) = {f1_score(88.40, 91.20):.2f}")

# Or build the confusion table from raw (probability, label) pairs.
scored = [(0.91, 1), (0.72, 1), (0.55, 0), (0.40, 1), (0.08, 0), (0.03, 0)]
from_scores = pair_confusion(scored, threshold=0.5)
print(f"\npair_confusion at 0.5: {from_scores} -> f1 {prf(from_scores).f1:.4f}")

# Mention-level accuracy ignores out-of-KB mentions (gold None); a None
# prediction on an in-KB mention simply counts as wrong.
gold = {"m1": "Q1", "m2": "Q2", "m3": "Q3", "m4": None}
predictions = {"m1": "Q1", "m2": "Q9", "m3": None, "m4": None}
print(f"\nin-KB accuracy: {inkb_accuracy(predictions, gold):.4f} "
      f"(1 of 3 in-KB mentions correct, m4 ignored)")

# Flip analysis between a baseline run and a contextful run.
baseline = {"m1": "Q9", "m2": "Q9", "m3": "Q3", "m4": None}
with_context = {"m1": "Q1", "m2": "Q2", "m3": "Q8", "m4": None}
flips = flip_analysis(baseline, with_context, gold)
print(f"\nflips: {flips.wrong_to_right} went right, "
      f"{flips.right_to_wrong} went wrong, net {flips.net:+d}")
print(f"as a dict: {flip_report_dict(flips)}")

# Reports bundle metrics with the config and seed that produced them,
# under a versioned format tag, so a result file is self-describing.
report = make_report(
    metrics={"precision": scores.precision, "recall": scores.recall,
             "f1": scores.f1, "pairs": counts.total},
    config={"hops": "1", "max_triples": 15, "threshold": 0.5},
    seed=11, protocol="pairs")
print("\nformatted report:")
print(format_report(report))

with tempfile.TemporaryDirectory() as scratch:
    path = Path(scratch) / "report.json"
    write_report(str(path), report)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    print(f"round trip through {path.name}: loaded == original is {loaded == report}")
