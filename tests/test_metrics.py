"""Pair-level confusion metrics, in-KB accuracy, flip analysis, reports."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgned.metrics import (
    ConfusionCounts,
    FlipReport,
    ReportError,
    f1_score,
    flip_analysis,
    flip_report_dict,
    format_report,
    inkb_accuracy,
    make_report,
    pair_confusion,
    prf,
    read_report,
    write_report,
)


# -- precision / recall / F1 ---------------------------------------------


def test_f1_published_operating_points():
    # Two known (precision, recall) pairs with their reported F1 values,
    # quoted in percentage points.
    assert f1_score(91.48, 93.23) == pytest.approx(92.35, abs=0.01)
    assert f1_score(96.39, 89.11) == pytest.approx(92.61, abs=0.01)


def test_f1_zero_convention_and_bounds():
    assert f1_score(0.0, 0.0) == 0.0
    assert f1_score(0.0, 1.0) == 0.0
    assert f1_score(1.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        f1_score(-0.1, 0.5)
    with pytest.raises(ValueError):
        f1_score(0.5, -0.1)


def test_f1_is_symmetric_and_scale_invariant():
    assert f1_score(0.3, 0.8) == f1_score(0.8, 0.3)
    assert f1_score(30.0, 80.0) == pytest.approx(100.0 * f1_score(0.3, 0.8))


def test_prf_fixture():
    out = prf(ConfusionCounts(tp=8, fp=2, fn=4, tn=6))
    assert out.precision == pytest.approx(0.8)
    assert out.recall == pytest.approx(8 / 12)
    assert out.f1 == pytest.approx(16 / 22)


def test_prf_degenerate_counts():
    empty = prf(ConfusionCounts())
    assert (empty.precision, empty.recall, empty.f1) == (0.0, 0.0, 0.0)
    no_positives_predicted = prf(ConfusionCounts(fn=3, tn=5))
    assert no_positives_predicted.precision == 0.0
    assert no_positives_predicted.recall == 0.0


def test_confusion_counts_total():
    assert ConfusionCounts(11, 22, 33, 44).total == 110


def test_pair_confusion_threshold_boundary():
    counts = pair_confusion([(0.5, 1), (0.5, 0), (0.49, 1), (0.49, 0)])
    # probability exactly at the threshold counts as a positive call
    assert counts == ConfusionCounts(tp=1, fp=1, fn=1, tn=1)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                          st.integers(min_value=0, max_value=1)),
                max_size=60),
       st.floats(min_value=0.05, max_value=0.95))
def test_pair_confusion_matches_manual_recount(scored, threshold):
    counts = pair_confusion(scored, threshold=threshold)
    tp = sum(1 for p, y in scored if p >= threshold and y == 1)
    fp = sum(1 for p, y in scored if p >= threshold and y == 0)
    fn = sum(1 for p, y in scored if p < threshold and y == 1)
    tn = sum(1 for p, y in scored if p < threshold and y == 0)
    assert counts == ConfusionCounts(tp, fp, fn, tn)
    assert counts.total == len(scored)
    out = prf(counts)
    if tp + fp:
        assert out.precision == pytest.approx(tp / (tp + fp))
    if tp + fn:
        assert out.recall == pytest.approx(tp / (tp + fn))


# -- in-KB accuracy ------------------------------------------------------


def test_inkb_accuracy_all_correct():
    gold = {"m1": "Q1", "m2": "Q2"}
    assert inkb_accuracy(dict(gold), gold) == 1.0


def test_inkb_accuracy_ignores_out_of_kb_mentions():
    gold = {"m1": "Q1", "m2": "Q2", "m3": "Q3", "m4": None}
    preds = {"m1": "Q1", "m2": "Q2", "m3": "Q9", "m4": "Q7"}
    assert inkb_accuracy(preds, gold) == pytest.approx(2 / 3)


def test_inkb_accuracy_none_prediction_is_just_wrong():
    gold = {"m1": "Q1", "m2": "Q2"}
    preds = {"m1": None, "m2": "Q2"}
    assert inkb_accuracy(preds, gold) == pytest.approx(0.5)


def test_inkb_accuracy_undefined_without_inkb_mentions():
    gold = {"m1": None, "m2": None}
    with pytest.warns(UserWarning, match="undefined"):
        out = inkb_accuracy({"m1": "Q1", "m2": None}, gold)
    assert math.isnan(out)


def test_inkb_accuracy_requires_full_prediction_coverage():
    gold = {"m1": "Q1", "m2": "Q2", "m3": None}
    with pytest.raises(ValueError, match="m2"):
        inkb_accuracy({"m1": "Q1"}, gold)


def test_inkb_accuracy_fixing_one_mention_never_hurts():
    gold = {f"m{i}": f"Q{i}" for i in range(6)}
    preds = {f"m{i}": ("QX" if i < 3 else f"Q{i}") for i in range(6)}
    base = inkb_accuracy(preds, gold)
    fixed = dict(preds, m0="Q0")
    assert inkb_accuracy(fixed, gold) >= base


# -- flip analysis -------------------------------------------------------


def test_flip_analysis_identical_runs_report_nothing():
    gold = {"m1": "Q1", "m2": "Q2", "m3": None}
    preds = {"m1": "Q1", "m2": "Q9", "m3": None}
    report = flip_analysis(preds, dict(preds), gold)
    assert report.wrong_to_right == ()
    assert report.right_to_wrong == ()
    assert report.net == 0
    assert report.entities_gained == 0
    assert report.entities_lost == 0


def test_flip_analysis_five_mention_fixture():
    gold = {"m1": "Q1", "m2": "Q2", "m3": "Q3", "m4": "Q4", "m5": None}
    before = {"m1": "QX", "m2": "QX", "m3": "Q3", "m4": "Q4", "m5": None}
    after = {"m1": "Q1", "m2": "Q2", "m3": "QX", "m4": "Q4", "m5": "Q9"}
    report = flip_analysis(before, after, gold)
    assert report.wrong_to_right == ("m1", "m2")
    assert report.right_to_wrong == ("m3",)
    assert report.net == 1
    assert report.entities_gained == 2
    assert report.entities_lost == 1


def test_flip_analysis_counts_distinct_entities_once():
    # four mentions of the same entity all flip to correct; the entity
    # count separates that from four different entities improving
    gold = {f"m{i}": "Q1" for i in range(4)}
    before = {f"m{i}": "QX" for i in range(4)}
    after = {f"m{i}": "Q1" for i in range(4)}
    report = flip_analysis(before, after, gold)
    assert len(report.wrong_to_right) == 4
    assert report.entities_gained == 1


def test_flip_analysis_mention_ids_sorted():
    gold = {"m9": "Q1", "m2": "Q2", "m5": "Q3"}
    before = {"m9": "QX", "m2": "QX", "m5": "QX"}
    after = dict(gold)
    report = flip_analysis(before, after, gold)
    assert report.wrong_to_right == ("m2", "m5", "m9")


def test_flip_analysis_requires_coverage_on_both_sides():
    gold = {"m1": "Q1", "m2": "Q2"}
    full = {"m1": "Q1", "m2": "Q2"}
    with pytest.raises(ValueError, match="before"):
        flip_analysis({"m1": "Q1"}, full, gold)
    with pytest.raises(ValueError, match="after"):
        flip_analysis(full, {"m2": "Q2"}, gold)


def test_flip_report_dict_shape():
    report = FlipReport(("m1", "m4"), ("m2",), 2, 1)
    out = flip_report_dict(report)
    assert out["n_wrong_to_right"] == 2
    assert out["n_right_to_wrong"] == 1
    assert out["net"] == 1
    assert out["wrong_to_right"] == ["m1", "m4"]
    assert out["entities_gained"] == 2
    assert out["entities_lost"] == 1


# -- reports -------------------------------------------------------------


def _sample_report():
    return make_report(metrics={"f1": 0.9235, "accuracy": 1.0, "pairs": 300},
                       config={"hops": "1", "max_triples": 15},
                       seed=7, protocol="pairs")


def test_make_report_carries_format_and_inputs():
    report = _sample_report()
    assert report["format"] == "kgned-report/1"
    assert report["seed"] == 7
    assert report["protocol"] == "pairs"
    assert report["metrics"]["pairs"] == 300
    assert report["config"]["hops"] == "1"


def test_format_report_renders_fractions_as_percentages():
    text = format_report(_sample_report())
    assert "f1: 92.35%" in text
    assert "accuracy: 100.00%" in text
    assert "pairs: 300" in text
    assert "config.max_triples: 15" in text
    assert text.endswith("\n")


def test_format_report_renders_nan_as_not_available():
    report = make_report(metrics={"accuracy": float("nan")}, config={})
    assert "accuracy: n/a" in format_report(report)


def test_report_round_trip(tmp_path):
    path = str(tmp_path / "report.json")
    report = _sample_report()
    write_report(path, report)
    assert read_report(path) == report


def test_write_report_refuses_foreign_format(tmp_path):
    bad = {"format": "something-else/3", "metrics": {}}
    with pytest.raises(ReportError):
        write_report(str(tmp_path / "r.json"), bad)


def test_read_report_rejects_bad_json_and_format(tmp_path):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    with pytest.raises(ReportError):
        read_report(str(garbled))
    foreign = tmp_path / "foreign.json"
    foreign.write_text('{"format": "other/1"}', encoding="utf-8")
    with pytest.raises(ReportError):
        read_report(str(foreign))
