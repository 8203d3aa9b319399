import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botdetect.errors import DataError
from botdetect.metrics import auc, confusion_at, evaluate, roc_points

from oracles import loop_roc_points, pair_auc


def test_perfect_scores_have_no_errors():
    scores = [0.9, 0.8, 0.7, 0.2, 0.1]
    labels = [1, 1, 1, 0, 0]
    tp, fp, fn, tn = confusion_at(scores, labels, 0.5)
    assert (fp, fn) == (0, 0)
    assert auc(scores, labels) == 1.0


def test_hand_computed_confusion_fixture():
    # tp=2, fp=1, fn=1, tn=6
    scores = [0.9, 0.8, 0.6, 0.4, 0.3, 0.3, 0.2, 0.2, 0.1, 0.1]
    labels = [1, 1, 0, 1, 0, 0, 0, 0, 0, 0]
    report = evaluate(scores, labels, 0.5)
    assert (report.tp, report.fp, report.fn, report.tn) == (2, 1, 1, 6)
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(2 / 3)
    assert report.f1 == pytest.approx(2 / 3)
    assert report.accuracy == pytest.approx(0.8)


def test_threshold_rule_is_inclusive():
    scores = [0.5, 0.5, 0.5]
    labels = [1, 0, 1]
    tp, fp, fn, tn = confusion_at(scores, labels, 0.5)
    assert (tp, fp, fn, tn) == (2, 1, 0, 0)


def test_empty_input_rejected():
    with pytest.raises(DataError, match="scores and labels must be equal-length and non-empty"):
        confusion_at([], [], 0.5)


def test_constant_scores_auc_half():
    assert auc([0.5] * 8, [1, 0, 1, 0, 1, 0, 1, 0]) == 0.5


def test_single_class_rejected():
    with pytest.raises(DataError, match="ROC requires both classes present"):
        auc([0.1, 0.9], [1, 1])


def test_auc_matches_pair_oracle():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(30):
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, n).astype(np.int8)
        labels[0], labels[1] = 0, 1
        scores = np.round(rng.uniform(size=n), 2)
        assert auc(scores, labels) == pytest.approx(pair_auc(scores, labels), abs=1e-9)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.Generator(np.random.PCG64(5))
    labels = rng.integers(0, 2, 40).astype(np.int8)
    labels[:2] = [0, 1]
    scores = np.round(rng.uniform(size=40), 2)
    base = auc(scores, labels)
    assert auc(3.0 * scores - 1.0, labels) == base
    assert auc(scores**3, labels) == base


def test_label_flip_symmetry_without_ties():
    rng = np.random.Generator(np.random.PCG64(6))
    labels = rng.integers(0, 2, 31).astype(np.int8)
    labels[:2] = [0, 1]
    scores = rng.permutation(np.linspace(0.01, 0.99, 31))  # all distinct
    assert auc(scores, labels) == pytest.approx(1.0 - auc(scores, 1 - labels), abs=1e-12)


def test_roc_points_monotone_and_bracketed():
    rng = np.random.Generator(np.random.PCG64(7))
    labels = rng.integers(0, 2, 50).astype(np.int8)
    labels[:2] = [0, 1]
    scores = np.round(rng.uniform(size=50), 1)
    points = roc_points(scores, labels)
    assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        assert x1 >= x0 and y1 >= y0


def test_accuracy_reproducible_from_confusion():
    rng = np.random.Generator(np.random.PCG64(8))
    labels = rng.integers(0, 2, 64).astype(np.int8)
    labels[:2] = [0, 1]
    scores = rng.uniform(size=64)
    report = evaluate(scores, labels, 0.3)
    tp, fp, fn, tn = report.tp, report.fp, report.fn, report.tn
    assert report.accuracy == (tp + tn) / 64


def test_undefined_precision_flagged_as_zero():
    report = evaluate([0.1, 0.2, 0.3, 0.1], [1, 0, 1, 0], 0.9)
    assert report.precision == 0.0
    assert not report.precision_defined
    assert "note" in report.to_text()


def test_f1_is_harmonic_mean():
    report = evaluate([0.9, 0.9, 0.1, 0.4], [1, 0, 0, 1], 0.5)
    p, r = report.precision, report.recall
    assert report.f1 == pytest.approx(2 * p * r / (p + r))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_auc_bounds(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(4, 30))
    labels = rng.integers(0, 2, n).astype(np.int8)
    labels[:2] = [0, 1]
    scores = rng.uniform(size=n)
    value = auc(scores, labels)
    assert 0.0 <= value <= 1.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_roc_points_and_auc_match_the_loop_reference(seed):
    # Few distinct levels force ties; -0.0 and 0.0 must fall into one step.
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(2, 400))
    labels = rng.integers(0, 2, n).astype(np.int8)
    labels[:2] = [0, 1]
    levels = np.array([-0.0, 0.0, 0.25, 0.5, 1.0, -np.inf, np.inf])
    if rng.uniform() < 0.5:
        scores = levels[rng.integers(0, len(levels), n)]
    else:
        scores = rng.uniform(size=n)
    want = loop_roc_points(scores, labels)
    assert roc_points(scores, labels) == want
    area = 0.0
    for (x0, y0), (x1, y1) in zip(want, want[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    assert repr(auc(scores, labels)) == repr(area)
    report = evaluate(scores, labels)
    assert report.roc_points == tuple(want) and repr(report.auc) == repr(area)


def test_report_serialization_deterministic():
    report = evaluate([0.9, 0.2, 0.7], [1, 0, 0], 0.5, config_echo={"model": "x"})
    assert report.to_kv_lines() == report.to_kv_lines()
    assert any(line.startswith("config.model") for line in report.to_kv_lines())
    assert report.roc_csv_lines()[0] == "fpr,tpr"


def test_nan_scores_are_rejected():
    with pytest.raises(DataError, match="scores contain NaN; the model is numerically broken"):
        evaluate(np.array([0.2, np.nan, 0.9]), np.array([0, 1, 1]))
