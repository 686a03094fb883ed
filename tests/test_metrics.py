"""Curve and ranking metrics against brute-force and hand-worked oracles."""

import numpy as np
import pytest

from qmoe.errors import InputError
from qmoe.metrics import auprc_trapezoid, average_precision, pr_curve, precision_recall

# Hand-worked case used throughout: scores (0.9, 0.8, 0.7, 0.6) with labels
# (1, 0, 1, 0). Sweeping cuts: (R=0.5, P=1), (0.5, 0.5), (1, 2/3), (1, 0.5).
HAND_SCORES = np.array([0.9, 0.8, 0.7, 0.6])
HAND_LABELS = np.array([1, 0, 1, 0])


def brute_force_ap(scores, labels):
    """Average precision straight from the definition, one cut per distinct score."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, int)
    n_pos = labels.sum()
    ap = 0.0
    prev_recall = 0.0
    for tau in sorted(set(scores), reverse=True):
        pred = scores >= tau
        tp = int(np.sum(pred & (labels == 1)))
        fp = int(np.sum(pred & (labels == 0)))
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def test_hand_curve_points():
    curve = pr_curve(HAND_SCORES, HAND_LABELS)
    np.testing.assert_allclose(curve.recall, [0.5, 0.5, 1.0, 1.0])
    np.testing.assert_allclose(curve.precision, [1.0, 0.5, 2.0 / 3.0, 0.5])
    np.testing.assert_allclose(curve.thresholds, [0.9, 0.8, 0.7, 0.6])
    assert curve.tp.tolist() == [1.0, 1.0, 2.0, 2.0]
    assert curve.fp.tolist() == [0.0, 1.0, 1.0, 2.0]


def test_hand_average_precision():
    # 0.5 * 1 + 0.5 * (2/3) = 5/6
    ap = average_precision(pr_curve(HAND_SCORES, HAND_LABELS))
    assert ap == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_hand_auprc_trapezoid():
    # envelope (0,1) -> (0.5,1) -> (1,2/3): 0.5 * 1 + 0.5 * (1 + 2/3) / 2 = 11/12
    curve = pr_curve(HAND_SCORES, HAND_LABELS)
    assert auprc_trapezoid(curve) == pytest.approx(11.0 / 12.0, abs=1e-12)


def test_ties_collapse_to_one_point():
    scores = np.array([0.9, 0.9, 0.9, 0.1])
    labels = np.array([1, 0, 1, 0])
    curve = pr_curve(scores, labels)
    assert len(curve.thresholds) == 2
    np.testing.assert_allclose(curve.recall, [1.0, 1.0])
    np.testing.assert_allclose(curve.precision, [2.0 / 3.0, 0.5])


def test_perfect_ranking():
    scores = np.array([0.9, 0.8, 0.3, 0.2])
    labels = np.array([1, 1, 0, 0])
    curve = pr_curve(scores, labels)
    assert average_precision(pr_curve(scores, labels)) == pytest.approx(1.0)
    assert auprc_trapezoid(curve) == pytest.approx(1.0)
    # precision 1 at full recall is on the curve
    at_full = curve.precision[curve.recall == 1.0]
    assert at_full.max() == pytest.approx(1.0)


def test_inverted_ranking_floors_at_prevalence():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([1, 1, 0, 0])
    curve = pr_curve(scores, labels)
    # the point at full recall has precision == prevalence
    assert curve.precision[-1] == pytest.approx(0.5)
    assert curve.recall[-1] == pytest.approx(1.0)


def test_average_precision_matches_brute_force_on_random_data():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(10, 200))
        labels = (rng.uniform(size=n) < 0.3).astype(int)
        if labels.min() == labels.max():
            continue
        # draw from a coarse grid so ties actually happen
        scores = rng.integers(0, 12, size=n) / 11.0
        got = average_precision(pr_curve(scores, labels))
        assert got == pytest.approx(brute_force_ap(scores, labels), abs=1e-12)


def test_ap_and_trapezoid_generally_differ():
    rng = np.random.default_rng(18)
    diffs = []
    for _ in range(10):
        labels = (rng.uniform(size=60) < 0.25).astype(int)
        scores = rng.uniform(size=60)
        if labels.min() == labels.max():
            continue
        ap = average_precision(pr_curve(scores, labels))
        area = auprc_trapezoid(pr_curve(scores, labels))
        diffs.append(abs(ap - area))
    assert max(diffs) > 1e-6


def test_monotone_transform_leaves_ap_unchanged():
    rng = np.random.default_rng(19)
    labels = (rng.uniform(size=80) < 0.2).astype(int)
    labels[:2] = [0, 1]
    scores = rng.uniform(0.02, 0.98, size=80)
    base = average_precision(pr_curve(scores, labels))
    for transform in (lambda s: s ** 3, lambda s: 1 / (1 + np.exp(-5 * (s - 0.5)))):
        ap = average_precision(pr_curve(transform(scores), labels))
        assert ap == pytest.approx(base, abs=1e-12)


def test_recall_is_non_decreasing_and_thresholds_descend():
    rng = np.random.default_rng(20)
    labels = (rng.uniform(size=50) < 0.4).astype(int)
    labels[:2] = [0, 1]
    scores = rng.integers(0, 9, size=50) / 8.0
    curve = pr_curve(scores, labels)
    assert np.all(np.diff(curve.recall) >= 0)
    assert np.all(np.diff(curve.thresholds) < 0)


def test_precision_recall_at_threshold():
    # Cut the hand case at 0.75: predictions (1, 1, 0, 0) against (1, 0, 1, 0).
    precision, recall = precision_recall(HAND_SCORES > 0.75, HAND_LABELS)
    assert precision == pytest.approx(0.5)
    assert recall == pytest.approx(0.5)
    precision, recall = precision_recall(HAND_SCORES > 0.65, HAND_LABELS)
    assert precision == pytest.approx(2.0 / 3.0)
    assert recall == pytest.approx(1.0)


def test_degenerate_flags():
    # Nothing predicted positive: precision is 0.0 by convention.
    precision, recall = precision_recall(np.array([0, 0]), np.array([0, 1]))
    assert precision == 0.0
    assert recall == 0.0

    # Nothing actually positive: recall is undefined.
    precision, recall = precision_recall(np.array([1, 0]), np.array([0, 0]))
    assert precision == 0.0
    assert np.isnan(recall)

    with pytest.raises(InputError):
        precision_recall(np.array([1, 0, 1]), np.array([0, 1]))


def test_single_class_curve_is_an_error():
    with pytest.raises(InputError):
        pr_curve(np.array([0.1, 0.9]), np.array([1, 1]))
    with pytest.raises(InputError):
        average_precision(pr_curve(np.array([0.1, 0.9]), np.array([0, 0])))


def test_input_validation():
    with pytest.raises(InputError):
        pr_curve(np.array([0.1, np.nan]), np.array([0, 1]))
    with pytest.raises(InputError):
        pr_curve(np.array([0.1, 0.2]), np.array([0, 2]))
    with pytest.raises(InputError):
        pr_curve(np.array([0.1, 0.2, 0.3]), np.array([0, 1, 0.5]))  # not truncated to 0
    with pytest.raises(InputError):
        pr_curve(np.array([]), np.array([]))
