"""Precision-recall metrics for heavily imbalanced binary scoring.

All curve computations sweep thresholds over the distinct score values in
descending order, grouping tied scores into a single operating point: the
point at threshold t counts every score >= t as positive. Precision and
recall of hard labels, such as a threshold rule's output, come from
precision_recall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, binary_labels

__all__ = [
    "PRCurve",
    "pr_curve",
    "auprc_trapezoid",
    "average_precision",
    "precision_recall",
]


@dataclass(frozen=True)
class PRCurve:
    """One point per distinct score, ascending recall; tp and fp count the
    positives and negatives scoring at or above each threshold."""

    recall: np.ndarray
    precision: np.ndarray
    thresholds: np.ndarray
    tp: np.ndarray
    fp: np.ndarray


def _validated(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 1 or y.shape != s.shape:
        raise InputError(f"scores {s.shape} and labels {y.shape} must be equal-length vectors")
    if s.size == 0:
        raise InputError("need at least one sample")
    if not np.all(np.isfinite(s)):
        raise InputError("scores must be finite")
    y = binary_labels(y).astype(np.int64)
    if y.min() == y.max():
        raise InputError("both classes must be present")
    return s, y


def pr_curve(scores, labels) -> PRCurve:
    """Sweep distinct scores from high to low, accumulating TP and FP."""
    s, y = _validated(scores, labels)
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    # last index of each tie block
    block_end = np.r_[s_sorted[1:] != s_sorted[:-1], True]
    tp = np.cumsum(y_sorted)[block_end].astype(np.float64)
    fp = np.cumsum(1 - y_sorted)[block_end].astype(np.float64)
    n_pos = float(y.sum())
    return PRCurve(
        recall=tp / n_pos,
        precision=tp / (tp + fp),
        thresholds=s_sorted[block_end],
        tp=tp,
        fp=fp,
    )


def average_precision(curve: PRCurve) -> float:
    """Step-wise sum over the sweep: sum (R_n - R_{n-1}) * P_n."""
    dr = np.diff(np.concatenate(([0.0], curve.recall)))
    return float(np.sum(dr * curve.precision))


def auprc_trapezoid(curve: PRCurve) -> float:
    """Trapezoidal area under the best precision achieved at each recall.

    Along the sweep, points sharing a recall value differ only in added
    false positives, so the first point of each recall level carries the
    highest precision; the integral runs over that envelope. An anchor at
    (recall 0, precision 1) is prepended unless recall 0 is already on the
    curve.
    """
    r = np.asarray(curve.recall, dtype=np.float64)
    p = np.asarray(curve.precision, dtype=np.float64)
    if r.size == 0:
        raise InputError("cannot integrate an empty curve")
    first = np.concatenate(([True], r[1:] != r[:-1]))
    r_env = r[first]
    p_env = p[first]
    if r_env[0] > 0.0:
        r_env = np.concatenate(([0.0], r_env))
        p_env = np.concatenate(([1.0], p_env))
    widths = r_env[1:] - r_env[:-1]
    return float(np.sum(widths * 0.5 * (p_env[1:] + p_env[:-1])))


def precision_recall(labels, y) -> tuple[float, float]:
    """Precision and recall of hard 0/1 predictions against 0/1 truth.

    Precision with no predicted positives is 0.0; recall with no actual
    positives is NaN.
    """
    pred = np.asarray(labels) == 1
    actual = np.asarray(y) == 1
    if pred.shape != actual.shape:
        raise InputError(f"predictions {pred.shape} and labels {actual.shape} must match")
    tp = int(np.sum(pred & actual))
    n_pred = int(np.sum(pred))
    n_actual = int(np.sum(actual))
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_actual if n_actual else float("nan")
    return precision, recall
