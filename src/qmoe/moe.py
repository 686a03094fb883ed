"""Expert routing: decide per row whether the expensive model gets a say.

The primary expert scores every row. A router, itself a small boosted
model, estimates the probability that the secondary expert corrects a
primary mistake; rows whose estimate clears a confidence gate gamma are
re-scored by the secondary. Everything downstream (probabilities and hard
labels) comes from whichever expert owned the row, including that expert's
own decision threshold.

Router training targets are observational: on rows where the primary was
wrong and the secondary was right the target is 1, everywhere else 0. If
no such row exists the router degenerates to a constant near-zero prior
and the gate never opens, which collapses the combination onto the
primary alone. gamma = 1.0 does the same by construction (probabilities
cannot exceed 1), giving a built-in no-routing reference point.

Serving only compares the gate with gamma and never materialises it:
combined_predict asks the router for GBDTModel.proba_above, which stops
scoring a row once it can no longer clear gamma and scores nothing at
gamma = 1.0, yet flags the rows router.predict_proba(x) > gamma would.
fit_fold, which reads one gate at every gamma of its grid, scores the
router in full once and compares that.

Serving walks its input in row blocks of the forests' own size, so a call
holds one scaled block and the outputs, never a scaled copy of the pool.
The trees score row by row, so blocks keep their bits; the secondary may
not (the paper-size circuit moves a last bit with its batch), so it gets
every routed row of the call in one batch, exactly as an unblocked call
would hand them over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import TemperatureScaler, apply_temperature
from .errors import InputError, require_finite_rows
from .gbdt import _BLOCK_ROWS, GBDTModel, GBDTParams, fit_gbdt
from .metrics import pr_curve

__all__ = [
    "GAMMA_GRID",
    "youden_threshold",
    "router_targets",
    "fit_router",
    "CombinedModel",
    "RoutedPrediction",
    "combined_predict",
    "route_rows",
]

GAMMA_GRID = (0.5, 0.6, 0.7, 0.8, 0.9)


def youden_threshold(scores, labels) -> float:
    """Threshold maximizing TPR - FPR, with positives strictly above it.

    Candidates are the observed scores plus the 0 and 1 endpoints; ties in
    the statistic resolve to the smallest candidate, so the choice is
    deterministic under reordering. The counts come from the PR sweep.
    """
    curve = pr_curve(scores, labels)
    candidates = np.unique(np.concatenate([scores, [0.0, 1.0]]))
    # A candidate takes the counts of the lowest distinct score above it;
    # one with nothing above it takes the prepended zero.
    above = np.searchsorted(-curve.thresholds, -candidates)
    tp = np.concatenate(([0.0], curve.tp))[above]
    fp = np.concatenate(([0.0], curve.fp))[above]
    j = tp / curve.tp[-1] - fp / curve.fp[-1]
    return float(candidates[int(np.argmax(j))])


def router_targets(labels, primary_probs, secondary_probs,
                   tau_primary: float, tau_secondary: float) -> np.ndarray:
    """1 where the secondary fixes a primary mistake, else 0.

    Each expert is judged at its own threshold; the target asks only
    whether handing the row over would have flipped it from wrong to
    right.
    """
    y = np.asarray(labels, dtype=np.float64)
    p1 = np.asarray(primary_probs, dtype=np.float64)
    p2 = np.asarray(secondary_probs, dtype=np.float64)
    if not (y.shape == p1.shape == p2.shape):
        raise InputError(
            f"labels {y.shape}, primary {p1.shape}, secondary {p2.shape} must align"
        )
    if not np.all((y == 0) | (y == 1)):
        raise InputError("labels must be 0 or 1")
    truth = y == 1
    primary_right = (p1 > tau_primary) == truth
    secondary_right = (p2 > tau_secondary) == truth
    return (secondary_right & ~primary_right).astype(np.float64)


def fit_router(x, targets, params: GBDTParams) -> GBDTModel:
    """Train the gate on correction targets.

    All-zero targets are routine (the primary was never beaten) and yield
    the degenerate prior-only model, whose near-zero output keeps the gate
    shut at every sane gamma.
    """
    return fit_gbdt(params, x, targets)


@dataclass
class CombinedModel:
    """Everything needed to score rows through the routed pair."""

    primary: GBDTModel
    primary_scaler: TemperatureScaler
    secondary: object  # anything with predict_proba(x) -> (rows,)
    secondary_scaler: TemperatureScaler
    router: GBDTModel
    tau_primary: float
    tau_secondary: float


@dataclass
class RoutedPrediction:
    probs: np.ndarray
    labels: np.ndarray
    routed: np.ndarray

    @property
    def routed_fraction(self) -> float:
        return float(self.routed.mean()) if self.routed.size else 0.0


def combined_predict(model: CombinedModel, x, gamma: float, scaler=None) -> RoutedPrediction:
    """Score rows, handing those the router flags to the secondary expert.

    ``x`` holds the rows the experts read, or raw rows that ``scaler``
    (anything with ``transform(rows)``) maps to them. Per block of
    gbdt._BLOCK_ROWS rows: a finite check before scaling (which would clip
    an infinity into range), naming rows of the whole input, so the outcome
    never depends on whether the gate would have routed a bad row; the
    scaling; the primary and the gate, against ForestPlans built once per
    call. The secondary then scores every routed row in one call; that
    sparsity is the whole point of the gate. Hard labels apply the owning
    expert's threshold.
    """
    if not 0.0 < gamma <= 1.0:
        raise InputError(f"gamma must be in (0, 1], got {gamma}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InputError(f"expected a 2-D array of rows, got shape {x.shape}")
    probs = np.empty(x.shape[0])
    routed = np.zeros(x.shape[0], dtype=bool)
    handed = []
    primary = model.primary.plan()
    gate = model.router.plan() if gamma < 1.0 else None  # a shut gate reads no tree
    for start in range(0, max(x.shape[0], 1), _BLOCK_ROWS):  # an empty input still checks
        rows = slice(start, start + _BLOCK_ROWS)
        block = x[rows]
        if not np.isfinite(block).all():
            require_finite_rows(x)
        if scaler is not None:
            block = scaler.transform(block)
        probs[rows] = apply_temperature(model.primary_scaler,
                                        model.primary.predict_proba(block, primary))
        routed[rows] = model.router.proba_above(block, gamma, gate)
        handed.append(block[routed[rows]])
    return route_rows(model, probs, routed, np.concatenate(handed))


def route_rows(model: CombinedModel, probs: np.ndarray, routed: np.ndarray,
               handed: np.ndarray) -> RoutedPrediction:
    """Hand the rows flagged in the boolean mask ``routed`` to the secondary.

    ``handed`` holds those rows, in order; the secondary scores them in one
    call. ``probs`` holds the calibrated primary probabilities of every row
    and is never written to, so one scoring of a batch serves every gamma.
    """
    if routed.any():
        scored = apply_temperature(
            model.secondary_scaler,
            np.asarray(model.secondary.predict_proba(handed), dtype=np.float64),
        )
        probs = probs.copy()
        probs[routed] = scored
    labels = np.where(routed, model.tau_secondary, model.tau_primary)
    np.greater(probs, labels, out=labels)  # 1.0 where a row clears its expert's threshold
    return RoutedPrediction(probs=probs, labels=labels, routed=routed)
