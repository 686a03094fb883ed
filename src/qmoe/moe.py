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
combined_predict is the one caller of the router's gbdt._Gate, the early
exit that stops scoring a row once it can no longer clear gamma, yet flags
the rows router.predict_proba(x) > gamma would. At gamma = 1.0 it builds no
gate and reads no router tree.

Every call writes its outputs into one zeroed table that the returned
arrays view, through workers.fork_map over the row ranges of
workers.parts, none under _MIN_PART_ROWS rows: part 0 scored in the
process and every other part in a forked child (see workers), each part
writing its rows straight into the table, an anonymous shared mapping. A
call of one part, in the process, keeps its table private. The folded
forests and the forests' scoring plans are built in the process first, so
the model keeps them and no child rebuilds them. Each part serves its rows
as a one-part call serves all of them, with the same bits.

Serving walks its input in row blocks of the forests' own size. Given a
data.MinMaxScaler, it first folds the scaler into both forests' split
thresholds (MinMaxScaler.raw_thresholds): the map is monotone per column,
so a raw threshold sends every finite raw row where the model sends its
scaled row. The folded copies are built on the first call for a scaler
and kept, never saved. A part keeps one (features, rows) workspace: each
checked raw block is copied into it, in the transposed layout the forests
score, and the primary and the gate's block phase both read it, each tree
by its leaf-code groups (see gbdt). The rows the gate pools are gathered
from the input into the same workspace once the blocks are done. So a part
holds one block and the outputs, never a copy of the pool, and allocates
nothing block-sized per block. The scaler touches only the routed rows,
gathered raw after the loop and scaled once, in place. The trees score row
by row, so blocks and parts keep their bits. The secondary scores in padded
512-row chunks, so it keeps them too; it gets every routed row of a part in
one batch because one batch pads the fewest chunks, so a part pads at most
one chunk more than a one-part call. Each forest builds its scoring plan
once, on its model's first scoring, and reads it in every later block,
part and call.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, replace

import numpy as np

from .calibration import TemperatureScaler, apply_temperature
from .errors import (ConfigurationError, InputError, binary_labels, feature_rows,
                     require_finite_rows, row_blocks)
from .gbdt import GBDTModel, GBDTParams, _Gate, fit_gbdt
from .hybrid import HybridModel
from .metrics import pr_curve
from .workers import fork_map, parts

__all__ = [
    "GAMMA_GRID",
    "youden_threshold",
    "router_targets",
    "fit_router",
    "CombinedModel",
    "RoutedPrediction",
    "combined_predict",
]

GAMMA_GRID = (0.5, 0.6, 0.7, 0.8, 0.9)
# The fewest rows that earn a part of combined_predict: forking and reaping a
# child (fork_map of two no-op tasks) took 4.0-5.4 ms in a serving process,
# and one core scores 32,768 rows of the served pipeline in about 18 ms at
# gamma 1.0 and 37 ms at 0.5, so a part pays for its child 3 to 7 times.
_MIN_PART_ROWS = 1 << 15


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
    y = np.asarray(labels)
    p1 = np.asarray(primary_probs, dtype=np.float64)
    p2 = np.asarray(secondary_probs, dtype=np.float64)
    if not (y.shape == p1.shape == p2.shape):
        raise InputError(
            f"labels {y.shape}, primary {p1.shape}, secondary {p2.shape} must align"
        )
    truth = binary_labels(y) == 1
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
    secondary: HybridModel
    secondary_scaler: TemperatureScaler
    router: GBDTModel
    tau_primary: float
    tau_secondary: float

    def __post_init__(self) -> None:
        # A stand-in secondary built in code may declare no width; it reads the primary's.
        widths = {name: getattr(self, name).n_features for name in ("primary", "router")}
        widths["secondary"] = getattr(self.secondary, "n_features", widths["primary"])
        if len(set(widths.values())) != 1:
            raise ConfigurationError(f"the experts' feature counts differ: {widths}")
        for name in ("tau_primary", "tau_secondary"):  # Youden's cuts, 0 and 1 included
            tau = getattr(self, name)
            if not 0.0 <= tau <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], found {tau}")


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

    ``x`` holds the rows the experts read, or raw rows that ``scaler`` (a
    data.MinMaxScaler) maps to them; then both forests read the raw rows
    through folded thresholds (``_raw_forests``), and the scaler touches only
    the routed rows. Hard labels apply the owning expert's threshold.

    The checks come first, in the process: gamma, the scaler's width, then
    the rows' width (``errors.feature_rows``, naming the whole input's
    shape). The folded forests and both forests' scoring plans are built
    there too, so no child rebuilds them and the model keeps them.
    Every call fills one zeroed table of 17 bytes a row, which the returned
    ``probs``, ``labels`` and ``routed`` view, through ``workers.fork_map``
    over the row ranges of ``workers.parts(n, _MIN_PART_ROWS)``: part 0 runs
    in the process and every other part in a forked child. With two or more
    parts the table is an anonymous shared mapping that each part writes its
    rows into; with one, an empty call included, it is private memory. A
    part's finite check names rows of the whole input, so a bad row raises
    the error of a one-part call, and ``fork_map`` raises the lowest part's
    fault. The rows keep their bits whatever the split: the trees score row
    by row, the gate gives a surviving row ``predict_margin``'s adds in
    order, and the secondary scores fixed, padded chunks, at most one more
    padded chunk per part. The fork facts are in ``workers``.
    """
    if not 0.0 < gamma <= 1.0:
        raise InputError(f"gamma must be in (0, 1], got {gamma}")
    if scaler is not None and scaler.low.shape != (model.primary.n_features,):
        raise InputError(f"the scaler reads {scaler.low.shape[0]} features, "
                         f"the experts {model.primary.n_features}")
    x = feature_rows(x, model.primary.n_features)
    forests = (model.primary, model.router) if scaler is None else _raw_forests(model, scaler)
    for forest in forests[:2 if gamma < 1.0 else 1]:  # a shut gate reads no router tree
        forest._forest  # its plan, built here once rather than in every child
    n = x.shape[0]
    ranges = parts(n, _MIN_PART_ROWS)
    # Zeroed, as no row is routed yet: shared pages when a forked part writes
    # them, else private ones, so an empty table maps nothing (mmap refuses 0).
    table = (np.frombuffer(mmap.mmap(-1, 17 * n), np.uint8) if len(ranges) > 1
             else np.zeros(17 * n, np.uint8))
    out = RoutedPrediction(probs=table[:8 * n].view(np.float64),
                           labels=table[8 * n:16 * n].view(np.float64),
                           routed=table[16 * n:].view(bool))
    # Each part returns nothing: a child's rows are already in the table.
    fork_map(lambda rows: _predict_rows(model, forests, x, gamma, scaler, rows, out), ranges)
    return out


def _predict_rows(model: CombinedModel, forests: tuple, x: np.ndarray, gamma: float, scaler,
                  rows: slice, out: RoutedPrediction) -> None:
    """Write the prediction of ``x[rows]`` into the same rows of ``out``'s arrays,
    whose ``routed`` holds False there.

    Per row block of ``errors.row_blocks``: a finite check (scaling would
    clip an infinity into range), naming rows of all of ``x``, so the outcome
    never depends on whether the gate would have routed a bad row, nor on
    the part that meets it; the copy into the part's one (features, rows)
    workspace; the primary and the gate's block phase on it (gbdt._Gate),
    whose pooled rows are then gathered into the same workspace. The
    secondary scores every routed row, gathered from ``x`` and scaled once,
    in one call; that sparsity is the whole point of the gate.
    """
    primary, router = forests
    part = x[rows]
    probs, routed = out.probs[rows], out.routed[rows]
    blocks = list(row_blocks(max(part.shape[0], 1)))  # an empty input still checks
    workspace = np.empty(part[blocks[0]].size)  # the first block is the largest
    gate = _Gate(router, part, gamma, routed) if gamma < 1.0 else None  # shut: reads no tree
    for block_rows in blocks:
        block = part[block_rows]
        if not np.isfinite(block).all():
            require_finite_rows(x)
        xt = workspace[: block.size].reshape(block.shape[::-1])  # (features, rows)
        xt.T[...] = block
        # The primary reads xt.T as rows, which its block loop transposes back to xt.
        probs[block_rows] = apply_temperature(model.primary_scaler, primary.predict_proba(xt.T))
        if gate is not None:
            gate.block(block_rows, xt)
    if gate is not None:
        gate.finish(workspace)
    del workspace, xt  # not held through the secondary's own peak
    if routed.any():
        handed = part[routed]
        if scaler is not None:
            scaler.transform(handed, out=handed)  # the gathered copy is scaled in place
        probs[routed] = apply_temperature(model.secondary_scaler,
                                          model.secondary.predict_proba(handed))
    labels = out.labels[rows]  # 1.0 where a row clears its owning expert's threshold
    np.greater(probs, model.tau_primary, out=labels)
    labels[routed] = probs[routed] > model.tau_secondary


def _raw_forests(model: CombinedModel, scaler) -> tuple:
    """The primary and the router as copies whose split thresholds read raw rows.

    Each threshold is ``scaler.raw_thresholds`` of its split, so a copy
    sends every finite raw row where the model sends its scaled row, and
    scores it with the same bits. The copies are built on the first call
    for a scaler and both forests, kept on ``model`` keyed by their
    identity, and never saved: the codec writes a model's fields only.
    """
    key = (scaler, model.primary, model.router)
    cached = getattr(model, "_raw", None)
    if cached is None or any(a is not b for a, b in zip(cached[0], key)):
        cached = model._raw = key, tuple(_raw_forest(f, scaler) for f in key[1:])
    return cached[1]


def _raw_forest(forest: GBDTModel, scaler) -> GBDTModel:
    """``forest`` with every split's threshold folded through ``scaler``, all at once."""
    trees = forest.trees
    if not trees:
        return forest
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    split = feature >= 0
    threshold[split] = scaler.raw_thresholds(feature[split], threshold[split])
    parts = np.split(threshold, np.cumsum([tree.feature.size for tree in trees])[:-1])
    return replace(forest, trees=[replace(t, threshold=p) for t, p in zip(trees, parts)])
