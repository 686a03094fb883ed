"""Gradient boosted decision trees with second-order logistic-loss splits.

Split search is exact greedy over sorted feature columns. For a candidate
partition with gradient/hessian sums (G_L, H_L) and (G_R, H_R) the gain is

    0.5 * (G_L^2 / (H_L + lambda) + G_R^2 / (H_R + lambda)
           - (G_L + G_R)^2 / (H_L + H_R + lambda)) - min_split_gain

and a leaf takes the Newton weight -G / (H + lambda). Thresholds sit on
data values with the rule x <= threshold goes left; a split is accepted
when its net gain is >= 0, and ties break toward the lower feature index,
then the lower threshold. Training is therefore fully deterministic for a
fixed dataset and parameter set; no row or column subsampling happens
anywhere.

The columns are sorted once per fit, as in XGBoost's exact greedy method
with presorted column blocks (Chen & Guestrin, KDD 2016): a stable argsort
gives an (F, N) block of row indices. Each node carries its own (F, n_node)
block, every feature row sorted by value and then by row index, and a split
filters it into the children's blocks with one row-membership mask. Each
round packs grad + i*hess into one complex array, so a node's search is one
gather, one cumulative sum (complex addition keeps both running sums' bits)
and one gain table over all features at once. The tie rule comes from the
first maximum of the flattened (feature, threshold) table; equal neighbours
are masked only when that maximum sits between two. A node whose hessian
mass cannot give two children min_child_weight each is not searched (Ke et
al., NeurIPS 2017), and a round's training margins add learning_rate *
value[leaf] for the leaf the builder recorded for each row.

Prediction tests every split independently of the path a row takes, the
idea of QuickScorer (Lucchese et al., SIGIR 2015), and combines the tests
by nested selects rather than QuickScorer's leaf bitvectors. Each block of
rows is transposed once to (features, rows); a tree's splits are taken
last to first, children sitting after their parent, and a split's value
is np.where(x[feature] <= threshold, left, right), a leaf's its scalar. A
row on a threshold goes left, a NaN right. A forest thus costs O(internal
nodes x rows) in contiguous compares and selects, against O(depth x trees
x rows) in gathers for a level-by-level walk of every tree at once (Asadi,
Lin & de Vries, IEEE TKDE 2014); dense deep trees narrow the gap. The
margin adds the trees' values, each leaf value first multiplied by the
learning rate, in boosting order: the same bits as adding one round at a
time. The split lists, the scaled leaves and the bounds below make a
ForestPlan; a caller that scores one pool block by block (moe's serving
path) builds it once per call and hands it to every block, since
rebuilding it per block cost about a millisecond a forest.

A router only needs to know whether predict_proba(x) > gamma, so
GBDTModel.proba_above answers that without finishing every row: the early
exit of additive ensembles (Cambazoglu et al., WSDM 2010). It scores the
trees in the same order over the same blocks, and every _CHECK_TREES
trees it drops the rows whose margin so far, plus the largest scaled leaf
of each tree still to come, falls below logit(gamma) less a slack; the
block's columns are then compacted to the rows left. The slack is
_SLACK times the sum of three terms: the tree count times a bound on every
partial margin (|base| plus each tree's largest absolute leaf), which
covers the rounding of the remaining adds and of the bound itself;
|logit(gamma)|, for the rounding of the logit; and 1 / (1 - gamma), for the
sigmoid's own rounding, which a margin gap must outweigh where the
sigmoid is flat. A dropped row therefore could not have cleared gamma. A
row that stays gets the same adds in the same order as in predict_margin,
so its sigmoid(margin) > gamma reads the same bits. At gamma >= 1 nothing
is scored, since a sigmoid never exceeds 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InputError, labeled_rows
from .neural import log_loss, sigmoid

__all__ = ["GBDTParams", "Tree", "ForestPlan", "GBDTModel", "router_params", "fit_gbdt"]

_PRIOR_EPS = 1e-6
_BLOCK_ROWS = 8192  # rows per block here, in serving and in load_csv; temporaries are O(block)
_CHECK_TREES = 8  # trees proba_above scores between two prunings of a block
_SLACK = 2.0**-40  # relative slack of proba_above's cut; see the module docstring


@dataclass(frozen=True)
class GBDTParams:
    """Boosting hyperparameters.

    n_estimators: boosting rounds grown (early stopping may keep fewer).
    max_depth: depth cap per tree; 0 would be a bare root, so >= 1.
    learning_rate: shrinkage applied to every leaf contribution.
    reg_lambda: L2 penalty on leaf weights, must stay positive.
    min_split_gain: subtracted from every candidate gain before acceptance.
    min_child_weight: smallest hessian mass allowed on either side.
    early_stopping_rounds: patience on validation logloss; 0 disables.
    """

    n_estimators: int = 200
    max_depth: int = 4
    learning_rate: float = 0.1
    reg_lambda: float = 1.0
    min_split_gain: float = 0.0
    min_child_weight: float = 1.0
    early_stopping_rounds: int = 20

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ConfigurationError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if self.max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.reg_lambda <= 0:
            raise ConfigurationError(f"reg_lambda must be positive, got {self.reg_lambda}")
        if self.min_split_gain < 0 or self.min_child_weight < 0:
            raise ConfigurationError("min_split_gain and min_child_weight must be >= 0")
        if self.early_stopping_rounds < 0:
            raise ConfigurationError("early_stopping_rounds must be >= 0")


def router_params() -> GBDTParams:
    """Shallow defaults for routing duty: depth 3, 100 rounds."""
    return GBDTParams(n_estimators=100, max_depth=3)


@dataclass
class Tree:
    """One regression tree as parallel node arrays; feature -1 marks a leaf.

    Children sit after their one parent, as the builder and ``load_model`` ensure.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def _plan(self, value: np.ndarray) -> tuple:
        """``value`` as a list and the (node, feature, threshold, left, right) splits, last first."""
        nodes = zip(range(self.feature.size), self.feature.tolist(), self.threshold.tolist(),
                    self.left.tolist(), self.right.tolist())
        splits = [node for node in nodes if node[1] >= 0]
        splits.reverse()
        return value.tolist(), splits


@dataclass(frozen=True)
class ForestPlan:
    """What scoring a forest needs besides the rows, built by GBDTModel.plan.

    A caller that scores many blocks of rows builds it once and passes it to
    every block's predict_proba or proba_above; each of them builds its own
    when given none.
    """

    trees: list  # per tree, Tree._plan of its leaf values times the learning rate
    reach: np.ndarray  # reach[k]: the most that trees k, k + 1, ... can still add to a margin
    span: float  # |base_score| plus each tree's largest absolute scaled leaf


def _row_blocks(x: np.ndarray):
    """Yield ``(rows, xt)`` per block of rows; ``xt`` is the block as (features, rows)."""
    for start in range(0, x.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        yield rows, np.ascontiguousarray(x[rows].T, dtype=np.float64)


def _select(plan: tuple, xt: np.ndarray):
    """One tree's value per column of ``xt``: a scalar for a lone leaf, else an array.

    A split's children are filled in before it, so one compare and one
    np.where give its value; the children's values are then dropped, which
    keeps O(depth) block-sized arrays alive on a preorder tree.
    """
    slots, splits = plan
    slots = slots.copy()
    for node, feature, threshold, left, right in splits:
        slots[node] = np.where(xt[feature] <= threshold, slots[left], slots[right])
        slots[left] = slots[right] = None
    return slots[0]


@dataclass
class GBDTModel:
    params: GBDTParams
    n_features: int
    base_score: float  # log-odds of the training prior
    degenerate: bool = False  # single-class training labels, no trees grown
    best_iteration: Optional[int] = None
    trees: list[Tree] = field(default_factory=list)  # last: a model file lists them last

    def plan(self) -> ForestPlan:
        scaled = [tree.value * self.params.learning_rate for tree in self.trees]
        leaves = [value[tree.feature < 0] for tree, value in zip(self.trees, scaled)]
        return ForestPlan(
            trees=[tree._plan(value) for tree, value in zip(self.trees, scaled)],
            reach=np.cumsum([leaf.max() for leaf in leaves][::-1])[::-1],
            span=abs(self.base_score) + sum(float(np.abs(leaf).max()) for leaf in leaves),
        )

    def predict_margin(self, x, plan: Optional[ForestPlan] = None) -> np.ndarray:
        x = self._check(x)
        margin = np.full(x.shape[0], self.base_score)
        forest = (plan if plan is not None else self.plan()).trees
        for rows, xt in _row_blocks(x):
            block = margin[rows]
            for tree in forest:  # tree by tree, as the rounds were added
                block += _select(tree, xt)
        return margin

    def predict_proba(self, x, plan: Optional[ForestPlan] = None) -> np.ndarray:
        return sigmoid(self.predict_margin(x, plan))

    def proba_above(self, x, gamma: float, plan: Optional[ForestPlan] = None) -> np.ndarray:
        """``predict_proba(x) > gamma`` bit for bit, each row scored only until it is settled."""
        x = self._check(x)
        above = np.zeros(x.shape[0], dtype=bool)
        if gamma >= 1.0:
            return above
        plan = plan if plan is not None else self.plan()
        forest, reach = plan.trees, plan.reach
        cut = -np.inf
        if gamma > 0.0:
            cut = float(np.log(gamma) - np.log1p(-gamma))
            cut -= _SLACK * (len(forest) * plan.span + abs(cut) + 1.0 / (1.0 - gamma))
        checks = range(0, len(forest) if cut > -np.inf else 0, _CHECK_TREES)
        for rows, xt in _row_blocks(x):
            alive = np.arange(rows.start, rows.start + xt.shape[1])
            margin = np.full(alive.size, self.base_score)
            for k, tree in enumerate(forest):
                if k in checks:
                    keep = margin + reach[k] >= cut
                    if not keep.all():
                        alive, margin = alive[keep], margin[keep]
                        if not alive.size:
                            break
                        xt = np.compress(keep, xt, axis=1)
                margin += _select(tree, xt)
            above[alive] = sigmoid(margin) > gamma
        return above

    def _check(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.n_features:
            raise InputError(
                f"expected rows with {self.n_features} features, got shape {arr.shape}"
            )
        return arr


class _TreeBuilder:
    """Grows every tree of one fit; collects each tree's nodes into flat arrays.

    The stable presort is made once and serves every round. Filtering it
    keeps, for each feature, exactly the order a stable argsort of the
    node's ascending rows would give, so the trees match a per-node sort
    bit for bit. Every feature row of a block keeps exactly ``n_left`` of
    the left-going rows, so a child's block reshapes straight to
    ``(F, n_child)``. Only a child that passes ``_node``'s hessian-mass test
    gets a block and a search (one complex prefix sum, ties checked only at
    the winner). After ``grow``, ``leaf`` holds each row's leaf in the tree.
    """

    def __init__(self, x: np.ndarray, params: GBDTParams):
        self.xt = np.ascontiguousarray(x.T)
        self.order = np.argsort(self.xt, axis=1, kind="stable")
        self.in_left = np.zeros(x.shape[0], dtype=bool)
        self.gh = np.empty(x.shape[0], dtype=np.complex128)  # grad + i hess, set per round
        self.leaf = np.empty(x.shape[0], dtype=np.intp)
        self.params = params

    def grow(self, grad: np.ndarray, hess: np.ndarray) -> Tree:
        self.grad, self.hess = grad, hess
        self.gh.real, self.gh.imag = grad, hess
        self.nodes: list[list] = []  # [feature, threshold, left, right, value] per node
        rows, sums, search = self._node(np.arange(self.xt.shape[1]), 0)
        self._build(rows, sums, self.order if search else None, 0)
        columns = zip(*self.nodes)
        dtypes = (np.int64, np.float64, np.int64, np.int64, np.float64)
        return Tree(*(np.asarray(c, dtype=t) for c, t in zip(columns, dtypes)))

    def _node(self, rows: np.ndarray, depth: int) -> tuple:
        """(rows, (g_sum, h_sum), whether the node searches for a split).

        It searches under the depth cap, with two rows and room for two
        children's hessian mass. Float subtraction is monotone, so if
        h_sum - mcw < mcw, any h_left >= mcw leaves h_right < mcw.
        """
        p = self.params
        # Summed over the ascending rows: the pairwise-sum order fixes the bytes.
        sums = float(self.grad[rows].sum()), float(self.hess[rows].sum())
        mcw = p.min_child_weight
        return rows, sums, depth < p.max_depth and rows.size >= 2 and sums[1] - mcw >= mcw

    def _build(self, rows: np.ndarray, sums: tuple, block: Optional[np.ndarray], depth: int):
        """Grow the subtree on ``rows``; ``block`` is None when the node does not search."""
        g_sum, h_sum = sums
        best = None if block is None else self._best_split(block, g_sum, h_sum)
        node = len(self.nodes)
        if best is None:
            self.nodes.append([-1, 0.0, -1, -1, -g_sum / (h_sum + self.params.reg_lambda)])
            self.leaf[rows] = node
            return node
        feat, pos, thr = best
        self.nodes.append([feat, thr, -1, -1, 0.0])
        goes_left = block[feat, : pos + 1]
        self.in_left[goes_left] = True
        row_left = self.in_left[rows]
        left, right = (self._node(r, depth + 1) for r in (rows[row_left], rows[~row_left]))
        blocks = [None, None]
        if left[2] or right[2]:
            keep = self.in_left[block].ravel()
            for i, (side, (child, _, search)) in enumerate(zip((keep, ~keep), (left, right))):
                if search:
                    blocks[i] = np.compress(side, block).reshape(block.shape[0], child.size)
        self.in_left[goes_left] = False
        self.nodes[node][2] = self._build(*left[:2], blocks[0], depth + 1)
        self.nodes[node][3] = self._build(*right[:2], blocks[1], depth + 1)
        return node

    def _best_split(self, block: np.ndarray, g_sum: float, h_sum: float):
        """(feature, position in the block row, threshold) of the best split, or None.

        Each candidate's gain takes the same operations in the same order as
        the formula in the module docstring, computed in place across the
        ``(F, n_node - 1)`` table; its first flattened maximum is the lowest
        feature, then the lowest threshold. Ties are masked only when the
        winner of the min_child_weight-masked table sits on one: no earlier
        candidate beat a winner between distinct values, so it stays first.
        """
        p = self.params
        lam = p.reg_lambda
        parent = g_sum * g_sum / (h_sum + lam)
        gh = self.gh[block]  # complex addition adds the parts apart: two real cumsums' bits
        np.cumsum(gh, axis=1, out=gh)
        both = gh.view(np.float64).reshape(*block.shape, 2)[:, :-1]
        g_left, h_left = both[..., 0].copy(), both[..., 1].copy()  # contiguous runs faster
        del gh, both
        masked = h_left < p.min_child_weight
        h_right = h_sum - h_left
        masked |= h_right < p.min_child_weight
        g_right = g_sum - g_left
        gain = g_left  # from here on g_left holds the gain
        gain *= g_left
        h_left += lam
        gain /= h_left
        g_right *= g_right
        h_right += lam
        g_right /= h_right
        gain += g_right
        gain -= parent
        gain *= 0.5
        gain -= p.min_split_gain
        gain[masked] = -np.inf
        feat, pos = divmod(int(np.argmax(gain)), gain.shape[1])
        if self.xt[feat, block[feat, pos]] == self.xt[feat, block[feat, pos + 1]]:
            xs = np.take_along_axis(self.xt, block, axis=1)
            gain[xs[:, :-1] == xs[:, 1:]] = -np.inf
            feat, pos = divmod(int(np.argmax(gain)), gain.shape[1])
        if not gain[feat, pos] >= 0.0:
            return None
        return feat, pos, float(self.xt[feat, block[feat, pos]])


def fit_gbdt(params: GBDTParams, x, y, x_val=None, y_val=None) -> GBDTModel:
    """Boost trees on (x, y); optional validation set drives early stopping.

    Single-class labels produce a flagged prior-only model with no trees.
    When early stopping triggers, the tree list is truncated to the best
    validation round, so persisted and in-memory predictions agree.
    """
    x, y_arr = labeled_rows(x, y)
    use_val = x_val is not None and y_val is not None and params.early_stopping_rounds > 0
    if use_val:
        x_val, y_val_arr = labeled_rows(x_val, y_val, x.shape[1], "validation")

    prior = float(np.clip(y_arr.mean(), _PRIOR_EPS, 1.0 - _PRIOR_EPS))
    base = float(np.log(prior) - np.log1p(-prior))
    model = GBDTModel(params=params, n_features=x.shape[1], base_score=base)

    if y_arr.min() == y_arr.max():
        model.degenerate = True
        return model
    if use_val:
        val_margin = np.full(x_val.shape[0], base)
        val_blocks = list(_row_blocks(x_val))

    margin = np.full(x.shape[0], base)
    builder = _TreeBuilder(x, params)
    best_loss = np.inf
    best_round = -1
    for round_index in range(params.n_estimators):
        p = sigmoid(margin)
        tree = builder.grow(p - y_arr, p * (1.0 - p))
        model.trees.append(tree)
        margin += params.learning_rate * tree.value[builder.leaf]
        if use_val:
            plan = tree._plan(tree.value)
            for rows, xt in val_blocks:
                val_margin[rows] += params.learning_rate * _select(plan, xt)
            loss = log_loss(y_val_arr, sigmoid(val_margin))
            if loss < best_loss:
                best_loss = loss
                best_round = round_index
            elif round_index - best_round >= params.early_stopping_rounds:
                break
    if use_val and best_round >= 0:
        model.trees = model.trees[: best_round + 1]
        model.best_iteration = best_round
    return model
