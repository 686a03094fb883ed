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

Prediction tests every split independently of the path a row takes and
lets the outcomes index the exit leaf, as QuickScorer does (Lucchese et
al., SIGIR 2015), with a small code per subtree for its leaf bitvectors. A
block of rows is scored as (features, rows); _row_blocks transposes each
row block to that (a view when the rows are already such a transpose, as
combined_predict hands them). Each maximal subtree of at most 8 splits,
the bits of a uint8, is a leaf-code group: each split's contiguous compare
x[feature] <= threshold sets one bit of a per-row code, which indexes the
group's table of 2^k leaf values. A split above the groups, in a tree of
more than 8 splits, takes np.where(x[feature] <= threshold, left, right)
over its children's values, children first. A row on a threshold goes
left; a NaN fails every compare and goes right. A forest thus costs
O(splits x rows) in contiguous compares and bit operations plus a take per
group, against O(depth x trees x rows) in gathers for a level-by-level
walk of every tree at once (Asadi, Lin & de Vries, IEEE TKDE 2014). The
margin adds the trees' values, each leaf value first multiplied by the
learning rate and selected, never computed, in boosting order: the same
bits as adding one round at a time. The groups' tables (at most 256
entries), the split lists, the scaled leaves and the bounds below make the
model's scoring plan, built on its first scoring and kept. It is a cached
property, not a field, so a model file never holds it. fit_gbdt builds a
model once its trees are final and nothing mutates them after, so a plan
never goes stale; other trees make another model (dataclasses.replace),
which checks them as every model does when it is built.

A router only needs to know whether predict_proba(x) > gamma, so serving
(moe.combined_predict, its one caller) asks a _Gate, which answers that
without finishing every row: the early exit of additive ensembles
(Cambazoglu et al., WSDM 2010). The gate scores each row block tree by
tree, as predict_margin does, and every _CHECK_TREES trees marks dead
the rows whose margin so far, plus the largest scaled leaf of each tree
still to come, falls below logit(gamma) less a slack. Once at most half
a block is alive, the block hands those rows' ids and margins to a pool
and stops. After the last block the pool runs on in boosting order: it
merges the rows each block handed over at a check when it reaches that
check, prunes, and scores the trees up to the next check on batches of
at most one block, gathered from the input. So the trees of a block's
tail run on the survivors of every block at once, not a few hundred rows
per call, and nothing is compacted per block. The slack is _SLACK times
the sum of three terms: the tree count times a bound on every partial
margin (|base| plus each tree's largest absolute leaf), which covers the
rounding of the remaining adds and of the bound itself; |logit(gamma)|,
for the rounding of the logit; and 1 / (1 - gamma), for the sigmoid's
own rounding, which a margin gap must outweigh where the sigmoid is
flat. A dead row therefore could not have cleared gamma, and a row that
lives gets predict_margin's adds in its order, in its block or in the
pool, so its sigmoid(margin) > gamma reads the same bits by
construction. A gate is built only for gamma < 1: at gamma >= 1 no row
clears, since a sigmoid never exceeds 1, and the caller scores nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import numpy.typing as npt

from .errors import ConfigurationError, feature_rows, labeled_rows, row_blocks
from .neural import log_loss, sigmoid

__all__ = ["GBDTParams", "Tree", "GBDTModel", "router_params", "fit_gbdt"]

_PRIOR_EPS = 1e-6
_CHECK_TREES = 8  # trees the gate scores between two prunings of a block
_SLACK = 2.0**-40  # relative slack of the gate's cut; see the module docstring
_GROUP_SPLITS = 8  # splits per leaf-code group: one bit each of a uint8 code
_GATHER_ROWS = 256  # pooled rows gathered per step: 59 kB at 29 features, below mmap size


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
        if not self.learning_rate > 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}")
        if not self.reg_lambda > 0:
            raise ConfigurationError(f"reg_lambda must be positive, got {self.reg_lambda}")
        if not (self.min_split_gain >= 0 and self.min_child_weight >= 0):
            raise ConfigurationError("min_split_gain and min_child_weight must be >= 0")
        if self.early_stopping_rounds < 0:
            raise ConfigurationError("early_stopping_rounds must be >= 0")


def router_params() -> GBDTParams:
    """Shallow defaults for routing duty: depth 3, 100 rounds. moe.fit_router fits
    without a validation set, so early_stopping_rounds (20) changes nothing."""
    return GBDTParams(n_estimators=100, max_depth=3)


@dataclass
class Tree:
    """One regression tree as parallel node arrays; feature -1 marks a leaf.

    Children sit after their one parent, which GBDTModel checks for each of its trees.
    """

    feature: npt.NDArray[np.int64]
    threshold: np.ndarray
    left: npt.NDArray[np.int64]
    right: npt.NDArray[np.int64]
    value: np.ndarray

    def _plan(self, value: np.ndarray) -> tuple:
        """``value`` as a list and the steps that score the tree, last node first:
        ``(node, [(feature, threshold), ...], table)`` for each maximal subtree of
        at most _GROUP_SPLITS splits, ``(node, feature, threshold, left, right)``
        for each split above them. A group lists its splits root, left subtree,
        right subtree, and split i of k sets bit k - 1 - i of the code; so a
        split's table is its right child's once per code of the left's splits,
        then each entry of its left child's once per code of the right's.
        """
        feature, left, right = (a.tolist() for a in (self.feature, self.left, self.right))
        threshold, values = self.threshold.tolist(), value.tolist()
        groups = [([], [v]) for v in values]  # (tests, table) per node; None above the groups
        steps, roots = [], [0]  # roots: the nodes whose parent is above the groups
        for node in reversed(range(len(feature))):  # children sit after their parent
            if feature[node] < 0:
                continue
            lo, hi = groups[left[node]], groups[right[node]]
            if lo and hi and 1 + len(lo[0]) + len(hi[0]) <= _GROUP_SPLITS:
                groups[node] = ([(feature[node], threshold[node]), *lo[0], *hi[0]],
                                hi[1] * len(lo[1]) + [v for v in lo[1] for _ in hi[1]])
            else:
                groups[node] = None
                steps.append((node, feature[node], threshold[node], left[node], right[node]))
                roots += left[node], right[node]
        for root in roots:
            if groups[root] and groups[root][0]:  # neither above the groups nor a leaf
                tests, table = groups[root]
                steps.append((root, tests, np.array(table)))
        steps.sort(key=lambda step: -step[0])
        return values, steps


def _check_tree(tree: Tree, n_features: int, index: int, max_depth: int) -> None:
    """Reject node arrays that the scorer would index past or misread.

    Children must sit after their parent, so the scorer, taking the nodes
    last first, has both children's values before it selects between them;
    a node is a leaf exactly when its feature is -1 and it has no children;
    no node has two parents, as the scorer drops a value once it is read;
    no split sits max_depth or more levels below the root, as no fit grows one.
    """
    size = tree.feature.shape[0]
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    if size == 0 or any(a.shape != (size,) for a in arrays):
        raise ConfigurationError(
            f"tree {index}: node arrays must be non-empty and of equal length")
    bad_feature = (tree.feature < -1) | (tree.feature >= n_features)
    if bad_feature.any():
        node = int(np.flatnonzero(bad_feature)[0])
        raise ConfigurationError(f"tree {index}, node {node}: feature {tree.feature[node]} out "
                                 f"of range for {n_features} features")
    leaf = tree.feature == -1
    childless = (tree.left == -1) & (tree.right == -1)
    if (leaf != childless).any():
        node = int(np.flatnonzero(leaf != childless)[0])
        raise ConfigurationError(f"tree {index}, node {node}: a node must be a leaf (feature -1) "
                                 f"exactly when it has no children")
    nodes = np.arange(size)
    bad_child = ~leaf & ((tree.left <= nodes) | (tree.left >= size)
                         | (tree.right <= nodes) | (tree.right >= size))
    if bad_child.any():
        node = int(np.flatnonzero(bad_child)[0])
        raise ConfigurationError(f"tree {index}, node {node}: children ({tree.left[node]}, "
                                 f"{tree.right[node]}) must lie after the node and below {size}")
    parents = np.bincount(np.concatenate([tree.left[~leaf], tree.right[~leaf]]), minlength=size)
    if (parents > 1).any():
        node = int(np.flatnonzero(parents > 1)[0])
        raise ConfigurationError(
            f"tree {index}, node {node}: a node must have at most one parent")
    level = np.zeros(1, dtype=np.int64)  # the nodes at depth 0, 1, ...
    for _ in range(max_depth):
        level = level[~leaf[level]]
        level = np.concatenate([tree.left[level], tree.right[level]])
    if not leaf[level].all():
        node = int(level[~leaf[level]].min())
        raise ConfigurationError(f"tree {index}, node {node}: a split at depth {max_depth} "
                                 f"makes the tree deeper than max_depth {max_depth}")


def _row_blocks(x: np.ndarray):
    """Yield ``(rows, xt)`` per block of rows; ``xt`` is the block as (features, rows),
    a view when ``x`` is itself the transpose of a C-contiguous block."""
    for rows in row_blocks(x.shape[0]):
        yield rows, np.ascontiguousarray(x[rows].T)


def _score_tree(plan: tuple, xt: np.ndarray):
    """One tree's value per column of ``xt``: a scalar for a lone leaf, else an array.

    A group's compares set one bit each of a uint8 code, which indexes its
    table of leaf values; a split above the groups selects between its
    children's values with np.where. Children come before their parent, and
    their values are dropped once read, which keeps O(depth) arrays alive.
    """
    slots, steps = plan
    slots = slots.copy()
    for step in steps:
        if len(step) == 3:
            node, tests, table = step
            code, bit = np.zeros(xt.shape[1], dtype=np.uint8), np.empty(xt.shape[1], dtype=bool)
            bits = bit.view(np.uint8)
            for feature, threshold in tests:
                np.less_equal(xt[feature], threshold, out=bit)
                code += code
                code |= bits
            slots[node] = table.take(code)
        else:
            node, feature, threshold, left, right = step
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

    def __post_init__(self) -> None:
        for index, tree in enumerate(self.trees):
            _check_tree(tree, self.n_features, index, self.params.max_depth)

    @cached_property
    def _forest(self) -> tuple:
        """The scoring plan, built on the first scoring: (per tree, Tree._plan of
        its leaves times the learning rate; reach, where reach[k] is the most
        trees k, k + 1, ... can still add to a margin; span, |base_score| plus
        each tree's largest absolute scaled leaf)."""
        scaled = [tree.value * self.params.learning_rate for tree in self.trees]
        leaves = [value[tree.feature < 0] for tree, value in zip(self.trees, scaled)]
        return ([tree._plan(value) for tree, value in zip(self.trees, scaled)],
                np.cumsum([leaf.max() for leaf in leaves][::-1])[::-1],
                abs(self.base_score) + sum(float(np.abs(leaf).max()) for leaf in leaves))

    def predict_margin(self, x) -> np.ndarray:
        x = feature_rows(x, self.n_features)
        margin = np.empty(x.shape[0])
        for rows, xt in _row_blocks(x):
            margin[rows] = _add(self._forest[0], xt, np.full(xt.shape[1], self.base_score))
        return margin

    def predict_proba(self, x) -> np.ndarray:
        return sigmoid(self.predict_margin(x))


def _add(forest: list, xt: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """``margin`` plus the trees of ``forest`` (plans) on the columns of ``xt``, in order."""
    for plan in forest:
        margin += _score_tree(plan, xt)
    return margin


class _Gate:
    """``predict_proba(x) > gamma``, for 0 < gamma < 1, over the row blocks of one call,
    written into ``above``, an all-False boolean array of x's rows: ``block``
    settles a block's rows or pools its survivors, and ``finish`` runs the pool on
    to the last tree, gathering its rows from ``x`` (see the module docstring).
    """

    def __init__(self, model: GBDTModel, x: np.ndarray, gamma: float, above: np.ndarray):
        self.forest, self.reach, span = model._forest
        cut = float(np.log(gamma) - np.log1p(-gamma))
        self.cut = cut - _SLACK * (len(self.forest) * span + abs(cut) + 1.0 / (1.0 - gamma))
        self.x, self.gamma, self.base = x, gamma, model.base_score
        self.above = above
        self.pool: list = []  # (tree index, row ids, margins) per block handed over

    def block(self, rows: slice, xt: np.ndarray) -> None:
        """Settle the rows ``rows`` of ``x``, held as the columns of ``xt``, or pool them."""
        margin = np.full(xt.shape[1], self.base)
        alive = np.ones(xt.shape[1], dtype=bool)
        for k in range(0, len(self.forest), _CHECK_TREES):
            alive &= margin + self.reach[k] >= self.cut
            if 2 * np.count_nonzero(alive) <= alive.size:
                ids = np.flatnonzero(alive)
                self.pool.append((k, ids + rows.start, margin[ids]))
                return
            _add(self.forest[k:k + _CHECK_TREES], xt, margin)
        self.above[rows] = alive & (sigmoid(margin) > self.gamma)

    def finish(self, buffer: np.ndarray) -> None:
        """Gate the pooled rows once they have met every tree or the cut, gathering
        each batch into ``buffer``, which holds at least one block of ``x``."""
        ids, margin, width = np.empty(0, dtype=np.intp), np.empty(0), self.x.shape[1]
        first = min((k for k, _, _ in self.pool), default=len(self.forest))
        for k in range(first, len(self.forest), _CHECK_TREES):
            handed = [(i, m) for at, i, m in self.pool if at == k]
            ids = np.concatenate([ids, *(i for i, _ in handed)])
            margin = np.concatenate([margin, *(m for _, m in handed)])
            keep = margin + self.reach[k] >= self.cut
            ids, margin = ids[keep], margin[keep]
            for batch in row_blocks(ids.size):
                part = ids[batch]
                xt = buffer[: part.size * width].reshape(width, part.size)
                for i in range(0, part.size, _GATHER_ROWS):
                    xt[:, i:i + _GATHER_ROWS] = self.x[part[i:i + _GATHER_ROWS]].T
                _add(self.forest[k:k + _CHECK_TREES], xt, margin[batch])
        self.above[ids] = sigmoid(margin) > self.gamma


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
    if y_arr.min() == y_arr.max():
        return GBDTModel(params=params, n_features=x.shape[1], base_score=base, degenerate=True)
    if use_val:
        val_margin = np.full(x_val.shape[0], base)
        val_blocks = list(_row_blocks(x_val))

    margin = np.full(x.shape[0], base)
    builder = _TreeBuilder(x, params)
    trees = []
    best_loss = np.inf
    best_round = -1
    for round_index in range(params.n_estimators):
        p = sigmoid(margin)
        tree = builder.grow(p - y_arr, p * (1.0 - p))
        trees.append(tree)
        margin += params.learning_rate * tree.value[builder.leaf]
        if use_val:
            plan = tree._plan(tree.value * params.learning_rate)  # lr * v, as scoring adds
            for rows, xt in val_blocks:
                val_margin[rows] += _score_tree(plan, xt)
            loss = log_loss(y_val_arr, sigmoid(val_margin))
            if loss < best_loss:
                best_loss = loss
                best_round = round_index
            elif round_index - best_round >= params.early_stopping_rounds:
                break
    best = best_round if use_val and best_round >= 0 else None
    return GBDTModel(params=params, n_features=x.shape[1], base_score=base,
                     best_iteration=best, trees=trees if best is None else trees[: best + 1])
