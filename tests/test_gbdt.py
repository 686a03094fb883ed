"""Boosted-tree tests against a brute-force split oracle, reference growers and walkers."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qmoe import data, errors, gbdt
from qmoe.errors import ConfigurationError, InputError, feature_rows
from qmoe.gbdt import GBDTModel, GBDTParams, Tree, fit_gbdt, router_params
from qmoe.neural import sigmoid

NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")


class ReferenceBuilder:
    """Exact greedy split search with one stable argsort per node and feature.

    This is the search fit_gbdt ran before it presorted the columns once per
    fit; the presorted search must grow the same trees bit for bit.
    """

    def __init__(self, x, grad, hess, params):
        self.x = x
        self.grad = grad
        self.hess = hess
        self.params = params
        self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], []

    def build(self, rows, depth):
        p = self.params
        g_sum = float(self.grad[rows].sum())
        h_sum = float(self.hess[rows].sum())
        best = None
        if depth < p.max_depth and rows.size >= 2:
            best = self.best_split(rows, g_sum, h_sum)
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        if best is None:
            self.value[node] = -g_sum / (h_sum + p.reg_lambda)
            return node
        feat, thr, left_rows, right_rows = best
        self.feature[node] = feat
        self.threshold[node] = thr
        self.left[node] = self.build(left_rows, depth + 1)
        self.right[node] = self.build(right_rows, depth + 1)
        return node

    def best_split(self, rows, g_sum, h_sum):
        p = self.params
        lam = p.reg_lambda
        parent = g_sum * g_sum / (h_sum + lam)
        g_node = self.grad[rows]
        h_node = self.hess[rows]
        best_gain = -np.inf
        best = None
        for feat in range(self.x.shape[1]):
            col = self.x[rows, feat]
            order = np.argsort(col, kind="stable")
            xs = col[order]
            g_left = np.cumsum(g_node[order])[:-1]
            h_left = np.cumsum(h_node[order])[:-1]
            ok = xs[:-1] != xs[1:]
            ok &= (h_left >= p.min_child_weight) & (h_sum - h_left >= p.min_child_weight)
            if not ok.any():
                continue
            g_right = g_sum - g_left
            h_right = h_sum - h_left
            gain = (
                0.5
                * (
                    g_left * g_left / (h_left + lam)
                    + g_right * g_right / (h_right + lam)
                    - parent
                )
                - p.min_split_gain
            )
            gain[~ok] = -np.inf
            i = int(np.argmax(gain))  # first max: the lowest threshold wins ties
            if gain[i] >= 0.0 and gain[i] > best_gain:
                best_gain = float(gain[i])
                best = (
                    feat,
                    float(xs[i]),
                    np.sort(rows[order[: i + 1]]),
                    np.sort(rows[order[i + 1 :]]),
                )
        return best


def reference_fit(params, x, y, x_val=None, y_val=None):
    """fit_gbdt's boosting loop around ReferenceBuilder: (trees, best_iteration)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    prior = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
    base = float(np.log(prior) - np.log1p(-prior))
    if y.min() == y.max():
        return [], None
    use_val = x_val is not None and params.early_stopping_rounds > 0
    if use_val:
        val_margin = np.full(len(y_val), base)
    margin = np.full(len(y), base)
    trees = []
    best_loss, best_round = np.inf, -1
    for round_index in range(params.n_estimators):
        p = sigmoid(margin)
        builder = ReferenceBuilder(x, p - y, p * (1.0 - p), params)
        builder.build(np.arange(len(y)), 0)
        tree = Tree(
            feature=np.asarray(builder.feature, dtype=np.int64),
            threshold=np.asarray(builder.threshold, dtype=np.float64),
            left=np.asarray(builder.left, dtype=np.int64),
            right=np.asarray(builder.right, dtype=np.int64),
            value=np.asarray(builder.value, dtype=np.float64),
        )
        trees.append(tree)
        margin += params.learning_rate * reference_tree_predict(tree, x)
        if use_val:
            val_margin += params.learning_rate * reference_tree_predict(tree, x_val)
            loss = logloss(y_val, sigmoid(val_margin))
            if loss < best_loss:
                best_loss, best_round = loss, round_index
            elif round_index - best_round >= params.early_stopping_rounds:
                break
    if use_val and best_round >= 0:
        return trees[: best_round + 1], best_round
    return trees, None


def assert_matches_reference(params, x, y, x_val=None, y_val=None):
    model = fit_gbdt(params, x, y, x_val, y_val)
    trees, best_iteration = reference_fit(params, x, y, x_val, y_val)
    assert model.best_iteration == best_iteration
    assert len(model.trees) == len(trees)
    for got, want in zip(model.trees, trees):
        for name in NODE_ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    return model


def logloss(y, p):
    p = np.clip(p, 1e-7, 1 - 1e-7)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def oracle_best_split(x, grad, hess, lam, gamma, mcw):
    """Exhaustive split search mirroring the documented selection rules."""
    g_sum, h_sum = grad.sum(), hess.sum()
    parent = g_sum**2 / (h_sum + lam)
    best = None
    best_gain = -np.inf
    for feat in range(x.shape[1]):
        for thr in sorted(set(x[:, feat]))[:-1]:
            left = x[:, feat] <= thr
            gl, hl = grad[left].sum(), hess[left].sum()
            gr, hr = g_sum - gl, h_sum - hl
            if hl < mcw or hr < mcw:
                continue
            gain = 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent) - gamma
            if gain >= 0.0 and gain > best_gain:
                best_gain = gain
                best = (feat, thr)
    return best


def test_root_split_matches_oracle():
    rng = np.random.default_rng(7)
    for trial in range(30):
        x = rng.normal(size=(40, 3))
        y = (rng.random(40) < 0.4).astype(float)
        if y.min() == y.max():
            continue
        params = GBDTParams(n_estimators=1, max_depth=1, min_child_weight=0.0)
        model = fit_gbdt(params, x, y)
        # Round 0 gradients are computable from the prior alone.
        p0 = y.mean()
        grad = np.full(40, p0) - y
        hess = np.full(40, p0 * (1 - p0))
        expected = oracle_best_split(x, grad, hess, 1.0, 0.0, 0.0)
        tree = model.trees[0]
        assert expected is not None
        assert tree.feature[0] == expected[0]
        assert tree.threshold[0] == pytest.approx(expected[1], abs=0.0)


def test_hand_computed_two_point_tree():
    # prior 0.5 -> base 0, grads (+-0.5), hessians 0.25:
    # gain 0.2, leaf weights -0.4 and +0.4.
    params = GBDTParams(n_estimators=1, max_depth=1, min_child_weight=0.0)
    model = fit_gbdt(params, [[0.0], [1.0]], [0.0, 1.0])
    assert model.base_score == 0.0
    tree = model.trees[0]
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 0.0
    leaves = sorted(tree.value[tree.feature == -1])
    assert leaves == pytest.approx([-0.4, 0.4], abs=1e-15)
    margins = model.predict_margin([[0.0], [1.0]])
    assert margins == pytest.approx([-0.04, 0.04], abs=1e-15)


def test_boundary_value_routes_left():
    params = GBDTParams(n_estimators=1, max_depth=1, min_child_weight=0.0)
    model = fit_gbdt(params, [[0.0], [1.0]], [0.0, 1.0])
    thr = model.trees[0].threshold[0]
    on_boundary = model.predict_margin([[thr]])
    below = model.predict_margin([[thr - 1.0]])
    assert on_boundary[0] == below[0]


def test_separable_1d_reaches_perfect_accuracy():
    x = np.linspace(0, 1, 50).reshape(-1, 1)
    y = (x[:, 0] > 0.5).astype(float)
    model = fit_gbdt(GBDTParams(n_estimators=50, max_depth=2), x, y)
    pred = model.predict_proba(x) > 0.5
    assert np.array_equal(pred, y.astype(bool))


def test_xor_needs_depth_two():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    # Every root split of this data has gain exactly 0.0; growth must not
    # stall there, or the interaction below stays invisible.
    shallow = fit_gbdt(
        GBDTParams(n_estimators=50, max_depth=1, min_child_weight=0.0), x, y
    )
    assert shallow.predict_proba(x) == pytest.approx([0.5] * 4, abs=1e-12)

    deep = fit_gbdt(
        GBDTParams(n_estimators=50, max_depth=2, min_child_weight=0.0), x, y
    )
    pred = deep.predict_proba(x) > 0.5
    assert np.array_equal(pred, y.astype(bool))


def test_single_class_labels_give_prior_only_model():
    x = np.ones((5, 2))
    model = fit_gbdt(GBDTParams(), x, np.ones(5))
    assert model.degenerate
    assert model.trees == []
    expected = sigmoid(np.log(1 - 1e-6) - np.log(1e-6))
    assert model.predict_proba(x) == pytest.approx([expected] * 5)


def test_train_logloss_decreases_each_round():
    rng = np.random.default_rng(3)
    x = np.vstack([rng.normal(-1, 1, (60, 2)), rng.normal(1, 1, (60, 2))])
    y = np.r_[np.zeros(60), np.ones(60)]
    model = fit_gbdt(GBDTParams(n_estimators=30, max_depth=3), x, y)
    margin = np.full(len(y), model.base_score)
    losses = [logloss(y, sigmoid(margin))]
    for tree in model.trees:
        margin += model.params.learning_rate * reference_tree_predict(tree, x)
        losses.append(logloss(y, sigmoid(margin)))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_huge_lambda_collapses_to_prior():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(100, 4))
    y = (rng.random(100) < 0.3).astype(float)
    model = fit_gbdt(GBDTParams(reg_lambda=1e12), x, y)
    base_prob = sigmoid(np.full(100, model.base_score))
    assert model.predict_proba(x) == pytest.approx(base_prob, abs=1e-6)


def test_fit_is_deterministic():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(80, 5))
    y = (x[:, 0] + 0.3 * rng.normal(size=80) > 0).astype(float)
    a = fit_gbdt(GBDTParams(n_estimators=20), x, y)
    b = fit_gbdt(GBDTParams(n_estimators=20), x, y)
    assert len(a.trees) == len(b.trees)
    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold)
        assert np.array_equal(ta.value, tb.value)


def test_early_stopping_truncates_to_best_round():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(120, 3))
    y = (x[:, 0] > 0).astype(float)
    x_val = rng.normal(size=(40, 3))
    y_val = (rng.random(40) < 0.5).astype(float)  # noise: val loss must turn
    params = GBDTParams(n_estimators=200, max_depth=3, early_stopping_rounds=3)
    model = fit_gbdt(params, x, y, x_val, y_val)
    assert model.best_iteration is not None
    assert len(model.trees) == model.best_iteration + 1
    assert len(model.trees) < params.n_estimators

    # The truncated model must be the validation-loss argmin over prefixes.
    full = fit_gbdt(
        GBDTParams(n_estimators=200, max_depth=3, early_stopping_rounds=0), x, y
    )
    margin = np.full(len(y_val), full.base_score)
    losses = []
    for tree in full.trees:
        margin += full.params.learning_rate * reference_tree_predict(tree, x_val)
        losses.append(logloss(y_val, sigmoid(margin)))
    prefix = losses[: model.best_iteration + 3 + 1]
    assert int(np.argmin(prefix)) == model.best_iteration


def test_feature_ties_break_toward_lower_index():
    rng = np.random.default_rng(23)
    col = rng.normal(size=30)
    x = np.column_stack([col, col])  # identical columns, identical gains
    y = (col > 0).astype(float)
    model = fit_gbdt(GBDTParams(n_estimators=1, max_depth=1), x, y)
    assert model.trees[0].feature[0] == 0


def test_threshold_ties_break_toward_lower_value():
    # grads alternate, so cutting after row 0 and after row 2 score equally.
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    params = GBDTParams(n_estimators=1, max_depth=1, min_child_weight=0.0)
    model = fit_gbdt(params, x, y)
    assert model.trees[0].threshold[0] == 0.0


def test_router_params_defaults_and_overrides():
    base = router_params()
    assert base.max_depth == 3
    assert base.n_estimators == 100
    tweaked = replace(router_params(), learning_rate=0.3)
    assert tweaked.learning_rate == 0.3
    assert tweaked.max_depth == 3


def _stump(left):
    return Tree(feature=np.array([0, -1, -1]), threshold=np.array([0.5, 0.0, 0.0]),
                left=np.array([left, -1, -1]), right=np.array([2, -1, -1]),
                value=np.array([0.0, -1.0, 1.0]))


def test_a_model_checks_its_trees():
    # Before the check moved into GBDTModel, only load_model ran it, so a
    # model built in code with a cyclic tree never returned from scoring.
    GBDTModel(params=GBDTParams(), n_features=2, base_score=0.0, trees=[_stump(1)])
    with pytest.raises(ConfigurationError,
                       match=r"^tree 1, node 0: children \(0, 2\) must lie after the node"):
        GBDTModel(params=GBDTParams(), n_features=2, base_score=0.0,
                  trees=[_stump(1), _stump(0)])
    # A split below a split is depth 2: max_depth 2 takes it, 1 does not.
    deep = Tree(feature=np.array([0, 1, -1, -1, -1]), threshold=np.zeros(5),
                left=np.array([1, 3, -1, -1, -1]), right=np.array([2, 4, -1, -1, -1]),
                value=np.zeros(5))
    GBDTModel(params=GBDTParams(max_depth=2), n_features=2, base_score=0.0, trees=[deep])
    with pytest.raises(ConfigurationError, match=r"^tree 1, node 1: a split at depth 1 makes "
                                                 r"the tree deeper than max_depth 1$"):
        GBDTModel(params=GBDTParams(max_depth=1), n_features=2, base_score=0.0,
                  trees=[_stump(1), deep])


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        GBDTParams(reg_lambda=0.0)
    with pytest.raises(ConfigurationError):
        GBDTParams(max_depth=0)
    with pytest.raises(InputError):
        fit_gbdt(GBDTParams(), np.zeros((3, 2)), [0.0, 1.0])
    with pytest.raises(InputError):
        fit_gbdt(GBDTParams(), np.zeros((2, 2)), [0.0, 2.0])
    with pytest.raises(InputError):
        fit_gbdt(GBDTParams(), np.zeros((0, 2)), [])
    model = fit_gbdt(GBDTParams(), np.eye(3), [0.0, 1.0, 0.0])
    with pytest.raises(InputError):
        model.predict_proba(np.zeros((2, 5)))


def _ties(rng):
    x = rng.integers(0, 3, size=(60, 4)).astype(float)
    y = (x[:, 0] + x[:, 1] + rng.normal(0, 1, 60) > 2).astype(float)
    return {}, x, y, None, None


def _constant_columns(rng):
    x = rng.normal(size=(50, 4))
    x[:, 0] = 1.5
    x[:, 2] = -3.0
    y = (x[:, 1] + 0.5 * rng.normal(size=50) > 0).astype(float)
    return {}, x, y, None, None


def _tiny_nodes(rng):
    # Five rows under a deep cap leave 1-row and 2-row nodes to search.
    x = rng.normal(size=(5, 2))
    y = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    return {"min_child_weight": 0.0}, x, y, None, None


def _min_child_weight(rng):
    x = np.round(rng.normal(size=(80, 3)), 1)
    y = (x[:, 0] - x[:, 2] + rng.normal(0, 0.5, 80) > 0).astype(float)
    return {"min_child_weight": 3.0}, x, y, None, None


def _min_split_gain(rng):
    x = rng.normal(size=(80, 3))
    y = (x[:, 1] + rng.normal(0, 1, 80) > 0.3).astype(float)
    return {"min_split_gain": 0.05, "min_child_weight": 0.0}, x, y, None, None


def _zero_min_child_weight(rng):
    # Every candidate passes the hessian masks, so only value ties are masked.
    x = rng.integers(0, 4, size=(70, 3)).astype(float)
    y = (x[:, 0] - x[:, 1] + rng.normal(0, 1, 70) > 0).astype(float)
    return {"min_child_weight": 0.0}, x, y, None, None


def _duplicated_rows(rng):
    # Every row three times, and a 0/1 column: long runs of equal values.
    x = rng.normal(size=(25, 3))
    x[:, 1] = x[:, 1] > 0
    y = (x[:, 0] + x[:, 1] + rng.normal(0, 0.5, 25) > 0.5).astype(float)
    return {"min_child_weight": 0.1}, np.repeat(x, 3, axis=0), np.repeat(y, 3), None, None


def _early_stopping(rng):
    x = rng.normal(size=(90, 3))
    y = (x[:, 0] > 0).astype(float)
    x_val = rng.normal(size=(30, 3))
    y_val = (x_val[:, 0] + rng.normal(0, 1.5, 30) > 0).astype(float)  # turns after a few rounds
    return {"n_estimators": 60, "early_stopping_rounds": 3}, x, y, x_val, y_val


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "case",
    [_ties, _constant_columns, _tiny_nodes, _min_child_weight, _min_split_gain, _early_stopping,
     _zero_min_child_weight, _duplicated_rows],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_presorted_search_grows_the_reference_trees(case, depth):
    rng = np.random.default_rng(depth)
    overrides, x, y, x_val, y_val = case(rng)
    params = GBDTParams(**{"n_estimators": 12, "max_depth": depth, **overrides})
    model = assert_matches_reference(params, x, y, x_val, y_val)
    assert model.trees


def unmasked_winner_is_a_tie(x, y, min_child_weight):
    """Whether the root's first-round gain table, masked by min_child_weight
    alone, peaks between two equal values of its feature."""
    p = np.full(len(y), y.mean())
    grad, hess = p - y, p * (1.0 - p)
    g_sum, h_sum = grad.sum(), hess.sum()
    gains, ties = [], []
    for col in x.T:
        order = np.argsort(col, kind="stable")
        g_left, h_left = np.cumsum(grad[order])[:-1], np.cumsum(hess[order])[:-1]
        gain = (g_left**2 / (h_left + 1.0) + (g_sum - g_left) ** 2 / (h_sum - h_left + 1.0)
                - g_sum**2 / (h_sum + 1.0))
        gain[(h_left < min_child_weight) | (h_sum - h_left < min_child_weight)] = -np.inf
        gains.append(gain)
        ties.append(col[order][:-1] == col[order][1:])
    return bool(np.concatenate(ties)[np.argmax(np.concatenate(gains))])


def test_a_winner_on_a_tie_falls_back_to_the_masked_table(monkeypatch):
    # Cutting between the two 1.0s would separate the labels perfectly, so the
    # table without tie masks peaks there; the fitted cut must avoid it.
    x = np.array([[0.0], [1.0], [1.0], [2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    params = GBDTParams(n_estimators=3, max_depth=2, min_child_weight=0.0)
    assert unmasked_winner_is_a_tie(x, y, 0.0)
    gathers = []
    take = np.take_along_axis
    monkeypatch.setattr(np, "take_along_axis", lambda *a, **k: gathers.append(1) or take(*a, **k))
    model = assert_matches_reference(params, x, y)
    assert gathers  # the tie fallback ran
    assert model.trees[0].threshold[0] in (0.0, 1.0)


def test_a_winner_off_a_tie_never_gathers_the_values(monkeypatch):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(200, 3))  # distinct values: no candidate sits on a tie
    y = (x[:, 0] + rng.normal(0, 0.5, 200) > 0).astype(float)
    monkeypatch.setattr(np, "take_along_axis", lambda *a, **k: pytest.fail("gathered"))
    assert_matches_reference(GBDTParams(n_estimators=5, max_depth=3), x, y)


@pytest.mark.parametrize("edge, splits", [
    (np.nextafter(1.0, 0.0), True),  # hessian mass just above 2 * min_child_weight
    (1.0, True),  # exactly 2 * min_child_weight: h_sum - mcw == mcw, a 4/4 split fits
    (np.nextafter(1.0, 2.0), False),  # just below: nothing to search
])
def test_hessian_mass_around_twice_min_child_weight(monkeypatch, edge, splits):
    # Balanced labels: every first-round hessian is 0.25, so the root's mass is 2.0.
    x = np.arange(8.0)[:, None]
    y = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    searches = []
    search = gbdt._TreeBuilder._best_split
    monkeypatch.setattr(gbdt._TreeBuilder, "_best_split",
                        lambda self, *a: searches.append(1) or search(self, *a))
    params = GBDTParams(n_estimators=4, max_depth=3, min_child_weight=float(edge))
    model = assert_matches_reference(params, x, y)
    assert (model.trees[0].feature[0] == 0) == splits
    assert bool(searches) == splits  # a node that cannot split is never searched
    if splits:
        assert model.trees[0].threshold[0] == 3.0


@pytest.mark.parametrize("min_child_weight", [0.25, 0.5, 0.75])
def test_hessian_mass_skip_on_deeper_nodes(min_child_weight):
    # First-round hessians are all 0.25, so some node masses land exactly on
    # 2 * min_child_weight, and some nodes under the depth cap are skipped.
    rng = np.random.default_rng(8)
    x = rng.integers(0, 5, size=(48, 2)).astype(float)
    y = (np.arange(48) % 2).astype(float)
    rng.shuffle(y)
    params = GBDTParams(n_estimators=6, max_depth=4, min_child_weight=min_child_weight)
    assert_matches_reference(params, x, y)


def test_early_stopping_over_several_validation_blocks():
    # The validation rows are scored block by block, the last block short.
    # The first block's labels are noise, so the stopping round is a balance
    # of every block's margins.
    rng = np.random.default_rng(12)
    x = rng.normal(size=(300, 3))
    y = (x[:, 0] + rng.normal(0, 0.3, 300) > 0).astype(float)
    x_val = rng.normal(size=(2 * errors._BLOCK_ROWS + errors._BLOCK_ROWS // 2, 3))
    y_val = (x_val[:, 0] + rng.normal(0, 0.3, len(x_val)) > 0).astype(float)
    y_val[: errors._BLOCK_ROWS] = rng.random(errors._BLOCK_ROWS) < 0.5
    params = GBDTParams(n_estimators=60, max_depth=3, early_stopping_rounds=4)
    model = assert_matches_reference(params, x, y, x_val, y_val)
    assert model.best_iteration is not None and len(model.trees) < 60


def test_router_shaped_fit_grows_the_reference_trees():
    # The cv-desk router's shape: 1,000 rows, about 1% positive targets.
    x, y, _ = data.synthesize(1000, 0.01, seed=0)
    assert 5 <= y.sum() <= 20
    model = assert_matches_reference(router_params(), x, y)
    assert len(model.trees) == router_params().n_estimators
    assert all(tree.feature[0] >= 0 for tree in model.trees)


def test_validation_rows_must_align_with_labels():
    x = np.eye(3)
    with pytest.raises(InputError, match="validation features .* do not align"):
        fit_gbdt(GBDTParams(), x, [0.0, 1.0, 0.0], np.eye(3), [0.0, 1.0])
    with pytest.raises(InputError, match="validation rows have 2 features, expected 3"):
        fit_gbdt(GBDTParams(), x, [0.0, 1.0, 0.0], np.eye(3)[:, :2], [0.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validation_features_must_be_finite(bad):
    x_val = np.eye(3)
    x_val[1, 2] = bad
    with pytest.raises(InputError, match=r"validation feature rows .* row indices \[1\]"):
        fit_gbdt(GBDTParams(), np.eye(3), [0.0, 1.0, 0.0], x_val, [0.0, 1.0, 1.0])
    with pytest.raises(InputError, match=r"training feature rows .* row indices \[1\]"):
        fit_gbdt(GBDTParams(), x_val, [0.0, 1.0, 0.0])


def test_empty_validation_set_is_rejected():
    # An empty set has no log-loss to early-stop on.
    with pytest.raises(InputError, match="empty validation"):
        fit_gbdt(GBDTParams(), np.eye(3), [0.0, 1.0, 0.0], np.zeros((0, 3)), [])
    # Without early stopping the validation set is unused.
    model = fit_gbdt(GBDTParams(early_stopping_rounds=0), np.eye(3), [0.0, 1.0, 0.0],
                     np.zeros((0, 3)), [])
    assert model.best_iteration is None


def test_validation_labels_must_be_binary():
    with pytest.raises(InputError, match="validation labels must be 0 or 1"):
        fit_gbdt(GBDTParams(), np.eye(3), [0.0, 1.0, 0.0], np.eye(3), [0.0, 2.0, 1.0])


# --- prediction: the leaf-code scorer against a per-tree walker ---


def reference_tree_predict(tree, x):
    """One tree's leaf value per row, walking only the rows still at a split.

    This is how a tree was scored, one tree at a time, before every tree of
    a forest was scored at once; the scorer must return the same bytes.
    """
    node = np.zeros(x.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[node]
        active = feat >= 0
        if not active.any():
            return tree.value[node]
        rows = np.nonzero(active)[0]
        at = node[rows]
        go_left = x[rows, feat[rows]] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])


def tree_values(tree, x):
    """One tree's value per row from the forest scorer.

    A one-tree model at learning rate 1 over a base score of -0.0 returns
    the tree's values bit for bit: -0.0 + v and v * 1.0 are both v.
    """
    model = GBDTModel(params=GBDTParams(learning_rate=1.0, max_depth=depth_of([tree])),
                      n_features=x.shape[1], base_score=-0.0, trees=[tree])
    return model.predict_margin(x)


def depth_of(trees):
    """The max_depth a model of ``trees`` needs: its deepest split's level plus one, at least 1."""
    deepest = 1
    for tree in trees:
        level = np.zeros(tree.feature.size, dtype=np.int64)
        for node in np.flatnonzero(tree.feature >= 0):  # children sit after their parent
            level[[tree.left[node], tree.right[node]]] = level[node] + 1
        deepest = max(deepest, int(level.max()))
    return deepest


def reference_margin(model, x):
    margin = np.full(x.shape[0], model.base_score)
    for tree in model.trees:
        margin += model.params.learning_rate * reference_tree_predict(tree, x)
    return margin


def random_tree(rng, depth, n_features, thresholds):
    """A valid tree in builder (preorder) layout whose leftmost path is ``depth`` deep."""
    feature, threshold, left, right, value = [], [], [], [], []

    def build(level, on_spine):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(rng.normal()))
        if level < depth and (on_spine or rng.random() < 0.6):
            feature[node] = int(rng.integers(n_features))
            threshold[node] = float(rng.choice(thresholds))
            value[node] = 0.0
            left[node] = build(level + 1, on_spine)
            right[node] = build(level + 1, False)
        return node

    build(0, True)
    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


def random_rows(rng, n_rows, n_features, thresholds, nan_fraction=0.0):
    """Rows drawing half their values from ``thresholds``, so many sit exactly on one."""
    pool = np.concatenate([thresholds, rng.normal(size=thresholds.size)])
    x = rng.choice(pool, size=(n_rows, n_features))
    x[rng.random((n_rows, n_features)) < nan_fraction] = np.nan
    return x


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_walks_match_reference(trees, x, learning_rate=0.1, base_score=-1.25):
    model = GBDTModel(params=GBDTParams(learning_rate=learning_rate, max_depth=depth_of(trees)),
                      n_features=x.shape[1], base_score=base_score, trees=trees)
    assert_same_bytes(model.predict_margin(x), reference_margin(model, x))
    for tree in trees:
        assert_same_bytes(tree_values(tree, x), reference_tree_predict(tree, x))


THRESHOLDS = np.array([-1.0, -0.25, 0.0, 0.5, 1.5])


def test_forest_of_mixed_depths_matches_reference():
    rng = np.random.default_rng(11)
    trees = [random_tree(rng, depth, 4, THRESHOLDS) for depth in (1, 2, 3, 4, 5) * 4]
    rng.shuffle(trees)
    assert_walks_match_reference(trees, random_rows(rng, 700, 4, THRESHOLDS))


def tree_of_splits(rng, shape, n_features, thresholds):
    """A valid tree in builder (preorder) layout: ``shape`` is a split count,
    for a subtree whose splits fall left or right at random, "chain n" for n
    splits each with a leaf on its right, "full d" for a full tree of depth
    d, or a pair of shapes for a split over those two subtrees."""
    feature, threshold, left, right, value = [], [], [], [], []

    def build(shape):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(rng.normal()))
        if isinstance(shape, str):
            kind, n = shape.split()
            n = int(n)
            shape = (0 if n == 0 else (f"{kind} {n - 1}", 0 if kind == "chain" else f"full {n - 1}"))
        elif isinstance(shape, int) and shape:
            below = int(rng.integers(shape))
            shape = (below, shape - 1 - below)
        if shape:
            feature[node] = int(rng.integers(n_features))
            threshold[node] = float(rng.choice(thresholds))
            value[node] = 0.0
            left[node] = build(shape[0])
            right[node] = build(shape[1])
        return node

    build(shape)
    return Tree(*(np.asarray(a, dtype=t) for a, t in zip(
        (feature, threshold, left, right, value),
        (np.int64, np.float64, np.int64, np.int64, np.float64))))


@pytest.mark.parametrize("shape, above, groups", [
    (8, 0, [8]),  # the widest group: the whole tree in one uint8 code
    (9, 1, None),  # one split too many: the root selects between its children's groups
    ((8, 9), 2, None),  # both sizes under one node
    ("chain 8", 0, [8]),  # a group eight levels deep
    ("chain 9", 1, [8]),
    ("full 6", 7, [7] * 8),  # dense depth 6: 63 splits, a group under each depth-3 node
    (0, 0, []),  # a lone leaf
], ids=["8 splits", "9 splits", "8 and 9 under one node", "chain of 8", "chain of 9",
        "dense depth 6", "lone leaf"])
def test_leaf_code_groups_match_reference(shape, above, groups):
    rng = np.random.default_rng(30)
    tree = tree_of_splits(rng, shape, 4, THRESHOLDS)
    _, steps = tree._plan(tree.value)
    codes = [len(step[1]) for step in steps if len(step) == 3]
    assert len(steps) - len(codes) == above
    assert sum(codes) + above == int((tree.feature >= 0).sum())
    assert max(codes, default=0) <= gbdt._GROUP_SPLITS
    if groups is not None:
        assert sorted(codes) == groups
    # Rows on every threshold, NaN rows, a lone leaf beside the tree, and no rows.
    x = np.concatenate([random_rows(rng, 600, 4, THRESHOLDS, nan_fraction=0.1),
                        np.tile(THRESHOLDS[:, None], (1, 4)), np.full((3, 4), np.nan)])
    lone = tree_of_splits(rng, 0, 4, THRESHOLDS)
    for trees in ([tree], [lone, tree, tree, lone]):
        assert_walks_match_reference(trees, x)
        assert_walks_match_reference(trees, x[:0])


def test_rows_on_a_threshold_go_left():
    rng = np.random.default_rng(12)
    trees = [random_tree(rng, depth, 3, THRESHOLDS) for depth in (1, 3, 5)]
    on_threshold = np.tile(THRESHOLDS[:, None], (1, 3))
    assert_walks_match_reference(trees, on_threshold)
    stump = Tree(feature=np.array([0, -1, -1]), threshold=np.array([0.5, 0.0, 0.0]),
                 left=np.array([1, -1, -1]), right=np.array([2, -1, -1]),
                 value=np.array([0.0, -1.0, 1.0]))
    got = tree_values(stump, np.array([[0.5], [np.nextafter(0.5, 1.0)]]))
    assert got.tolist() == [-1.0, 1.0]


def test_nan_goes_right():
    rng = np.random.default_rng(13)
    trees = [random_tree(rng, depth, 3, THRESHOLDS) for depth in (1, 2, 4, 5)]
    assert_walks_match_reference(trees, random_rows(rng, 300, 3, THRESHOLDS, nan_fraction=0.3))
    stump = Tree(feature=np.array([0, -1, -1]), threshold=np.array([0.5, 0.0, 0.0]),
                 left=np.array([1, -1, -1]), right=np.array([2, -1, -1]),
                 value=np.array([0.0, -1.0, 1.0]))
    assert tree_values(stump, np.array([[np.nan]])).tolist() == [1.0]


def test_root_only_trees_return_their_value():
    rng = np.random.default_rng(14)
    roots = [random_tree(rng, 0, 2, THRESHOLDS) for _ in range(3)]
    x = random_rows(rng, 50, 2, THRESHOLDS)
    for root in roots:
        assert root.feature.tolist() == [-1]
        assert_same_bytes(tree_values(root, x), np.full(50, root.value[0]))
    assert_walks_match_reference(roots, x)
    assert_walks_match_reference(roots + [random_tree(rng, 3, 2, THRESHOLDS)], x)


def test_zero_trees_and_zero_rows():
    rng = np.random.default_rng(15)
    x = random_rows(rng, 9, 3, THRESHOLDS)
    empty = GBDTModel(params=GBDTParams(), n_features=3, base_score=0.3)
    assert_same_bytes(empty.predict_margin(x), np.full(9, 0.3))
    trees = [random_tree(rng, depth, 3, THRESHOLDS) for depth in (0, 2, 4)]
    assert_walks_match_reference(trees, np.zeros((0, 3)))
    assert_walks_match_reference([], np.zeros((0, 3)))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_row_counts_around_one_chunk(offset):
    rng = np.random.default_rng(16 + offset)
    trees = [random_tree(rng, depth, 5, THRESHOLDS) for depth in (1, 3, 4, 5, 2)]
    x = random_rows(rng, errors._BLOCK_ROWS + offset, 5, THRESHOLDS, nan_fraction=0.05)
    assert_walks_match_reference(trees, x)


def test_several_chunks_stay_chunk_sized():
    rng = np.random.default_rng(17)
    trees = [random_tree(rng, depth, 5, THRESHOLDS) for depth in (2, 3, 4) * 5]
    x = random_rows(rng, 3 * errors._BLOCK_ROWS + 17, 5, THRESHOLDS, nan_fraction=0.05)
    assert_walks_match_reference(trees, x)
    # No step holds an (all rows) table: each block is transposed and scored on its own.
    blocks = list(gbdt._row_blocks(x))
    assert [xt.shape for _, xt in blocks] == [(5, errors._BLOCK_ROWS)] * 3 + [(5, 17)]
    for rows, xt in blocks:
        assert xt.flags.c_contiguous
        assert np.array_equal(xt, x[rows].T, equal_nan=True)
        values = [gbdt._score_tree(tree._plan(tree.value), xt) for tree in trees]
        assert {v.shape for v in values} == {(xt.shape[1],)}


def test_scoring_memory_does_not_grow_with_the_blocks():
    # Nothing of a block outlives it, even with the cycle collector off: a
    # reference cycle through the scorer would keep every block's transposed
    # copy alive until the collector ran.
    rng = np.random.default_rng(19)
    trees = [random_tree(rng, depth, 5, THRESHOLDS) for depth in (2, 4, 6) * 4]
    model = GBDTModel(params=GBDTParams(max_depth=6), n_features=5, base_score=0.5, trees=trees)

    def peak_beyond_the_margin(n_blocks):
        x = random_rows(rng, n_blocks * errors._BLOCK_ROWS, 5, THRESHOLDS, nan_fraction=0.05)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            margin = model.predict_margin(x)
            return tracemalloc.get_traced_memory()[1] - margin.nbytes
        finally:
            tracemalloc.stop()
            gc.enable()

    one_block = peak_beyond_the_margin(1)
    assert peak_beyond_the_margin(4) <= one_block + 8 * errors._BLOCK_ROWS


def test_fitted_models_predict_the_reference_margins():
    rng = np.random.default_rng(18)
    x = np.round(rng.normal(size=(400, 4)), 1)
    y = (x[:, 0] + x[:, 1] * x[:, 2] + rng.normal(0, 0.5, 400) > 0).astype(float)
    for params in (GBDTParams(n_estimators=30, max_depth=4), replace(router_params(), n_estimators=20)):
        model = fit_gbdt(params, x, y)
        probe = np.concatenate([x, random_rows(rng, 100, 4, x[:5, 0], nan_fraction=0.2)])
        assert_same_bytes(model.predict_margin(probe), reference_margin(model, probe))


def test_a_replaced_forest_scores_exactly_its_own_trees(monkeypatch):
    # A model keeps the plan of its first scoring; a copy with fewer trees
    # must build its own, not read its source's.
    rng = np.random.default_rng(20)
    x = np.round(rng.normal(size=(400, 4)), 1)
    y = (x[:, 0] + x[:, 1] * x[:, 2] + rng.normal(0, 0.5, 400) > 0).astype(float)
    model = fit_gbdt(GBDTParams(n_estimators=30, max_depth=3, early_stopping_rounds=0), x, y)
    probe = random_rows(rng, errors._BLOCK_ROWS + 50, 4, x[:5, 0], nan_fraction=0.1)
    model.predict_margin(probe)
    scored = []
    score_tree = gbdt._score_tree

    def counting(plan, xt):
        scored.append(xt.shape[1])
        return score_tree(plan, xt)

    monkeypatch.setattr(gbdt, "_score_tree", counting)
    for k in (0, 1, 7, 29):
        short = replace(model, trees=model.trees[:k])
        scored.clear()
        assert_same_bytes(short.predict_margin(probe), reference_margin(short, probe))
        assert sum(scored) == k * probe.shape[0]  # k trees over every row
        gate = sigmoid(reference_margin(short, probe))
        assert np.array_equal(gate_above(short, probe, 0.5), gate > 0.5)
    assert_same_bytes(model.predict_margin(probe), reference_margin(model, probe))


def gate_above(model, x, gamma):
    """``model.predict_proba(x) > gamma`` through ``gbdt._Gate``, as serving drives it:
    the rows checked for the model's width, then each row block, then the pool
    in one block's buffer; at gamma >= 1, where serving builds no gate, no row."""
    x = feature_rows(x, model.n_features)
    above = np.zeros(x.shape[0], dtype=bool)
    if gamma >= 1.0:
        return above
    gate = gbdt._Gate(model, x, gamma, above)
    for rows, xt in gbdt._row_blocks(x):
        gate.block(rows, xt)
    gate.finish(np.empty(x[: errors._BLOCK_ROWS].size))
    return above


def _fitted_router(rng):
    x = rng.normal(size=(3000, 4))
    y = ((x[:, 0] > 1.2) & (x[:, 1] > 0.0)).astype(float)
    return fit_gbdt(GBDTParams(n_estimators=40, max_depth=3), x, y), rng.normal(size=(20_000, 4))


def test_gate_equals_thresholded_proba_on_a_fitted_router():
    model, x = _fitted_router(np.random.default_rng(21))
    proba = sigmoid(reference_margin(model, x))
    # Serving builds a gate only for 0 < gamma < 1 and refuses gamma <= 0 or NaN
    # (test_moe's gamma check), so the smallest positive double is the low end.
    gammas = [1.0, 0.99, 0.9, 0.5, 0.1, 1e-3, np.nextafter(0.0, 1.0),
              float(np.median(proba)), float(proba.max()), float(np.sort(proba)[-50]),
              np.nextafter(float(proba.max()), 0.0)]
    for gamma in gammas:
        assert np.array_equal(gate_above(model, x, gamma), proba > gamma), gamma
    assert gate_above(model, x, 0.5).any()


def test_gate_scores_only_rows_that_can_still_clear(monkeypatch):
    model, x = _fitted_router(np.random.default_rng(22))
    scored = []
    score_tree = gbdt._score_tree

    def counting(plan, xt):
        scored.append(xt.shape[1])
        return score_tree(plan, xt)

    monkeypatch.setattr(gbdt, "_score_tree", counting)
    assert not gate_above(model, x, 1.0).any()
    assert scored == []  # a sigmoid never exceeds 1: nothing is scored
    gate_above(model, x, 0.5)
    assert 0 < sum(scored) < 0.5 * len(model.trees) * x.shape[0]


def test_gate_checks_the_input_shape():
    model, x = _fitted_router(np.random.default_rng(23))
    with pytest.raises(InputError):
        gate_above(model, x[:, :3], 1.0)


def test_gate_keeps_rows_whose_margin_meets_the_bound():
    # Every tree is a stump whose left leaf is its largest, so the first row,
    # which goes left everywhere, ends on exactly the bound the gate prunes by
    # (up to the rounding the slack covers), and a gamma one float below its
    # probability must still flag it.
    rng = np.random.default_rng(24)
    stump = dict(feature=np.array([0, -1, -1]), threshold=np.zeros(3),
                 left=np.array([1, -1, -1]), right=np.array([2, -1, -1]))
    x = np.array([[-1.0], [1.0]])
    for _ in range(300):
        n_trees = int(rng.integers(1, 3 * gbdt._CHECK_TREES + 2))
        scale = 10.0 ** rng.uniform(-3, 1)
        trees = []
        for _ in range(n_trees):
            high, low = np.sort(rng.normal(size=2) * scale)[::-1]
            trees.append(Tree(value=np.array([0.0, high, low]), **stump))
        model = GBDTModel(params=GBDTParams(learning_rate=float(rng.choice([0.1, 0.3, 1.0]))),
                          n_features=1, base_score=float(rng.normal() * 3), trees=trees)
        proba = sigmoid(reference_margin(model, x))
        for gamma in (proba[0], np.nextafter(proba[0], 0.0), np.nextafter(proba[0], 1.0)):
            assert np.array_equal(gate_above(model, x, gamma), proba > gamma), gamma


def _staggered_gate_case(n_rows):
    """A forest whose row blocks hand over to the gate's pool at different checks.

    Feature 1 holds a row's kind c: tree j sends rows with c <= j // 8 to a
    leaf of -10, so kind c drops at check 8 (c + 1), and kind 5 never does;
    the others take +0.1 or -0.05 by feature 0. A block of kind b % 3 is
    mostly kinds up to b % 3, so it keeps more than half its rows until check
    8 (b % 3 + 1). A lone leaf sits among the trees.
    """
    trees = []
    for j in range(40):
        trees.append(Tree(feature=np.array([1, -1, 0, -1, -1]),
                          threshold=np.array([j // 8 + 0.5, 0.0, 0.3 * (j % 5) - 0.6, 0.0, 0.0]),
                          left=np.array([1, -1, 3, -1, -1]), right=np.array([2, -1, 4, -1, -1]),
                          value=np.array([0.0, -10.0, 0.0, 0.1, -0.05])))
    trees.insert(20, Tree(feature=np.array([-1]), threshold=np.zeros(1), left=np.array([-1]),
                          right=np.array([-1]), value=np.array([0.05])))
    model = GBDTModel(params=GBDTParams(learning_rate=1.0, max_depth=2), n_features=2,
                      base_score=0.0, trees=trees)
    kind = []
    for i in range(n_rows):
        cuts = ([0.8], [0.3, 0.6], [0.2, 0.4, 0.6])[i // errors._BLOCK_ROWS % 3]
        c = int(np.searchsorted(cuts, i % errors._BLOCK_ROWS / errors._BLOCK_ROWS, "right"))
        kind.append(5.0 if c == len(cuts) else c)
    x = np.c_[np.random.default_rng(n_rows).normal(size=n_rows), kind]
    return model, x


@pytest.mark.parametrize("n_rows", [0, errors._BLOCK_ROWS - 1, errors._BLOCK_ROWS,
                                    errors._BLOCK_ROWS + 1, 3 * errors._BLOCK_ROWS])
def test_pooled_gate_equals_thresholded_proba(n_rows):
    model, x = _staggered_gate_case(n_rows)
    proba = model.predict_proba(x)
    for gamma in (1e-3, 0.5, 0.9, np.nextafter(1.0, 0.0), 1.0):
        for rows in (x, np.asfortranarray(x)):  # the pool gathers from either layout
            above = gate_above(model, rows, gamma)
            want = proba > gamma
            assert above.dtype == want.dtype and above.tobytes() == want.tobytes(), gamma
    assert gate_above(model, x, 0.5).any() == bool(n_rows)


def test_the_gate_pool_merges_blocks_handed_over_at_different_checks():
    model, x = _staggered_gate_case(3 * errors._BLOCK_ROWS + 100)
    above = np.zeros(x.shape[0], dtype=bool)
    gate = gbdt._Gate(model, x, 0.5, above)
    for rows, xt in gbdt._row_blocks(x):
        gate.block(rows, xt)
    # Blocks of kind 0, 1 and 2 hand over at checks 8, 16 and 24; the last
    # 100 rows, all kind 0, at 8.
    assert [k for k, _, _ in gate.pool] == [8, 16, 24, 8]
    assert all(2 * ids.size <= errors._BLOCK_ROWS for _, ids, _ in gate.pool)
    gate.finish(np.empty(x[: errors._BLOCK_ROWS].size))
    assert np.array_equal(above, model.predict_proba(x) > 0.5)
    assert above[gate.pool[2][1]].any()  # rows that joined the pool last still clear
