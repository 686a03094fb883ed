"""Property tests: the presorted split search grows the reference grower's trees
(duplicated rows, 0/1 columns and min_child_weight on the root's skip edge included),
the compare-and-select scorer predicts what the per-tree reference walker
predicts, and the bounded gate flags exactly the rows predict_proba puts above
gamma.

Kept apart from test_gbdt.py so that module still runs where the optional
``hypothesis`` dev dependency is missing; this one is skipped there.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_gbdt import (  # noqa: E402
    assert_matches_reference,
    assert_walks_match_reference,
    gate_above,
    random_rows,
    random_tree,
)

from qmoe import errors, gbdt  # noqa: E402
from qmoe.gbdt import GBDTModel, GBDTParams  # noqa: E402
from qmoe.neural import sigmoid  # noqa: E402


@st.composite
def fit_cases(draw):
    rows = draw(st.integers(2, 30))
    feats = draw(st.integers(1, 4))
    # A few distinct values per column, so value ties and constant columns are common.
    value = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-3, 3, allow_nan=False)
    x = np.array(draw(st.lists(value, min_size=rows * feats, max_size=rows * feats)))
    x = x.reshape(rows, feats)
    labels = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=rows, max_size=rows)))
    if draw(st.booleans()):  # a 0/1 column
        x[:, 0] = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                                         min_size=rows, max_size=rows)))
    copies = draw(st.sampled_from([1, 1, 2, 3]))  # duplicated rows
    x, labels = np.repeat(x, copies, axis=0), np.repeat(labels, copies)
    # The root's first-round hessian mass: a min_child_weight at half of it,
    # or a float either side, puts the root on the edge of the hessian-mass skip.
    prior = float(np.clip(labels.mean(), 1e-6, 1.0 - 1e-6))
    p = sigmoid(np.full(labels.size, np.log(prior) - np.log1p(-prior)))
    half = float((p * (1.0 - p)).sum()) / 2.0
    edges = [half, np.nextafter(half, 0.0), np.nextafter(half, np.inf)]
    params = GBDTParams(
        n_estimators=draw(st.integers(1, 6)),
        max_depth=draw(st.integers(1, 5)),
        min_child_weight=float(draw(st.sampled_from([0.0, 0.1, 1.0, 0.25, 0.5, *edges]))),
        min_split_gain=draw(st.sampled_from([0.0, 0.01])),
        early_stopping_rounds=draw(st.integers(0, 2)),
    )
    x_val = y_val = None
    if params.early_stopping_rounds:
        n_val = draw(st.integers(1, 10))
        x_val = np.array(draw(st.lists(value, min_size=n_val * feats, max_size=n_val * feats)))
        x_val = x_val.reshape(n_val, feats)
        y_val = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                                       min_size=n_val, max_size=n_val)))
    return params, x, labels, x_val, y_val


@settings(max_examples=80, deadline=None)
@given(fit_cases())
def test_presorted_search_equals_reference_property(case):
    params, x, y, x_val, y_val = case
    assert_matches_reference(params, x, y, x_val, y_val)


@st.composite
def forest_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_features = draw(st.integers(1, 4))
    threshold = st.sampled_from([0.0, -0.0]) | st.floats(-3, 3, allow_nan=False)
    thresholds = np.array(draw(st.lists(threshold, min_size=1, max_size=4)))
    depths = draw(st.lists(st.integers(0, 5), max_size=8))
    trees = [random_tree(rng, depth, n_features, thresholds) for depth in depths]
    # Small pools, and pools ending just short of, on or past a block boundary.
    block = errors._BLOCK_ROWS
    n_rows = draw(st.integers(0, 40) | st.integers(block - 2, block + 2)
                  | st.integers(2 * block - 2, 2 * block + 40))
    x = random_rows(rng, n_rows, n_features, thresholds,
                    nan_fraction=draw(st.sampled_from([0.0, 0.2])))
    # Signed zeros and infinities; half the rest of each row sits on a threshold.
    special = rng.random(x.shape) < draw(st.sampled_from([0.0, 0.1]))
    x[special] = rng.choice([0.0, -0.0, np.inf, -np.inf], size=int(special.sum()))
    learning_rate = draw(st.sampled_from([0.1, 0.3, 1.0]))
    return trees, x, learning_rate


@settings(max_examples=80, deadline=None)
@given(forest_cases())
def test_forest_walk_equals_reference_walker_property(case):
    trees, x, learning_rate = case
    assert_walks_match_reference(trees, x, learning_rate)


@st.composite
def gate_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_features = draw(st.integers(1, 4))
    thresholds = np.array(draw(st.lists(st.floats(-3, 3, allow_nan=False),
                                        min_size=1, max_size=4)))
    # No trees (a degenerate model), fewer trees than one check interval, and
    # forests that cross several check points.
    check = gbdt._CHECK_TREES
    n_trees = draw(st.just(0) | st.integers(1, check + 1)
                   | st.integers(3 * check - 1, 3 * check + 2))
    # Depth 0 is a lone leaf.
    trees = [random_tree(rng, draw(st.integers(0, 4)), n_features, thresholds)
             for _ in range(n_trees)]
    if draw(st.booleans()):  # every leaf negative: most rows drop at the first checks
        for tree in trees:
            tree.value = -np.abs(tree.value)
    model = GBDTModel(params=GBDTParams(learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0]))),
                      n_features=n_features,
                      base_score=draw(st.sampled_from([-3.7, -1.25, 0.0, 2.0])),
                      degenerate=not trees, trees=trees)
    block = errors._BLOCK_ROWS
    n_rows = draw(st.integers(0, 40) | st.integers(block - 2, block + 2)
                  | st.integers(2 * block - 2, 2 * block + 40))
    x = random_rows(rng, n_rows, n_features, thresholds,
                    nan_fraction=draw(st.sampled_from([0.0, 0.2])))
    picks = draw(st.lists(st.integers(0, max(n_rows - 1, 0)), min_size=1, max_size=3))
    return model, x, picks


@settings(max_examples=60, deadline=None)
@given(gate_cases())
def test_gate_equals_thresholded_proba_property(case):
    model, x, picks = case
    proba = model.predict_proba(x)
    # Serving builds a gate only for 0 < gamma < 1 and refuses gamma <= 0 or NaN
    # (test_moe's gamma check), so 5e-324 is the low end.
    gammas = [1.0, 0.9, 0.5, 0.1, 1e-6, 1e-300, 5e-324, np.nextafter(1.0, 0.0)]
    for row in picks if proba.size else ():
        # A row's exact gate value, and the floats on either side of it.
        gate = float(proba[row])
        gammas += [g for g in (gate, np.nextafter(gate, 0.0), np.nextafter(gate, 1.0)) if g > 0.0]
    for gamma in gammas:
        above = gate_above(model, x, gamma)
        assert above.dtype == bool and above.shape == proba.shape
        assert np.array_equal(above, proba > gamma), gamma
