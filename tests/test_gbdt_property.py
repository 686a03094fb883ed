"""Property tests: the presorted split search grows the reference grower's trees,
and the compare-and-select scorer predicts what the per-tree reference walker
predicts.

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
    random_rows,
    random_tree,
)

from qmoe import gbdt  # noqa: E402
from qmoe.gbdt import GBDTParams  # noqa: E402


@st.composite
def fit_cases(draw):
    rows = draw(st.integers(2, 30))
    feats = draw(st.integers(1, 4))
    # A few distinct values per column, so value ties and constant columns are common.
    value = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-3, 3, allow_nan=False)
    x = np.array(draw(st.lists(value, min_size=rows * feats, max_size=rows * feats)))
    labels = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=rows, max_size=rows))
    params = GBDTParams(
        n_estimators=draw(st.integers(1, 6)),
        max_depth=draw(st.integers(1, 5)),
        min_child_weight=draw(st.sampled_from([0.0, 0.1, 1.0])),
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
    return params, x.reshape(rows, feats), np.array(labels), x_val, y_val


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
    block = gbdt._BLOCK_ROWS
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
