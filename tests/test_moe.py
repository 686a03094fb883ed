"""Routing tests: threshold placement, correction targets, gate behavior, the
serving path against a reference that scores the router in full, and a call
split into parts on forked children."""

import re
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from qmoe import errors, moe
from qmoe.calibration import TemperatureScaler, apply_temperature, fit_temperature
from qmoe.data import MinMaxScaler, fit_minmax
from qmoe.errors import ConfigurationError, InputError
from qmoe.gbdt import GBDTModel, GBDTParams, fit_gbdt, router_params
from qmoe.hybrid import HybridConfig, _init_training
from qmoe.moe import (
    GAMMA_GRID,
    CombinedModel,
    combined_predict,
    fit_router,
    router_targets,
    youden_threshold,
)
from test_data import _no_children_left

IDENTITY = TemperatureScaler(temperature=1.0, nll=0.0, iterations=0)
SCALER = MinMaxScaler(low=np.array([-0.5, -0.6]), span=np.array([3.0, 3.5]))  # clips some rows
# Serves models fit under SCALER: the secondary then reads 0 in feature 0.
ZERO_SPAN = MinMaxScaler(low=SCALER.low, span=np.array([0.0, 3.5]))


class Unscaled:
    """Stands in for a model's scaler, handing the secondary the routed rows
    as they are, so that the secondary can be the primary itself."""

    def __init__(self, n_features):
        self.n_features = n_features

    def transform(self, x, out=None):
        return x


def oracle_youden(scores, labels):
    best_tau, best_j = None, -np.inf
    pos = labels == 1
    for tau in np.unique(np.concatenate([scores, [0.0, 1.0]])):
        pred = scores > tau
        j = pred[pos].mean() - pred[~pos].mean()
        if j > best_j:  # strict: ties keep the earlier, smaller candidate
            best_j, best_tau = j, tau
    return best_tau


def test_youden_matches_brute_force():
    rng = np.random.default_rng(3)
    families = (
        lambda n: rng.integers(0, 8, size=n) / 8.0,  # coarse grid: plenty of exact ties
        lambda n: rng.random(n),
        lambda n: rng.normal(0.5, 0.6, size=n),  # many scores outside [0, 1]
        lambda n: np.clip(rng.normal(0.5, 3.0, size=n), 1e-7, 1 - 1e-7),  # piled on the clamps
    )
    for draw in families:
        for trial in range(40):
            n = rng.integers(5, 60)
            labels = (rng.random(n) < 0.4).astype(float)
            if labels.min() == labels.max():
                continue
            scores = draw(n)
            assert youden_threshold(scores, labels) == oracle_youden(scores, labels)


def test_youden_perfect_separation():
    scores = np.array([0.1, 0.2, 0.3, 0.8, 0.9])
    labels = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    tau = youden_threshold(scores, labels)
    assert tau == 0.3  # largest negative score; strict > admits every positive
    assert np.all((scores > tau) == (labels == 1))


def test_youden_ties_pick_smallest_candidate():
    # Constant scores make J = 0 everywhere, so the smallest candidate (0)
    # must come back regardless of input order.
    scores = np.full(6, 0.2)
    labels = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    assert youden_threshold(scores, labels) == 0.0
    assert youden_threshold(scores[::-1], labels[::-1]) == 0.0


def test_youden_refuses_column_vectors():
    with pytest.raises(InputError):
        youden_threshold(np.array([[0.1], [0.9]]), np.array([[0.0], [1.0]]))


def test_youden_rejects_single_class():
    with pytest.raises(InputError):
        youden_threshold([0.1, 0.9], [1.0, 1.0])
    with pytest.raises(InputError):
        youden_threshold([], [])


def test_router_targets_hand_case():
    # Four rows covering every agreement quadrant at tau = 0.5:
    # row 0 primary right / secondary wrong, row 1 primary wrong /
    # secondary right, row 2 both right, row 3 both wrong.
    y = np.array([1.0, 1.0, 0.0, 0.0])
    p1 = np.array([0.8, 0.3, 0.2, 0.9])
    p2 = np.array([0.2, 0.7, 0.1, 0.8])
    z = router_targets(y, p1, p2, 0.5, 0.5)
    assert np.array_equal(z, [0.0, 1.0, 0.0, 0.0])


def test_router_targets_respect_expert_thresholds():
    y = np.array([1.0, 0.0])
    p1 = np.array([0.4, 0.4])
    p2 = np.array([0.6, 0.6])
    # Primary threshold 0.3 makes it right on row 0, wrong on row 1;
    # secondary threshold 0.7 is wrong on row 0, right on row 1.
    z = router_targets(y, p1, p2, 0.3, 0.7)
    assert np.array_equal(z, [0.0, 1.0])


def test_router_with_no_corrections_never_routes():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 3))
    router = fit_router(x, np.zeros(50), router_params())
    assert router.degenerate
    probs = router.predict_proba(x)
    assert np.all(probs < min(GAMMA_GRID))


def _fitted_pair(seed=0):
    """Primary that only sees feature 0, on data whose positives split
    between a feature-0 signal and a feature-1 signal. The primary is fit on
    the returned rows, the secondary on the rows SCALER maps them to, as a
    fold fits its forests and its hybrid."""
    rng = np.random.default_rng(seed)
    n = 400
    y = (rng.random(n) < 0.3).astype(float)
    x = rng.normal(size=(n, 2)) * 0.3
    easy = y == 1
    half = np.nonzero(easy)[0][::2]
    x[easy, 0] += 2.0
    x[half, 0] -= 2.0  # these positives are invisible to feature 0
    x[half, 1] += 2.0
    primary = fit_gbdt(GBDTParams(n_estimators=30, max_depth=2),
                       x[:, :1].repeat(2, axis=1) * [1, 0], y)
    secondary = fit_gbdt(GBDTParams(n_estimators=30, max_depth=2), SCALER.transform(x), y)
    return x, y, primary, secondary


def test_combined_with_cloned_secondary_equals_baseline():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(200, 3))
    y = (x[:, 0] + 0.5 * rng.normal(size=200) > 0.8).astype(float)
    primary = fit_gbdt(GBDTParams(n_estimators=20, max_depth=3), x, y)
    scaler = fit_temperature(primary.predict_proba(x), y)
    router = fit_router(x, (rng.random(200) < 0.3).astype(float), router_params())
    model = CombinedModel(
        scaler=Unscaled(3), primary=primary, primary_scaler=scaler,
        secondary=primary, secondary_scaler=scaler,
        router=router, tau_primary=0.4, tau_secondary=0.4,
    )
    baseline = apply_temperature(scaler, primary.predict_proba(x))
    for gamma in GAMMA_GRID:
        out = combined_predict(model, x, gamma)
        # Identical expert on both sides: routing must change nothing,
        # bit for bit, no matter how many rows get handed over.
        assert np.array_equal(out.probs, baseline)
        assert np.array_equal(out.labels, baseline > 0.4)


def test_routed_fraction_is_monotone_in_gamma():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(300, 3))
    z = (x[:, 1] > 0.5).astype(float)
    router = fit_router(x, z, router_params())
    model = CombinedModel(
        scaler=fit_minmax(x),
        primary=fit_gbdt(GBDTParams(n_estimators=5, max_depth=2), x, z),
        primary_scaler=IDENTITY,
        secondary=fit_gbdt(GBDTParams(n_estimators=5, max_depth=2), x, z),
        secondary_scaler=IDENTITY,
        router=router, tau_primary=0.5, tau_secondary=0.5,
    )
    fractions = [combined_predict(model, x, g).routed_fraction for g in GAMMA_GRID]
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))
    assert combined_predict(model, x, 1.0).routed_fraction == 0.0


def test_secondary_runs_only_on_routed_rows():
    calls = []

    class Counting:
        def __init__(self, inner):
            self.inner = inner
            self.n_features = inner.n_features

        def predict_proba(self, x):
            calls.append(x.shape[0])
            return self.inner.predict_proba(x)

    x, y, primary, secondary = _fitted_pair(seed=12)
    p1 = primary.predict_proba(x)
    p2 = secondary.predict_proba(SCALER.transform(x))
    z = router_targets(y, p1, p2, 0.5, 0.5)
    router = fit_router(x, z, router_params())
    model = CombinedModel(
        scaler=SCALER, primary=primary, primary_scaler=IDENTITY,
        secondary=Counting(secondary), secondary_scaler=IDENTITY,
        router=router, tau_primary=0.5, tau_secondary=0.5,
    )
    out = combined_predict(model, x, 0.5)
    assert out.routed.sum() > 0
    assert calls == [int(out.routed.sum())]
    # Compare post-scaler values: t = 1 is an identity only up to the
    # logit round trip's final ulp.
    assert np.array_equal(out.probs[~out.routed], apply_temperature(IDENTITY, p1)[~out.routed])
    assert np.array_equal(out.probs[out.routed], apply_temperature(IDENTITY, p2[out.routed]))
    # Routing should catch rows the primary got wrong: accuracy improves.
    base_acc = np.mean((p1 > 0.5) == (y == 1))
    assert np.mean(out.labels == y) > base_acc

    calls.clear()
    none = combined_predict(model, x, 1.0)
    assert calls == []  # gate closed: secondary never invoked
    assert none.routed_fraction == 0.0


def test_combined_predict_validates_gamma():
    x, y, primary, secondary = _fitted_pair(seed=1)
    router = fit_router(x, np.zeros(len(y)), router_params())
    model = CombinedModel(
        scaler=SCALER, primary=primary, primary_scaler=IDENTITY,
        secondary=secondary, secondary_scaler=IDENTITY,
        router=router, tau_primary=0.5, tau_secondary=0.5,
    )
    for bad in (0.0, -0.2, 1.0001, float("nan")):
        with pytest.raises(InputError):
            combined_predict(model, x, bad)
    out = combined_predict(model, x, 1.0)  # the boundary itself is legal
    assert out.probs.shape == (len(y),)


def test_router_targets_validation():
    with pytest.raises(InputError):
        router_targets([0.0, 1.0], [0.5], [0.5, 0.5], 0.5, 0.5)
    with pytest.raises(InputError):
        router_targets([0.0, 2.0], [0.5, 0.5], [0.5, 0.5], 0.5, 0.5)


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_non_finite_rows_fail_the_same_at_every_gamma(gamma):
    x, y, primary, secondary = _fitted_pair(seed=12)
    z = router_targets(y, primary.predict_proba(x), secondary.predict_proba(SCALER.transform(x)),
                       0.5, 0.5)
    model = CombinedModel(
        scaler=SCALER, primary=primary, primary_scaler=IDENTITY,
        secondary=secondary, secondary_scaler=IDENTITY,
        router=fit_router(x, z, router_params()), tau_primary=0.5, tau_secondary=0.5,
    )
    routed = combined_predict(model, x, 0.5).routed
    first_routed = int(np.flatnonzero(routed)[0])
    first_kept = int(np.flatnonzero(~routed)[0])
    bad = x.copy()
    bad[first_routed, 1] = np.nan
    bad[first_kept, 0] = np.inf
    expected = sorted([first_routed, first_kept])
    with pytest.raises(InputError, match=rf"2 rows .* row indices \[{expected[0]}, {expected[1]}\]"):
        combined_predict(model, bad, gamma)


def _reference_predict(model, x, gamma):
    """combined_predict with the router scored in full and its gate compared after."""
    probs = apply_temperature(model.primary_scaler, model.primary.predict_proba(x))
    routed = model.router.predict_proba(x) > gamma
    probs[routed] = apply_temperature(model.secondary_scaler,
                                      model.secondary.predict_proba(
                                          model.scaler.transform(x[routed])))
    cut = np.where(routed, model.tau_secondary, model.tau_primary)
    return probs, (probs > cut).astype(np.float64), routed


def _routed_model(seed):
    x, y, primary, secondary = _fitted_pair(seed)
    seen = SCALER.transform(x)
    z = router_targets(y, primary.predict_proba(x), secondary.predict_proba(seen), 0.5, 0.5)
    model = CombinedModel(
        scaler=SCALER,
        primary=primary, primary_scaler=fit_temperature(primary.predict_proba(x), y),
        secondary=secondary, secondary_scaler=fit_temperature(secondary.predict_proba(seen), y),
        router=fit_router(x, z, router_params()), tau_primary=0.45, tau_secondary=0.55,
    )
    return x, model


@pytest.mark.parametrize("seed", [12, 13])
def test_combined_predict_equals_full_router_scoring(seed):
    x, model = _routed_model(seed)
    gate = model.router.predict_proba(x)
    gammas = (*GAMMA_GRID, 1.0, 0.05, float(np.median(gate)), float(gate.max()),
              float(np.nextafter(gate.max(), 0.0)))
    for gamma in gammas:
        out = combined_predict(model, x, gamma)
        probs, labels, routed = _reference_predict(model, x, gamma)
        assert out.routed.dtype == bool
        assert np.array_equal(out.probs, probs)
        assert np.array_equal(out.labels, labels)
        assert np.array_equal(out.routed, routed)
    assert combined_predict(model, x, 0.5).routed.any()


def test_closed_gate_never_scores_the_router():
    x, model = _routed_model(12)
    baseline = apply_temperature(model.primary_scaler, model.primary.predict_proba(x))

    class Unscorable:
        def __getattr__(self, name):
            raise AssertionError(f"the router tree was read: {name}")

    class Stub(GBDTModel):
        def predict_margin(self, x):
            raise AssertionError("the router was scored")

    router = model.router
    model.router = Stub(params=router.params, n_features=router.n_features,
                        base_score=router.base_score)
    model.router.trees = [Unscorable()] * 3  # after construction, which checks each tree
    out = combined_predict(model, x, 1.0)
    assert not out.routed.any()
    assert np.array_equal(out.probs, baseline)
    assert np.array_equal(out.labels, (baseline > model.tau_primary).astype(np.float64))
    with pytest.raises(AssertionError, match="router tree was read"):
        combined_predict(model, x, 0.5)


def test_non_finite_rows_are_named_across_blocks():
    # Serving checks one block at a time; the message still names rows of
    # the whole input, at every gamma.
    x, model = _routed_model(12)
    rows = np.tile(x, (errors._BLOCK_ROWS // len(x) + 2, 1))
    bad = [errors._BLOCK_ROWS + 3, errors._BLOCK_ROWS + 9]
    rows[bad[0], 0] = np.nan
    rows[bad[1], 1] = -np.inf
    for gamma in (1.0, 0.5):
        with pytest.raises(InputError, match=rf"2 rows .* row indices \[{bad[0]}, {bad[1]}\]"):
            combined_predict(model, rows, gamma)


def test_each_forest_builds_its_plan_once_per_model(monkeypatch):
    x, fitted = _routed_model(13)
    rows = np.tile(x, (2 * errors._BLOCK_ROWS // len(x) + 2, 1))  # three blocks
    # Copies hold no plan yet: _routed_model scored the primary and the secondary.
    model = replace(fitted, primary=replace(fitted.primary), router=replace(fitted.router),
                    secondary=replace(fitted.secondary))
    built = []
    real = GBDTModel._forest.func

    def counting(self):
        built.append(self)
        return real(self)

    plan = cached_property(counting)
    plan.__set_name__(GBDTModel, "_forest")
    monkeypatch.setattr(GBDTModel, "_forest", plan)
    combined_predict(model, rows, 1.0)
    assert [id(m) for m in built] == [id(model.primary)]  # a shut gate builds no router plan
    whole = combined_predict(model, rows, 0.5)
    assert whole.routed.any()
    # Across the calls and their blocks, the primary, the router and the
    # secondary (a GBDT here) once each.
    assert [id(m) for m in built] == [id(model.primary), id(model.router), id(model.secondary)]
    for gamma in (0.5, 1.0):
        combined_predict(model, rows, gamma)
    assert len(built) == 3
    monkeypatch.undo()
    assert np.array_equal(whole.probs, _reference_predict(model, rows, 0.5)[0])


# In the ids, "raw rows" serves a model with the scaler it was fit under,
# "zero span" with ZERO_SPAN in its place.


def _composed_predict(model, x, gamma):
    """The experts' own calls in turn: the primary's predict_proba, the
    router's predict_proba against gamma, both on ``x``, then the secondary
    on the routed rows, mapped through the model's scaler."""
    probs = apply_temperature(model.primary_scaler, model.primary.predict_proba(x))
    routed = model.router.predict_proba(x) > gamma
    handed = model.scaler.transform(x[routed])
    probs[routed] = apply_temperature(model.secondary_scaler,
                                      model.secondary.predict_proba(handed))
    cut = np.where(routed, model.tau_secondary, model.tau_primary)
    return probs, (probs > cut).astype(np.float64), routed


def _edge_rows(model, rng):
    """Rows on each split threshold of the primary and the router, on the
    doubles either side of it, and far beyond the fitted range."""
    splits = [(f, t) for forest in (model.primary, model.router) for tree in forest.trees
              for f, t in zip(tree.feature, tree.threshold) if f >= 0]
    features, thresholds = np.array(splits).T
    features = features.astype(int)
    values = np.concatenate([thresholds, np.nextafter(thresholds, -np.inf),
                             np.nextafter(thresholds, np.inf),
                             rng.choice([-1e300, -50.0, 40.0, 1e300], size=thresholds.size)])
    rows = rng.normal(0.5, 2.0, size=(values.size, 2))
    rows[np.arange(values.size), np.tile(features, 4)] = values
    return rows


@pytest.mark.parametrize("scaler", [SCALER, ZERO_SPAN], ids=["raw rows", "zero span"])
@pytest.mark.parametrize("n_rows", [errors._BLOCK_ROWS - 1, errors._BLOCK_ROWS,
                                    errors._BLOCK_ROWS + 1, 3 * errors._BLOCK_ROWS])
def test_combined_predict_equals_the_experts_composed(scaler, n_rows):
    # One workspace block serves the primary and the gate, whose pooled rows
    # are gathered into it after the loop; both forests read the rows as
    # given, and the scaler maps only the routed rows for the secondary. Every
    # gamma, at one block and one row either side, and at three, with rows
    # on every split threshold, the doubles either side of it and far beyond
    # the fitted range, must give the bits of the experts called one after
    # another.
    x, model = _routed_model(12)
    model = replace(model, scaler=scaler)
    rng = np.random.default_rng(n_rows)
    rows = x[rng.integers(len(x), size=n_rows)] + rng.normal(0.0, 0.05, size=(n_rows, 2))
    edges = _edge_rows(model, rng)
    rows[rng.choice(n_rows, size=min(n_rows, len(edges)), replace=False)] = edges[:n_rows]
    for gamma in (0.5, 0.9, 1.0):
        out = combined_predict(model, rows, gamma)
        want = _composed_predict(model, rows, gamma)
        for name, got, expected in zip(("probs", "labels", "routed"),
                                       (out.probs, out.labels, out.routed), want):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
        assert out.routed.any() == (gamma < 1.0)


def test_a_scaler_of_another_width_is_a_configuration_error():
    # Before the scaler joined the model, each call checked the one it was given.
    _, model = _routed_model(12)
    wide = MinMaxScaler(low=np.zeros(3), span=np.ones(3))
    with pytest.raises(ConfigurationError, match=re.escape(
            "the model's feature counts differ: "
            "{'scaler': 3, 'primary': 2, 'router': 2, 'secondary': 2}")):
        replace(model, scaler=wide)


# A call of at least 2 * _MIN_PART_ROWS rows is split into row ranges, part 0
# in the process and each other part in a forked child (forced here by a
# small minimum part size): every output keeps a one-part call's bits, and
# no child outlives the call.

PART_ROWS = errors._BLOCK_ROWS  # three parts of 3 * PART_ROWS + 5 rows hold two blocks each


@pytest.fixture
def small_parts(monkeypatch):
    monkeypatch.setattr(moe, "_MIN_PART_ROWS", PART_ROWS)


def _pool_rows(x, n_rows=3 * PART_ROWS + 5):
    rng = np.random.default_rng(n_rows)
    return x[rng.integers(len(x), size=n_rows)] + rng.normal(0.0, 0.05, size=(n_rows, 2))


def _hybrid_secondary():
    cfg = HybridConfig(n_features=2, encoder_hidden=(4,), n_qubits=2, n_layers=1, head_hidden=4)
    return _init_training(cfg, np.random.default_rng(5)).served()


@pytest.mark.parametrize("secondary", ["gbdt", "hybrid"])
@pytest.mark.parametrize("scaler", [SCALER, ZERO_SPAN], ids=["raw rows", "zero span"])
def test_parts_keep_the_bits_of_one_part(monkeypatch, small_parts, scaler, secondary):
    x, model = _routed_model(12)
    model = replace(model, scaler=scaler)
    if secondary == "hybrid":  # padded 512-row chunks: a part pads at most one more
        model = replace(model, secondary=_hybrid_secondary())
    rows = _pool_rows(x)
    for gamma in (1.0, 0.5, 0.05):
        outs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr("qmoe.workers.usable_cpus", lambda cpus=cpus: cpus)
            outs.append(combined_predict(model, rows, gamma))
            _no_children_left()
        want = _composed_predict(model, rows, gamma)
        for out in outs:
            for name, got, expected in zip(("probs", "labels", "routed"),
                                           (out.probs, out.labels, out.routed), want):
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
        assert outs[0].routed.any() == (gamma < 1.0)
        assert isinstance(outs[2].probs.base, np.ndarray)  # a view of the shared mapping


def test_zero_rows_get_an_empty_table_without_a_mapping(monkeypatch, small_parts):
    # mmap refuses a length of 0, so an empty call must not map its table.
    x, model = _routed_model(12)
    mapped, real = [], moe.mmap.mmap
    monkeypatch.setattr(moe.mmap, "mmap", lambda *args: mapped.append(args) or real(*args))
    for cpus in (1, 3):
        monkeypatch.setattr("qmoe.workers.usable_cpus", lambda cpus=cpus: cpus)
        for gamma in (0.5, 1.0):
            out = combined_predict(model, np.empty((0, 2)), gamma)
            _no_children_left()
            for got, dtype in zip((out.probs, out.labels, out.routed),
                                  (np.float64, np.float64, bool)):
                assert got.dtype == dtype and got.shape == (0,)
            assert out.routed_fraction == 0.0
    assert mapped == []


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_bad_row_in_the_last_part_raises_the_one_part_error(monkeypatch, capfd, small_parts,
                                                              value):
    x, model = _routed_model(12)
    rows = _pool_rows(x)
    rows[[-7, -2], [0, 1]] = value  # both in the last part's last block
    messages = []
    for cpus in (1, 3):
        monkeypatch.setattr("qmoe.workers.usable_cpus", lambda cpus=cpus: cpus)
        for gamma in (1.0, 0.5):
            with pytest.raises(InputError) as caught:
                combined_predict(model, rows, gamma)
            messages.append(str(caught.value))
            _no_children_left()
    n = len(rows)
    assert messages == [f"feature rows must be finite; 2 rows hold NaN or infinity, "
                        f"first at row indices {[n - 7, n - 2]}"] * 4
    assert capfd.readouterr().err == ""  # the children wrote nothing


def test_bad_arguments_raise_before_any_fork(monkeypatch, small_parts):
    x, model = _routed_model(12)
    rows = _pool_rows(x)
    forked = []
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: 3)
    monkeypatch.setattr(moe, "fork_map", lambda task, items: forked.append(len(items)))
    for args in ((rows, 0.0), (rows, 1.5), (rows[None], 0.5)):
        with pytest.raises(InputError):
            combined_predict(model, *args)
    # Rows of the wrong width name the whole input.
    with pytest.raises(InputError, match=re.escape(
            f"expected rows with 2 features, got shape ({len(rows)}, 3)")):
        combined_predict(model, np.c_[rows, rows[:, :1]], 0.5)
    assert forked == []
    combined_predict(model, rows, 0.5)
    assert forked == [3]


def test_the_parent_builds_each_plan_once_before_the_fork(monkeypatch, tmp_path, small_parts):
    import os

    x, fitted = _routed_model(13)
    rows = _pool_rows(x)
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: 3)
    log, real = tmp_path / "plans.txt", GBDTModel._forest.func

    def logged(self):  # one line per plan built, in whichever process builds it
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {id(self)}\n")
        return real(self)

    plan = cached_property(logged)
    plan.__set_name__(GBDTModel, "_forest")
    monkeypatch.setattr(GBDTModel, "_forest", plan)
    # Copies hold no plan yet: _routed_model scored the primary and the router.
    model = replace(fitted, primary=replace(fitted.primary), router=replace(fitted.router))
    combined_predict(model, rows, 1.0)
    _no_children_left()
    pid, primary, router = str(os.getpid()), str(id(model.primary)), str(id(model.router))
    assert log.read_text().split() == [pid, primary]  # a shut gate: no router
    for gamma in (0.5, 0.05, 0.5):
        combined_predict(model, rows, gamma)
        _no_children_left()
    assert log.read_text().split() == [pid, primary, pid, router]


def test_a_part_returns_nothing_through_its_pipe(monkeypatch, small_parts):
    x, model = _routed_model(12)
    returned, fork_map = [], moe.fork_map
    monkeypatch.setattr(moe, "fork_map",
                        lambda task, items: returned.extend(fork_map(task, items)))
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: 3)
    out = combined_predict(model, _pool_rows(x), 0.5)
    _no_children_left()
    assert returned == [None] * 3  # each child's rows are in the mapping: nothing is pickled
    assert out.routed.any()


def test_an_interrupt_in_part_0_kills_the_children(monkeypatch, small_parts):
    import os
    import time

    x, model = _routed_model(12)
    rows = _pool_rows(x)
    parent, temperature = os.getpid(), moe.apply_temperature

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)  # a child that is not killed holds the test up
        return temperature(*args)

    monkeypatch.setattr(moe, "apply_temperature", interrupted)
    monkeypatch.setattr("qmoe.workers.usable_cpus", lambda: 3)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        combined_predict(model, rows, 0.5)
    _no_children_left()
    assert time.perf_counter() - start < 10
