"""Routing tests: threshold placement, correction targets, gate behavior, and the
serving path against a reference that scores the router in full."""

import numpy as np
import pytest

from qmoe import gbdt
from qmoe.calibration import TemperatureScaler, apply_temperature, fit_temperature
from qmoe.errors import InputError
from qmoe.gbdt import GBDTModel, GBDTParams, fit_gbdt, router_params
from qmoe.moe import (
    GAMMA_GRID,
    CombinedModel,
    combined_predict,
    fit_router,
    router_targets,
    youden_threshold,
)

IDENTITY = TemperatureScaler(temperature=1.0, nll=0.0, iterations=0)


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
    between a feature-0 signal and a feature-1 signal."""
    rng = np.random.default_rng(seed)
    n = 400
    y = (rng.random(n) < 0.3).astype(float)
    x = rng.normal(size=(n, 2)) * 0.3
    easy = y == 1
    half = np.nonzero(easy)[0][::2]
    x[easy, 0] += 2.0
    x[half, 0] -= 2.0  # these positives are invisible to feature 0
    x[half, 1] += 2.0
    primary = fit_gbdt(GBDTParams(n_estimators=30, max_depth=2), x[:, :1].repeat(2, axis=1) * [1, 0], y)
    secondary = fit_gbdt(GBDTParams(n_estimators=30, max_depth=2), x, y)
    return x, y, primary, secondary


def test_combined_with_cloned_secondary_equals_baseline():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(200, 3))
    y = (x[:, 0] + 0.5 * rng.normal(size=200) > 0.8).astype(float)
    primary = fit_gbdt(GBDTParams(n_estimators=20, max_depth=3), x, y)
    scaler = fit_temperature(primary.predict_proba(x), y)
    router = fit_router(x, (rng.random(200) < 0.3).astype(float), router_params())
    model = CombinedModel(
        primary=primary, primary_scaler=scaler,
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

        def predict_proba(self, x):
            calls.append(x.shape[0])
            return self.inner.predict_proba(x)

    x, y, primary, secondary = _fitted_pair(seed=12)
    p1 = primary.predict_proba(x)
    p2 = secondary.predict_proba(x)
    z = router_targets(y, p1, p2, 0.5, 0.5)
    router = fit_router(x, z, router_params())
    model = CombinedModel(
        primary=primary, primary_scaler=IDENTITY,
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
        primary=primary, primary_scaler=IDENTITY,
        secondary=secondary, secondary_scaler=IDENTITY,
        router=router, tau_primary=0.5, tau_secondary=0.5,
    )
    for bad in (0.0, -0.2, 1.0001):
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
    z = router_targets(y, primary.predict_proba(x), secondary.predict_proba(x), 0.5, 0.5)
    model = CombinedModel(
        primary=primary, primary_scaler=IDENTITY,
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
                                      model.secondary.predict_proba(x[routed]))
    cut = np.where(routed, model.tau_secondary, model.tau_primary)
    return probs, (probs > cut).astype(np.float64), routed


def _routed_model(seed):
    x, y, primary, secondary = _fitted_pair(seed=seed)
    z = router_targets(y, primary.predict_proba(x), secondary.predict_proba(x), 0.5, 0.5)
    scaler = fit_temperature(primary.predict_proba(x), y)
    model = CombinedModel(
        primary=primary, primary_scaler=scaler,
        secondary=secondary, secondary_scaler=fit_temperature(secondary.predict_proba(x), y),
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
                        base_score=router.base_score, trees=[Unscorable()] * 3)
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
    rows = np.tile(x, (gbdt._BLOCK_ROWS // len(x) + 2, 1))
    bad = [gbdt._BLOCK_ROWS + 3, gbdt._BLOCK_ROWS + 9]
    rows[bad[0], 0] = np.nan
    rows[bad[1], 1] = -np.inf
    for gamma in (1.0, 0.5):
        with pytest.raises(InputError, match=rf"2 rows .* row indices \[{bad[0]}, {bad[1]}\]"):
            combined_predict(model, rows, gamma)


def test_each_forest_plan_is_built_once_per_call(monkeypatch):
    x, model = _routed_model(13)
    rows = np.tile(x, (2 * gbdt._BLOCK_ROWS // len(x) + 2, 1))  # three blocks
    built = []
    real = GBDTModel.plan

    def counting(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(GBDTModel, "plan", counting)
    whole = combined_predict(model, rows, 0.5)
    assert whole.routed.any()
    # The primary and the router once each; the secondary, a GBDT here, once
    # for its one call.
    assert [id(m) for m in built] == [id(model.primary), id(model.router), id(model.secondary)]
    built.clear()
    combined_predict(model, rows, 1.0)
    assert [id(m) for m in built] == [id(model.primary)]  # a shut gate builds no router plan
    monkeypatch.undo()
    assert np.array_equal(whole.probs, _reference_predict(model, rows, 0.5)[0])
