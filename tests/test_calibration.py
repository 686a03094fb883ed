"""Temperature scaling: closed-form values, grid-scan oracle, rank invariance."""

import numpy as np
import pytest

from qmoe.calibration import (
    T_MAX,
    T_MIN,
    TemperatureScaler,
    apply_temperature,
    fit_temperature,
    _logits,
    _nll,
)
from qmoe.errors import InputError
from qmoe.metrics import average_precision, pr_curve


def scan_oracle(probs, labels, grid=None):
    """Brute-force NLL minimizer over a dense temperature grid."""
    if grid is None:
        grid = np.exp(np.linspace(np.log(T_MIN), np.log(T_MAX), 20001))
    logits = _logits(probs)
    values = [_nll(logits, labels, float(t)) for t in grid]
    return float(grid[int(np.argmin(values))])


def test_unit_temperature_is_identity():
    scaler = TemperatureScaler(1.0, 0.0, 0)
    p = np.array([1e-7, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-7])
    np.testing.assert_allclose(apply_temperature(scaler, p), p, atol=1e-12)


def test_half_is_a_fixed_point_for_any_temperature():
    for t in (0.07, 0.5, 1.0, 3.0, 19.0):
        scaler = TemperatureScaler(t, 0.0, 0)
        assert apply_temperature(scaler, np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-12)


def test_closed_form_value_point_nine_at_two():
    # logit(0.9) = ln 9, so halving it gives ln 3 and sigmoid(ln 3) = 3/4.
    scaler = TemperatureScaler(2.0, 0.0, 0)
    got = apply_temperature(scaler, np.array([0.9]))[0]
    assert got == pytest.approx(0.75, abs=1e-12)


def test_temperature_above_one_softens():
    scaler = TemperatureScaler(4.0, 0.0, 0)
    out = apply_temperature(scaler, np.array([0.99, 0.01]))
    assert 0.5 < out[0] < 0.99
    assert 0.01 < out[1] < 0.5


def test_outputs_stay_probabilities():
    rng = np.random.default_rng(4)
    p = rng.uniform(size=300)
    p[:3] = [0.0, 0.5, 1.0]
    for t in (0.05, 0.3, 1.0, 5.0, 20.0):
        out = apply_temperature(TemperatureScaler(t, 0.0, 0), p)
        assert np.all(out > 0) and np.all(out < 1)


def test_fit_recovers_overconfidence():
    # true posterior 0.6 but reported 0.99: needs a lot of softening
    rng = np.random.default_rng(5)
    n = 4000
    labels = (rng.uniform(size=n) < 0.6).astype(int)
    probs = np.full(n, 0.99)
    scaler = fit_temperature(probs, labels)
    assert scaler.temperature > 1.0
    assert scaler.temperature == pytest.approx(scan_oracle(probs, labels), rel=1e-3)
    assert scaler.nll <= _nll(_logits(probs), labels.astype(float), 1.0)


def test_fit_on_calibrated_data_stays_near_one():
    rng = np.random.default_rng(6)
    n = 6000
    probs = rng.uniform(0.05, 0.95, size=n)
    labels = (rng.uniform(size=n) < probs).astype(int)
    scaler = fit_temperature(probs, labels)
    assert abs(scaler.temperature - 1.0) < 0.1
    assert not scaler.degenerate


def test_fit_matches_grid_oracle_on_random_sets():
    rng = np.random.default_rng(7)
    for trial in range(5):
        n = 500
        skew = rng.uniform(0.5, 3.0)
        probs = rng.uniform(0.02, 0.98, size=n)
        labels = (rng.uniform(size=n) < probs ** skew).astype(int)
        if labels.min() == labels.max():
            continue
        scaler = fit_temperature(probs, labels)
        oracle_t = scan_oracle(probs, labels)
        logits = _logits(probs)
        # compare achieved NLL rather than argmin: flat minima are fine
        assert scaler.nll <= _nll(logits, labels.astype(float), oracle_t) + 1e-9
        assert scaler.nll <= _nll(logits, labels.astype(float), 1.0) + 1e-15


def test_single_class_labels_degenerate_to_unit():
    scaler = fit_temperature(np.array([0.2, 0.7, 0.9]), np.array([1, 1, 1]))
    assert scaler.temperature == 1.0
    assert scaler.degenerate


def test_scaling_preserves_ranking_metrics():
    # Scores stay in (0.32, 0.68) so even the sharpest temperature keeps the
    # float sigmoid injective; saturation onto the clamp would create ties.
    rng = np.random.default_rng(8)
    labels = (rng.uniform(size=200) < 0.15).astype(int)
    labels[:2] = [0, 1]
    scores = rng.uniform(0.32, 0.68, size=200)
    base = average_precision(pr_curve(scores, labels))
    for t in (0.05, 0.45, 2.3, 20.0):
        scaled = apply_temperature(TemperatureScaler(t, 0.0, 0), scores)
        np.testing.assert_array_equal(
            np.argsort(scaled, kind="stable"), np.argsort(scores, kind="stable")
        )
        assert average_precision(pr_curve(scaled, labels)) == pytest.approx(base, abs=1e-12)


def test_fitted_temperature_stays_in_bounds():
    rng = np.random.default_rng(9)
    labels = (rng.uniform(size=100) < 0.5).astype(int)
    labels[:2] = [0, 1]
    probs = rng.uniform(0.4, 0.6, size=100)
    scaler = fit_temperature(probs, labels)
    assert T_MIN <= scaler.temperature <= T_MAX
    assert scaler.iterations > 0


def test_validation_errors():
    with pytest.raises(InputError):
        fit_temperature(np.array([0.5, 1.2]), np.array([0, 1]))
    with pytest.raises(InputError):
        fit_temperature(np.array([0.5, 0.6]), np.array([0, 2]))
    with pytest.raises(InputError):
        apply_temperature(TemperatureScaler(0.0, 0.0, 0), np.array([0.5]))
    with pytest.raises(InputError):
        apply_temperature(TemperatureScaler(1.0, 0.0, 0), np.array([-0.1]))


@pytest.mark.parametrize("t", [0.0, -1.0, np.inf, np.nan])
def test_a_scaler_checks_its_temperature_when_built(t):
    # Before the check moved into the constructor, such a scaler was built
    # and saved, and failed only when it first rescaled a score.
    with pytest.raises(InputError, match="temperature must be positive and finite"):
        TemperatureScaler(t, 0.0, 0)
