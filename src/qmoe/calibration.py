"""Single-parameter temperature scaling for binary probabilities.

The scaler maps p to sigmoid(logit(p) / t). A temperature above 1 softens
overconfident scores, below 1 sharpens. Fitting minimizes the negative
log-likelihood on held-out data with a golden-section scan over log t, so
the fit is deterministic and derivative-free. The map is monotone up to
rounding: the logit and the sigmoid are each rounded, so at t in [T_MIN,
T_MAX] no output falls more than one ulp below that of a smaller input,
and a ranking metric can move only where two scores sit a few ulps apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, binary_labels
from .neural import PROB_EPS, log_loss, sigmoid

T_MIN = 0.05
T_MAX = 20.0
LOG_TOL = 1e-5

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TemperatureScaler:
    temperature: float
    nll: float
    iterations: int
    degenerate: bool = False  # fit set had one class (or one sample); fell back to t = 1

    def __post_init__(self) -> None:
        if not 0 < self.temperature < np.inf:
            raise InputError(f"temperature must be positive and finite, found {self.temperature}")


def _logits(probs) -> np.ndarray:
    p = np.clip(np.asarray(probs, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    return np.log(p) - np.log1p(-p)


def _nll(logits: np.ndarray, labels: np.ndarray, temperature: float) -> float:
    return log_loss(labels, sigmoid(logits / temperature))


def fit_temperature(probs, labels) -> TemperatureScaler:
    """Fit t on (probs, labels); single-class data degenerates to t = 1."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.ndim != 1 or y.shape != p.shape:
        raise InputError(f"probs {p.shape} and labels {y.shape} must be equal-length vectors")
    if not np.all(np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
        raise InputError("probabilities must be finite and within [0, 1]")
    y = binary_labels(y)

    logits = _logits(p)
    if p.size < 2 or y.min() == y.max():
        return TemperatureScaler(1.0, _nll(logits, y, 1.0), 0, degenerate=True)

    # golden-section scan over u = log t
    lo, hi = np.log(T_MIN), np.log(T_MAX)
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    f_c = _nll(logits, y, float(np.exp(c)))
    f_d = _nll(logits, y, float(np.exp(d)))
    iterations = 2
    while hi - lo > LOG_TOL:
        if f_c < f_d:
            hi, d, f_d = d, c, f_c
            c = hi - _INV_PHI * (hi - lo)
            f_c = _nll(logits, y, float(np.exp(c)))
        else:
            lo, c, f_c = c, d, f_d
            d = lo + _INV_PHI * (hi - lo)
            f_d = _nll(logits, y, float(np.exp(d)))
        iterations += 1

    t_star = float(np.exp(0.5 * (lo + hi)))
    best = _nll(logits, y, t_star)
    at_unit = _nll(logits, y, 1.0)
    # never report a temperature that fits worse than doing nothing
    if at_unit <= best:
        t_star, best = 1.0, at_unit
    return TemperatureScaler(t_star, best, iterations)


def apply_temperature(scaler: TemperatureScaler, probs) -> np.ndarray:
    """Rescale probabilities; keeps order up to one ulp, and t = 1 moves them a few ulps.

    Outputs are clamped to [PROB_EPS, 1 - PROB_EPS] so they remain strictly
    inside (0, 1); sharpening with a small t saturates extreme inputs onto
    the clamp rather than onto exact 0 or 1.
    """
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < 0) or np.any(p > 1) or not np.all(np.isfinite(p)):
        raise InputError("probabilities must be finite and within [0, 1]")
    out = sigmoid(_logits(p) / scaler.temperature)
    return np.clip(out, PROB_EPS, 1.0 - PROB_EPS)
