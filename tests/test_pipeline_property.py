"""Property tests for three serving promises on random rows and settings:

- the routed set shrinks as gamma grows, so the routed fraction is monotone;
- temperature scaling keeps the order of the probabilities it rescales;
- a saved and reloaded pipeline scores every row bit for bit as before.

Kept apart from the example-based modules so those still run where the
optional ``hypothesis`` dev dependency is missing; this one is skipped there.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402
from test_bench import CONFIG  # noqa: E402

from qmoe.bench import fit_pipeline, load_model, pipeline_predict, save_model  # noqa: E402
from qmoe.calibration import T_MAX, T_MIN, TemperatureScaler, apply_temperature  # noqa: E402
from qmoe.data import N_FEATURES, synthesize  # noqa: E402


@pytest.fixture(scope="module")
def served():
    """The test_bench pipeline, its reloaded copy, its rows and their fraud rows."""
    x, y, _ = synthesize(CONFIG.synth_rows, CONFIG.synth_fraud_rate, seed=CONFIG.seed)
    _, pipeline = fit_pipeline(x, y, CONFIG)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(pipeline, path)
        loaded = load_model(path)
    fraud = np.flatnonzero(y)
    assert pipeline_predict(pipeline, x[fraud], 1e-6).routed.any()  # the gate is live
    return pipeline, loaded, x, fraud


gammas = st.floats(min_value=1e-6, max_value=1.0)


@st.composite
def requests(draw, x, fraud):
    """Rows near the fitted ones, fraud rows among them so that some get routed."""
    pick = np.array(draw(st.lists(st.integers(0, x.shape[0] - 1), min_size=1, max_size=40))
                    + draw(st.lists(st.sampled_from(fraud.tolist()), max_size=8)))
    noise = draw(arrays(np.float64, (pick.size, N_FEATURES),
                        elements=st.floats(-3.0, 3.0)))
    return x[pick] + noise


@settings(max_examples=40, deadline=None)
@given(data=st.data(), a=gammas, b=gammas)
def test_routed_set_shrinks_as_gamma_grows(served, data, a, b):
    pipeline, _, x, fraud = served
    rows = data.draw(requests(x, fraud))
    low, high = min(a, b), max(a, b)
    at_low, at_high = pipeline_predict(pipeline, rows, low), pipeline_predict(pipeline, rows, high)
    assert not np.any(at_high.routed & ~at_low.routed)
    assert at_high.routed_fraction <= at_low.routed_fraction
    assert not pipeline_predict(pipeline, rows, 1.0).routed.any()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), gamma=gammas)
def test_reloaded_pipeline_scores_bit_for_bit(served, data, gamma):
    pipeline, loaded, x, fraud = served
    rows = data.draw(requests(x, fraud))
    a, b = pipeline_predict(pipeline, rows, gamma), pipeline_predict(loaded, rows, gamma)
    assert np.array_equal(a.probs.view(np.int64), b.probs.view(np.int64))
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.routed, b.routed)


@settings(max_examples=200, deadline=None)
@given(p=arrays(np.float64, st.integers(1, 60), elements=st.floats(0.0, 1.0)),
       log_t=st.floats(np.log(T_MIN), np.log(T_MAX)))
def test_temperature_scaling_preserves_order(p, log_t):
    out = apply_temperature(TemperatureScaler(float(np.exp(log_t)), 0.0, 0), p)
    ranked = out[np.argsort(p, kind="stable")]
    # Up to rounding: the logit and the sigmoid are each rounded, so inputs
    # a few ulps apart can come out one ulp the wrong way round.
    assert np.all(np.maximum.accumulate(ranked) - ranked <= np.spacing(ranked))
    equal = p[:, None] == p[None, :]
    assert np.all((out[:, None] == out[None, :])[equal])
