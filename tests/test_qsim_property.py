"""Property test: adjoint gradients equal the shift-rule oracle on random circuits,
and the adjoint's expectations equal batch_expectations bit for bit.

Kept apart from test_qsim.py so that module still runs where the optional
``hypothesis`` dev dependency is missing; this one is skipped there.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_qsim import shift_rule_oracle  # noqa: E402

from qmoe import qsim  # noqa: E402
from qmoe.qsim import AnsatzSpec  # noqa: E402


@st.composite
def circuit_cases(draw):
    n = draw(st.integers(1, 4))
    layers = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 8))
    qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    angle = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False, allow_infinity=False)
    params = draw(st.lists(angle, min_size=2 * n * layers, max_size=2 * n * layers))
    feats = draw(st.lists(angle, min_size=rows * n, max_size=rows * n))
    spec = AnsatzSpec(n_qubits=n, n_layers=layers)
    return spec, np.array(params), np.array(feats).reshape(rows, n), tuple(qubits)


@settings(max_examples=60, deadline=None)
@given(circuit_cases())
def test_adjoint_equals_shift_rule_property(case):
    spec, params, feats, qubits = case
    exps, d_theta, d_feat = qsim.batch_parameter_shift(spec, params, feats, qubits)
    assert exps.tobytes() == qsim.batch_expectations(spec, params, feats, qubits).tobytes()
    assert d_theta.shape == (feats.shape[0], spec.n_params, len(qubits))
    assert d_feat.shape == (feats.shape[0], spec.n_qubits, len(qubits))
    want_theta, want_feat = shift_rule_oracle(spec, params, feats, qubits)
    np.testing.assert_allclose(d_theta, want_theta, rtol=0, atol=1e-12)
    np.testing.assert_allclose(d_feat, want_feat, rtol=0, atol=1e-12)
