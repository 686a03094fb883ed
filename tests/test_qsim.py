"""Statevector simulator tests against a dense kronecker-product oracle and a
gate-walk oracle.

The kronecker oracle builds full 2**n x 2**n unitaries gate by gate and
never shares code with the simulator. The gate-walk oracle is the
simulator the package used before its dense path: one strided-view kernel
per gate and an adjoint sweep that steps back through every gate. The
dense kernels (sublayer matrices, phase vectors, product states, the
folded unitary) are compared with both; expectations and gradients go
through batch_expectations and batch_parameter_shift themselves, against
the dense oracle, the walk and the two-point shift rule.
"""

import numpy as np
import pytest

from qmoe import qsim
from qmoe.errors import ConfigurationError, InputError
from qmoe.qsim import AnsatzSpec

# ---------------------------------------------------------------------------
# oracle: explicit dense matrices, qubit 0 = most significant bit
# ---------------------------------------------------------------------------


def ry_matrix(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def embed_single(n, qubit, mat):
    out = np.eye(1, dtype=complex)
    for q in range(n):
        out = np.kron(out, mat if q == qubit else np.eye(2))
    return out


def cnot_matrix(n, control, target):
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        if (i >> (n - 1 - control)) & 1:
            j = i ^ (1 << (n - 1 - target))
        else:
            j = i
        out[j, i] = 1.0
    return out


def oracle_encode(features):
    n = len(features)
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    for q, x in enumerate(features):
        state = embed_single(n, q, ry_matrix(x)) @ state
    return state


def oracle_ansatz(spec, params, state):
    n = spec.n_qubits
    k = 0
    for _ in range(spec.n_layers):
        for q in range(n):
            state = embed_single(n, q, ry_matrix(params[k])) @ state
            k += 1
        for q in range(n):
            state = embed_single(n, q, rz_matrix(params[k])) @ state
            k += 1
        if n > 1:
            for q in range(n):
                state = cnot_matrix(n, q, (q + 1) % n) @ state
    return state


def oracle_expect_z(state, n, qubit):
    z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    op = embed_single(n, qubit, z)
    return float(np.real(np.conj(state) @ op @ state))


def oracle_circuit_value(spec, params, features, qubit=0):
    state = oracle_ansatz(spec, params, oracle_encode(features))
    return oracle_expect_z(state, spec.n_qubits, qubit)


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return amps / np.linalg.norm(amps)


def ground(n):
    amps = np.zeros(2 ** n, dtype=complex)
    amps[0] = 1.0
    return amps


def value(spec, params, features, qubit=0):
    """<Z_qubit> for one feature row, through the batched path."""
    return float(qsim.batch_expectations(spec, params, [features], (qubit,))[0, 0])


# ---------------------------------------------------------------------------
# oracle: the gate walk, one strided-view kernel per gate
#
# Amplitudes are ndarrays whose last axis has length 2**n; leading axes are
# batch axes. A rotation on qubit q reshapes that axis to
# (2**q, 2, 2**(n-1-q)): in the MSB layout axis -2 is then q's bit, and a
# per-row angle reshaped to (..., 1, 1) broadcasts over every batch axis.
# ---------------------------------------------------------------------------


def _apply_ry(amps, n, qubit, angle):
    view = amps.reshape(amps.shape[:-1] + (2 ** qubit, 2, 2 ** (n - 1 - qubit)))
    half = np.multiply(angle, 0.5)
    half = half.reshape(np.shape(half) + (1, 1))
    c, s = np.cos(half), np.sin(half)
    a0, a1 = view[..., 0, :], view[..., 1, :]
    return np.stack((c * a0 - s * a1, s * a0 + c * a1), axis=-2).reshape(amps.shape)


def _apply_rz(amps, n, qubit, angle):
    view = amps.reshape(amps.shape[:-1] + (2 ** qubit, 2, 2 ** (n - 1 - qubit)))
    p = np.exp(np.multiply(angle, -0.5j))
    p = p.reshape(np.shape(p) + (1, 1))
    out = np.stack((p * view[..., 0, :], np.conj(p) * view[..., 1, :]), axis=-2)
    return out.reshape(amps.shape)


def _encode(angles):
    """Amplitudes of the product state RY(x_q)|0> on each qubit q."""
    lead = angles.shape[:-1]
    n = angles.shape[-1]
    amps = np.zeros(lead + (2 ** n,), dtype=np.complex128)
    amps[..., 0] = 1.0
    for q in range(n):
        amps = _apply_ry(amps, n, q, angles[..., q])
    return amps


def _run_ansatz(amps, spec, params):
    n = spec.n_qubits
    ring = qsim._cnot_ring(n)
    k = 0
    for _ in range(spec.n_layers):
        for q in range(n):
            amps = _apply_ry(amps, n, q, params[k])
            k += 1
        for q in range(n):
            amps = _apply_rz(amps, n, q, params[k])
            k += 1
        amps = np.take(amps, ring, axis=-1)
    return amps


def walk_expectations(spec, params, features, qubits):
    amps = _run_ansatz(_encode(np.asarray(features, dtype=float)), spec, params)
    n = spec.n_qubits
    idx = np.arange(2 ** n)
    signs = np.stack([1.0 - 2.0 * ((idx >> (n - 1 - q)) & 1) for q in qubits], axis=1)
    return np.abs(amps) ** 2 @ signs


def walk_gradients(spec, params, features, qubits):
    """(d_theta, d_features) by the gate-by-gate adjoint sweep: each gate is
    undone on phi, the derivative state 0.5 * G(angle + pi) phi is formed,
    its overlap 2 Re<lambda_q|d phi> recorded, and lambda steps back."""
    params = np.asarray(params, dtype=float)
    features = np.asarray(features, dtype=float)
    n = spec.n_qubits
    rows = features.shape[0]
    phi = _run_ansatz(_encode(features), spec, params)
    idx = np.arange(2 ** n)
    lam = np.stack([(1.0 - 2.0 * ((idx >> (n - 1 - q)) & 1)) * phi for q in qubits])

    def step_back(kernel, qubit, angle):
        nonlocal phi, lam
        phi = kernel(phi, n, qubit, -angle)
        d_phi = 0.5 * kernel(phi, n, qubit, angle + np.pi)
        overlap = np.einsum("qrd,rd->rq", lam.conj(), d_phi)
        lam = kernel(lam, n, qubit, -angle)
        return 2.0 * overlap.real

    unring = np.argsort(qsim._cnot_ring(n))
    d_theta = np.empty((rows, spec.n_params, len(qubits)))
    for layer in reversed(range(spec.n_layers)):
        base = 2 * n * layer
        phi = np.take(phi, unring, axis=-1)
        lam = np.take(lam, unring, axis=-1)
        for q in reversed(range(n)):
            d_theta[:, base + n + q, :] = step_back(_apply_rz, q, params[base + n + q])
        for q in reversed(range(n)):
            d_theta[:, base + q, :] = step_back(_apply_ry, q, params[base + q])
    d_feat = np.empty((rows, n, len(qubits)))
    for q in reversed(range(n)):
        d_feat[:, q, :] = step_back(_apply_ry, q, features[:, q])
    return d_theta, d_feat


def folded(spec, params):
    """The simulator's unitary U, U[:, k] = U|k>."""
    return qsim._fold(spec, np.asarray(params, dtype=float), (0,))[0]


def phases(n, angles):
    """The simulator's RZ phase vector for one RZ angle per qubit."""
    spec = AnsatzSpec(n_qubits=n, n_layers=1)
    return qsim._sublayers(spec, np.r_[np.zeros(n), angles], 0)[1]


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def test_ry_pi_flips_zero_to_one():
    for out in (qsim._ry_sublayer(np.array([np.pi])) @ ground(1),
                _apply_ry(ground(1), 1, 0, np.pi)):
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)


def test_rz_leaves_populations_alone():
    for out in (phases(1, [1.234]) * ground(1), _apply_rz(ground(1), 1, 0, 1.234)):
        np.testing.assert_allclose(np.abs(out) ** 2, [1.0, 0.0], atol=1e-15)


def ring_matrix(n):
    """The layer's CNOT ring 0->1, ..., (n-1)->0 as one dense matrix."""
    out = np.eye(2 ** n, dtype=complex)
    if n > 1:
        for q in range(n):
            out = cnot_matrix(n, q, (q + 1) % n) @ out
    return out


@pytest.mark.parametrize("trial", range(20))
def test_each_gate_matches_dense_oracle_on_random_state(trial):
    # One gate through the walk kernels, and a whole sublayer (one angle per
    # qubit) through the dense RY matrix and the RZ phase vector.
    rng = np.random.default_rng(500 + trial)
    n = 3
    state = random_state(rng, n)
    q = int(rng.integers(n))
    theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))

    for got, mat in [
        (_apply_ry(state, n, q, theta), embed_single(n, q, ry_matrix(theta))),
        (_apply_rz(state, n, q, theta), embed_single(n, q, rz_matrix(theta))),
    ]:
        np.testing.assert_allclose(got, mat @ state, atol=1e-12)

    angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=n)
    ry_layer = rz_layer = np.eye(2 ** n)
    for k, angle in enumerate(angles):
        ry_layer = embed_single(n, k, ry_matrix(angle)) @ ry_layer
        rz_layer = embed_single(n, k, rz_matrix(angle)) @ rz_layer
    r = qsim._ry_sublayer(angles)
    assert r.dtype == np.float64
    np.testing.assert_allclose(r, ry_layer.real, atol=1e-12)
    np.testing.assert_allclose(r @ r.T, np.eye(2 ** n), atol=1e-12)
    np.testing.assert_allclose(phases(n, angles) * state, rz_layer @ state, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 6))
def test_cnot_ring_and_its_inverse_match_dense_oracle(n):
    # Gathering with ``ring`` is the permutation matrix eye[ring]; the
    # adjoint sweep undoes the ring with the inverse gather argsort(ring).
    ring = qsim._cnot_ring(n)
    identity = np.eye(2 ** n)
    np.testing.assert_array_equal(identity[ring], ring_matrix(n))
    np.testing.assert_array_equal(identity[np.argsort(ring)], ring_matrix(n).T)
    states = np.stack([random_state(np.random.default_rng(n + r), n) for r in range(3)])
    np.testing.assert_array_equal(
        np.take(states, ring, axis=-1), states @ ring_matrix(n).T
    )


def test_apply_gate_is_pure():
    rng = np.random.default_rng(1)
    spec = AnsatzSpec(n_qubits=2, n_layers=2)
    params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    feats = rng.uniform(-np.pi, np.pi, size=(3, 2))
    inputs = (params, params[:2], feats)
    before = [a.copy() for a in inputs]
    qsim._ry_sublayer(params[:2])
    qsim._product_states(feats)
    qsim._fold(spec, params, (0, 1))
    qsim.batch_expectations(spec, params, feats, (0, 1))
    qsim.batch_parameter_shift(spec, params, feats, (0, 1))
    for now, then in zip(inputs, before):
        np.testing.assert_array_equal(now, then)
    # The shared basis tables cannot be written through.
    with pytest.raises(ValueError):
        qsim._tables(2).z[0, 0] = 0.0


def test_norm_preserved_under_random_gate_sequences():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        state = random_state(rng, n)
        for _ in range(12):
            kind = rng.integers(3)
            if kind == 0:
                state = qsim._ry_sublayer(rng.normal(size=n)) @ state
            elif kind == 1:
                state = phases(n, rng.normal(size=n)) * state
            else:
                state = np.take(state, qsim._cnot_ring(n), axis=-1)
        assert abs(float(np.sum(np.abs(state) ** 2)) - 1.0) < 1e-10


def test_gate_validation_errors():
    spec = AnsatzSpec(n_qubits=2, n_layers=1)
    params = np.zeros(spec.n_params)
    feats = np.zeros((3, 2))
    for fn in (qsim.batch_expectations, qsim.batch_parameter_shift):
        with pytest.raises(ConfigurationError, match="out of range"):
            fn(spec, params, feats, (2,))
        with pytest.raises(ConfigurationError, match="at least one"):
            fn(spec, params, feats, ())
        bad = params.copy()
        bad[1] = np.nan
        with pytest.raises(InputError, match="finite"):
            fn(spec, bad, feats, (0,))
    with pytest.raises(ConfigurationError):
        AnsatzSpec(n_qubits=qsim.MAX_QUBITS + 1, n_layers=1)
    with pytest.raises(ConfigurationError):
        AnsatzSpec(n_qubits=2, n_layers=0)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encode_zeros_gives_ground_state():
    for amps in (qsim._product_states(np.zeros((1, 3))), _encode(np.zeros((1, 3)))):
        np.testing.assert_allclose(amps[0], ground(3), atol=1e-15)


def test_encode_single_qubit_half_pi():
    for amps in (qsim._product_states(np.array([[np.pi / 2]])), _encode(np.array([[np.pi / 2]]))):
        np.testing.assert_allclose(
            amps[0], [np.cos(np.pi / 4), np.sin(np.pi / 4)], atol=1e-15
        )


def test_encode_pi_zero_is_basis_ten():
    # qubit 0 flipped, qubit 1 untouched -> index 0b10
    expected = np.zeros(4)
    expected[2] = 1.0
    for amps in (qsim._product_states(np.array([[np.pi, 0.0]])), _encode(np.array([[np.pi, 0.0]]))):
        np.testing.assert_allclose(amps[0], expected, atol=1e-15)


def test_encode_matches_oracle_product_state():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        feats = rng.uniform(-np.pi, np.pi, size=(3, n))
        got = qsim._product_states(feats)
        assert got.dtype == np.float64 and got.shape == (3, 2 ** n)
        walked = _encode(feats)
        for row in range(3):
            np.testing.assert_allclose(got[row], oracle_encode(feats[row]), atol=1e-12)
            np.testing.assert_allclose(walked[row], oracle_encode(feats[row]), atol=1e-12)


def test_encode_rejects_bad_input():
    spec = AnsatzSpec(n_qubits=2, n_layers=1)
    params = np.zeros(spec.n_params)
    for fn in (qsim.batch_expectations, qsim.batch_parameter_shift):
        with pytest.raises(InputError, match="finite"):
            fn(spec, params, [[0.1, np.nan]], (0,))
        with pytest.raises(InputError, match="length 2"):
            fn(spec, params, [[0.1, 0.2, 0.3]], (0,))
        # A bare feature vector is not a batch of rows.
        with pytest.raises(InputError, match="length 2"):
            fn(spec, params, [0.1, 0.2], (0,))


# ---------------------------------------------------------------------------
# ansatz
# ---------------------------------------------------------------------------


def test_zero_params_act_as_identity_on_ground_state():
    spec = AnsatzSpec(n_qubits=3, n_layers=2)
    for out in (folded(spec, np.zeros(spec.n_params)) @ ground(3),
                _run_ansatz(ground(3), spec, np.zeros(spec.n_params))):
        np.testing.assert_allclose(out, ground(3), atol=1e-15)


def test_ansatz_matches_oracle_two_qubits():
    rng = np.random.default_rng(21)
    spec = AnsatzSpec(n_qubits=2, n_layers=1)
    for _ in range(30):
        params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
        state = random_state(rng, 2)
        want = oracle_ansatz(spec, params, state)
        np.testing.assert_allclose(folded(spec, params) @ state, want, atol=1e-12)
        np.testing.assert_allclose(_run_ansatz(state, spec, params), want, atol=1e-12)


def test_four_qubit_layer_gate_order_including_wraparound():
    # One layer on 4 qubits: RY q0..q3 with params 0..3, RZ q0..q3 with
    # params 4..7, then CNOT 0->1, 1->2, 2->3 and the wraparound 3->0.
    rng = np.random.default_rng(33)
    spec = AnsatzSpec(n_qubits=4, n_layers=1)
    params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    state = random_state(rng, 4)

    explicit = state
    for q in range(4):
        explicit = _apply_ry(explicit, 4, q, params[q])
    for q in range(4):
        explicit = _apply_rz(explicit, 4, q, params[4 + q])
    for pair in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        explicit = cnot_matrix(4, *pair) @ explicit

    np.testing.assert_allclose(folded(spec, params) @ state, explicit, atol=1e-12)
    np.testing.assert_allclose(_run_ansatz(state, spec, params), explicit, atol=1e-12)


def test_single_qubit_skips_the_ring():
    spec = AnsatzSpec(n_qubits=1, n_layers=1)
    assert spec.n_params == 2
    expected = rz_matrix(0.9) @ ry_matrix(0.4) @ np.array([1.0, 0.0])
    for out in (folded(spec, [0.4, 0.9]) @ ground(1),
                _run_ansatz(ground(1), spec, np.array([0.4, 0.9]))):
        np.testing.assert_allclose(out, expected, atol=1e-14)


def test_param_count_mismatch_is_a_configuration_error():
    spec = AnsatzSpec(n_qubits=2, n_layers=2)
    for fn in (qsim.batch_expectations, qsim.batch_parameter_shift):
        with pytest.raises(ConfigurationError):
            fn(spec, np.zeros(5), np.zeros((1, 2)), (0,))


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


def test_expectation_z_basis_cases():
    spec = AnsatzSpec(n_qubits=1, n_layers=1)
    exps = qsim.batch_expectations(spec, np.zeros(2), [[0.0], [np.pi / 2], [np.pi]], (0,))
    np.testing.assert_allclose(exps[:, 0], [1.0, 0.0, -1.0], atol=1e-12)


def test_expectation_matches_oracle_on_random_states():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        spec = AnsatzSpec(n_qubits=n, n_layers=int(rng.integers(1, 3)))
        params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
        feats = rng.uniform(-np.pi, np.pi, size=n)
        q = int(rng.integers(n))
        assert value(spec, params, feats, q) == pytest.approx(
            oracle_circuit_value(spec, params, feats, q), abs=1e-12
        )


def test_circuit_value_zero_everything_is_plus_one():
    spec = AnsatzSpec(n_qubits=3, n_layers=2)
    exps = qsim.batch_expectations(spec, np.zeros(spec.n_params), np.zeros((1, 3)), (0, 1, 2))
    np.testing.assert_allclose(exps, np.ones((1, 3)), atol=1e-15)


def test_circuit_value_single_qubit_closed_form():
    # With features = 0, <Z> after RY(a) RZ(b) is cos(a) for any b.
    spec = AnsatzSpec(n_qubits=1, n_layers=1)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b = rng.uniform(-np.pi, np.pi, size=2)
        assert value(spec, [a, b], [0.0]) == pytest.approx(np.cos(a), abs=1e-12)


def test_circuit_value_matches_oracle_default_geometry():
    rng = np.random.default_rng(99)
    spec = AnsatzSpec(n_qubits=4, n_layers=3)
    for _ in range(10):
        params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
        feats = rng.uniform(-np.pi, np.pi, size=4)
        got = value(spec, params, feats)
        assert got == pytest.approx(oracle_circuit_value(spec, params, feats), abs=1e-10)


def test_circuit_value_is_two_pi_periodic_and_bounded():
    rng = np.random.default_rng(123)
    spec = AnsatzSpec(n_qubits=2, n_layers=2)
    for _ in range(20):
        params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
        feats = rng.uniform(-np.pi, np.pi, size=2)
        base = value(spec, params, feats)
        assert -1.0 <= base <= 1.0
        i = int(rng.integers(spec.n_params))
        shifted = params.copy()
        shifted[i] += 2 * np.pi
        assert value(spec, shifted, feats) == pytest.approx(base, abs=1e-12)


def test_measure_qubit_is_configurable():
    spec = AnsatzSpec(n_qubits=2, n_layers=1)
    rng = np.random.default_rng(5)
    params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    feats = rng.uniform(-np.pi, np.pi, size=2)
    assert value(spec, params, feats, 1) == pytest.approx(
        oracle_circuit_value(spec, params, feats, 1), abs=1e-12
    )


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def fd_grad(fn, x, h=1e-6):
    out = np.empty_like(x)
    for i in range(len(x)):
        up = x.copy()
        up[i] += h
        down = x.copy()
        down[i] -= h
        out[i] = (fn(up) - fn(down)) / (2 * h)
    return out


def assert_grads_close(analytic, numeric, rel=1e-4, small=1e-3, abs_tol=1e-6):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    for a, n in zip(analytic.ravel(), numeric.ravel()):
        if max(abs(a), abs(n)) < small:
            assert abs(a - n) < abs_tol
        else:
            assert abs(a - n) / max(abs(a), abs(n)) < rel


def test_shift_rule_zero_instance_has_zero_ry_grads():
    # At theta = 0, features = 0 the value sits at the cos maximum, so the
    # full gradient vanishes.
    spec = AnsatzSpec(n_qubits=2, n_layers=1)
    _, d_params, d_feats = qsim.batch_parameter_shift(
        spec, np.zeros(spec.n_params), np.zeros((1, 2)), (0,)
    )
    np.testing.assert_allclose(d_params, np.zeros((1, spec.n_params, 1)), atol=1e-12)
    np.testing.assert_allclose(d_feats, np.zeros((1, 2, 1)), atol=1e-12)


@pytest.mark.parametrize("n_qubits,n_layers", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_shift_rule_matches_finite_differences(n_qubits, n_layers):
    rng = np.random.default_rng(1000 + 10 * n_qubits + n_layers)
    spec = AnsatzSpec(n_qubits=n_qubits, n_layers=n_layers)
    for _ in range(8):
        params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
        feats = rng.uniform(-np.pi, np.pi, size=n_qubits)
        _, d_params, d_feats = qsim.batch_parameter_shift(spec, params, [feats], (0,))
        fd_params = fd_grad(lambda p: value(spec, p, feats), params)
        fd_feats = fd_grad(lambda f: value(spec, params, f), feats)
        assert_grads_close(d_params[0, :, 0], fd_params)
        assert_grads_close(d_feats[0, :, 0], fd_feats)


def test_batch_expectations_agree_with_scalar_path():
    # Each row of a batch equals a one-row call and the dense oracle.
    rng = np.random.default_rng(77)
    spec = AnsatzSpec(n_qubits=3, n_layers=2)
    params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    feats = rng.uniform(-np.pi, np.pi, size=(9, 3))
    batch = qsim.batch_expectations(spec, params, feats, (0,))
    assert batch.shape == (9, 1)
    for row in range(9):
        assert batch[row, 0] == pytest.approx(value(spec, params, feats[row]), abs=1e-12)
        assert batch[row, 0] == pytest.approx(
            oracle_circuit_value(spec, params, feats[row]), abs=1e-12
        )


def test_batch_expectations_all_qubits():
    rng = np.random.default_rng(78)
    spec = AnsatzSpec(n_qubits=3, n_layers=1)
    params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    feats = rng.uniform(-np.pi, np.pi, size=(4, 3))
    batch = qsim.batch_expectations(spec, params, feats, qubits=(0, 1, 2))
    assert batch.shape == (4, 3)
    for row in range(4):
        amps = oracle_ansatz(spec, params, oracle_encode(feats[row]))
        for q in range(3):
            assert batch[row, q] == pytest.approx(oracle_expect_z(amps, 3, q), abs=1e-12)


def test_batch_shift_matches_single_sample_grads():
    rng = np.random.default_rng(79)
    spec = AnsatzSpec(n_qubits=2, n_layers=2)
    params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    feats = rng.uniform(-np.pi, np.pi, size=(5, 2))
    _, d_theta, d_feat = qsim.batch_parameter_shift(spec, params, feats, (0,))
    for row in range(5):
        _, sp, sf = qsim.batch_parameter_shift(spec, params, feats[row : row + 1], (0,))
        np.testing.assert_allclose(d_theta[row], sp[0], atol=1e-12)
        np.testing.assert_allclose(d_feat[row], sf[0], atol=1e-12)


# ---------------------------------------------------------------------------
# adjoint gradients against the two-point shift rule
# ---------------------------------------------------------------------------


def shift_rule_oracle(spec, params, features, qubits):
    """Gradients by the parameter-shift rule: two shifted circuits per angle.

    Every gate is a rotation, so 0.5 * (f(t + pi/2) - f(t - pi/2)) is exact.
    Returns arrays shaped like batch_parameter_shift's two gradients.
    """
    params = np.asarray(params, dtype=float)
    features = np.asarray(features, dtype=float)
    half_pi = 0.5 * np.pi

    def value(p, f):
        return qsim.batch_expectations(spec, p, f, qubits)

    d_theta = np.empty((features.shape[0], spec.n_params, len(qubits)))
    for i in range(spec.n_params):
        plus, minus = params.copy(), params.copy()
        plus[i] += half_pi
        minus[i] -= half_pi
        d_theta[:, i, :] = 0.5 * (value(plus, features) - value(minus, features))
    d_feat = np.empty((features.shape[0], spec.n_qubits, len(qubits)))
    for j in range(spec.n_qubits):
        plus, minus = features.copy(), features.copy()
        plus[:, j] += half_pi
        minus[:, j] -= half_pi
        d_feat[:, j, :] = 0.5 * (value(params, plus) - value(params, minus))
    return d_theta, d_feat


@pytest.mark.parametrize("rows", [1, 17])
@pytest.mark.parametrize("all_qubits", [False, True])
@pytest.mark.parametrize("n_qubits,n_layers", [(1, 1), (2, 1), (3, 2), (6, 2)])
def test_adjoint_matches_shift_rule_oracle(n_qubits, n_layers, all_qubits, rows):
    rng = np.random.default_rng(2000 + 100 * n_qubits + 10 * n_layers + rows)
    spec = AnsatzSpec(n_qubits=n_qubits, n_layers=n_layers)
    params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    feats = rng.uniform(-np.pi, np.pi, size=(rows, n_qubits))
    qubits = tuple(range(n_qubits)) if all_qubits else (n_qubits - 1,)
    exps, d_theta, d_feat = qsim.batch_parameter_shift(spec, params, feats, qubits)
    # The adjoint's forward state is the inference pass's, to the bit.
    assert exps.tobytes() == qsim.batch_expectations(spec, params, feats, qubits).tobytes()
    want_theta, want_feat = shift_rule_oracle(spec, params, feats, qubits)
    assert exps.shape == (rows, len(qubits))
    assert d_theta.shape == (rows, spec.n_params, len(qubits))
    assert d_feat.shape == (rows, n_qubits, len(qubits))
    np.testing.assert_allclose(d_theta, want_theta, rtol=0, atol=1e-12)
    np.testing.assert_allclose(d_feat, want_feat, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the dense path against the gate walk
# ---------------------------------------------------------------------------


def test_folded_observable_matches_dense_oracle():
    rng = np.random.default_rng(3000)
    spec = AnsatzSpec(n_qubits=3, n_layers=2)
    params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    u, a, _ = qsim._fold(spec, params, (2, 0))
    dense = oracle_ansatz(spec, params, np.eye(8, dtype=complex))
    np.testing.assert_allclose(u, dense, atol=1e-12)
    for i, q in enumerate((2, 0)):
        z = embed_single(3, q, np.diag([1.0, -1.0]))
        np.testing.assert_allclose(a[i], (dense.conj().T @ z @ dense).real, atol=1e-12)


@pytest.mark.parametrize("n_qubits,n_layers", [(1, 3), (4, 2), (6, 6), (qsim.MAX_QUBITS, 2)])
def test_dense_path_matches_the_gate_walk(n_qubits, n_layers):
    rng = np.random.default_rng(4000 + n_qubits)
    spec = AnsatzSpec(n_qubits=n_qubits, n_layers=n_layers)
    params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
    feats = rng.uniform(-np.pi, np.pi, size=(5, n_qubits))
    qubits = tuple(range(n_qubits))
    exps, d_theta, d_feat = qsim.batch_parameter_shift(spec, params, feats, qubits)
    want_theta, want_feat = walk_gradients(spec, params, feats, qubits)
    np.testing.assert_allclose(exps, walk_expectations(spec, params, feats, qubits),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(d_theta, want_theta, rtol=0, atol=1e-12)
    np.testing.assert_allclose(d_feat, want_feat, rtol=0, atol=1e-12)

