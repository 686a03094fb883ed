"""Dense network stack: forward values, gradients vs finite differences, Adam."""

import numpy as np
import pytest

from qmoe.errors import ConfigurationError, InputError
from qmoe.neural import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    MLPSpec,
    adam_init,
    bce_loss,
    init_mlp_params,
    mlp_backward,
    mlp_forward,
    mse_loss,
    optimizer_step,
    sigmoid,
)


def fd(fn, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.empty_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += h
        down = flat.copy()
        down[i] -= h
        out[i] = (fn(up.reshape(x.shape)) - fn(down.reshape(x.shape))) / (2 * h)
    return out.reshape(x.shape)


def assert_grads_close(analytic, numeric, rel=1e-4, small=1e-3, abs_tol=1e-6):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    assert analytic.shape == numeric.shape
    for a, n in zip(analytic.ravel(), numeric.ravel()):
        if max(abs(a), abs(n)) < small:
            assert abs(a - n) < abs_tol
        else:
            assert abs(a - n) / max(abs(a), abs(n)) < rel


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_single_linear_layer_identity():
    spec = MLPSpec((3, 3), output_activation="linear")
    params = [(np.eye(3), np.zeros(3))]
    x = np.array([[0.3, -1.2, 2.0]])
    out, _ = mlp_forward(spec, params, x)
    np.testing.assert_array_equal(out, x)


def test_hand_computed_relu_network():
    # x=(1,2): pre1 = (1-2+0.1, 0.5+0.5-0.2) = (-0.9, 0.8) -> relu (0, 0.8)
    # out = 0*2 + 0.8*(-3) + 0.5 = -1.9
    spec = MLPSpec((2, 2, 1))
    params = [
        (np.array([[1.0, -1.0], [0.5, 0.25]]), np.array([0.1, -0.2])),
        (np.array([[2.0, -3.0]]), np.array([0.5])),
    ]
    out, _ = mlp_forward(spec, params, np.array([[1.0, 2.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(-1.9, abs=1e-15)


def test_zero_weights_sigmoid_output_is_half():
    spec = MLPSpec((4, 3, 1), output_activation="sigmoid")
    params = [
        (np.zeros((3, 4)), np.zeros(3)),
        (np.zeros((1, 3)), np.zeros(1)),
    ]
    out, _ = mlp_forward(spec, params, np.ones((1, 4)))
    assert out[0, 0] == pytest.approx(0.5)


def test_batch_rows_match_single_vectors():
    rng = np.random.default_rng(0)
    spec = MLPSpec((5, 4, 2), output_activation="sigmoid")
    params = init_mlp_params(spec, rng)
    batch = rng.normal(size=(6, 5))
    out_batch, _ = mlp_forward(spec, params, batch)
    for i in range(6):
        single, _ = mlp_forward(spec, params, batch[i : i + 1])
        np.testing.assert_allclose(out_batch[i : i + 1], single, atol=1e-14)


def test_forward_shape_validation():
    spec = MLPSpec((3, 2))
    params = [(np.zeros((2, 3)), np.zeros(2))]
    with pytest.raises(ConfigurationError):
        mlp_forward(spec, params, np.zeros((1, 4)))
    with pytest.raises(ConfigurationError):
        mlp_forward(MLPSpec((4, 2)), params, np.zeros((1, 4)))
    for shape in ((3,), (), (1, 1, 3)):
        with pytest.raises(InputError):
            mlp_forward(spec, params, np.zeros(shape))
    with pytest.raises(ConfigurationError):
        MLPSpec((3,))
    with pytest.raises(ConfigurationError):
        MLPSpec((3, 2), output_activation="softplus")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_mse_example_and_gradient():
    loss, grad = mse_loss(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert loss == pytest.approx(1.0)
    np.testing.assert_allclose(grad, [1.0, 1.0])

    rng = np.random.default_rng(2)
    x = rng.normal(size=7)
    y = rng.normal(size=7)
    _, grad = mse_loss(x, y)
    assert_grads_close(grad, fd(lambda yy: mse_loss(x, yy)[0], y))


def test_mse_identical_inputs_zero_loss():
    x = np.array([0.5, -0.25, 3.0])
    loss, grad = mse_loss(x, x.copy())
    assert loss == 0.0
    np.testing.assert_array_equal(grad, np.zeros(3))


def test_bce_examples_and_gradient():
    loss, _ = bce_loss(np.array([1.0]), np.array([0.5]))
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    # clamped extreme stays finite
    loss, grad = bce_loss(np.array([1.0]), np.array([0.0]))
    assert np.isfinite(loss)
    assert grad[0] == 0.0  # clamp active, locally constant

    rng = np.random.default_rng(3)
    y = (rng.uniform(size=9) < 0.5).astype(float)
    p = rng.uniform(0.05, 0.95, size=9)
    _, grad = bce_loss(y, p)
    assert_grads_close(grad, fd(lambda pp: bce_loss(y, pp)[0], p))


def test_loss_input_validation():
    with pytest.raises(InputError):
        mse_loss(np.zeros(3), np.zeros(4))
    with pytest.raises(InputError):
        bce_loss(np.zeros(2), np.zeros(3))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_linear_regression_gradient_is_input():
    # One linear unit, loss = output, so dW = x and db = 1.
    spec = MLPSpec((3, 1))
    params = [(np.array([[0.2, -0.4, 0.6]]), np.array([0.1]))]
    x = np.array([[1.5, -2.0, 0.5]])
    _, acts = mlp_forward(spec, params, x)
    grads, grad_in = mlp_backward(spec, params, acts, np.array([[1.0]]))
    np.testing.assert_allclose(grads[0][0], x)
    np.testing.assert_allclose(grads[0][1], [1.0])
    np.testing.assert_allclose(grad_in, params[0][0])


@pytest.mark.parametrize("out_act", ["linear", "sigmoid"])
def test_backward_matches_finite_differences(out_act):
    # A fixed seed per case: str hashes are salted per process.
    rng = np.random.default_rng({"linear": 31, "sigmoid": 32}[out_act])
    spec = MLPSpec((4, 5, 3), output_activation=out_act)
    params = init_mlp_params(spec, rng)
    x = rng.normal(size=(6, 4))
    target = rng.normal(size=(6, 3))

    def loss_of(params_list, inp):
        out, _ = mlp_forward(spec, params_list, inp)
        return mse_loss(target, out)[0]

    out, acts = mlp_forward(spec, params, x)
    _, upstream = mse_loss(target, out)
    grads, grad_in = mlp_backward(spec, params, acts, upstream)

    for layer in range(spec.n_layers):
        w, b = params[layer]

        def with_w(ww):
            plist = [list(p) for p in params]
            plist[layer][0] = ww
            return loss_of([tuple(p) for p in plist], x)

        def with_b(bb):
            plist = [list(p) for p in params]
            plist[layer][1] = bb
            return loss_of([tuple(p) for p in plist], x)

        assert_grads_close(grads[layer][0], fd(with_w, w))
        assert_grads_close(grads[layer][1], fd(with_b, b))

    assert_grads_close(grad_in, fd(lambda xx: loss_of(params, xx), x))


def test_relu_subgradient_zero_at_kink():
    # Craft a pre-activation of exactly 0; the unit must pass no gradient.
    spec = MLPSpec((1, 1, 1))
    params = [(np.array([[1.0]]), np.array([0.0])), (np.array([[1.0]]), np.array([0.0]))]
    _, acts = mlp_forward(spec, params, np.array([[0.0]]))
    grads, grad_in = mlp_backward(spec, params, acts, np.array([[1.0]]))
    assert grads[0][0][0, 0] == 0.0
    assert grad_in[0, 0] == 0.0


def test_backward_rejects_mismatched_cache():
    spec = MLPSpec((3, 2))
    other = MLPSpec((4, 2))
    params = [(np.zeros((2, 3)), np.zeros(2))]
    other_params = [(np.zeros((2, 4)), np.zeros(2))]
    _, acts = mlp_forward(spec, params, np.zeros((1, 3)))
    with pytest.raises(ConfigurationError):
        mlp_backward(other, other_params, acts, np.zeros((1, 2)))
    with pytest.raises(ConfigurationError):
        mlp_backward(spec, params, acts, np.zeros((1, 5)))
    with pytest.raises(ConfigurationError):
        mlp_backward(spec, params, acts, np.zeros(2))  # a 1-D gradient is not a batch


def reference_backward(spec, params, x, grad):
    """Backprop that keeps pre-activations and recomputes each layer's output.

    The oracle for mlp_backward, which reads the outputs from its acts instead.
    """
    inputs, preacts, current = [], [], x
    for i, (w, b) in enumerate(params):
        act = "relu" if i < spec.n_layers - 1 else spec.output_activation
        inputs.append(current)
        pre = current @ w.T + b
        preacts.append(pre)
        current = {"linear": pre, "relu": np.maximum(pre, 0.0), "sigmoid": sigmoid(pre)}[act]
    param_grads = [None] * spec.n_layers
    for i in range(spec.n_layers - 1, -1, -1):
        act = "relu" if i < spec.n_layers - 1 else spec.output_activation
        pre = preacts[i]
        if act == "linear":
            local = np.ones_like(pre)
        elif act == "relu":
            local = (pre > 0).astype(np.float64)
        else:
            out = sigmoid(pre)
            local = out * (1.0 - out)
        d_pre = grad * local
        param_grads[i] = (d_pre.T @ inputs[i], d_pre.sum(axis=0))
        grad = d_pre @ params[i][0]
    return param_grads, grad


def assert_same_bytes(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("out_act", ["linear", "sigmoid"])
def test_backward_equals_reference_bytes(out_act):
    rng = np.random.default_rng({"linear": 41, "sigmoid": 42}[out_act])
    spec = MLPSpec((5, 7, 6, 3), output_activation=out_act)
    params = init_mlp_params(spec, rng)
    # Put a hidden unit's pre-activation at exactly 0 on row 0: its bias
    # cancels the row's weighted input, which is exact for these small dyadic values.
    x = rng.integers(-4, 5, size=(9, 5)) / 4.0
    w0 = rng.integers(-4, 5, size=(7, 5)) / 8.0
    b0 = np.zeros(7)
    b0[2] = -(w0[2] @ x[0])
    params[0] = (w0, b0)
    assert (x[0] @ w0.T + b0)[2] == 0.0
    upstream = rng.normal(size=(9, 3))

    _, acts = mlp_forward(spec, params, x)
    grads, grad_in = mlp_backward(spec, params, acts, upstream)
    want, want_in = reference_backward(spec, params, x, upstream)
    for (dw, db), (ref_w, ref_b) in zip(grads, want):
        assert_same_bytes(dw, ref_w)
        assert_same_bytes(db, ref_b)
    assert_same_bytes(grad_in, want_in)
    assert grads[0][0][2].any()  # the unit carries gradient on other rows


def reference_forward(spec, params, x):
    """mlp_forward as whole-array expressions: each layer's ``a @ w.T + b``."""
    acts = [x]
    for w, b in params[:-1]:
        acts.append(np.maximum(acts[-1] @ w.T + b, 0.0))
    w, b = params[-1]
    out = acts[-1] @ w.T + b
    acts.append(sigmoid(out) if spec.output_activation == "sigmoid" else out)
    return acts


@pytest.mark.parametrize("config", [
    {},  # the paper hybrid: a 29-256-128-64-6 encoder
    {"encoder_hidden": (64, 32), "n_qubits": 3, "n_layers": 2, "head_hidden": 8},  # the desk's
    {"head_all_qubits": True},
], ids=["paper", "desk", "head on every qubit"])
def test_forward_in_place_equals_the_whole_array_expressions(config):
    from qmoe.hybrid import HybridConfig

    cfg = HybridConfig(**config)
    rng = np.random.default_rng(17)
    head_width = cfg.head_spec.layer_sizes[0]
    for spec, x in ((cfg.encoder_spec, rng.uniform(0.0, 1.0, size=(512, cfg.n_features))),
                    (cfg.head_spec, rng.uniform(-1.0, 1.0, size=(512, head_width)))):
        params = init_mlp_params(spec, rng)
        out, acts = mlp_forward(spec, params, x)
        want = reference_forward(spec, params, x)
        assert len(acts) == len(want) and out is acts[-1]
        for got, expected in zip(acts, want):
            assert_same_bytes(got, expected)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_shapes_bounds_and_determinism():
    spec = MLPSpec((29, 16, 8, 1), output_activation="sigmoid")
    a = init_mlp_params(spec, np.random.default_rng(9))
    b = init_mlp_params(spec, np.random.default_rng(9))
    assert [w.shape for w, _ in a] == [(16, 29), (8, 16), (1, 8)]
    for (wa, ba), (wb, bb) in zip(a, b):
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(ba, np.zeros_like(ba))
    # He-uniform bound for the first (relu-fed) layer
    assert np.max(np.abs(a[0][0])) <= np.sqrt(6.0 / 29)
    # Glorot bound for the output layer
    assert np.max(np.abs(a[2][0])) <= np.sqrt(6.0 / (8 + 1))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_leaves_params_unchanged():
    params = np.array([1.0, -2.0, 0.5])
    before = params.copy()
    state = adam_init(params, 0.1)
    out = optimizer_step(state, params, np.zeros(3))
    assert out is params  # updated in place
    np.testing.assert_array_equal(out, before)


def test_adam_descends_on_quadratic():
    w = np.array([1.0])
    state = adam_init(w, 0.1)
    w = optimizer_step(state, w, 2.0 * w)
    assert abs(w[0]) < 1.0


def test_adam_converges_on_quadratic_with_default_lr():
    w = np.array([1.0])
    state = adam_init(w, 1e-3)
    for _ in range(10_000):
        w = optimizer_step(state, w, 2.0 * w)
    assert abs(w[0]) < 1e-6


def test_adam_validation():
    params = np.zeros(2)
    state = adam_init(params, 0.1)
    with pytest.raises(ConfigurationError):
        optimizer_step(state, params, np.zeros(3))
    with pytest.raises(ConfigurationError):
        optimizer_step(state, np.zeros(4), np.zeros(4))
    with pytest.raises(ConfigurationError):
        adam_init(params, -1.0)


def test_sigmoid_stability_and_values():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    big = sigmoid(np.array([800.0, -800.0]))
    assert big[0] == 1.0 and big[1] == 0.0
    assert np.all(np.isfinite(big))


class PerArrayAdam:
    """The per-array Adam step as first written: one moment pair per array,
    fresh arrays, nothing in place."""

    def __init__(self, arrays, learning_rate):
        self.learning_rate, self.step = learning_rate, 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def update(self, params, grads):
        self.step += 1
        correct1 = 1.0 - ADAM_BETA1 ** self.step
        correct2 = 1.0 - ADAM_BETA2 ** self.step
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = ADAM_BETA1 * self.m[i] + (1.0 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = self.m[i] / correct1
            v_hat = self.v[i] / correct2
            out.append(p - self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        return out


def test_adam_on_one_buffer_equals_per_array_adam_bytes():
    # The hybrid keeps every parameter in one buffer and updates it in one
    # pass; Adam is elementwise, so that must give the per-array bits.
    rng = np.random.default_rng(60)
    shapes = [(7, 5), (7,), (1, 7), (1,), (12,)]
    arrays = [rng.normal(size=s) for s in shapes]
    buffer = np.concatenate([a.ravel() for a in arrays])
    fast = adam_init(buffer, 0.01)
    slow = PerArrayAdam(arrays, 0.01)
    for step in range(40):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-9, 3) for s in shapes]
        if step % 7 == 3:
            grads[1][:] = 0.0
        optimizer_step(fast, buffer, np.concatenate([g.ravel() for g in grads]))
        arrays = slow.update(arrays, grads)
        assert buffer.tobytes() == np.concatenate([a.ravel() for a in arrays]).tobytes()
    assert fast.m.tobytes() == np.concatenate([m.ravel() for m in slow.m]).tobytes()
    assert fast.v.tobytes() == np.concatenate([v.ravel() for v in slow.v]).tobytes()


def two_branch_sigmoid(x):
    """The masked formula sigmoid replaced: 1 / (1 + exp(-x)) at x >= 0, else e^x / (1 + e^x)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_the_two_branch_formula_bytes():
    tiny = np.finfo(np.float64).tiny
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 745.0, -745.0, 746.0,
                      -746.0, tiny, -tiny, tiny / 8, -tiny / 8, 5e-324, -5e-324, 1e-300, 36.7,
                      -36.7, 37.0, -37.0, np.finfo(np.float64).max, -np.finfo(np.float64).max])
    rng = np.random.default_rng(61)
    normals = rng.normal(scale=20.0, size=20_000)
    for x in (edges, normals, normals.reshape(100, 200)[:, ::3]):
        got = sigmoid(x)
        assert got.shape == x.shape and got.dtype == np.float64
        assert got.tobytes() == two_branch_sigmoid(x).tobytes()
    assert np.isnan(sigmoid(np.array([np.nan]))[0])
