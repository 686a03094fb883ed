"""Hybrid model tests: joint-gradient correctness, training behavior,
loss mixing edge cases, and a frozen regression run."""

import json
from dataclasses import replace

import numpy as np
import pytest

from qmoe import hybrid
from qmoe.bench import load_config
from qmoe.errors import ConfigurationError, InputError
from qmoe.hybrid import (
    HybridConfig,
    HybridModel,
    _batch_gradients,
    _init_training,
    _pack,
    fit_hybrid,
)
from qmoe.metrics import average_precision, pr_curve
from qmoe.neural import bce_loss, mlp_backward, mlp_forward, mse_loss
from qmoe.qsim import MAX_QUBITS, batch_expectations, batch_parameter_shift


def fresh_hybrid(config, rng=None):
    """An untrained model: the served part of the buffer fit_hybrid starts from,
    drawn as fit_hybrid draws it."""
    return _init_training(config, rng).served()


def evaluate_loss(training, x, y):
    """(total, recon, class) losses on a dataset, without touching the
    training buffer.

    The finite-difference oracle for _batch_gradients: the same objective,
    built from forward passes only.
    """
    cfg = training.config
    probs = training.served()._classify(x)
    class_loss, _ = bce_loss(y, probs)
    legit = y == 0
    if legit.any():
        z, _ = mlp_forward(cfg.encoder_spec, training.encoder, x)
        x_hat, _ = mlp_forward(cfg.decoder_spec, training.decoder, z)
        recon_loss, _ = mse_loss(x[legit], x_hat[legit])
    else:
        recon_loss = 0.0
    lam = cfg.recon_weight
    return lam * recon_loss + (1.0 - lam) * class_loss, recon_loss, class_loss


def reference_batch_gradients(training, x, y):
    """The training step with two circuit passes, the byte oracle for _batch_gradients.

    batch_expectations gives the expectations for the loss, and the adjoint
    sweep runs the circuit again for the gradients. The sweep is skipped
    when the upstream circuit gradient is identically zero, as at
    recon_weight 1, and theta's gradient is then zeros.
    """
    cfg = training.config
    lam = cfg.recon_weight
    z, enc_acts = mlp_forward(cfg.encoder_spec, training.encoder, x)
    tanh_z = np.tanh(z)
    angles = np.pi * tanh_z
    exps = batch_expectations(cfg.ansatz, training.theta, angles, cfg.measured_qubits)
    head_out, head_acts = mlp_forward(cfg.head_spec, training.head, exps)
    class_loss, class_grad = bce_loss(y, head_out[:, 0])
    dec_out, dec_acts = mlp_forward(cfg.decoder_spec, training.decoder, z)
    legit = y == 0
    grad_xhat = np.zeros_like(dec_out)
    if legit.any():
        recon_loss, recon_grad = mse_loss(x[legit], dec_out[legit])
        grad_xhat[legit] = lam * recon_grad
    else:
        recon_loss = 0.0
    total = lam * recon_loss + (1.0 - lam) * class_loss
    head_grads, d_exps = mlp_backward(
        cfg.head_spec, training.head, head_acts, ((1.0 - lam) * class_grad)[:, None]
    )
    if np.any(d_exps != 0.0):
        _, d_theta_all, d_angle_all = batch_parameter_shift(
            cfg.ansatz, training.theta, angles, cfg.measured_qubits
        )
        theta_grad = np.einsum("bq,bpq->p", d_exps, d_theta_all)
        d_angles = np.einsum("bq,bnq->bn", d_exps, d_angle_all)
    else:
        theta_grad = np.zeros_like(training.theta)
        d_angles = np.zeros_like(angles)
    dz = d_angles * np.pi * (1.0 - tanh_z * tanh_z)
    dec_grads, dz_recon = mlp_backward(cfg.decoder_spec, training.decoder, dec_acts, grad_xhat)
    enc_grads, _ = mlp_backward(cfg.encoder_spec, training.encoder, enc_acts, dz + dz_recon)
    return total, recon_loss, class_loss, _pack(enc_grads, theta_grad, head_grads, dec_grads)


def parts(model):
    """Every parameter array in ``model.params`` order: views of that buffer.
    A training buffer's decoder comes last; a model has none."""
    def arrays(layers):
        return [a for pair in layers for a in pair]

    decoder = arrays(model.decoder) if hasattr(model, "decoder") else []
    return arrays(model.encoder) + [model.theta] + arrays(model.head) + decoder


def last_training_buffer(monkeypatch):
    """A list that gets each training state _batch_gradients is handed; after a
    fit, its last entry holds the fit's final training buffer."""
    seen = []
    real = hybrid._batch_gradients

    def recording(training, x, y):
        seen.append(training)
        return real(training, x, y)

    monkeypatch.setattr(hybrid, "_batch_gradients", recording)
    return seen


def assert_close(fd, analytic):
    # Same comparison rule as the circuit gradient tests: relative 1e-4,
    # falling back to absolute 1e-6 when both values are tiny.
    if abs(fd) < 1e-3 and abs(analytic) < 1e-3:
        assert analytic == pytest.approx(fd, abs=1e-6)
    else:
        assert analytic == pytest.approx(fd, rel=1e-4)


TINY = dict(
    n_features=4,
    encoder_hidden=(3,),
    n_qubits=2,
    n_layers=1,
    head_hidden=2,
    recon_weight=0.5,
    batch_size=4,
    epochs=2,
)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        HybridConfig(n_qubits=0)
    with pytest.raises(ConfigurationError):
        HybridConfig(n_qubits=17)
    with pytest.raises(ConfigurationError):
        HybridConfig(recon_weight=1.5)
    with pytest.raises(ConfigurationError):
        HybridConfig(epochs=0)
    with pytest.raises(ConfigurationError):
        HybridConfig(encoder_hidden=(8, 0))
    cfg = HybridConfig()
    assert cfg.encoder_spec.layer_sizes == (29, 256, 128, 64, 6)
    assert cfg.decoder_spec.layer_sizes == (6, 64, 128, 256, 29)
    assert cfg.head_spec.layer_sizes == (1, 8, 1)
    assert HybridConfig(head_all_qubits=True).head_spec.layer_sizes == (6, 8, 1)


@pytest.mark.parametrize("field, value", [("n_qubits", MAX_QUBITS + 1), ("n_layers", 0)])
def test_circuit_shape_is_checked_by_the_ansatz(field, value, tmp_path):
    # HybridConfig leaves these rules to AnsatzSpec; a config file meets them too.
    with pytest.raises(ConfigurationError, match=f"{field} must be"):
        HybridConfig(**{field: value})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"hybrid": {field: value}}))
    with pytest.raises(ConfigurationError, match=f"{field} must be"):
        load_config(path)


def test_params_is_the_one_buffer_the_parts_view():
    cfg = HybridConfig(**TINY)
    # encoder 4->3->2: 4*3+3 + 3*2+2 = 23, theta 2 qubits x 1 layer x 2: 4,
    # head 1->2->1: 1*2+2 + 2*1+1 = 7; the decoder 2->3->4 (2*3+3 + 3*4+4 = 25)
    # is in the training buffer only.
    assert cfg.n_params == 23 + 4 + 7
    model = fresh_hybrid(cfg)
    assert model.params.shape == (cfg.n_params,)
    assert not hasattr(model, "decoder")
    assert all(np.shares_memory(a, model.params) for a in parts(model))
    assert np.concatenate([a.ravel() for a in parts(model)]).tobytes() == model.params.tobytes()
    training = _init_training(cfg)
    assert training.params.shape == (cfg.n_params + 25,)
    assert all(np.shares_memory(a, training.params) for a in parts(training))
    assert (np.concatenate([a.ravel() for a in parts(training)]).tobytes()
            == training.params.tobytes())
    assert model.params.tobytes() == training.params[: cfg.n_params].tobytes()
    # A copy owns its buffer, as when the parts were fields.
    assert not np.shares_memory(replace(model).params, model.params)
    assert not np.shares_memory(training.served().params, training.params)
    for wrong in (cfg.n_params - 1, cfg.n_params + 1):
        message = rf"params has shape \({wrong},\), the config needs {cfg.n_params} parameters"
        with pytest.raises(ConfigurationError, match=message):
            HybridModel(cfg, np.zeros(wrong))


@pytest.mark.parametrize("with_validation", [False, True], ids=["training only", "validated"])
def test_a_fit_serves_the_first_n_params_of_its_training_buffer(with_validation, monkeypatch):
    # epochs=1 makes the last epoch the best with a validation set too.
    seen = last_training_buffer(monkeypatch)
    cfg = HybridConfig(seed=3, **{**TINY, "epochs": 1})
    rng = np.random.default_rng(10)
    x, y = rng.normal(size=(12, 4)), np.array([0.0, 1.0] * 6)
    validation = (_X_VAL, _Y_VAL) if with_validation else ()
    model, report = fit_hybrid(cfg, x, y, *validation)
    buffer = seen[-1].params
    assert buffer.size == cfg.n_params + 25  # the TINY decoder's 25 values
    assert model.params.tobytes() == buffer[: cfg.n_params].tobytes()
    assert not np.shares_memory(model.params, buffer)
    if with_validation:
        assert report.val_probs.tobytes() == model.predict_proba(_X_VAL).tobytes()


def test_encoder_hidden_is_normalized_to_a_tuple():
    # A JSON list (a config or model file) builds the same config as a tuple.
    listed = HybridConfig(encoder_hidden=[8, 4])
    assert listed == HybridConfig(encoder_hidden=(8, 4))
    assert listed.encoder_hidden == (8, 4)
    assert hash(listed) == hash(HybridConfig(encoder_hidden=(8, 4)))


@pytest.mark.parametrize("all_qubits", [False, True])
def test_joint_gradients_match_finite_differences(all_qubits):
    cfg = HybridConfig(seed=3, head_all_qubits=all_qubits, **TINY)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 4))
    y = np.array([0.0, 1.0, 0.0, 0.0, 1.0])
    model = _init_training(cfg)
    _, _, _, flat_grads = _batch_gradients(model, x, y)
    assert flat_grads.shape == model.params.shape
    arrays = parts(model)
    ends = np.cumsum([a.size for a in arrays])
    grads = [g.reshape(a.shape) for g, a in zip(np.split(flat_grads, ends[:-1]), arrays)]

    h = 1e-6
    for ai, arr in enumerate(arrays):
        idxs = list(np.ndindex(arr.shape))
        if arr.size > 6:
            idxs = [idxs[i] for i in rng.choice(len(idxs), 6, replace=False)]
        for ix in idxs:
            orig = arr[ix]
            arr[ix] = orig + h
            up, _, _ = evaluate_loss(model, x, y)
            arr[ix] = orig - h
            down, _, _ = evaluate_loss(model, x, y)
            arr[ix] = orig
            assert_close((up - down) / (2.0 * h), grads[ai][ix])


@pytest.mark.parametrize("labels", ["mixed", "all legit", "all fraud"])
@pytest.mark.parametrize("all_qubits", [False, True])
@pytest.mark.parametrize("recon_weight", [0.0, 0.4, 1.0])
def test_one_pass_step_equals_two_pass_reference_bytes(recon_weight, all_qubits, labels):
    cfg = HybridConfig(
        n_features=5, encoder_hidden=(7, 4), n_qubits=3, n_layers=2, head_hidden=3,
        head_all_qubits=all_qubits, recon_weight=recon_weight, seed=19,
    )
    rng = np.random.default_rng(20)
    x = rng.normal(size=(9, 5))
    y = {"mixed": (np.arange(9) % 3 == 0).astype(float), "all legit": np.zeros(9),
         "all fraud": np.ones(9)}[labels]
    model = _init_training(cfg)
    *losses, grads = _batch_gradients(model, x, y)
    *want_losses, want = reference_batch_gradients(model, x, y)
    assert np.array(losses).tobytes() == np.array(want_losses).tobytes()
    assert grads.shape == want.shape == model.params.shape
    assert grads.tobytes() == want.tobytes()


@pytest.mark.parametrize("recon_weight", [0.5, 1.0])
def test_step_runs_the_circuit_once(recon_weight, monkeypatch):
    calls = {"batch_parameter_shift": 0, "batch_expectations": 0}

    def counted(name):
        inner = getattr(hybrid, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(hybrid, name, counted(name))
    model = _init_training(HybridConfig(**{**TINY, "recon_weight": recon_weight}, seed=2))
    rng = np.random.default_rng(3)
    _batch_gradients(model, rng.normal(size=(6, 4)), np.array([0.0, 1.0] * 3))
    assert calls == {"batch_parameter_shift": 1, "batch_expectations": 0}


def test_learns_a_separable_problem():
    rng = np.random.default_rng(42)
    n = 80
    y = (rng.random(n) < 0.5).astype(float)
    x = rng.normal(size=(n, 4)) * 0.4
    x[:, 0] += np.where(y == 1, 1.5, -1.5)
    cfg = HybridConfig(
        n_features=4, encoder_hidden=(8,), n_qubits=2, n_layers=2,
        head_hidden=4, head_all_qubits=True, recon_weight=0.3,
        batch_size=16, epochs=30, learning_rate=0.01, seed=7,
    )
    model, report = fit_hybrid(cfg, x, y)
    probs = model.predict_proba(x)
    assert average_precision(pr_curve(probs, y)) > 0.99
    assert np.mean((probs > 0.5) == (y == 1)) > 0.95
    assert report.epochs[-1].train_loss < report.epochs[0].train_loss


def test_early_stopping_restores_best_epoch():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(60, 4))
    y = (rng.random(60) < 0.4).astype(float)
    x_val = rng.normal(size=(30, 4))
    y_val = (rng.random(30) < 0.4).astype(float)  # noise: AP cannot improve long
    cfg = HybridConfig(
        n_features=4, encoder_hidden=(6,), n_qubits=2, n_layers=1,
        head_hidden=3, batch_size=16, epochs=50, learning_rate=0.01,
        patience=3, seed=11,
    )
    model, report = fit_hybrid(cfg, x, y, x_val, y_val)
    assert report.stopped_early
    assert len(report.epochs) < cfg.epochs
    assert len(report.epochs) == report.best_epoch + cfg.patience + 1
    recorded = [e.val_ap for e in report.epochs]
    # The rollback is exact: re-scoring the returned model reproduces the
    # best epoch's validation AP bit for bit.
    best = average_precision(pr_curve(model.predict_proba(x_val), y_val))
    assert best == max(recorded)


@pytest.mark.parametrize("epochs", [1, 50])
def test_report_keeps_the_best_epochs_validation_scores(epochs):
    # fit_fold reads these instead of scoring x_val again, so they must be
    # the bytes the rolled-back model gives, across several eval chunks.
    rng = np.random.default_rng(6)
    x = rng.normal(size=(60, 4))
    y = (rng.random(60) < 0.4).astype(float)
    x_val = rng.normal(size=(2 * hybrid._EVAL_CHUNK + 7, 4))
    y_val = (rng.random(x_val.shape[0]) < 0.4).astype(float)
    cfg = HybridConfig(
        n_features=4, encoder_hidden=(6,), n_qubits=2, n_layers=1,
        head_hidden=3, batch_size=16, epochs=epochs, learning_rate=0.01,
        patience=3, seed=11,
    )
    model, report = fit_hybrid(cfg, x, y, x_val, y_val)
    assert epochs == 1 or report.best_epoch < len(report.epochs) - 1
    fresh = model.predict_proba(x_val)
    assert report.val_probs.dtype == fresh.dtype
    assert report.val_probs.tobytes() == fresh.tobytes()
    assert fit_hybrid(cfg, x, y)[1].val_probs is None


def test_recon_only_training_freezes_quantum_and_head():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(60, 4))
    y = (rng.random(60) < 0.4).astype(float)
    cfg = HybridConfig(
        n_features=4, encoder_hidden=(6,), n_qubits=2, n_layers=1,
        head_hidden=3, recon_weight=1.0, batch_size=16, epochs=3,
        learning_rate=0.01, seed=11,
    )
    start = fresh_hybrid(cfg)
    model, _ = fit_hybrid(cfg, x, y)
    assert np.array_equal(model.theta, start.theta)
    for (w, b), (w0, b0) in zip(model.head, start.head):
        assert np.array_equal(w, w0) and np.array_equal(b, b0)
    assert not np.array_equal(model.encoder[0][0], start.encoder[0][0])


def test_class_only_training_freezes_decoder(monkeypatch):
    seen = last_training_buffer(monkeypatch)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(60, 4))
    y = (rng.random(60) < 0.4).astype(float)
    cfg = HybridConfig(
        n_features=4, encoder_hidden=(6,), n_qubits=2, n_layers=1,
        head_hidden=3, recon_weight=0.0, batch_size=16, epochs=3,
        learning_rate=0.01, seed=11,
    )
    start = _init_training(cfg)
    model, _ = fit_hybrid(cfg, x, y)
    for (w, b), (w0, b0) in zip(seen[-1].decoder, start.decoder):
        assert np.array_equal(w, w0) and np.array_equal(b, b0)
    assert not np.array_equal(model.theta, start.theta)


def test_refit_is_bit_identical():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 4))
    y = (rng.random(40) < 0.4).astype(float)
    cfg = HybridConfig(seed=21, **TINY)
    ma, ra = fit_hybrid(cfg, x, y)
    mb, rb = fit_hybrid(cfg, x, y)
    assert ma.params.tobytes() == mb.params.tobytes()
    assert [e.train_loss for e in ra.epochs] == [e.train_loss for e in rb.epochs]
    assert np.array_equal(ma.predict_proba(x), mb.predict_proba(x))


def test_golden_regression_run():
    # Frozen output of a pinned five-epoch run; catches any silent change
    # to initialization order, shuffling, or the gradient chain.
    rng = np.random.default_rng(314)
    x = rng.normal(size=(40, 5))
    y = (rng.random(40) < 0.35).astype(float)
    cfg = HybridConfig(
        n_features=5, encoder_hidden=(6,), n_qubits=3, n_layers=2,
        head_hidden=4, head_all_qubits=False, recon_weight=0.4,
        batch_size=8, epochs=5, learning_rate=0.005, seed=2718,
    )
    model, report = fit_hybrid(cfg, x, y)
    expected = [
        0.3248211949662451,
        0.24805412648771533,
        0.26944648667296267,
        0.31905787925320517,
    ]
    assert model.predict_proba(x[:4]) == pytest.approx(expected, rel=1e-9)
    assert report.epochs[-1].train_loss == pytest.approx(0.5927545347986157, rel=1e-9)


def test_predict_proba_matches_piecewise_evaluation():
    cfg = HybridConfig(seed=4, **TINY)
    model = fresh_hybrid(cfg)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(600, 4))  # spans two eval chunks
    whole = model.predict_proba(x)
    parts = np.concatenate([model.predict_proba(x[:100]), model.predict_proba(x[100:])])
    assert np.array_equal(whole, parts)
    assert whole.shape == (600,)
    assert np.all((whole > 0) & (whole < 1))


def test_predict_proba_is_batch_invariant_at_the_paper_shape():
    # The paper's 6-qubit hybrid scores padded fixed-size chunks, so uneven
    # slices of a pool, down to single rows, give the whole call's bits.
    cfg = HybridConfig()
    model = fresh_hybrid(cfg, np.random.default_rng(5))
    x = np.random.default_rng(6).uniform(size=(3000, cfg.n_features))
    whole = model.predict_proba(x)
    cuts = [0, 1, 3, 700, 1000, 1003, 2999, 3000]
    parts = np.concatenate([model.predict_proba(x[a:b]) for a, b in zip(cuts, cuts[1:])])
    assert whole.shape == parts.shape == (3000,)
    assert whole.tobytes() == parts.tobytes()
    assert model.predict_proba(x[:0]).shape == (0,)


def test_reconstruction_ignores_fraud_rows():
    cfg = HybridConfig(seed=13, **TINY)
    model = _init_training(cfg)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(10, 4))
    y = np.r_[np.zeros(6), np.ones(4)]
    _, recon, _ = evaluate_loss(model, x, y)
    z, _ = mlp_forward(cfg.encoder_spec, model.encoder, x[:6])
    x_hat, _ = mlp_forward(cfg.decoder_spec, model.decoder, z)
    assert recon == pytest.approx(np.mean((x_hat - x[:6]) ** 2), rel=1e-12)
    # An all-fraud batch has nothing to reconstruct.
    _, recon_none, _ = evaluate_loss(model, x, np.ones(10))
    assert recon_none == 0.0


def test_epoch_stats_shape():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(20, 4))
    y = (rng.random(20) < 0.5).astype(float)
    cfg = HybridConfig(seed=16, **TINY)
    _, report = fit_hybrid(cfg, x, y)
    assert [e.epoch for e in report.epochs] == [0, 1]
    assert report.best_epoch == 1  # no validation set: last epoch wins
    assert not report.stopped_early
    for e in report.epochs:
        assert e.val_ap is None
        assert e.seconds >= 0.0
        assert e.train_loss == pytest.approx(
            cfg.recon_weight * e.recon_loss + (1 - cfg.recon_weight) * e.class_loss
        )


def test_input_validation():
    cfg = HybridConfig(seed=1, **TINY)
    model = fresh_hybrid(cfg)
    with pytest.raises(InputError):
        model.predict_proba(np.zeros((3, 7)))
    with pytest.raises(InputError):
        fit_hybrid(cfg, np.zeros((4, 4)), np.array([0.0, 1.0, 2.0, 0.0]))
    with pytest.raises(InputError):
        fit_hybrid(cfg, np.zeros((0, 4)), np.zeros(0))
    with pytest.raises(InputError, match="both classes"):
        fit_hybrid(
            cfg,
            np.zeros((4, 4)),
            np.array([0.0, 1.0, 0.0, 1.0]),
            np.zeros((3, 4)),
            np.zeros(3),
        )


_X_VAL = np.random.default_rng(4).normal(size=(10, 4))
_Y_VAL = np.array([1.0, 0.0] * 5)


def _with_row_2(value):
    x = _X_VAL.copy()
    x[2, 1] = value
    return x


@pytest.mark.parametrize("x_val, y_val, message", [
    (_X_VAL, _Y_VAL[:-1], r"validation features \(10, 4\) and labels \(9,\) do not align"),
    (_X_VAL[:, :3], _Y_VAL, "validation rows have 3 features, expected 4"),
    (_with_row_2(np.nan), _Y_VAL, r"validation feature rows must be finite; .* indices \[2\]"),
    (_with_row_2(np.inf), _Y_VAL, r"validation feature rows must be finite; .* indices \[2\]"),
    (_X_VAL, np.r_[2.0, _Y_VAL[1:]], "validation labels must be 0 or 1"),
    (_X_VAL[:0], _Y_VAL[:0], "empty validation set"),
], ids=["misaligned", "narrow", "nan", "inf", "label 2", "empty"])
def test_bad_validation_set_fails_before_training(x_val, y_val, message, monkeypatch):
    # Unchecked, these trained a full epoch and then failed inside the
    # scorer or the PR sweep with a message that named no validation set.
    def no_step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(hybrid, "_batch_gradients", no_step)
    x, y = np.random.default_rng(5).normal(size=(10, 4)), np.array([0.0, 1.0] * 5)
    with pytest.raises(InputError, match=message):
        fit_hybrid(HybridConfig(seed=1, **TINY), x, y, x_val, y_val)


_DIVERGED = r"^hybrid training diverged in epoch {} \(.*\); learning_rate {} may be too large$"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to NaN
@pytest.mark.parametrize("with_validation", [False, True], ids=["training only", "validated"])
def test_a_diverged_hybrid_is_named(with_validation):
    # A learning rate of 1e300 drives the weights past float range in the
    # first epoch; the circuit's finite-angle check used to be the message.
    x, y = np.random.default_rng(5).normal(size=(10, 4)), np.array([0.0, 1.0] * 5)
    config = HybridConfig(seed=1, **{**TINY, "learning_rate": 1e300})
    validation = (_X_VAL, _Y_VAL) if with_validation else ()
    with pytest.raises(ConfigurationError, match=_DIVERGED.format(0, r"1e\+300")):
        fit_hybrid(config, x, y, *validation)


def test_a_non_finite_epoch_loss_is_named(monkeypatch):
    real = hybrid._batch_gradients

    def nan_loss(*args):
        total, recon, classification, grads = real(*args)
        return np.nan, recon, classification, grads

    monkeypatch.setattr(hybrid, "_batch_gradients", nan_loss)
    x, y = np.random.default_rng(5).normal(size=(10, 4)), np.array([0.0, 1.0] * 5)
    with pytest.raises(ConfigurationError, match=_DIVERGED.format(0, "0.01")):
        fit_hybrid(HybridConfig(seed=1, **{**TINY, "learning_rate": 0.01}), x, y)


def test_non_finite_validation_scores_are_named(monkeypatch):
    scored = []
    real = HybridModel.predict_proba

    def nan_in_epoch_1(self, x):
        scored.append(len(x))
        probs = real(self, x)
        return np.full_like(probs, np.nan) if len(scored) == 2 else probs

    monkeypatch.setattr(HybridModel, "predict_proba", nan_in_epoch_1)
    x, y = np.random.default_rng(5).normal(size=(10, 4)), np.array([0.0, 1.0] * 5)
    config = HybridConfig(seed=1, **{**TINY, "epochs": 3, "patience": 3})
    with pytest.raises(ConfigurationError, match=_DIVERGED.format(1, config.learning_rate)):
        fit_hybrid(config, x, y, _X_VAL, _Y_VAL)
