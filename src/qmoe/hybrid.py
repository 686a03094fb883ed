"""Hybrid autoencoder-classifier with a variational circuit in the middle.

The dataflow is: a dense encoder compresses a feature row to one latent per
qubit, pi * tanh squashes latents into rotation angles, the circuit turns
angles into Z expectations (of qubit 0, or of every qubit when
head_all_qubits is set), and a small dense head maps expectations to a
fraud probability. A mirrored decoder reconstructs the input from the same
latents, but only legitimate rows contribute reconstruction loss, so the
latent space organizes around normal traffic while fraud lands where it
may. The decoder shapes training only: a fitted HybridModel serves
predict_proba, which never runs it.

The two objectives combine as

    total = recon_weight * mse(legit rows) + (1 - recon_weight) * bce(all)

and everything trains jointly under one Adam loop: encoder, decoder, head
by ordinary backprop, circuit parameters by exact adjoint gradients (the
values of the parameter-shift rule, from one reverse sweep per batch) with
the batch-summed upstream weights. When recon_weight is exactly 1 the
classification weight is exactly 0, so the circuit parameters' gradient is
exactly zero and Adam never moves them: they stay bit-frozen rather than
drifting by rounding. Training keeps every parameter in one float64
buffer laid out [encoder | theta | head | decoder], of which the four
parts are views, and Adam updates that buffer in one elementwise pass:
the bits of a per-array update. A HybridModel holds a copy of the
buffer's first n_params entries, the parts predict_proba reads, so a
model (and a model file) carries no decoder.

predict_proba scores rows in chunks of exactly _EVAL_CHUNK rows, padding
the last with zero rows, so the encoder's and the circuit's GEMMs always
see one shape. A row's probability then does not depend on which rows a
caller scores it with: slices of a pool give the bits of one whole call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InputError, feature_rows, labeled_rows
from .metrics import average_precision, pr_curve
from .neural import (
    MLPSpec,
    adam_init,
    bce_loss,
    init_mlp_params,
    mlp_backward,
    mlp_forward,
    mse_loss,
    optimizer_step,
)
from .qsim import AnsatzSpec, batch_expectations, batch_parameter_shift

__all__ = [
    "HybridConfig",
    "HybridModel",
    "EpochStats",
    "TrainReport",
    "fit_hybrid",
]

_EVAL_CHUNK = 512


@dataclass(frozen=True)
class HybridConfig:
    """Architecture and training knobs for the hybrid model.

    head_all_qubits widens the head input from the single measured qubit
    to every qubit's expectation. recon_weight is the mixing coefficient
    on the reconstruction term; its complement weights classification.
    """

    n_features: int = 29
    encoder_hidden: tuple[int, ...] = (256, 128, 64)
    n_qubits: int = 6
    n_layers: int = 6
    head_hidden: int = 8
    head_all_qubits: bool = False
    recon_weight: float = 0.5
    batch_size: int = 32
    epochs: int = 30
    learning_rate: float = 1e-3
    patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_features < 1:
            raise ConfigurationError(f"n_features must be >= 1, got {self.n_features}")
        self.ansatz  # the circuit's spec checks n_qubits and n_layers
        hidden = tuple(int(h) for h in self.encoder_hidden)
        object.__setattr__(self, "encoder_hidden", hidden)
        if any(h < 1 for h in hidden):
            raise ConfigurationError(f"encoder_hidden must be positive, got {self.encoder_hidden}")
        if self.head_hidden < 1:
            raise ConfigurationError(f"head_hidden must be >= 1, got {self.head_hidden}")
        if not 0.0 <= self.recon_weight <= 1.0:
            raise ConfigurationError(
                f"recon_weight must be in [0, 1], got {self.recon_weight}"
            )
        if self.batch_size < 1 or self.epochs < 1 or self.patience < 1:
            raise ConfigurationError("batch_size, epochs, and patience must be >= 1")
        if not self.learning_rate > 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    @property
    def encoder_spec(self) -> MLPSpec:
        sizes = [self.n_features, *self.encoder_hidden, self.n_qubits]
        return MLPSpec(tuple(sizes))

    @property
    def decoder_spec(self) -> MLPSpec:
        sizes = [self.n_qubits, *reversed(self.encoder_hidden), self.n_features]
        return MLPSpec(tuple(sizes))

    @property
    def head_spec(self) -> MLPSpec:
        width = self.n_qubits if self.head_all_qubits else 1
        return MLPSpec((width, self.head_hidden, 1), "sigmoid")

    @property
    def ansatz(self) -> AnsatzSpec:
        return AnsatzSpec(n_qubits=self.n_qubits, n_layers=self.n_layers)

    @property
    def n_params(self) -> int:
        """The length of HybridModel.params: the encoder's and the head's weights
        and biases and the circuit angles. The training-only decoder is not counted."""
        sizes = [s.layer_sizes for s in (self.encoder_spec, self.head_spec)]
        return self.ansatz.n_params + sum((a + 1) * b for s in sizes for a, b in zip(s, s[1:]))

    @property
    def measured_qubits(self) -> list:
        if self.head_all_qubits:
            return list(range(self.n_qubits))
        return [0]


def _pack(encoder, theta, head, decoder) -> np.ndarray:
    """The one parameter order, flattened: encoder, theta, head, decoder. A
    model's params are the first three, without the training-only decoder."""
    def arrays(layers):
        return [a for pair in layers for a in pair]

    parts = arrays(encoder) + [theta] + arrays(head) + arrays(decoder)
    return np.concatenate([np.ravel(a) for a in parts])


def _views(config: HybridConfig, buffer: np.ndarray) -> tuple:
    """(encoder, theta, head, decoder) as views of ``buffer`` in _pack's order,
    each network a list of (weights (fan_out, fan_in), bias) pairs. The
    decoder is [] when ``buffer`` ends at config.n_params, as a model's does."""
    offset = 0

    def view(*shape) -> np.ndarray:
        nonlocal offset
        offset += math.prod(shape)
        return buffer[offset - math.prod(shape) : offset].reshape(shape)

    def layers(spec: MLPSpec) -> list:
        sizes = spec.layer_sizes
        return [(view(fan_out, fan_in), view(fan_out))
                for fan_in, fan_out in zip(sizes, sizes[1:])]

    encoder = layers(config.encoder_spec)
    theta = view(config.ansatz.n_params)
    head = layers(config.head_spec)
    return encoder, theta, head, layers(config.decoder_spec) if buffer.size > offset else []


@dataclass
class HybridModel:
    """The fitted hybrid: its config and the parameters predict_proba reads,
    in one float64 buffer, ``params``: encoder, theta and head in _pack's
    order, each a view of ``params``, so writing into ``params`` moves every
    part at once. The decoder shapes training only and is no part of a
    model. A model file holds the two fields.
    """

    config: HybridConfig
    params: np.ndarray

    def __post_init__(self) -> None:
        cfg = self.config
        self.params = np.array(self.params, dtype=np.float64)  # a copy the model owns
        if self.params.shape != (cfg.n_params,):
            raise ConfigurationError(f"hybrid params has shape {self.params.shape}, the config "
                                     f"needs {cfg.n_params} parameters")
        self.encoder, self.theta, self.head, _ = _views(cfg, self.params)

    def predict_proba(self, x) -> np.ndarray:
        """Fraud probabilities; the decoder never runs here.

        Rows are scored in chunks of exactly _EVAL_CHUNK rows, the last one
        padded with zero rows, so the encoder and the circuit always see one
        shape and a row's probability does not depend on how a caller
        splits its rows.
        """
        x = feature_rows(x, self.config.n_features)
        out = np.empty(x.shape[0])
        for start in range(0, x.shape[0], _EVAL_CHUNK):
            chunk = x[start : start + _EVAL_CHUNK]
            rows = chunk.shape[0]
            if rows < _EVAL_CHUNK:
                chunk = np.concatenate((chunk, np.zeros((_EVAL_CHUNK - rows, x.shape[1]))))
            out[start : start + rows] = self._classify(chunk)[:rows]
        return out

    def _classify(self, x):
        """Encoder -> angles -> expectations -> head; returns the probabilities."""
        cfg = self.config
        z, _ = mlp_forward(cfg.encoder_spec, self.encoder, x)
        angles = np.pi * np.tanh(z)
        exps = batch_expectations(cfg.ansatz, self.theta, angles, cfg.measured_qubits)
        probs, _ = mlp_forward(cfg.head_spec, self.head, exps)
        return probs[:, 0]


class _Training:
    """fit_hybrid's state: the training buffer, ``params``, laid out
    [encoder | theta | head | decoder], and its four views."""

    def __init__(self, config: HybridConfig, params: np.ndarray) -> None:
        self.config, self.params = config, params
        self.encoder, self.theta, self.head, self.decoder = _views(config, params)

    def served(self) -> HybridModel:
        """The model of the buffer's first config.n_params entries, copied."""
        return HybridModel(self.config, self.params[: self.config.n_params])


def _init_training(config: HybridConfig, rng: Optional[np.random.Generator] = None) -> _Training:
    """Draw a fresh training buffer; circuit angles start uniform in (-pi, pi).
    The draws run encoder, decoder, theta, head: a seed's values follow the
    draw order, not the buffer's layout."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    encoder = init_mlp_params(config.encoder_spec, rng)
    decoder = init_mlp_params(config.decoder_spec, rng)
    theta = rng.uniform(-np.pi, np.pi, size=config.ansatz.n_params)
    head = init_mlp_params(config.head_spec, rng)
    return _Training(config, _pack(encoder, theta, head, decoder))


def _batch_gradients(training: _Training, x: np.ndarray, y: np.ndarray):
    """Joint loss and its gradient, flat in ``training.params`` order, for one batch.

    The circuit runs once: batch_parameter_shift returns the expectations
    the head reads first, then their gradients, from one forward state.
    """
    cfg = training.config
    lam = cfg.recon_weight

    z, enc_acts = mlp_forward(cfg.encoder_spec, training.encoder, x)
    tanh_z = np.tanh(z)
    angles = np.pi * tanh_z

    exps, d_theta_all, d_angle_all = batch_parameter_shift(
        cfg.ansatz, training.theta, angles, cfg.measured_qubits
    )
    head_out, head_acts = mlp_forward(cfg.head_spec, training.head, exps)
    probs = head_out[:, 0]
    class_loss, class_grad = bce_loss(y, probs)

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
    theta_grad = np.einsum("bq,bpq->p", d_exps, d_theta_all)
    d_angles = np.einsum("bq,bnq->bn", d_exps, d_angle_all)
    dz = d_angles * np.pi * (1.0 - tanh_z * tanh_z)
    dec_grads, dz_recon = mlp_backward(cfg.decoder_spec, training.decoder, dec_acts, grad_xhat)
    enc_grads, _ = mlp_backward(cfg.encoder_spec, training.encoder, enc_acts, dz + dz_recon)
    return total, recon_loss, class_loss, _pack(enc_grads, theta_grad, head_grads, dec_grads)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    recon_loss: float
    class_loss: float
    val_ap: Optional[float]
    seconds: float


@dataclass
class TrainReport:
    """Per-epoch training record; seconds are wall-clock and not reproducible.

    val_probs holds the best epoch's validation probabilities, the bits
    predict_proba(x_val) gives after the roll-back; None without a
    validation set.
    """

    epochs: list = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False
    val_probs: Optional[np.ndarray] = None


def _diverged(config: HybridConfig, epoch: int, why) -> ConfigurationError:
    return ConfigurationError(
        f"hybrid training diverged in epoch {epoch} ({why}); "
        f"learning_rate {config.learning_rate} may be too large"
    )


def fit_hybrid(config: HybridConfig, x, y, x_val=None, y_val=None):
    """Train jointly; returns (model, report).

    The model is served from the training buffer's first n_params entries:
    the last epoch's, or with a validation set the model scored in the best
    epoch. Training then stops once validation average precision has not
    improved for `patience` epochs, and the report keeps the best epoch's
    validation probabilities. A non-finite epoch loss, a non-finite Adam
    second moment at the end of an epoch, or non-finite weights tripping a
    scoring check (validation scores included), raises a ConfigurationError
    naming the epoch and learning_rate.
    """
    x, y = labeled_rows(x, y, config.n_features)
    use_val = x_val is not None and y_val is not None
    if use_val:
        x_val, y_val = labeled_rows(x_val, y_val, config.n_features, "validation")
        if np.unique(y_val).size < 2:
            raise InputError("validation labels need both classes for average precision")

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    training = _init_training(config, rng)
    opt = adam_init(training.params, learning_rate=config.learning_rate)

    report = TrainReport()
    best_ap = -np.inf
    model = None  # the best epoch's served model, with a validation set
    n = x.shape[0]
    for epoch in range(config.epochs):
        tick = time.perf_counter()
        order = rng.permutation(n)
        total_sum = recon_sum = class_sum = 0.0
        val_ap = None
        try:
            for start in range(0, n, config.batch_size):
                rows = order[start : start + config.batch_size]
                total, recon, classification, grads = _batch_gradients(training, x[rows], y[rows])
                optimizer_step(opt, training.params, grads)
                total_sum += total * rows.size
                recon_sum += recon * rows.size
                class_sum += classification * rows.size
            if use_val:
                served = training.served()
                val_probs = served.predict_proba(x_val)
                val_ap = average_precision(pr_curve(val_probs, y_val))
        except InputError as exc:  # the rows passed labeled_rows: the weights went bad
            raise _diverged(config, epoch, exc) from exc
        if not np.isfinite(total_sum):
            raise _diverged(config, epoch, f"mean loss {total_sum / n}")
        if not np.isfinite(opt.v).all():  # an overflowed moment freezes its updates
            raise _diverged(config, epoch, "Adam's second moment overflowed")
        report.epochs.append(
            EpochStats(
                epoch=epoch,
                train_loss=total_sum / n,
                recon_loss=recon_sum / n,
                class_loss=class_sum / n,
                val_ap=val_ap,
                seconds=time.perf_counter() - tick,
            )
        )
        if use_val:
            if val_ap > best_ap:
                best_ap = val_ap
                report.best_epoch = epoch
                model = served
                report.val_probs = val_probs
            elif epoch - report.best_epoch >= config.patience:
                report.stopped_early = True
                break
        else:
            report.best_epoch = epoch

    return model if model is not None else training.served(), report
