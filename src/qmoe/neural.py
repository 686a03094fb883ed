"""Minimal dense network stack with hand-written backpropagation.

Parameters are lists of (weights, bias) pairs with weights shaped
(fan_out, fan_in). Forward and backward take 2-D batches of row vectors
only. ReLU uses subgradient 0 at exactly 0, and probabilities are clamped
to [PROB_EPS, 1 - PROB_EPS] inside log computations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError

PROB_EPS = 1e-7

# Adam moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_OUTPUT_ACTIVATIONS = ("linear", "sigmoid")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    With e = exp(-|x|) <= 1 nothing overflows: 1 / (1 + e) for x >= 0 and
    e / (1 + e) below, the two branches' bits without boolean masks.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class MLPSpec:
    """Layer widths plus the output activation; hidden layers are ReLU."""

    layer_sizes: tuple[int, ...]
    output_activation: str = "linear"

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ConfigurationError("an MLP needs at least input and output sizes")
        if any(s < 1 for s in sizes):
            raise ConfigurationError(f"layer sizes must be positive, got {sizes}")
        if self.output_activation not in _OUTPUT_ACTIVATIONS:
            raise ConfigurationError(f"unknown output activation {self.output_activation!r}, "
                                     f"expected one of {_OUTPUT_ACTIVATIONS}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1


def init_mlp_params(spec: MLPSpec, rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    """He-uniform weights for the hidden (ReLU) layers, Glorot-uniform for the output.

    Biases start at zero. The rng is consumed in a fixed order, so one seed
    gives one network.
    """
    params = []
    for i in range(spec.n_layers):
        fan_in = spec.layer_sizes[i]
        fan_out = spec.layer_sizes[i + 1]
        if i < spec.n_layers - 1:
            limit = np.sqrt(6.0 / fan_in)
        else:
            limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        params.append((weights, np.zeros(fan_out)))
    return params


def _check_params_shape(spec: MLPSpec, params) -> None:
    if len(params) != spec.n_layers:
        raise ConfigurationError(
            f"expected {spec.n_layers} parameter pairs, got {len(params)}"
        )
    for i, (w, b) in enumerate(params):
        want = (spec.layer_sizes[i + 1], spec.layer_sizes[i])
        if w.shape != want or b.shape != (want[0],):
            raise ConfigurationError(
                f"layer {i} parameter shapes {w.shape}/{b.shape} do not match spec {want}"
            )


def mlp_forward(spec: MLPSpec, params, x):
    """Run the network on a batch of rows; returns (output, acts).

    acts = [x, a_1, ..., a_L] holds every layer's output, the last being
    the network output. Pure, inputs untouched.
    """
    _check_params_shape(spec, params)
    batch = np.asarray(x, dtype=np.float64)
    if batch.ndim != 2:
        raise InputError(f"expected a batch of rows, got shape {batch.shape}")
    if batch.shape[1] != spec.layer_sizes[0]:
        raise ConfigurationError(
            f"input width {batch.shape[1]} does not match spec input {spec.layer_sizes[0]}"
        )
    acts = [batch]
    for w, b in params[:-1]:
        h = acts[-1] @ w.T
        h += b  # in place: the same adds as ``a @ w.T + b``, without a second array
        acts.append(np.maximum(h, 0.0, out=h))
    w, b = params[-1]
    out = acts[-1] @ w.T
    out += b
    acts.append(sigmoid(out) if spec.output_activation == "sigmoid" else out)
    return acts[-1], acts


def mlp_backward(spec: MLPSpec, params, acts, grad):
    """Backpropagate an upstream gradient through mlp_forward's acts.

    Returns (param_grads, grad_input) where param_grads mirrors the params
    list. Weight gradients sum over the batch axis.
    """
    _check_params_shape(spec, params)
    if len(acts) != spec.n_layers + 1 or acts[0].shape[1] != spec.layer_sizes[0]:
        raise ConfigurationError("forward activations do not match this spec and params")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != acts[-1].shape:
        raise ConfigurationError(
            f"upstream gradient shape {grad.shape} does not match the forward "
            f"output shape {acts[-1].shape}"
        )
    param_grads: list[tuple[np.ndarray, np.ndarray]] = [None] * spec.n_layers
    for i in range(spec.n_layers - 1, -1, -1):
        out = acts[i + 1]
        if i < spec.n_layers - 1:
            # out > 0 exactly where pre > 0: subgradient 0 at exactly 0
            grad = grad * (out > 0)
        elif spec.output_activation == "sigmoid":
            grad = grad * (out * (1.0 - out))
        w, _ = params[i]
        param_grads[i] = (grad.T @ acts[i], grad.sum(axis=0))
        grad = grad @ w
    return param_grads, grad


def mse_loss(x, y):
    """Mean squared error over every component; grad is taken w.r.t. y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise InputError(f"shape mismatch {x.shape} vs {y.shape}")
    if x.size == 0:
        raise InputError("mse_loss needs at least one component")
    diff = y - x
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / x.size
    return loss, grad


def log_loss(labels, probs) -> float:
    """Mean binary log-loss, probabilities clamped to [PROB_EPS, 1 - PROB_EPS]."""
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))


def bce_loss(labels, probs):
    """Binary cross-entropy with clamped probabilities; grad w.r.t. probs.

    Where the clamp is active the computed loss is locally constant in the
    raw probability, so the gradient there is zero.
    """
    y = np.asarray(labels, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if y.shape != p.shape:
        raise InputError(f"shape mismatch {y.shape} vs {p.shape}")
    if y.size == 0:
        raise InputError("bce_loss needs at least one sample")
    clamped = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    loss = log_loss(y, clamped)
    inside = (p > PROB_EPS) & (p < 1.0 - PROB_EPS)
    grad = np.where(inside, (clamped - y) / (clamped * (1.0 - clamped)), 0.0) / y.size
    return loss, grad


@dataclass
class AdamState:
    """First and second moments of one parameter array plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    learning_rate: float = 1e-3
    step: int = 0


def adam_init(params: np.ndarray, learning_rate: float = 1e-3) -> AdamState:
    if not learning_rate > 0:
        raise ConfigurationError(f"learning rate must be positive, got {learning_rate}")
    return AdamState(np.zeros_like(params), np.zeros_like(params), learning_rate)


def optimizer_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One Adam update of one array, in place; returns ``params``.

    Parameters, moments and the step counter all mutate in place. The
    update is elementwise, so one buffer holding many arrays (the hybrid's
    parameters) takes the bits of the arrays updated one by one. Zero
    gradients from a fresh state leave parameters bit-identical.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ConfigurationError(
            f"params shape {params.shape}, grads shape {grads.shape} and the state's "
            f"{state.m.shape} must match"
        )
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correct1 = 1.0 - b1 ** state.step
    correct2 = 1.0 - b2 ** state.step
    m, v = state.m, state.v
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    # p -= lr (m / c1) / (sqrt(v / c2) + eps), operation for operation.
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * (grads * grads)
    denom = np.sqrt(v / correct2)
    denom += ADAM_EPS
    params -= state.learning_rate * (m / correct1) / denom
    return params
