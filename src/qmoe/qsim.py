"""Dense statevector simulator for small rotation-plus-CNOT circuits.

Basis-state layout: qubit 0 is the most significant bit of the amplitude
index. For three qubits the amplitude at index 0b110 belongs to qubit 0
in |1>, qubit 1 in |1>, qubit 2 in |0>. Every oracle and test in this
project assumes that ordering.

Gate conventions, with theta in radians:

    RY(theta) = [[cos(theta/2), -sin(theta/2)],
                 [sin(theta/2),  cos(theta/2)]]
    RZ(theta) = diag(exp(-i theta/2), exp(+i theta/2))
    CNOT(c, t): flips qubit t on the branch where qubit c is |1>

Global phase is never tracked; every exposed quantity is phase invariant.
All operations are pure: inputs are left untouched and fresh arrays are
returned, so independent evaluations may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError

__all__ = [
    "MAX_QUBITS",
    "RY",
    "RZ",
    "CNOT",
    "StateVector",
    "AnsatzSpec",
    "apply_gate",
    "angle_encode",
    "ansatz_forward",
    "expectation_z",
    "circuit_value",
    "parameter_shift_grad",
    "batch_expectations",
    "batch_parameter_shift",
]

# Dense simulation keeps the full 2**n amplitude vector; past this size the
# memory cost is no longer sensible for this package.
MAX_QUBITS = 16


@dataclass(frozen=True)
class RY:
    qubit: int
    angle: float


@dataclass(frozen=True)
class RZ:
    qubit: int
    angle: float


@dataclass(frozen=True)
class CNOT:
    control: int
    target: int


Gate = RY | RZ | CNOT


@dataclass
class StateVector:
    """Pure n-qubit state held as a dense complex array of length 2**n."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= int(self.n_qubits) <= MAX_QUBITS:
            raise ConfigurationError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}"
            )
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2 ** self.n_qubits,):
            raise ConfigurationError(
                f"expected {2 ** self.n_qubits} amplitudes for "
                f"{self.n_qubits} qubits, got shape {amps.shape}"
            )
        self.amplitudes = amps

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        """The computational basis state |0...0>."""
        amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    def norm_error(self) -> float:
        return abs(float(np.sum(np.abs(self.amplitudes) ** 2)) - 1.0)


@dataclass(frozen=True)
class AnsatzSpec:
    """Alternating layered circuit over ``n_qubits`` repeated ``n_layers`` times.

    Each layer applies one RY per qubit, then one RZ per qubit, then a
    nearest-neighbour CNOT ring 0->1, 1->2, ..., (n-1)->0. The ring is
    skipped for a single qubit. Parameters are consumed in that order, so
    layer l occupies the slice [2*n*l, 2*n*(l+1)): first the n RY angles,
    then the n RZ angles.
    """

    n_qubits: int
    n_layers: int
    measure_qubit: int = 0

    def __post_init__(self) -> None:
        if not 1 <= int(self.n_qubits) <= MAX_QUBITS:
            raise ConfigurationError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}"
            )
        if int(self.n_layers) < 1:
            raise ConfigurationError(f"n_layers must be >= 1, got {self.n_layers}")
        if not 0 <= int(self.measure_qubit) < int(self.n_qubits):
            raise ConfigurationError(
                f"measure_qubit {self.measure_qubit} out of range for "
                f"{self.n_qubits} qubits"
            )

    @property
    def n_params(self) -> int:
        return 2 * self.n_qubits * self.n_layers


# ---------------------------------------------------------------------------
# kernels
#
# Internally amplitudes are ndarrays whose last axis has length 2**n; any
# leading axes are batch axes. Reshaping to (..., 2, 2, ..., 2) exposes one
# axis per qubit, with qubit 0 first, matching the MSB layout.
# ---------------------------------------------------------------------------


def _qubit_axis_view(amps: np.ndarray, n: int, qubit: int) -> np.ndarray:
    lead = amps.shape[:-1]
    reshaped = amps.reshape(lead + (2,) * n)
    return np.moveaxis(reshaped, len(lead) + qubit, -1)


def _restore(view: np.ndarray, shape: tuple, n: int, qubit: int) -> np.ndarray:
    lead_ndim = len(shape) - 1
    return np.moveaxis(view, -1, lead_ndim + qubit).reshape(shape)


def _broadcast_coeff(coeff: np.ndarray, n: int) -> np.ndarray:
    # Per-row angles: align against the batch axes, then the n-1 remaining
    # qubit axes of the moved view.
    if np.ndim(coeff) == 0:
        return coeff
    return coeff.reshape(coeff.shape + (1,) * (n - 1))


def _apply_ry(amps: np.ndarray, n: int, qubit: int, angle) -> np.ndarray:
    view = _qubit_axis_view(amps, n, qubit)
    half = np.multiply(angle, 0.5)
    c = _broadcast_coeff(np.cos(half), n)
    s = _broadcast_coeff(np.sin(half), n)
    a0 = view[..., 0]
    a1 = view[..., 1]
    out = np.stack((c * a0 - s * a1, s * a0 + c * a1), axis=-1)
    return _restore(out, amps.shape, n, qubit)


def _apply_rz(amps: np.ndarray, n: int, qubit: int, angle) -> np.ndarray:
    view = _qubit_axis_view(amps, n, qubit)
    phase = np.exp(np.multiply(angle, -0.5j))
    p = _broadcast_coeff(phase, n)
    out = np.stack((p * view[..., 0], np.conj(p) * view[..., 1]), axis=-1)
    return _restore(out, amps.shape, n, qubit)


def _apply_cnot(amps: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    lead = amps.shape[:-1]
    a = amps.reshape(lead + (2,) * n).copy()
    sel = [slice(None)] * a.ndim
    sel[len(lead) + control] = 1
    sub = a[tuple(sel)]
    # Indexing with an int dropped the control axis, shifting later axes.
    t_axis = len(lead) + target
    if target > control:
        t_axis -= 1
    a[tuple(sel)] = np.flip(sub, axis=t_axis)
    return a.reshape(amps.shape)


def _encode(angles: np.ndarray) -> np.ndarray:
    """Amplitudes of the product state RY(x_q)|0> on each qubit q."""
    lead = angles.shape[:-1]
    n = angles.shape[-1]
    amps = np.zeros(lead + (2 ** n,), dtype=np.complex128)
    amps[..., 0] = 1.0
    for q in range(n):
        amps = _apply_ry(amps, n, q, angles[..., q])
    return amps


def _run_ansatz(amps: np.ndarray, spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    n = spec.n_qubits
    k = 0
    for _ in range(spec.n_layers):
        for q in range(n):
            amps = _apply_ry(amps, n, q, params[k])
            k += 1
        for q in range(n):
            amps = _apply_rz(amps, n, q, params[k])
            k += 1
        if n > 1:
            for q in range(n):
                amps = _apply_cnot(amps, n, q, (q + 1) % n)
    return amps


def _z_signs(n: int, qubit: int) -> np.ndarray:
    idx = np.arange(2 ** n)
    return 1.0 - 2.0 * ((idx >> (n - 1 - qubit)) & 1)


def _expect(amps: np.ndarray, signs_t: np.ndarray) -> np.ndarray:
    probs = np.abs(amps) ** 2
    return probs @ signs_t


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def _check_angles(values: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must be finite, got a NaN or infinity")
    return arr


def _check_params(spec: AnsatzSpec, params) -> np.ndarray:
    arr = np.asarray(params, dtype=np.float64)
    if arr.shape != (spec.n_params,):
        raise ConfigurationError(
            f"expected {spec.n_params} circuit parameters "
            f"({spec.n_layers} layers on {spec.n_qubits} qubits), got shape {arr.shape}"
        )
    return _check_angles(arr, "circuit parameters")


def _check_features(spec: AnsatzSpec, features) -> np.ndarray:
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[1] != spec.n_qubits:
        raise InputError(
            f"expected feature rows of length {spec.n_qubits}, got shape "
            f"{np.asarray(features).shape}"
        )
    return _check_angles(arr, "feature angles")


def _check_qubits(spec: AnsatzSpec, qubits) -> tuple[int, ...]:
    if qubits is None:
        return (spec.measure_qubit,)
    out = tuple(int(q) for q in qubits)
    for q in out:
        if not 0 <= q < spec.n_qubits:
            raise ConfigurationError(
                f"measured qubit {q} out of range for {spec.n_qubits} qubits"
            )
    return out


# ---------------------------------------------------------------------------
# public single-state operations
# ---------------------------------------------------------------------------


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate and return the resulting state. The input is unchanged."""
    n = state.n_qubits
    if isinstance(gate, (RY, RZ)):
        if not 0 <= gate.qubit < n:
            raise ConfigurationError(f"qubit {gate.qubit} out of range for {n} qubits")
        if not np.isfinite(gate.angle):
            raise InputError(f"gate angle must be finite, got {gate.angle}")
        kernel = _apply_ry if isinstance(gate, RY) else _apply_rz
        return StateVector(n, kernel(state.amplitudes, n, gate.qubit, float(gate.angle)))
    if isinstance(gate, CNOT):
        if not (0 <= gate.control < n and 0 <= gate.target < n):
            raise ConfigurationError(
                f"CNOT({gate.control}, {gate.target}) out of range for {n} qubits"
            )
        if gate.control == gate.target:
            raise ConfigurationError("CNOT control and target must differ")
        return StateVector(n, _apply_cnot(state.amplitudes, n, gate.control, gate.target))
    raise InputError(f"unknown gate {gate!r}")


def angle_encode(features, n_qubits: int | None = None) -> StateVector:
    """Encode one feature vector as the product state prod_q RY(x_q)|0>."""
    arr = _check_angles(np.asarray(features, dtype=np.float64), "feature angles")
    if arr.ndim != 1:
        raise InputError(f"expected a 1-d feature vector, got shape {arr.shape}")
    n = arr.shape[0]
    if n_qubits is not None and n != n_qubits:
        raise InputError(f"expected {n_qubits} feature angles, got {n}")
    if not 1 <= n <= MAX_QUBITS:
        raise ConfigurationError(f"feature count must be in [1, {MAX_QUBITS}], got {n}")
    return StateVector(n, _encode(arr))


def ansatz_forward(spec: AnsatzSpec, params, state: StateVector) -> StateVector:
    """Run the layered ansatz on ``state`` with the given parameter vector."""
    if state.n_qubits != spec.n_qubits:
        raise ConfigurationError(
            f"state has {state.n_qubits} qubits, spec wants {spec.n_qubits}"
        )
    arr = _check_params(spec, params)
    return StateVector(spec.n_qubits, _run_ansatz(state.amplitudes, spec, arr))


def expectation_z(state: StateVector, qubit: int = 0) -> float:
    """<Z> on one qubit: P(qubit = 0) - P(qubit = 1). Always in [-1, 1]."""
    if not 0 <= qubit < state.n_qubits:
        raise ConfigurationError(
            f"qubit {qubit} out of range for {state.n_qubits} qubits"
        )
    signs = _z_signs(state.n_qubits, qubit)
    return float(_expect(state.amplitudes, signs))


def circuit_value(spec: AnsatzSpec, params, features) -> float:
    """Full evaluation: encode features, run the ansatz, measure <Z>."""
    arr_p = _check_params(spec, params)
    arr_f = np.asarray(features, dtype=np.float64)
    if arr_f.shape != (spec.n_qubits,):
        raise InputError(
            f"expected {spec.n_qubits} feature angles, got shape {arr_f.shape}"
        )
    _check_angles(arr_f, "feature angles")
    amps = _run_ansatz(_encode(arr_f), spec, arr_p)
    return float(_expect(amps, _z_signs(spec.n_qubits, spec.measure_qubit)))


def parameter_shift_grad(spec: AnsatzSpec, params, features):
    """Exact gradient of circuit_value for one feature row.

    Returns ``(grad_params, grad_features)`` for the measured qubit: the
    single-row case of batch_parameter_shift.
    """
    arr_f = np.asarray(features, dtype=np.float64)
    if arr_f.shape != (spec.n_qubits,):
        raise InputError(
            f"expected {spec.n_qubits} feature angles, got shape {arr_f.shape}"
        )
    d_theta, d_feat = batch_parameter_shift(spec, params, arr_f[np.newaxis, :])
    return d_theta[0, :, 0], d_feat[0, :, 0]


# ---------------------------------------------------------------------------
# batched operations: rows of ``features`` share the circuit parameters
# ---------------------------------------------------------------------------


def batch_expectations(spec: AnsatzSpec, params, features, qubits=None) -> np.ndarray:
    """<Z_q> per feature row, shape (rows, len(qubits))."""
    arr_p = _check_params(spec, params)
    arr_f = _check_features(spec, features)
    measured = _check_qubits(spec, qubits)
    signs_t = np.stack([_z_signs(spec.n_qubits, q) for q in measured], axis=1)
    amps = _run_ansatz(_encode(arr_f), spec, arr_p)
    return _expect(amps, signs_t)


def batch_parameter_shift(spec: AnsatzSpec, params, features, qubits=None):
    """Exact gradients of <Z_q> for every row at once, by adjoint sweep.

    Returns ``(d_theta, d_features)`` with shapes (rows, n_params, len(qubits))
    and (rows, n_qubits, len(qubits)). The values are those of the two-point
    parameter-shift rule, which the tests keep as the oracle, computed by
    one forward pass and one reverse sweep (Jones & Gacon 2020).

    The sweep starts from phi = U psi and lambda_q = Z_q phi, then walks the
    gates backwards: each rotation is undone on phi, the derivative state
    0.5 * G(angle + pi) phi is formed (RY'(t) = RY(t + pi) / 2, likewise RZ),
    its overlap 2 Re<lambda_q|d phi> is recorded, and lambda steps back
    through the same gate. CNOTs are self-inverse. Walking on through the
    RY encoding layer yields the feature gradients. Gates are visited in a
    fixed order, so results are bit-reproducible.
    """
    arr_p = _check_params(spec, params)
    arr_f = _check_features(spec, features)
    measured = _check_qubits(spec, qubits)
    n = spec.n_qubits
    rows = arr_f.shape[0]

    phi = _run_ansatz(_encode(arr_f), spec, arr_p)
    # One adjoint state per measured qubit, stacked ahead of the row axis so
    # per-row encoding angles broadcast through _broadcast_coeff.
    lam = np.stack([_z_signs(n, q) * phi for q in measured])

    def step_back(kernel, qubit: int, angle) -> np.ndarray:
        nonlocal phi, lam
        phi = kernel(phi, n, qubit, -angle)
        d_phi = 0.5 * kernel(phi, n, qubit, angle + np.pi)
        overlap = np.einsum("qrd,rd->rq", lam.conj(), d_phi)
        lam = kernel(lam, n, qubit, -angle)
        return 2.0 * overlap.real

    d_theta = np.empty((rows, spec.n_params, len(measured)))
    for layer in reversed(range(spec.n_layers)):
        base = 2 * n * layer
        if n > 1:
            for q in reversed(range(n)):
                phi = _apply_cnot(phi, n, q, (q + 1) % n)
                lam = _apply_cnot(lam, n, q, (q + 1) % n)
        for q in reversed(range(n)):
            d_theta[:, base + n + q, :] = step_back(_apply_rz, q, arr_p[base + n + q])
        for q in reversed(range(n)):
            d_theta[:, base + q, :] = step_back(_apply_ry, q, arr_p[base + q])

    d_feat = np.empty((rows, n, len(measured)))
    for q in reversed(range(n)):
        d_feat[:, q, :] = step_back(_apply_ry, q, arr_f[:, q])
    return d_theta, d_feat
