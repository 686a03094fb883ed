"""Batched dense statevector simulation of the hybrid model's circuit.

The circuit is the angle encoding RY(x_q)|0> on every qubit followed by
the layered RY/RZ/CNOT-ring ansatz of AnsatzSpec. batch_expectations runs
it for many feature rows sharing one parameter vector, for inference;
batch_parameter_shift returns those same expectations first, then their
exact gradients by an adjoint sweep over the one forward pass, for
training.

Basis-state layout: qubit 0 is the most significant bit of the amplitude
index. For three qubits the amplitude at index 0b110 belongs to qubit 0
in |1>, qubit 1 in |1>, qubit 2 in |0>. The dense kron-matrix oracle in
the tests assumes that ordering.

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

__all__ = ["MAX_QUBITS", "AnsatzSpec", "batch_expectations", "batch_parameter_shift"]

# Dense simulation keeps the full 2**n amplitude vector; past this size the
# memory cost is no longer sensible for this package.
MAX_QUBITS = 16


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

    def __post_init__(self) -> None:
        if not 1 <= int(self.n_qubits) <= MAX_QUBITS:
            raise ConfigurationError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}"
            )
        if int(self.n_layers) < 1:
            raise ConfigurationError(f"n_layers must be >= 1, got {self.n_layers}")

    @property
    def n_params(self) -> int:
        return 2 * self.n_qubits * self.n_layers


# ---------------------------------------------------------------------------
# kernels
#
# Internally amplitudes are ndarrays whose last axis has length 2**n; any
# leading axes are batch axes. A rotation on qubit q reshapes that axis to
# (2**q, 2, 2**(n-1-q)): in the MSB layout axis -2 is then q's bit, and a
# per-row angle reshaped to (..., 1, 1) broadcasts over every batch axis.
# The CNOT ring permutes basis states, so one gather applies all of it.
# ---------------------------------------------------------------------------


def _apply_ry(amps: np.ndarray, n: int, qubit: int, angle) -> np.ndarray:
    view = amps.reshape(amps.shape[:-1] + (2 ** qubit, 2, 2 ** (n - 1 - qubit)))
    half = np.multiply(angle, 0.5)
    half = half.reshape(np.shape(half) + (1, 1))
    c, s = np.cos(half), np.sin(half)
    a0, a1 = view[..., 0, :], view[..., 1, :]
    return np.stack((c * a0 - s * a1, s * a0 + c * a1), axis=-2).reshape(amps.shape)


def _apply_rz(amps: np.ndarray, n: int, qubit: int, angle) -> np.ndarray:
    view = amps.reshape(amps.shape[:-1] + (2 ** qubit, 2, 2 ** (n - 1 - qubit)))
    p = np.exp(np.multiply(angle, -0.5j))
    p = p.reshape(np.shape(p) + (1, 1))
    out = np.stack((p * view[..., 0, :], np.conj(p) * view[..., 1, :]), axis=-2)
    return out.reshape(amps.shape)


def _cnot_ring(n: int) -> np.ndarray:
    """Basis gather applying a layer's CNOT ring 0->1, 1->2, ..., (n-1)->0.

    Taking ``ring`` along the amplitude axis applies the ring and taking
    ``argsort(ring)`` undoes it. A single qubit has no ring, so its gather
    is the identity.
    """
    idx = np.arange(2 ** n)
    if n == 1:
        return idx
    # A CNOT is its own inverse gather g; applying it after ``ring`` gives ring[g].
    ring = idx
    for q in range(n):
        control = (idx >> (n - 1 - q)) & 1
        ring = ring[np.where(control, idx ^ (1 << (n - 1 - (q + 1) % n)), idx)]
    return ring


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
    ring = _cnot_ring(n)
    k = 0
    for _ in range(spec.n_layers):
        for q in range(n):
            amps = _apply_ry(amps, n, q, params[k])
            k += 1
        for q in range(n):
            amps = _apply_rz(amps, n, q, params[k])
            k += 1
        # Not amps[..., ring]: that can come back non-contiguous, and
        # _expect's matmul then rounds differently; np.take does not.
        amps = np.take(amps, ring, axis=-1)
    return amps


def _z_signs(n: int, qubits) -> np.ndarray:
    """Column j holds Z's eigenvalue (+1 or -1) for ``qubits[j]`` on each basis state."""
    idx = np.arange(2 ** n)
    return np.stack([1.0 - 2.0 * ((idx >> (n - 1 - q)) & 1) for q in qubits], axis=1)


def _expect(amps: np.ndarray, signs_t: np.ndarray) -> np.ndarray:
    probs = np.abs(amps) ** 2
    return probs @ signs_t


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def _check_angles(arr: np.ndarray, what: str) -> np.ndarray:
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
    if arr.ndim != 2 or arr.shape[1] != spec.n_qubits:
        raise InputError(
            f"expected feature rows of length {spec.n_qubits}, got shape "
            f"{np.asarray(features).shape}"
        )
    return _check_angles(arr, "feature angles")


def _check_qubits(spec: AnsatzSpec, qubits) -> tuple[int, ...]:
    out = tuple(int(q) for q in qubits)
    if not out:
        raise ConfigurationError("measure at least one qubit")
    for q in out:
        if not 0 <= q < spec.n_qubits:
            raise ConfigurationError(
                f"measured qubit {q} out of range for {spec.n_qubits} qubits"
            )
    return out


# ---------------------------------------------------------------------------
# batched operations: rows of ``features`` share the circuit parameters
# ---------------------------------------------------------------------------


def batch_expectations(spec: AnsatzSpec, params, features, qubits) -> np.ndarray:
    """<Z_q> per feature row, shape (rows, len(qubits))."""
    arr_p = _check_params(spec, params)
    arr_f = _check_features(spec, features)
    measured = _check_qubits(spec, qubits)
    amps = _run_ansatz(_encode(arr_f), spec, arr_p)
    return _expect(amps, _z_signs(spec.n_qubits, measured))


def batch_parameter_shift(spec: AnsatzSpec, params, features, qubits):
    """<Z_q> and its exact gradients for every row at once, by adjoint sweep.

    Returns ``(exps, d_theta, d_features)`` with shapes (rows, len(qubits)),
    (rows, n_params, len(qubits)) and (rows, n_qubits, len(qubits)). ``exps``
    is read off the sweep's forward state and equals batch_expectations
    bit for bit. The gradients are those of the two-point parameter-shift
    rule, which the tests keep as the oracle, computed by one forward pass
    and one reverse sweep (Jones & Gacon 2020).

    The sweep starts from phi = U psi and lambda_q = Z_q phi, then walks the
    gates backwards: each rotation is undone on phi, the derivative state
    0.5 * G(angle + pi) phi is formed (RY'(t) = RY(t + pi) / 2, likewise RZ),
    its overlap 2 Re<lambda_q|d phi> is recorded, and lambda steps back
    through the same gate. The CNOT ring is undone by its inverse basis
    permutation. Walking on through the RY encoding layer yields the
    feature gradients. Gates are visited in a fixed order, so results are
    bit-reproducible.
    """
    arr_p = _check_params(spec, params)
    arr_f = _check_features(spec, features)
    measured = _check_qubits(spec, qubits)
    n = spec.n_qubits
    rows = arr_f.shape[0]

    phi = _run_ansatz(_encode(arr_f), spec, arr_p)
    signs_t = _z_signs(n, measured)
    exps = _expect(phi, signs_t)
    # One adjoint state per measured qubit, stacked ahead of the row axis so
    # per-row encoding angles broadcast over it.
    lam = np.stack([signs * phi for signs in signs_t.T])

    def step_back(kernel, qubit: int, angle) -> np.ndarray:
        nonlocal phi, lam
        phi = kernel(phi, n, qubit, -angle)
        d_phi = 0.5 * kernel(phi, n, qubit, angle + np.pi)
        overlap = np.einsum("qrd,rd->rq", lam.conj(), d_phi)
        lam = kernel(lam, n, qubit, -angle)
        return 2.0 * overlap.real

    unring = np.argsort(_cnot_ring(n))
    d_theta = np.empty((rows, spec.n_params, len(measured)))
    for layer in reversed(range(spec.n_layers)):
        base = 2 * n * layer
        phi = np.take(phi, unring, axis=-1)
        lam = np.take(lam, unring, axis=-1)
        for q in reversed(range(n)):
            d_theta[:, base + n + q, :] = step_back(_apply_rz, q, arr_p[base + n + q])
        for q in reversed(range(n)):
            d_theta[:, base + q, :] = step_back(_apply_ry, q, arr_p[base + q])

    d_feat = np.empty((rows, n, len(measured)))
    for q in reversed(range(n)):
        d_feat[:, q, :] = step_back(_apply_ry, q, arr_f[:, q])
    return exps, d_theta, d_feat
