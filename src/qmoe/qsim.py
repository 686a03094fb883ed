"""Batched dense statevector simulation of the hybrid model's circuit.

The circuit is the angle encoding RY(x_q)|0> on every qubit followed by
the layered RY/RZ/CNOT-ring ansatz of AnsatzSpec. batch_expectations runs
it for many feature rows sharing one parameter vector, for inference;
batch_parameter_shift returns those same expectations first, then their
exact gradients by an adjoint sweep, for training.

Dense sublayers. The n RY gates of a layer act on different qubits, so
together they are one real orthogonal 2**n x 2**n matrix R, the Kronecker
product of the n rotations. The n RZ gates are one diagonal phase vector
exp(-i/2 * z @ theta_rz), with z the (2**n, n) table of Z eigenvalues, and
the CNOT ring is one basis permutation. A layer is then one GEMM, one
scaling and one gather. Each layer's R is built when the forward pass
reaches it, and kept for the adjoint sweep.

Folded observables. Every row shares theta, and RY(x_q)|0> =
(cos(x_q/2), sin(x_q/2)) is real, so the encoded state phi(x) is a real
product vector and

    <Z_q>(x) = phi(x)^T A_q phi(x),    A_q = Re(U^dagger Z_q U)

with U the ansatz unitary: the Heisenberg-picture view of angle encoding
(Schuld, Sweke & Meyer, PRA 103, 032430, 2021). _fold builds U once per
call as the forward pass of the identity, then A; a row then costs its
product state, one GEMM row against A and one dot. batch_expectations and
batch_parameter_shift both read their expectations from _fold and
_expect, so the two agree bit for bit. GEMM rounding can move a row's
last bit with the number of rows in a call, so the hybrid scores in
fixed-size chunks.

Layer-at-a-time adjoint. The gradients come from one forward state and
one reverse sweep (Jones & Gacon, arXiv:2009.02823). With psi the state
and lam_q the adjoint state (the rest of the circuit undone on Z_q times
the final state) at the same point, the RZ gradients of a layer, after
undoing its ring, are Im(conj(lam) * psi) @ z. Undoing the phases then
leaves both states just after the RY sublayer, whose gates commute; since
dRY/dt = -(i/2) Y RY(t), the gradient of qubit q's angle is

    Re sum_j conj(lam_j) s_q(j) psi_(j xor m_q)

with m_q qubit q's bit and s_q(j) = -z_q(j): one gather through an
(n, 2**n) flip table. Both states then step back through R^T = R^-1. The
same gather at the encoding layer gives the feature gradients. The values
are those of the two-point parameter-shift rule, which the tests keep as
the oracle, beside the gate-by-gate walk this path replaced.

Why MAX_QUBITS is 8. Folding costs about L + 1 dense 2**n-square GEMMs per
call plus 4**n per row, against about 2 L n 2**n per row for a walk over
the gates. Timed against that walk with 6 layers on one core of a 2-vCPU
VM (tools/bench.py circuit, BENCH_circuit.json), the dense path scored a
512-row chunk at 8 qubits about 5x faster and was no slower on a 32-row
training batch. At 9 qubits building U outweighs that batch, which ran
about 1.5x slower. The cap is the widest width where the dense path wins
both, so there is one circuit path; at 16 qubits a single dense real
matrix would take 32 GiB.

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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, InputError

__all__ = ["MAX_QUBITS", "AnsatzSpec", "batch_expectations", "batch_parameter_shift"]

# The widest circuit the dense path beats a gate walk on (module docstring).
MAX_QUBITS = 8


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
# _fold keeps the unitary in columns, U[:, k] = U|k>, and the adjoint sweep
# keeps its states in columns too, so a complex array viewed as float pairs
# meets each real RY matrix in one real GEMM. Row-indexed inputs (angles,
# product states, expectations) keep one row per feature row.
# ---------------------------------------------------------------------------


class _Tables(NamedTuple):
    z: np.ndarray  # (2**n, n): Z_q's eigenvalue, +1 or -1, on each basis state
    sign: np.ndarray  # (n, 2**n): -z.T, the sign of RY's generator on qubit q
    flip: np.ndarray  # (n, 2**n): each basis index with qubit q's bit flipped
    ring: np.ndarray  # gather applying a layer's CNOT ring
    unring: np.ndarray  # gather undoing it


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


@lru_cache(maxsize=None)
def _tables(n: int) -> _Tables:
    """The basis tables of an n-qubit circuit; shared between calls, so read-only."""
    idx = np.arange(2 ** n)
    masks = 1 << (n - 1 - np.arange(n))
    z = np.where(idx[:, None] & masks, -1.0, 1.0)
    ring = _cnot_ring(n)
    out = _Tables(z=z, sign=-z.T, flip=idx ^ masks[:, None], ring=ring, unring=np.argsort(ring))
    for table in out:
        table.setflags(write=False)
    return out


def _product_states(angles: np.ndarray) -> np.ndarray:
    """Real amplitudes of RY(x_q)|0> on every qubit q, shape (rows, 2**n)."""
    half = 0.5 * angles
    pairs = np.stack((np.cos(half), np.sin(half)), axis=-1)  # (rows, n, 2)
    out = np.ones((angles.shape[0], 1))
    # Each qubit goes in as the next more significant bit, so the innermost
    # loop of every product runs over the amplitudes built so far.
    for q in reversed(range(angles.shape[1])):
        out = (pairs[:, q, :, None] * out[:, None, :]).reshape(out.shape[0], -1)
    return out


def _ry_sublayer(angles: np.ndarray) -> np.ndarray:
    """One RY per qubit as a real orthogonal 2**n x 2**n matrix, the Kronecker
    product of the n rotations."""
    half = 0.5 * angles
    c, s = np.cos(half), np.sin(half)
    rotations = np.stack((np.stack((c, -s), axis=-1), np.stack((s, c), axis=-1)), axis=-2)
    out = np.ones((1, 1))
    for rot in rotations[::-1]:  # qubit 0, the most significant, goes in last
        out = (rot[:, None, :, None] * out[None, :, None, :]).reshape(2 * out.shape[0], -1)
    return out


def _sublayers(spec: AnsatzSpec, params: np.ndarray, layer: int) -> tuple:
    """(R, phase): layer ``layer``'s RY matrix and its RZ gates as one phase vector."""
    n = spec.n_qubits
    base = 2 * n * layer
    phase = np.exp(-0.5j * (_tables(n).z @ params[base + n : base + 2 * n]))
    return _ry_sublayer(params[base : base + n]), phase


def _real_gemm(r: np.ndarray, states: np.ndarray) -> np.ndarray:
    """r @ states for a real r and C-contiguous complex column states."""
    flat = states.reshape(states.shape[0], -1).view(np.float64)
    return (r @ flat).view(np.complex128).reshape(states.shape)


def _fold(spec: AnsatzSpec, params: np.ndarray, measured) -> tuple:
    """(U, A, layers): the ansatz unitary, A[i] = Re(U^dagger Z_q U) for
    q = measured[i], and each layer's (R, phase), which the adjoint sweep
    reads again.

    U is the forward pass of the identity, built one dense layer at a time.
    """
    tables = _tables(spec.n_qubits)
    layers = []
    u = None
    for layer in range(spec.n_layers):
        r, phase = _sublayers(spec, params, layer)
        layers.append((r, phase))
        rotated = r if u is None else _real_gemm(r, u)
        u = np.take(phase[:, None] * rotated, tables.ring, axis=0)
    # Re(conj(U) z U) over stacked real and imaginary parts: one real GEMM per qubit.
    parts = np.concatenate((u.real, u.imag))
    signs = np.concatenate((tables.z, tables.z))[:, list(measured)].T[:, :, None]
    return u, parts.T @ (signs * parts), layers


def _expect(phi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """phi^T A_q phi for every row of product states phi, shape (rows, len(a))."""
    return np.ascontiguousarray((phi * (phi @ a)).sum(axis=-1).T)


def _ry_overlaps(psi: np.ndarray, lam: np.ndarray, tables: _Tables) -> np.ndarray:
    """Re sum_j conj(lam_j) s_q(j) psi_(j xor m_q) for each qubit q: an RY sublayer's
    gradients, shape (n, measured, rows), from column states at the point after it."""
    flipped = psi[tables.flip] * tables.sign[:, :, None]
    return np.einsum("jir,qjr->qir", lam.conj(), flipped).real


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
    a = _fold(spec, arr_p, measured)[1]
    return _expect(_product_states(arr_f), a)


def batch_parameter_shift(spec: AnsatzSpec, params, features, qubits):
    """<Z_q> and its exact gradients for every row at once, by adjoint sweep.

    Returns ``(exps, d_theta, d_features)`` with shapes (rows, len(qubits)),
    (rows, n_params, len(qubits)) and (rows, n_qubits, len(qubits)). ``exps``
    comes from the same fold as batch_expectations and equals it bit for
    bit. The gradients are those of the two-point parameter-shift rule,
    which the tests keep as the oracle, computed from one forward state
    and one reverse sweep, a layer at a time (Jones & Gacon 2020).

    The sweep starts from psi = U phi and lam_q = Z_q psi, held side by side
    as columns. Per layer, last first: undo the ring; read the RZ gradients
    Im(conj(lam) psi) @ z; multiply both states by the conjugate phases;
    read the RY gradients by one gather through the flip table; step both
    states back through R^T. The same gather against the product state phi
    gives the feature gradients. Every step runs in a fixed order, so
    results are bit-reproducible.
    """
    arr_p = _check_params(spec, params)
    arr_f = _check_features(spec, features)
    measured = _check_qubits(spec, qubits)
    n = spec.n_qubits
    tables = _tables(n)
    rows, m = arr_f.shape[0], len(measured)

    phi = _product_states(arr_f)
    u, a, layers = _fold(spec, arr_p, measured)
    exps = _expect(phi, a)
    psi = u @ phi.T
    states = np.empty((2 ** n, 1 + m, rows), dtype=np.complex128)
    states[:, 0] = psi
    states[:, 1:] = tables.z[:, list(measured), None] * psi[:, None]

    grads = np.empty((spec.n_params, m, rows))
    for layer in reversed(range(spec.n_layers)):
        base = 2 * n * layer
        r, phase = layers[layer]
        states = np.take(states, tables.unring, axis=0)
        overlap = (states[:, 1:].conj() * states[:, :1]).imag.reshape(2 ** n, -1)
        grads[base + n : base + 2 * n] = (tables.z.T @ overlap).reshape(n, m, rows)
        states *= phase.conj()[:, None, None]
        grads[base : base + n] = _ry_overlaps(states[:, 0], states[:, 1:], tables)
        states = _real_gemm(r.T, states)

    d_feat = _ry_overlaps(phi.T, states[:, 1:], tables)
    return (exps, np.ascontiguousarray(grads.transpose(2, 0, 1)),
            np.ascontiguousarray(d_feat.transpose(2, 0, 1)))
