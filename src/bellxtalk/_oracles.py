"""The two-qubit algebra that only verification runs: Bell state vectors, the
lifts and their commutators, the outcome frame and the oracle batch routes.

No command but verify loads this module, and verify calls these names here,
so a name replaced on this module is the one that runs: commutator_basis
looks the lifts up in this module's globals on each call. The package
exports the public ones (bellxtalk.lift_first and the rest), and bipartite
keeps four batch names of its own (its _ORACLE_NAMES).

Each piece of two-qubit algebra is written once, with the row index last:
the lifts A tensor I and I tensor B (lift_first, lift_second, on a 2x2
operator or a (2, 2, n) stack), the lifted commutator norms
(commutator_norms) and the Bell-state entries (bipartite._bell_entries). The
one-pair functions (commutator_norm, bell_state) are one-row calls of them.
commutator_basis lifts the four matrix units and forms their 16
commutators, and commutator_norms expands each row's commutator in them,
building the basis on each call unless it is given one (verify builds it
once per run); when all 16 are zero, as with correct lifts, every finite
row's norm is zero.

The batch routes validate their arrays as joint_closed_batch does and clamp
the kernel's output in place (bipartite._clamped); the brute-force route
also checks its states (_unit_states), which verify runs once per run on its
table of Bell states.
"""

from __future__ import annotations

from . import _kernels, observables
from . import _np as np
from .bipartite import (
    INDEX_ORDER, NORM_TOL, BellLabel, ObservablePair, _bell_entries, _clamped, _numeric, _validated_angles,
    _validated_bits, _validated_rows,
)
from .observables import Record, eigenvector


class OutcomeFrame(Record):
    """The four joint eigenvectors u_a^(k) tensor u_b^(l), rows in INDEX_ORDER."""

    vectors: np.ndarray  # shape (4, 4) complex, row index 2k+l

    def vector(self, k: int, ell: int) -> np.ndarray:
        return self.vectors[2 * k + ell]

    def __eq__(self, other):  # Record's tuple compare has no single truth value for two equal arrays
        if other.__class__ is self.__class__:
            return np.array_equal(self.vectors, other.vectors)
        return NotImplemented


def bell_state(label: BellLabel) -> np.ndarray:
    """State vector (|0 t> + (-1)^s |1 (t+1)>)/sqrt(2) in the product basis."""
    return bell_state_batch([label.s], [label.t])[0]


def bell_state_batch(s, t) -> np.ndarray:
    """Stacked Bell states for 0/1 bit arrays s, t of one length; shape (n, 4)."""
    n = len(s)
    s, t = _validated_bits(s, n, "s"), _validated_bits(t, n, "t")
    return np.stack(_bell_entries(s, t, np.where), axis=1, dtype=np.complex128)


def _operator(m) -> np.ndarray:
    """m as complex128, checked to hold numbers and to be a finite 2x2 matrix or a (2, 2, n) stack."""
    m = _numeric(m, "matrix", "biufc").astype(np.complex128)
    if m.ndim not in (2, 3) or m.shape[:2] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or a (2, 2, n) stack, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def lift_first(a) -> np.ndarray:
    """a tensor identity: a 2x2 operator lifted to act on the first qubit.

    A (2, 2, n) stack is lifted row by row into a (4, 4, n) stack.
    """
    a = _operator(a)
    return np.einsum("ij...,kl->ikjl...", a, observables.IDENTITY2).reshape((4, 4) + a.shape[2:])


def lift_second(b) -> np.ndarray:
    """identity tensor b: a 2x2 operator lifted to act on the second qubit.

    A (2, 2, n) stack is lifted row by row into a (4, 4, n) stack.
    """
    b = _operator(b)
    return np.einsum("ij,kl...->ikjl...", observables.IDENTITY2, b).reshape((4, 4) + b.shape[2:])


def outcome_frame(pair: ObservablePair) -> OutcomeFrame:
    """Orthonormal frame of common eigenvectors of both lifted observables."""
    rows = [np.kron(eigenvector(pair.a, k), eigenvector(pair.b, ell)) for k, ell in INDEX_ORDER]
    return OutcomeFrame(vectors=np.array(rows))


def commutator_norm(pair: ObservablePair) -> float:
    """Frobenius norm of [a tensor I, I tensor b]; zero exactly when they commute."""
    return float(commutator_norms(*np.array([[pair.a.mu], [pair.a.eta], [pair.b.mu], [pair.b.eta]]))[0])


def commutator_basis() -> np.ndarray:
    """The 16 commutators [lift_first(E_pq), lift_second(E_rs)] of the matrix units, as a (16, 16) array.

    Column 4i + j holds the commutator of E_i and E_j (E_pq at 2p + q),
    flattened; commutator_norms expands each row in them. It is built from
    this module's current lifts on each call and never kept, so a lift
    replaced here reaches the next basis.
    """
    units = np.eye(4, dtype=np.complex128).reshape(2, 2, 4)  # E_pq at 2p + q
    lift_a = lift_first(np.repeat(units, 4, axis=2))  # column 4i + j pairs E_i with E_j
    lift_b = lift_second(np.tile(units, 4))
    return (np.einsum("ikn,kjn->ijn", lift_a, lift_b) - np.einsum("ikn,kjn->ijn", lift_b, lift_a)).reshape(16, 16)


def commutator_norms(mu, eta, nu, zeta, basis=None) -> np.ndarray:
    """Frobenius norm of [A tensor I, I tensor B] for each row of angles; shape (n,).

    The lifts are linear (a test checks this) and the matrix units E_pq span
    every 2x2 operator, so a row's commutator is the sum of A_pq B_rs times
    [lift_first(E_pq), lift_second(E_rs)]. Those 16 are commutator_basis(),
    built on this call unless a caller that runs many blocks passes the basis
    it built once, and all rows are then one (16, 16) @ (16, n) product. When
    all 16 are zero, as with correct lifts, each row with finite angles has
    norm zero and no row's matrices are built; a nonzero entry, or a
    non-finite angle, whose row norm is NaN, takes the product. Angles are
    1-d float arrays of one length and are not validated.
    """
    if basis is None:
        basis = commutator_basis()
    if not basis.any() and all(np.isfinite(angle).all() for angle in (mu, eta, nu, zeta)):
        return np.zeros(len(mu))
    a = observables.matrices(mu, eta).reshape(4, -1)
    b = observables.matrices(nu, zeta).reshape(4, -1)
    return np.linalg.norm(basis @ np.einsum("in,jn->ijn", a, b).reshape(16, -1), axis=0)


def _unit_states(psi, n: int) -> np.ndarray:
    """psi as a contiguous (n, 4) complex128 array, checked to hold finite states of unit norm."""
    psi = np.ascontiguousarray(_numeric(psi, "psi", "biufc"), dtype=np.complex128)
    if psi.shape != (n, 4):
        raise ValueError(f"psi must have shape ({n}, 4), got {psi.shape}")
    parts = psi.view(np.float64)  # re, im of each entry side by side
    norms = np.sqrt(np.einsum("ij,ij->i", parts, parts))
    bad = ~(np.abs(norms - 1.0) <= NORM_TOL)  # NaN and inf rows as well
    if bad.any():
        row = int(bad.argmax())
        raise ValueError(f"state vector at row {row} has norm {norms[row]}, expected 1")
    return psi


def joint_closed_alt_batch(mu, eta, nu, zeta, s, t) -> np.ndarray:
    """Half-angle closed-form probabilities; shape (n, 4), clamped to [0, 1]."""
    return _clamped(_kernels.closed_joint_alt(*_validated_rows(mu, eta, nu, zeta, s, t)))


def joint_amplitude_batch(mu, eta, nu, zeta, s, t) -> np.ndarray:
    """Amplitude-formula probabilities; shape (n, 4), clamped to [0, 1]."""
    return _clamped(_kernels.amplitude_joint(*_validated_rows(mu, eta, nu, zeta, s, t)))


def joint_bruteforce_batch(mu, eta, nu, zeta, psi) -> np.ndarray:
    """Born-rule probabilities against finite unit states psi (n, 4); clamped to [0, 1]."""
    angles = _validated_angles(mu, eta, nu, zeta)
    return _clamped(_kernels.bruteforce_joint(*angles, _unit_states(psi, len(angles[0]))))
