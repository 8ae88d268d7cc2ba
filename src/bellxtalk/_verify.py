"""What only verify runs: the two-qubit algebra of the oracles, verify's
checks, their result and the block loop that runs them.

No command but verify loads this module. cli resolves run_verification and
_max_commutator_norm from here on their first access (its module
__getattr__), where the benchmark's tracer wraps them; the package exports
the public oracles (bellxtalk.lift_first and the rest), and bipartite keeps
four batch names of its own (its _ORACLE_NAMES). The oracles call each other
as this module's globals, so a name replaced here is the one that runs:
commutator_basis looks the lifts up on each call.

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

run_verification reads the commutator check through cli
(cli._max_commutator_norm), the validation and clamp on bipartite and the
kernels on _kernels, each when a block runs, so a name replaced on those
modules is the one that runs.
"""

from __future__ import annotations

import operator

from . import _kernels, bipartite, observables
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


#: verify tuples per block; the draws and every route and check run one block
#: at a time, so verify's memory stays at one block whatever --samples. Half
#: sweep's block, for a lower peak; column-slice checks pay for the blocks
VERIFY_BLOCK_ROWS = 2048

#: verify's checks, in the order it prints them and VerificationResult.maxima holds them
CHECKS = (
    "three-method max gap",
    "normalization error",
    "diagonal symmetry gap",
    "marginal deviation from 1/2",
    "closed-variant gap",
    "lifted commutator norm",
)


class VerificationResult(Record):
    """Worst-case deviations over the random draw set: each check's maximum, in CHECKS order."""

    samples: int
    seed: int
    maxima: tuple[float, ...]
    worst_tuple: tuple[float, float, float, float, int, int]

    def passes(self, tol: float) -> bool:
        """True when every check is within tol; a NaN fails its check."""
        return all(value <= tol for value in self.maxima)


def run_verification(samples: int = 10000, seed: int = 0) -> VerificationResult:
    """Cross-validate the three probability routes on random angle tuples.

    Draws (mu, eta, nu, zeta, s, t) uniformly, VERIFY_BLOCK_ROWS tuples
    at a time from _verify_draws, the same tuples for a seed whatever the
    block size. Each block's six columns are validated once, by the batch
    routes' rule, and the four probability kernels, looked up on _kernels
    when they run, take them directly; each output is clamped in place as
    the batch routes clamp it, so the checks read the same bits. The four
    Bell states, a table whose row 2s + t is bell_state_batch(s, t), are
    norm-checked by the brute-force route's rule, and the commutator basis is
    built from the current lifts, both once per run. Each block's routes and
    checks fold into running maxima, and its arrays are dropped before the
    next block's kernels run: memory stays at one block. Checks read column
    slices and views, not costlier axis=1 reductions (row sums add in
    m.sum(axis=1)'s order), and numpy folds them: a NaN anywhere a check
    reads makes it NaN. The worst tuple is the first row, over all blocks,
    with the largest three-method gap.
    """
    from . import cli  # here, so that bellxtalk.lift_first and the other exports load no CLI

    samples, seed = operator.index(samples), operator.index(seed)  # TypeError for a float
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if seed < 0:  # numpy's own message would not name the seed
        raise ValueError("seed must be a non-negative integer")
    maxima = np.full(len(CHECKS), -np.inf)
    worst_tuple = None
    clamped = bipartite._clamped
    bell = _unit_states(bell_state_batch([0, 0, 1, 1], [0, 1, 0, 1]), 4)  # row 2s + t
    basis = commutator_basis()
    for block in _verify_draws(samples, seed):
        *angles, s, t = columns = bipartite._validated_rows(*block)
        closed = clamped(_kernels.closed_joint(*columns))
        variant_gap = np.abs(closed - clamped(_kernels.closed_joint_alt(*columns))).max()
        amplitude = clamped(_kernels.amplitude_joint(*columns))
        brute = clamped(_kernels.bruteforce_joint(*angles, bell[2 * s + t]))

        gap = np.maximum(
            np.abs(closed - amplitude),
            np.maximum(np.abs(closed - brute), np.abs(amplitude - brute)),
        )
        worst, cell = divmod(int(gap.argmax()), 4)  # the first row holding the largest gap
        block_maxima = np.array([  # in CHECKS order
            gap[worst, cell],
            np.max([np.abs(m[:, 0] + m[:, 1] + m[:, 2] + m[:, 3] - 1.0) for m in (closed, amplitude, brute)]),
            np.maximum(np.abs(amplitude - amplitude[:, ::-1]), np.abs(brute - brute[:, ::-1])).max(),
            np.abs(brute[:, [0, 2, 0, 1]] + brute[:, [1, 3, 2, 3]] - 0.5).max(),
            variant_gap,
            cli._max_commutator_norm(*angles, basis),
        ])
        del closed, amplitude, brute, gap
        # the first row with the largest gap, a NaN counting as largest, as argmax counts it in a block
        if worst_tuple is None or (not block_maxima[0] <= maxima[0] and not np.isnan(maxima[0])):
            worst_tuple = tuple(column[worst].item() for column in columns)
        np.maximum(maxima, block_maxima, out=maxima)

    return VerificationResult(samples, seed, tuple(maxima.tolist()), worst_tuple)


def _verify_draws(samples: int, seed: int):
    """Yield verify's (mu, eta, nu, zeta, s, t) columns VERIFY_BLOCK_ROWS rows at a time.

    The rows are those of default_rng(seed) drawing the six whole columns in
    turn: four uniform angle columns, then the s and t bits. Each column has
    its own PCG64 stream, advanced once to where the column starts in that
    sequence. A uniform value takes one 64-bit word, so angle column k starts
    at word k*n. An integers(0, 2) value takes one 32-bit half of a word, so
    label column k starts at half q = k*n past word 4n: the stream advances
    4n + q // 2 words and, when q is odd, throws the low half away.
    """
    def positioned(words: int, skip_half: bool = False) -> np.random.Generator:
        bits = np.random.PCG64(seed)
        bits.advance(words)
        stream = np.random.Generator(bits)
        if skip_half:
            stream.integers(0, 2, 1)
        return stream

    angle_streams = [
        (positioned(k * samples), high)
        for k, high in enumerate(bipartite.ANGLE_BOUNDS.values())
    ]
    label_streams = [
        positioned(4 * samples + q // 2, q % 2 == 1) for q in (0, samples)
    ]
    for start in range(0, samples, VERIFY_BLOCK_ROWS):
        rows = min(VERIFY_BLOCK_ROWS, samples - start)
        yield (
            *(stream.uniform(0.0, high, rows) for stream, high in angle_streams),
            *(stream.integers(0, 2, rows) for stream in label_streams),
        )


def _max_commutator_norm(mu, eta, nu, zeta, basis) -> float:
    """Largest Frobenius norm of [A (x) I, I (x) B] over one block of rows; see commutator_norms."""
    return float(commutator_norms(mu, eta, nu, zeta, basis).max())
