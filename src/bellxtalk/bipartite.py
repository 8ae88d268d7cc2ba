"""Bell states, lifted commuting operators, and the joint outcome distribution.

The distribution of simultaneous outcomes (k, l) is computed by three routes
that must agree: Born-rule brute force against the tensor eigenvector frame,
the two-term interference amplitude formula, and the closed form
p00 = p11 = (1 + c)/4, p01 = p10 = (1 - c)/4 in the correlation c = a.S b of
the two Bloch vectors (S is a diagonal sign matrix fixed by the Bell label).
Brute force works for any unit state and serves as the reference oracle; the
other two are specific to Bell states. The closed form is the production
path, cross-checked on every call against an alternate closed form in the
half-angle sums.

Batches go through the joint_*_batch wrappers, which validate the arrays and
clamp. A single pair (joint_distribution_closed, _amplitude and
_bruteforce) calls its kernels directly on one-element lists, which they
evaluate with math and cmath rather than numpy: the Observable and BellLabel
constructors have validated its angles and bits, joint_distribution_bruteforce
checks psi in plain Python, and JointDistribution checks and clamps the
cells. The closed-variant cross-check runs on both routes, on the single
pair's row as plain floats, and fails on a gap beyond CLOSED_VARIANT_TOL or
a NaN.

Each piece of two-qubit algebra is written once, with the row index last:
the lifts A tensor I and I tensor B (lift_first, lift_second, on a 2x2
operator or a (2, 2, n) stack), the lifted commutator norms
(commutator_norms) and the Bell-state entries (_bell_entries). The one-pair
functions (commutator_norm, bell_state, bell_state_row) are one-row calls of
them. commutator_norms lifts the four matrix units once per call and expands
each row's commutator in their 16 commutators; when all 16 are zero, as with
correct lifts, every finite row's norm is zero.

A single pair through any of the three routes uses no numpy name, given
bell_state_row rather than bell_state for brute force, so it loads no numpy
(see _np).
"""

from __future__ import annotations

import math

from . import _kernels, observables
from . import _np as np
from .observables import TWO_PI, Observable, Record, bit_value, eigenvector, matrices, require_tolerance

#: fixed cell order for joint outcomes (k, l); all arrays and CSV output use it
INDEX_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))

PROB_SLACK = 1e-12        # numeric undershoot tolerated before clamping
SUM_TOL = 1e-12
NORM_TOL = 1e-10
CLOSED_VARIANT_TOL = 1e-10  # max disagreement allowed between the two closed forms


class InternalConsistencyError(RuntimeError):
    """The two closed-form variants disagreed beyond tolerance.

    gap is the largest disagreement and row the first row where it occurs,
    counted from the start of the arrays the check was given.
    """

    def __init__(self, gap: float, row: int) -> None:
        super().__init__(f"closed-form variants disagree by {gap:.3e} at row {row}")
        self.gap = gap
        self.row = row

    def __reduce__(self):  # pickle and copy would otherwise call __init__ with the message
        return type(self), (self.gap, self.row)


class BellLabel(Record):
    """Names the maximally entangled state (|0 t> + (-1)^s |1 (t+1)>)/sqrt(2)."""

    s: int
    t: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", bit_value(self.s, "bell label bit s"))
        object.__setattr__(self, "t", bit_value(self.t, "bell label bit t"))


class ObservablePair(Record):
    """The first-qubit observable a and the second-qubit observable b."""

    a: Observable
    b: Observable


class JointDistribution(Record):
    """Probabilities of the four simultaneous outcomes, in INDEX_ORDER.

    Values are clamped to [0, 1] at construction; raw inputs may undershoot 0
    by ~1e-16 through cancellation in the closed forms. Anything outside the
    1e-12 slack (NaN and +-inf too), or a total off 1 by over 1e-12, is rejected.
    """

    p: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        for x in self.p:
            if type(x) is not float and isinstance(x, (str, bytes)):  # float() would parse them
                raise TypeError(f"probabilities must be numbers, not {type(x).__name__}")
        values = tuple(map(float, self.p))
        if len(values) != 4:
            raise ValueError(f"expected 4 probabilities, got {len(values)}")
        for x in values:
            if not -PROB_SLACK <= x <= 1.0 + PROB_SLACK:  # false for NaN and +-inf as well
                raise ValueError(f"probability {x} lies outside [0, 1] beyond slack")
        total = sum(values)
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        if min(values) <= 0.0 or max(values) > 1.0:  # zeros too, so that -0.0 is stored as 0.0
            values = tuple(min(1.0, max(0.0, x)) for x in values)
        object.__setattr__(self, "p", values)

    def probability(self, k: int, ell: int) -> float:
        return self.p[2 * bit_value(k, "outcome index k") + bit_value(ell, "outcome index l")]

    def as_array(self) -> np.ndarray:
        return np.array(self.p)


class OutcomeFrame(Record):
    """The four joint eigenvectors u_a^(k) tensor u_b^(l), rows in INDEX_ORDER."""

    vectors: np.ndarray  # shape (4, 4) complex, row index 2k+l

    def vector(self, k: int, ell: int) -> np.ndarray:
        return self.vectors[2 * k + ell]

    def __eq__(self, other):  # Record's tuple compare has no single truth value for two equal arrays
        if other.__class__ is self.__class__:
            return np.array_equal(self.vectors, other.vectors)
        return NotImplemented


def _bell_entries(s, t, where):
    """Amplitudes of (|0 t> + (-1)^s |1 (t+1)>)/sqrt(2) at the basis states 00, 01, 10, 11."""
    amp = 1.0 / math.sqrt(2.0)
    second = where(s == 1, -amp, amp)
    return where(t == 0, amp, 0.0), where(t == 1, amp, 0.0), where(t == 1, second, 0.0), where(t == 0, second, 0.0)


def bell_state(label: BellLabel) -> np.ndarray:
    """State vector (|0 t> + (-1)^s |1 (t+1)>)/sqrt(2) in the product basis."""
    return bell_state_batch([label.s], [label.t])[0]


def bell_state_row(label: BellLabel) -> tuple[float, float, float, float]:
    """bell_state's 4 entries as plain floats, without numpy."""
    return _bell_entries(label.s, label.t, _kernels._pick)


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


def joint_distribution_bruteforce(pair: ObservablePair, psi) -> JointDistribution:
    """Born-rule probabilities |<frame_kl|psi>|^2 for an arbitrary unit state.

    Reference oracle for the amplitude and closed-form routes: one row of the
    brute-force kernel, called on one-element lists of the pair's angles and
    psi's entries, so it evaluates the row with math and cmath (see
    joint_distribution_closed). psi is checked in plain Python: a vector of
    4 numbers (an ndarray, list or tuple), finite, with unit norm.
    """
    psi = _state_entries(psi)
    row = _kernels.bruteforce_joint([pair.a.mu], [pair.a.eta], [pair.b.mu], [pair.b.eta], [psi])[0]
    return JointDistribution(row)


def _state_entries(psi) -> list[complex]:
    """psi's 4 entries as complex numbers, checked to be finite numbers of unit norm."""
    shape = getattr(psi, "shape", None)
    if shape is None:
        if isinstance(psi, (str, bytes)) or psi is None:
            raise TypeError(f"psi must hold numbers, not {type(psi).__name__}")
        shape = (len(psi),) if hasattr(psi, "__len__") else ()
    if tuple(shape) != (4,):
        raise ValueError(f"psi must be a vector of length 4, got shape {tuple(shape)}")
    entries = []
    for x in psi:
        try:
            if isinstance(x, (str, bytes)):  # complex() would parse them
                raise TypeError
            entries.append(complex(x))
        except TypeError:
            raise TypeError(f"psi must hold numbers, not {type(x).__name__}") from None
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in entries):
        raise ValueError("psi has non-finite components")
    norm = math.hypot(*(part for z in entries for part in (z.real, z.imag)))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state vector has norm {norm}, expected 1")
    return entries


def joint_distribution_amplitude(pair: ObservablePair, label: BellLabel) -> JointDistribution:
    """Joint probabilities from the interference amplitude formula.

    One row of the amplitude kernel on one-element lists, evaluated with
    math and cmath, as joint_distribution_closed does with the closed
    kernels; JointDistribution checks and clamps, and an ndarray row from a
    kernel that returns an (n, 4) array is taken as well.
    """
    return JointDistribution(_kernels.amplitude_joint(*_point_row(pair, label))[0])


def joint_distribution_closed(pair: ObservablePair, label: BellLabel) -> JointDistribution:
    """Joint probabilities (1 +- a.S b)/4 from the correlation of the Bloch vectors.

    Calls the closed kernels on one-element lists of the pair's angles and
    bits, without the batch wrapper, so they evaluate the row with math on
    plain floats instead of numpy: Observable and BellLabel have already
    validated the angles and bits, and JointDistribution checks the range and
    the sum and clamps. The alternate half-angle closed form is evaluated as
    well, and both rows are compared as plain floats; a disagreement beyond
    CLOSED_VARIANT_TOL, or a NaN in either row, raises
    InternalConsistencyError instead of averaging. The kernels give a list of
    one row for the lists, and row 0 is taken as it comes: a tuple of floats,
    or an ndarray row from a kernel that returns an (n, 4) array.
    """
    row = _point_row(pair, label)
    primary = _kernels.closed_joint(*row)
    _require_variant_agreement(primary, _kernels.closed_joint_alt(*row))
    return JointDistribution(primary[0])


def marginals(dist: JointDistribution) -> tuple[tuple[float, float], tuple[float, float]]:
    """Row and column sums: outcome probabilities of each single measurement."""
    p = dist.p
    return (p[0] + p[1], p[2] + p[3]), (p[0] + p[2], p[1] + p[3])


def commutator_norm(pair: ObservablePair) -> float:
    """Frobenius norm of [a tensor I, I tensor b]; zero exactly when they commute."""
    return float(commutator_norms(*np.array([[pair.a.mu], [pair.a.eta], [pair.b.mu], [pair.b.eta]]))[0])


def commutator_norms(mu, eta, nu, zeta) -> np.ndarray:
    """Frobenius norm of [A tensor I, I tensor B] for each row of angles; shape (n,).

    The lifts are linear (a test checks this) and the matrix units E_pq span
    every 2x2 operator, so a row's commutator is the sum of A_pq B_rs times
    [lift_first(E_pq), lift_second(E_rs)]. Those 16 are built once per call,
    and all rows are then one (16, 16) @ (16, n) product. When all 16 are
    zero, as with correct lifts, each row with finite angles has norm zero and
    no row's matrices are built; a nonzero entry, or a non-finite angle, whose
    row norm is NaN, takes the product. Angles are 1-d float arrays of one
    length and are not validated.
    """
    units = np.eye(4, dtype=np.complex128).reshape(2, 2, 4)  # E_pq at 2p + q
    lift_a = lift_first(np.repeat(units, 4, axis=2))  # column 4i + j pairs E_i with E_j
    lift_b = lift_second(np.tile(units, 4))
    basis = (np.einsum("ikn,kjn->ijn", lift_a, lift_b) - np.einsum("ikn,kjn->ijn", lift_b, lift_a)).reshape(16, 16)
    if not basis.any() and all(np.isfinite(angle).all() for angle in (mu, eta, nu, zeta)):
        return np.zeros(len(mu))
    a = matrices(mu, eta).reshape(4, -1)
    b = matrices(nu, zeta).reshape(4, -1)
    return np.linalg.norm(basis @ np.einsum("in,jn->ijn", a, b).reshape(16, -1), axis=0)


def is_klein_symmetric(dist: JointDistribution, tol: float = 1e-12) -> bool:
    """True when p00 equals p11 and p01 equals p10 within tol."""
    require_tolerance(tol)
    p = dist.p
    return abs(p[0] - p[3]) <= tol and abs(p[1] - p[2]) <= tol


def has_equal_marginals(dist: JointDistribution, tol: float = 1e-12) -> bool:
    """True when all four single-measurement outcome probabilities agree within tol."""
    require_tolerance(tol)
    (pa0, pa1), (pb0, pb1) = marginals(dist)
    values = (pa0, pa1, pb0, pb1)
    return max(values) - min(values) <= tol


# ---------------------------------------------------------------------------
# batch wrappers over the kernels (validated, clamped in place)
# ---------------------------------------------------------------------------

def _point_row(pair: ObservablePair, label: BellLabel):
    """The pair's angles and the label's bits as one-element lists."""
    return [pair.a.mu], [pair.a.eta], [pair.b.mu], [pair.b.eta], [label.s], [label.t]


#: upper end of each angle's domain [0, hi], in the kernels' argument order;
#: eta/zeta accept the closed end 2*pi, which is equivalent to 0
ANGLE_BOUNDS = {"mu": math.pi, "eta": TWO_PI, "nu": math.pi, "zeta": TWO_PI}


def _numeric(values, name: str, kinds: str = "biuf") -> np.ndarray:
    """values as an array of a dtype kind in kinds (by default bools, integers, floats); np.asarray takes text too."""
    arr = np.asarray(values)
    if arr.dtype.kind not in kinds:
        raise TypeError(f"{name} must hold numbers, not {arr.dtype}")
    return arr


def validated_angle(name: str, values) -> np.ndarray:
    """values as a contiguous 1-d float64 array, checked to be finite and in name's domain."""
    hi = ANGLE_BOUNDS[name]
    arr = np.ascontiguousarray(_numeric(values, name), dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    if arr.size and (arr.min() < 0.0 or arr.max() > hi):
        raise ValueError(f"{name} must lie in [0, {hi}]")
    return arr


def _validated_angles(mu, eta, nu, zeta):
    arrays = [validated_angle(name, values) for name, values in zip(ANGLE_BOUNDS, (mu, eta, nu, zeta))]
    n = arrays[0].shape[0]
    if any(a.shape[0] != n for a in arrays):
        raise ValueError("angle arrays must share one length")
    return arrays


def _validated_bits(values, n: int, name: str) -> np.ndarray:
    """values as a contiguous int64 array of length n, checked to be 0 or 1 before the cast truncates them."""
    arr = _numeric(values, name)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a 1-d array of length {n}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")
    return np.ascontiguousarray(arr, dtype=np.int64)


def _validated_rows(mu, eta, nu, zeta, s, t):
    mu, eta, nu, zeta = _validated_angles(mu, eta, nu, zeta)
    n = mu.shape[0]
    return mu, eta, nu, zeta, _validated_bits(s, n, "s"), _validated_bits(t, n, "t")


def joint_closed_batch(mu, eta, nu, zeta, s, t, *, check: bool = True) -> np.ndarray:
    """Correlation-form probabilities (1 +- a.S b)/4; shape (n, 4), clamped to [0, 1].

    With check=True the alternate half-angle closed form is evaluated as well
    and compared.
    """
    mu, eta, nu, zeta, s, t = _validated_rows(mu, eta, nu, zeta, s, t)
    primary = _kernels.closed_joint(mu, eta, nu, zeta, s, t)
    if check:
        alternate = _kernels.closed_joint_alt(mu, eta, nu, zeta, s, t)
        _require_variant_agreement(primary, alternate)
    return np.clip(primary, 0.0, 1.0, out=primary)


def joint_closed_alt_batch(mu, eta, nu, zeta, s, t) -> np.ndarray:
    """Half-angle closed-form probabilities; shape (n, 4), clamped to [0, 1]."""
    p = _kernels.closed_joint_alt(*_validated_rows(mu, eta, nu, zeta, s, t))
    return np.clip(p, 0.0, 1.0, out=p)


def joint_amplitude_batch(mu, eta, nu, zeta, s, t) -> np.ndarray:
    """Amplitude-formula probabilities; shape (n, 4), clamped to [0, 1]."""
    p = _kernels.amplitude_joint(*_validated_rows(mu, eta, nu, zeta, s, t))
    return np.clip(p, 0.0, 1.0, out=p)


def joint_bruteforce_batch(mu, eta, nu, zeta, psi) -> np.ndarray:
    """Born-rule probabilities against finite unit states psi (n, 4); clamped to [0, 1]."""
    mu, eta, nu, zeta = _validated_angles(mu, eta, nu, zeta)
    psi = np.ascontiguousarray(_numeric(psi, "psi", "biufc"), dtype=np.complex128)
    if psi.shape != (mu.shape[0], 4):
        raise ValueError(f"psi must have shape ({mu.shape[0]}, 4), got {psi.shape}")
    parts = psi.view(np.float64)  # re, im of each entry side by side
    norms = np.sqrt(np.einsum("ij,ij->i", parts, parts))
    bad = ~(np.abs(norms - 1.0) <= NORM_TOL)  # NaN and inf rows as well
    if bad.any():
        row = int(bad.argmax())
        raise ValueError(f"state vector at row {row} has norm {norms[row]}, expected 1")
    p = _kernels.bruteforce_joint(mu, eta, nu, zeta, psi)
    return np.clip(p, 0.0, 1.0, out=p)


def _require_variant_agreement(primary, alternate) -> None:
    """Raise InternalConsistencyError if the closed variants differ beyond CLOSED_VARIANT_TOL or by NaN.

    Takes two (n, 4) ndarrays, or the kernels' answer to lists: lists of rows
    of plain floats, compared in Python, and with numpy only when they
    disagree. The row named is the first NaN row, else the first worst one.
    """
    if isinstance(primary, list) and all(
        [abs(x - y) <= CLOSED_VARIANT_TOL for rows in zip(primary, alternate) for x, y in zip(*rows)]
    ):
        return
    gap = np.abs(np.subtract(primary, alternate))
    worst = float(gap.max()) if gap.size else 0.0
    if not worst <= CLOSED_VARIANT_TOL:  # max and argmax propagate NaN
        raise InternalConsistencyError(worst, int(np.unravel_index(np.argmax(gap), gap.shape)[0]))
