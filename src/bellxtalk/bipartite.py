"""Bell labels, observable pairs, and the joint outcome distribution.

The distribution of simultaneous outcomes (k, l) is computed by three routes
that must agree: Born-rule brute force against the tensor eigenvector frame,
the two-term interference amplitude formula, and the closed form
p00 = p11 = (1 + c)/4, p01 = p10 = (1 - c)/4 in the correlation c = a.S b of
the two Bloch vectors (S is a diagonal sign matrix fixed by the Bell label).
Brute force works for any unit state and serves as the reference oracle; the
other two are specific to Bell states. The closed form is the production
path, cross-checked on every call against an alternate closed form in the
half-angle sums.

joint_closed_batch, the batch route every command runs, validates its
arrays (_validated_rows) and clamps the kernel's output in place (_clamped).
A single pair (joint_distribution_closed, _amplitude and _bruteforce) calls
its kernels directly on one-element lists, which they evaluate with math and
cmath rather than numpy: the Observable and BellLabel constructors have
validated its angles and bits, joint_distribution_bruteforce checks psi in
plain Python, and JointDistribution checks and clamps the cells. The
closed-variant cross-check runs on both routes, on the single pair's row as
plain floats, and fails on a gap beyond CLOSED_VARIANT_TOL or a NaN.

The algebra only verification runs lives in _verify: the Bell state vectors
(bell_state, bell_state_batch), the lifts and their commutator norms, the
outcome frame and the other batch routes. Four of its names stay importable
from here (_ORACLE_NAMES), resolved on first access (PEP 562) and kept, so a
run that uses none of them never compiles _verify.

A single pair through any of the three routes uses no numpy name, given
bell_state_row rather than bell_state for brute force, so it loads no numpy
(see _np).
"""

from __future__ import annotations

import cmath
import math

from . import _kernels
from . import _np as np
from .observables import TWO_PI, Observable, Record, bit_value, require_tolerance

_ORACLE_NAMES = ("bell_state_batch", "joint_closed_alt_batch", "joint_amplitude_batch", "joint_bruteforce_batch")


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _verify

    value = globals()[name] = getattr(_verify, name)
    return value


#: fixed cell order for joint outcomes (k, l); all arrays and CSV output use it
INDEX_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))

PROB_SLACK = 1e-12        # numeric undershoot tolerated before clamping
SUM_TOL = 1e-12
NORM_TOL = 1e-10
CLOSED_VARIANT_TOL = 1e-10  # max disagreement allowed between the two closed forms


class InternalConsistencyError(RuntimeError):
    """The two closed-form variants disagreed beyond tolerance.

    gap is the largest disagreement and row the first row where it occurs,
    counted from the start of the arrays the check was given. It pickles by
    (gap, row), not by the message.
    """

    def __init__(self, gap: float, row: int) -> None:
        super().__init__(f"closed-form variants disagree by {gap:.3e} at row {row}")
        self.gap, self.row = gap, row

    def __reduce__(self):
        return type(self), (self.gap, self.row)


class BellLabel(Record):
    """Names the maximally entangled state (|0 t> + (-1)^s |1 (t+1)>)/sqrt(2)."""

    s: int
    t: int

    def __post_init__(self) -> None:
        self.__dict__.update(s=bit_value(self.s, "bell label bit s"), t=bit_value(self.t, "bell label bit t"))


class ObservablePair(Record):
    """The first-qubit observable a and the second-qubit observable b."""

    a: Observable
    b: Observable


class JointDistribution(Record):
    """Probabilities of the four simultaneous outcomes, in INDEX_ORDER.

    Values are clamped to [0, 1] at construction; raw inputs may undershoot 0
    by ~1e-16 through cancellation in the closed forms. Anything outside the
    1e-12 slack (NaN and +-inf too), or a total off 1 by over 1e-12, is rejected.
    Text is refused (float() would parse it) and -0.0 is stored as 0.0. One
    pass checks the cells, keeping those outside (0, 1] in edge, and raises
    in the order of separate passes: text, float(), length, range, sum.
    """

    p: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        values, error, edge = [], None, []
        for x in self.p:
            if type(x) is not float:
                if isinstance(x, (str, bytes)):
                    raise TypeError(f"probabilities must be numbers, not {type(x).__name__}")
                try:
                    x = float(x)
                except Exception as exc:
                    error = error or exc
                    continue
            if not 0.0 < x <= 1.0:
                edge.append(x)
            values.append(x)
        if error:
            raise error
        if len(values) != 4:
            raise ValueError(f"expected 4 probabilities, got {len(values)}")
        for x in edge:
            if not -PROB_SLACK <= x <= 1.0 + PROB_SLACK:
                raise ValueError(f"probability {x} lies outside [0, 1] beyond slack")
        total = sum(values)
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        self.__dict__["p"] = tuple(min(1.0, max(0.0, x)) for x in values) if edge else tuple(values)

    def probability(self, k: int, ell: int) -> float:
        return self.p[2 * bit_value(k, "outcome index k") + bit_value(ell, "outcome index l")]

    def as_array(self) -> np.ndarray:
        return np.array(self.p)


def _bell_entries(s, t, where):
    """Amplitudes of (|0 t> + (-1)^s |1 (t+1)>)/sqrt(2) at the basis states 00, 01, 10, 11."""
    amp = 1.0 / math.sqrt(2.0)
    second = where(s == 1, -amp, amp)
    return where(t == 0, amp, 0.0), where(t == 1, amp, 0.0), where(t == 1, second, 0.0), where(t == 0, second, 0.0)


def bell_state_row(label: BellLabel) -> tuple[float, float, float, float]:
    """bell_state's 4 entries as plain floats, without numpy."""
    return _bell_entries(label.s, label.t, _kernels._pick)


def joint_distribution_bruteforce(pair: ObservablePair, psi) -> JointDistribution:
    """Born-rule probabilities |<frame_kl|psi>|^2 for an arbitrary unit state.

    Reference oracle for the amplitude and closed-form routes: one row of the
    brute-force kernel, called on one-element lists of the pair's angles and
    psi's entries, so it evaluates the row with math and cmath (see
    joint_distribution_closed). psi is checked in plain Python: a vector of
    4 numbers (an ndarray, list or tuple), finite, with unit norm.
    """
    psi = _state_entries(psi)
    return JointDistribution(_kernels.bruteforce_joint([pair.a.mu], [pair.a.eta], [pair.b.mu], [pair.b.eta], [psi])[0])


def _state_entries(psi) -> list[complex]:
    """psi's 4 entries as complex numbers, checked to be finite numbers (not text) of unit norm."""
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
            if isinstance(x, (str, bytes)):
                raise TypeError
            entries.append(complex(x))
        except TypeError:
            raise TypeError(f"psi must hold numbers, not {type(x).__name__}") from None
    if not all(map(cmath.isfinite, entries)):
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

    Calls the closed kernels on one-element lists, without the batch wrapper
    (see the module docstring). The alternate half-angle closed form is
    evaluated as well, and a disagreement beyond CLOSED_VARIANT_TOL, or a NaN
    in either row, raises InternalConsistencyError instead of averaging. Row 0
    is taken as it comes: a tuple of floats, or an ndarray row from a kernel
    that returns an (n, 4) array.
    """
    row = _point_row(pair, label)
    primary = _kernels.closed_joint(*row)
    _require_variant_agreement(primary, _kernels.closed_joint_alt(*row))
    return JointDistribution(primary[0])


def marginals(dist: JointDistribution) -> tuple[tuple[float, float], tuple[float, float]]:
    """Row and column sums: outcome probabilities of each single measurement."""
    p = dist.p
    return (p[0] + p[1], p[2] + p[3]), (p[0] + p[2], p[1] + p[3])


def is_klein_symmetric(dist: JointDistribution, tol: float = 1e-12) -> bool:
    """True when p00 equals p11 and p01 equals p10 within tol."""
    require_tolerance(tol)
    p = dist.p
    return abs(p[0] - p[3]) <= tol and abs(p[1] - p[2]) <= tol


def has_equal_marginals(dist: JointDistribution, tol: float = 1e-12) -> bool:
    """True when all four single-measurement outcome probabilities agree within tol."""
    require_tolerance(tol)
    first, second = marginals(dist)
    return max(first + second) - min(first + second) <= tol


# ---------------------------------------------------------------------------
# batch wrappers over the kernels (validated, clamped in place)
# ---------------------------------------------------------------------------

def _point_row(pair: ObservablePair, label: BellLabel):
    """The pair's angles and the label's bits as one-element lists."""
    return [pair.a.mu], [pair.a.eta], [pair.b.mu], [pair.b.eta], [label.s], [label.t]


#: each angle's domain [0, hi], in the kernels' argument order; eta and zeta take 2*pi, the azimuth 0
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
    if len({a.shape for a in arrays}) > 1:
        raise ValueError("angle arrays must share one length")
    return arrays


def _validated_bits(values, n: int, name: str) -> np.ndarray:
    """values as an int64 array of length n, strides kept, checked to be 0 or 1 before the cast truncates them."""
    arr = _numeric(values, name)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a 1-d array of length {n}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")
    return arr.astype(np.int64, copy=False)


def _validated_rows(mu, eta, nu, zeta, s, t):
    angles = _validated_angles(mu, eta, nu, zeta)
    n = len(angles[0])
    return *angles, _validated_bits(s, n, "s"), _validated_bits(t, n, "t")


def _clamped(p: np.ndarray) -> np.ndarray:
    """A kernel's fresh (n, 4) output p, clamped to [0, 1] in place."""
    return np.clip(p, 0.0, 1.0, out=p)


def joint_closed_batch(mu, eta, nu, zeta, s, t, *, check: bool = True) -> np.ndarray:
    """Correlation-form probabilities (1 +- a.S b)/4; shape (n, 4), clamped to [0, 1].

    With check=True the alternate half-angle closed form is evaluated as well
    and compared.
    """
    rows = _validated_rows(mu, eta, nu, zeta, s, t)
    primary = _kernels.closed_joint(*rows)
    if check:
        _require_variant_agreement(primary, _kernels.closed_joint_alt(*rows))
    return _clamped(primary)


def _require_variant_agreement(primary, alternate) -> None:
    """Raise InternalConsistencyError if the closed variants differ beyond CLOSED_VARIANT_TOL or by NaN.

    Takes two (n, 4) ndarrays, or the kernels' answer to lists: lists of rows
    of plain floats, compared in Python, and with numpy only when they
    disagree. The row named is the first NaN row, else the first worst one.
    """
    if isinstance(primary, list):
        agree = True
        for row, alt in zip(primary, alternate):
            for x, y in zip(row, alt):
                if not abs(x - y) <= CLOSED_VARIANT_TOL:
                    agree = False
        if agree:
            return
    gap = np.abs(np.subtract(primary, alternate))
    worst = float(gap.max()) if gap.size else 0.0
    if not worst <= CLOSED_VARIANT_TOL:
        raise InternalConsistencyError(worst, int(gap.argmax()) // 4)
