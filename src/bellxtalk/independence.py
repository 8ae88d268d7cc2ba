"""Zero-crosstalk angle conditions and a numeric independence solver.

A pair is independent exactly when c = a.S b = 0 (p00 = (1 + c)/4), where a and
b are the Bloch vectors and S = diag(sigma_s, -sigma_s*sigma_t, sigma_t) with
sigma_s = 1 - 2s, sigma_t = 1 - 2t: the correlation-matrix form of R. & M.
Horodecki, PRA 54, 1838 (1996). With both directions in one coordinate plane, c
is one cosine whose inner sign is S's entry on the plane's normal:

- x=0 (eta = zeta = pi/2): c = sigma_t * cos(mu + sigma_s * nu)
- y=0 (eta = zeta = 0):    c = sigma_t * cos(mu - sigma_s * sigma_t * nu)
- z=0 (mu = nu = pi/2):    c = sigma_s * cos(eta + sigma_t * zeta)

So c = 0 exactly when the angle sum (sign +1) or absolute difference (sign -1)
is an odd multiple of pi/2 in its range, [0, 2*hi] or [0, hi], where hi is pi
for the polar angles of x=0 and y=0 and 2*pi for the azimuths of z=0.
solve_independence finds theta = 1/4 numerically along any path of pairs.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import Callable

from . import _np as np
from . import bipartite, information
from .bipartite import BellLabel, ObservablePair
from .observables import TWO_PI, Plane, Record, angle_value, bit_value, classify_plane, require_tolerance

DEFAULT_ANGLE_TOL = 1e-9
ROOT_THETA_TOL = 1e-10

HALF_PI = 0.5 * math.pi

#: every target, up to the largest: 7*pi/2, an azimuth sum on z=0
_ODD_HALF_PIS = tuple((2 * k + 1) * HALF_PI for k in range(4))
#: the coordinate planes, each at its normal's index into S's diagonal
_PLANES = (Plane.X_ZERO, Plane.Y_ZERO, Plane.Z_ZERO)
#: each plane's angle range hi in half turns: polar angles on x=0 and y=0, azimuths on z=0
_HALF_TURNS = (1, 1, 2)


class ConditionKind(Enum):
    SUM = "sum"
    ABS_DIFF = "abs_diff"


_KINDS = (ConditionKind.ABS_DIFF, ConditionKind.SUM)  # by is_sum: cheaper than an Enum attribute lookup


class PlaneCondition(Record):
    """Closed-form independence condition for one plane and Bell label.

    The pair is informationally independent exactly when the angle sum (or
    absolute difference) hits one of target_values.
    """

    plane: Plane
    label: BellLabel
    condition_kind: ConditionKind
    target_values: tuple[float, ...]


class IndependenceRoot(Record):
    """One solution of theta = 1/4 along a swept parameter."""

    sweep_parameter: float
    theta_at_root: float
    bracket_width: float


def _rule(plane: Plane, s: int, t: int) -> tuple[bool, tuple[float, ...], int]:
    """Whether the plane's condition is on the angle sum (else the difference), its targets and half turns."""
    try:
        normal = _PLANES.index(plane)  # by identity: cheaper than hashing an Enum
    except ValueError:
        raise ValueError(f"no closed-form condition for plane {plane!r}") from None
    sign_s, sign_t = 1 - 2 * s, 1 - 2 * t
    is_sum = (sign_s, -sign_s * sign_t, sign_t)[normal] > 0  # the inner sign is S's entry on the normal
    turns = _HALF_TURNS[normal]
    return is_sum, _ODD_HALF_PIS[:2 * turns if is_sum else turns], turns


def plane_condition(plane: Plane, label: BellLabel) -> PlaneCondition:
    """Target set for the given coordinate plane and Bell label."""
    is_sum, targets, _ = _rule(plane, label.s, label.t)
    return PlaneCondition(plane=plane, label=label, condition_kind=_KINDS[is_sum], target_values=targets)


def _check_range(value: float, hi: float, name: str) -> float:
    value = angle_value(value, name)
    if not math.isfinite(value) or not 0.0 <= value <= hi:
        raise ValueError(f"{name} must lie in [0, {hi}], got {value}")
    return value


def _holds(plane: Plane, first: tuple[str, float], second: tuple[str, float], tol: float, s=None, t=None) -> bool:
    """The plane's predicate on two (name, angle) pairs; checks the angles, the bits given, then tol."""
    hi = _HALF_TURNS[_PLANES.index(plane)] * math.pi
    x, y = _check_range(first[1], hi, first[0]), _check_range(second[1], hi, second[0])
    s = 0 if s is None else bit_value(s, "s")
    t = 0 if t is None else bit_value(t, "t")
    is_sum, targets, _ = _rule(plane, s, t)
    require_tolerance(tol, "angle tolerance")
    value = x + y if is_sum else abs(x - y)
    return any(abs(value - target) <= tol for target in targets)


def condition_x_plane(mu: float, nu: float, s: int, tol: float = DEFAULT_ANGLE_TOL) -> bool:
    """Independence test for polar angles in the x=0 plane (eta = zeta = pi/2); holds for either t."""
    return _holds(Plane.X_ZERO, ("mu", mu), ("nu", nu), tol, s=s)


def condition_y_plane(mu: float, nu: float, s: int, t: int, tol: float = DEFAULT_ANGLE_TOL) -> bool:
    """Independence test for polar angles in the y=0 plane (eta = zeta = 0)."""
    return _holds(Plane.Y_ZERO, ("mu", mu), ("nu", nu), tol, s=s, t=t)


def condition_z_plane(eta: float, zeta: float, t: int, tol: float = DEFAULT_ANGLE_TOL) -> bool:
    """Independence test for azimuths in the z=0 plane (mu = nu = pi/2); holds for either s."""
    return _holds(Plane.Z_ZERO, ("eta", eta), ("zeta", zeta), tol, t=t)


def partner_angles(plane: Plane, label: BellLabel, anchor: float) -> tuple[float, ...]:
    """Explicit partner-angle solutions for a fixed anchor angle, within domain.

    For x=0 and y=0 the anchor and partner are polar angles in [0, pi]; for
    z=0 they are azimuthal angles in [0, 2*pi). The targets lie pi apart, so
    the partners do too.
    """
    is_sum, targets, turns = _rule(plane, label.s, label.t)
    hi = turns * math.pi
    anchor = _check_range(anchor, hi, "anchor")
    if is_sum:
        candidates = [target - anchor for target in targets]
    else:
        candidates = [anchor + target for target in targets] + [anchor - target for target in targets]
    # the azimuth 2*pi is the azimuth 0, so z=0 leaves it out
    return tuple(sorted(value for value in candidates if 0.0 <= value <= hi and value < TWO_PI))


def check_consistency(
    predicate_result: bool,
    pair: ObservablePair,
    label: BellLabel,
    plane: Plane,
    *,
    plane_tol: float = DEFAULT_ANGLE_TOL,
    theta_tol: float = information.DEFAULT_INDEPENDENCE_TOL,
) -> bool:
    """True when the plane predicate agrees with the theta = 1/4 criterion.

    Both observables must lie in the claimed plane (checked via their Bloch
    directions); a mismatch is a usage error.
    """
    for name, obs in (("a", pair.a), ("b", pair.b)):
        if plane not in classify_plane(obs, plane_tol):
            raise ValueError(f"observable {name} does not lie in plane {plane.value}")
    dist = bipartite.joint_distribution_closed(pair, label)
    return bool(predicate_result) == information.is_informationally_independent(dist, theta_tol)


def solve_independence(
    path: Callable[[float], ObservablePair],
    label: BellLabel,
    grid: int,
    *,
    lo: float = 0.0,
    hi: float = 1.0,
    theta_tol: float = ROOT_THETA_TOL,
) -> list[IndependenceRoot]:
    """Locate parameters where the diagonal probability crosses 1/4.

    Evaluates theta(x) - 1/4 on an inclusive grid of `grid` points over
    [lo, hi] in one closed-form batch call, keeps grid points already within
    theta_tol, and bisects every bracketing sign change with one one-pair
    closed-form call per step, until a midpoint is within theta_tol or no
    double lies between the bracket's ends. Tangential zeros that do not
    change sign are found only when a grid point lands within theta_tol (best
    effort). Results are sorted by parameter.
    """
    grid = operator.index(grid)  # a float is a TypeError, not truncated
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    require_tolerance(theta_tol, "theta tolerance")
    lo, hi = angle_value(lo, "lo"), angle_value(hi, "hi")
    if not (math.isfinite(lo) and math.isfinite(hi)):  # a NaN bracket would never collapse
        raise ValueError("lo and hi must be finite")
    xs = np.linspace(lo, hi, grid)
    pairs = [path(float(x)) for x in xs]
    angles = np.array([(pair.a.mu, pair.a.eta, pair.b.mu, pair.b.eta) for pair in pairs]).T
    s, t = np.full(len(pairs), label.s), np.full(len(pairs), label.t)
    values = (bipartite.joint_closed_batch(*angles, s, t)[:, 0] - 0.25).tolist()
    on_grid = [abs(v) <= theta_tol for v in values]

    roots = [
        IndependenceRoot(float(x), float(v + 0.25), 0.0)
        for x, v, hit in zip(xs, values, on_grid)
        if hit
    ]
    for i in range(len(xs) - 1):
        if on_grid[i] or on_grid[i + 1]:
            continue
        if values[i] * values[i + 1] >= 0.0:
            continue
        a, b = float(xs[i]), float(xs[i + 1])
        f_a = values[i]
        while (mid := 0.5 * (a + b)) not in (a, b):
            f_mid = bipartite.joint_distribution_closed(path(mid), label).p[0] - 0.25
            if abs(f_mid) <= theta_tol:
                roots.append(IndependenceRoot(mid, f_mid + 0.25, b - a))
                break
            if (f_mid < 0.0) == (f_a < 0.0):
                a, f_a = mid, f_mid
            else:
                b = mid
    roots.sort(key=lambda root: root.sweep_parameter)
    return roots
