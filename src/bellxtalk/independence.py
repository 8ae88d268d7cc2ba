"""Zero-crosstalk angle conditions and a numeric independence solver.

When both observables have Bloch directions in one coordinate plane, the
condition theta = 1/4 collapses to the polar or azimuthal angles summing or
differing by fixed targets. The predicates here encode those closed-form
target sets; solve_independence locates the theta = 1/4 locus numerically
for an arbitrary one-parameter family of pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import bipartite, information
from .bipartite import BellLabel, JointDistribution, ObservablePair
from .observables import TWO_PI, Plane, classify_plane

DEFAULT_ANGLE_TOL = 1e-9
ROOT_THETA_TOL = 1e-10

HALF_PI = 0.5 * math.pi


class ConditionKind(Enum):
    SUM = "sum"
    ABS_DIFF = "abs_diff"


@dataclass(frozen=True)
class PlaneCondition:
    """Closed-form independence condition for one plane and Bell label.

    The pair is informationally independent exactly when the angle sum (or
    absolute difference) hits one of target_values.
    """

    plane: Plane
    label: BellLabel
    condition_kind: ConditionKind
    target_values: tuple[float, ...]


@dataclass(frozen=True)
class IndependenceRoot:
    """One solution of theta = 1/4 along a swept parameter."""

    sweep_parameter: float
    theta_at_root: float
    bracket_width: float


def plane_condition(plane: Plane, label: BellLabel) -> PlaneCondition:
    """Target set for the given coordinate plane and Bell label."""
    if plane is Plane.X_ZERO:
        # depends only on s
        if label.s == 0:
            kind, targets = ConditionKind.SUM, (HALF_PI, 3.0 * HALF_PI)
        else:
            kind, targets = ConditionKind.ABS_DIFF, (HALF_PI,)
    elif plane is Plane.Y_ZERO:
        # sum condition when t != s, difference condition when t == s
        if label.t != label.s:
            kind, targets = ConditionKind.SUM, (HALF_PI, 3.0 * HALF_PI)
        else:
            kind, targets = ConditionKind.ABS_DIFF, (HALF_PI,)
    elif plane is Plane.Z_ZERO:
        # depends only on t; azimuthal angles range over [0, 2*pi)
        if label.t == 0:
            kind, targets = ConditionKind.SUM, (HALF_PI, 3.0 * HALF_PI, 5.0 * HALF_PI, 7.0 * HALF_PI)
        else:
            kind, targets = ConditionKind.ABS_DIFF, (HALF_PI, 3.0 * HALF_PI)
    else:
        raise ValueError(f"no closed-form condition for plane {plane!r}")
    return PlaneCondition(plane=plane, label=label, condition_kind=kind, target_values=targets)


def _check_range(value: float, hi: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or not 0.0 <= value <= hi:
        raise ValueError(f"{name} must lie in [0, {hi}], got {value}")
    return value


def _check_bit(value: int, name: str) -> int:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value}")
    return int(value)


def _satisfied(kind: ConditionKind, targets: tuple[float, ...], first: float, second: float, tol: float) -> bool:
    if not 0.0 < tol < math.inf:  # also rejects NaN
        raise ValueError("angle tolerance must be positive and finite")
    value = first + second if kind is ConditionKind.SUM else abs(first - second)
    return any(abs(value - target) <= tol for target in targets)


def condition_x_plane(mu: float, nu: float, s: int, tol: float = DEFAULT_ANGLE_TOL) -> bool:
    """Independence test for observables in the x=0 plane (eta = zeta = pi/2).

    s=0: the polar angles must sum to pi/2 or 3*pi/2; s=1: they must differ
    by pi/2. Holds for either t.
    """
    mu = _check_range(mu, math.pi, "mu")
    nu = _check_range(nu, math.pi, "nu")
    cond = plane_condition(Plane.X_ZERO, BellLabel(_check_bit(s, "s"), 0))
    return _satisfied(cond.condition_kind, cond.target_values, mu, nu, tol)


def condition_y_plane(mu: float, nu: float, s: int, t: int, tol: float = DEFAULT_ANGLE_TOL) -> bool:
    """Independence test for observables in the y=0 plane (eta = zeta = 0).

    Sum condition {pi/2, 3*pi/2} when t differs from s, absolute difference
    pi/2 when t equals s.
    """
    mu = _check_range(mu, math.pi, "mu")
    nu = _check_range(nu, math.pi, "nu")
    cond = plane_condition(Plane.Y_ZERO, BellLabel(_check_bit(s, "s"), _check_bit(t, "t")))
    return _satisfied(cond.condition_kind, cond.target_values, mu, nu, tol)


def condition_z_plane(eta: float, zeta: float, t: int, tol: float = DEFAULT_ANGLE_TOL) -> bool:
    """Independence test for observables in the z=0 plane (mu = nu = pi/2).

    t=0: the azimuthal angles must sum to an odd multiple of pi/2 (up to
    7*pi/2); t=1: they must differ by pi/2 or 3*pi/2. Holds for either s.
    """
    eta = _check_range(eta, TWO_PI, "eta")
    zeta = _check_range(zeta, TWO_PI, "zeta")
    cond = plane_condition(Plane.Z_ZERO, BellLabel(0, _check_bit(t, "t")))
    return _satisfied(cond.condition_kind, cond.target_values, eta, zeta, tol)


def partner_angles(plane: Plane, label: BellLabel, anchor: float) -> tuple[float, ...]:
    """Explicit partner-angle solutions for a fixed anchor angle, within domain.

    For x=0 and y=0 the anchor and partner are polar angles in [0, pi]; for
    z=0 they are azimuthal angles in [0, 2*pi).
    """
    cond = plane_condition(plane, label)
    hi = TWO_PI if plane is Plane.Z_ZERO else math.pi
    anchor = _check_range(anchor, hi, "anchor")
    if cond.condition_kind is ConditionKind.SUM:
        candidates = [target - anchor for target in cond.target_values]
    else:
        candidates = [anchor + target for target in cond.target_values]
        candidates += [anchor - target for target in cond.target_values]
    in_domain = []
    for value in candidates:
        if plane is Plane.Z_ZERO:
            if not 0.0 <= value < TWO_PI:
                continue
        elif not 0.0 <= value <= math.pi:
            continue
        if all(abs(value - kept) > 1e-12 for kept in in_domain):
            in_domain.append(value)
    return tuple(sorted(in_domain))


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
    max_iter: int = 200,
) -> list[IndependenceRoot]:
    """Locate parameters where the diagonal probability crosses 1/4.

    Evaluates theta(x) - 1/4 on an inclusive grid of `grid` points over
    [lo, hi] in one closed-form batch call, keeps grid points already within
    theta_tol, and bisects every bracketing sign change with one one-pair
    closed-form call per step. Tangential zeros that do not change sign are
    found only when a grid point lands within theta_tol (best effort).
    Results are sorted by parameter.
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points")

    xs = np.linspace(float(lo), float(hi), int(grid))
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
        mid, f_mid = a, f_a
        for _ in range(max_iter):
            mid = 0.5 * (a + b)
            f_mid = bipartite.joint_distribution_closed(path(mid), label).p[0] - 0.25
            if abs(f_mid) <= theta_tol:
                break
            if (f_mid < 0.0) == (f_a < 0.0):
                a, f_a = mid, f_mid
            else:
                b = mid
        if abs(f_mid) <= theta_tol:
            roots.append(IndependenceRoot(float(mid), float(f_mid + 0.25), float(b - a)))
    roots.sort(key=lambda root: root.sweep_parameter)
    return roots
