"""Exact joint outcome distributions in rational arithmetic, from the Born rule.

At an angle 2*atan(u) with rational u, cos = (1 - u^2)/(1 + u^2) and
sin = 2u/(1 + u^2) are rational, so an observable's projectors
P_k = (I + (-1)^k a.sigma)/2 have Gaussian-rational entries. A Bell state's
density matrix rho = |psi><psi| has entries in {0, 1/2, -1/2}, so
p_kl = Tr rho (P_k tensor P_l) is an exact fractions.Fraction: no half-angle,
square root or rounding enters. Nothing here uses the package, so the
package's routes are checked against the Born rule itself, not against one
another.

A complex number is a (re, im) pair of Fractions, and a cos/sin pair is an
exact angle.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO, ONE = Fraction(0), Fraction(1)
#: exact (cos, sin) of the angles 0 and pi/2, the fixed angles of the coordinate planes
ANGLE_ZERO = (ONE, ZERO)
ANGLE_HALF_PI = (ZERO, ONE)


def half_tangent(u: Fraction) -> tuple[Fraction, Fraction]:
    """(cos, sin) of the angle 2*atan(u), exactly."""
    u = Fraction(u)
    denominator = 1 + u * u
    return (1 - u * u) / denominator, 2 * u / denominator


def polar_value(u: Fraction) -> float:
    """The float polar angle 2*atan(u) in [0, pi), for u >= 0."""
    if u < 0:
        raise ValueError("a polar half-tangent must be non-negative")
    return 2.0 * math.atan(u)


def azimuth_value(u: Fraction) -> float:
    """The float azimuth 2*atan(u), moved into [0, 2*pi) for a negative u."""
    value = 2.0 * math.atan(u)
    return value + 2.0 * math.pi if value < 0.0 else value


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def projectors(polar, azimuth):
    """P_0 and P_1 of the observable at exact angles (cos, sin), each a 2x2 list of Gaussian rationals.

    The observable is [[cos mu, e^(-i eta) sin mu], [e^(i eta) sin mu, -cos mu]].
    """
    (cos_mu, sin_mu), (cos_eta, sin_eta) = polar, azimuth
    x, y = sin_mu * cos_eta, sin_mu * sin_eta
    observable = [[(cos_mu, ZERO), (x, -y)], [(x, y), (-cos_mu, ZERO)]]
    half = Fraction(1, 2)
    return [
        [[(half * ((i == j) + sign * entry[0]), half * sign * entry[1]) for j, entry in enumerate(row)]
         for i, row in enumerate(observable)]
        for sign in (1, -1)
    ]


def bell_density(s: int, t: int):
    """rho of (|0 t> + (-1)^s |1 (t+1)>)/sqrt(2), a 4x4 list of Fractions in the basis 00, 01, 10, 11."""
    first, second = t, 3 - t  # the basis indexes of |0 t> and |1 (t+1)>
    rho = [[ZERO] * 4 for _ in range(4)]
    rho[first][first] = rho[second][second] = Fraction(1, 2)
    rho[first][second] = rho[second][first] = Fraction((-1) ** s, 2)
    return rho


def cells(a, b, s: int, t: int) -> tuple[Fraction, ...]:
    """Exact p_kl = Tr rho (P_k tensor P_l) in the order 00, 01, 10, 11.

    a and b are each an exact (polar, azimuth) pair of (cos, sin) angles.
    Raises AssertionError if a cell has a nonzero imaginary part.
    """
    rho = bell_density(s, t)
    result = []
    for p in projectors(*a):
        for q in projectors(*b):
            total = (ZERO, ZERO)
            for row in range(4):
                for col in range(4):
                    if rho[row][col]:
                        # (P tensor Q)[col][row] = P[col // 2][row // 2] * Q[col % 2][row % 2]
                        entry = _mul(p[col // 2][row // 2], q[col % 2][row % 2])
                        total = (total[0] + rho[row][col] * entry[0], total[1] + rho[row][col] * entry[1])
            assert total[1] == 0, total
            result.append(total[0])
    return tuple(result)
