"""The probability routes against exact rational cells (tests/exact.py).

At rational half-tangents every cell of the Born rule is an exact Fraction.
The floating routes, run at the rounded float angles, must land within
1e-15 of it, an absolute bound: a cell near zero has no relative accuracy.
And at rational points that satisfy a plane condition of the independence
rule, p00 is exactly 1/4: the condition is an identity, not a tolerance.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from bellxtalk import _verify, independence
from bellxtalk.bipartite import (
    BellLabel, ObservablePair, bell_state_row, joint_closed_batch, joint_distribution_amplitude,
    joint_distribution_bruteforce, joint_distribution_closed,
)
from bellxtalk.observables import Observable, Plane

LABELS = [(s, t) for s in (0, 1) for t in (0, 1)]
ABS_TOL = Fraction(1e-15)

polar_tangents = st.fractions(min_value=0, max_value=1000, max_denominator=1000)
azimuth_tangents = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


def _gap(got, want) -> Fraction:
    """Largest exact distance between float cells and exact cells."""
    return max(abs(Fraction(float(g)) - w) for g, w in zip(got, want, strict=True))


@settings(max_examples=150, deadline=None)
@given(polar_tangents, azimuth_tangents, polar_tangents, azimuth_tangents)
def test_every_route_matches_the_exact_cells(mu_u, eta_u, nu_u, zeta_u):
    a = exact.half_tangent(mu_u), exact.half_tangent(eta_u)
    b = exact.half_tangent(nu_u), exact.half_tangent(zeta_u)
    angles = exact.polar_value(mu_u), exact.azimuth_value(eta_u), exact.polar_value(nu_u), exact.azimuth_value(zeta_u)
    pair = ObservablePair(Observable(*angles[:2]), Observable(*angles[2:]))
    columns = [np.full(4, angle) for angle in angles]
    s_bits, t_bits = np.array(LABELS).T
    batches = {
        "closed batch": joint_closed_batch(*columns, s_bits, t_bits),
        "closed variant batch": _verify.joint_closed_alt_batch(*columns, s_bits, t_bits),
        "amplitude batch": _verify.joint_amplitude_batch(*columns, s_bits, t_bits),
        "brute batch": _verify.joint_bruteforce_batch(*columns, _verify.bell_state_batch(s_bits, t_bits)),
    }
    for row, (s, t) in enumerate(LABELS):
        want = exact.cells(a, b, s, t)
        assert sum(want) == 1
        label = BellLabel(s, t)
        routes = {
            "closed": joint_distribution_closed(pair, label).p,
            "amplitude": joint_distribution_amplitude(pair, label).p,
            "brute": joint_distribution_bruteforce(pair, bell_state_row(label)).p,
            **{name: batch[row] for name, batch in batches.items()},
        }
        for name, got in routes.items():
            assert _gap(got, want) <= ABS_TOL, (name, s, t)


def _tangent_of_half(target: float) -> int:
    """tan(target / 2) for an odd multiple of pi/2: 1 or -1, exactly."""
    multiple = round(target / (math.pi / 2))
    assert multiple % 2 == 1 and math.isclose(multiple * math.pi / 2, target)
    return 1 if multiple % 4 == 1 else -1


def _partners(is_sum: bool, u: Fraction, tangent: int) -> list[Fraction]:
    """Half-tangents v of the angles y with x + y (or x - y, either sign) at the target, for x = 2 atan(u).

    tan((x + y)/2) = tangent gives v = (tangent - u)/(1 + tangent u), and
    tan((y - x)/2) = +-tangent gives v = (u +- tangent)/(1 -+ tangent u).
    """
    pairs = [(tangent - u, 1 + tangent * u)] if is_sum else [(u + tangent, 1 - tangent * u),
                                                              (u - tangent, 1 + tangent * u)]
    return [numerator / denominator for numerator, denominator in pairs if denominator]


#: each plane's fixed exact angles and the roles of the two varied ones: (polar, azimuth) of A and of B
PLANE_POINTS = {
    Plane.X_ZERO: lambda x, y: ((x, exact.ANGLE_HALF_PI), (y, exact.ANGLE_HALF_PI)),
    Plane.Y_ZERO: lambda x, y: ((x, exact.ANGLE_ZERO), (y, exact.ANGLE_ZERO)),
    Plane.Z_ZERO: lambda x, y: ((exact.ANGLE_HALF_PI, x), (exact.ANGLE_HALF_PI, y)),
}


@pytest.mark.parametrize("s,t", LABELS)
@pytest.mark.parametrize("plane", list(PLANE_POINTS), ids=lambda plane: plane.name)
@settings(max_examples=40, deadline=None)
@given(u=st.fractions(min_value=-50, max_value=50, max_denominator=50))
def test_each_plane_condition_gives_p00_of_exactly_one_quarter(plane, s, t, u):
    is_sum, targets, turns = independence._rule(plane, s, t)
    polar = turns == 1  # x0 and y0 pair the polar angles, z0 the azimuths
    value = exact.polar_value if polar else exact.azimuth_value
    if polar:
        u = abs(u)
    checked = 0
    for target in targets:
        for v in _partners(is_sum, u, _tangent_of_half(target)):
            if polar and v < 0:  # the partner polar angle would lie outside [0, pi)
                continue
            x, y = value(u), value(v)
            # the float angles meet one of the rule's targets, up to their rounding
            reached = x + y if is_sum else abs(x - y)
            assert min(abs(reached - goal) for goal in targets) <= 1e-12
            a, b = PLANE_POINTS[plane](exact.half_tangent(u), exact.half_tangent(v))
            assert exact.cells(a, b, s, t) == (Fraction(1, 4),) * 4  # p00 = 1/4, and so every cell
            checked += 1
    assert checked
