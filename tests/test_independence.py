import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellxtalk import bipartite
from bellxtalk.bipartite import BellLabel, ObservablePair, joint_closed_batch
from bellxtalk.independence import (
    ConditionKind,
    check_consistency,
    condition_x_plane,
    condition_y_plane,
    condition_z_plane,
    partner_angles,
    plane_condition,
    solve_independence,
)
from bellxtalk.observables import Observable, Plane, named_gate

PI = math.pi
HALF_PI = PI / 2


SUM, DIFF = ConditionKind.SUM, ConditionKind.ABS_DIFF
POLAR_SUM, POLAR_DIFF = (SUM, (HALF_PI, 3.0 * HALF_PI)), (DIFF, (HALF_PI,))
AZIMUTH_SUM = (SUM, (HALF_PI, 3.0 * HALF_PI, 5.0 * HALF_PI, 7.0 * HALF_PI))
AZIMUTH_DIFF = (DIFF, (HALF_PI, 3.0 * HALF_PI))

#: the conditions as tabulated by hand, the oracle for the sign rule: x=0 depends
#: on s only, z=0 on t only, and y=0 is a sum exactly when s != t
PLANE_TABLE = [
    (Plane.X_ZERO, 0, 0, POLAR_SUM), (Plane.X_ZERO, 0, 1, POLAR_SUM),
    (Plane.X_ZERO, 1, 0, POLAR_DIFF), (Plane.X_ZERO, 1, 1, POLAR_DIFF),
    (Plane.Y_ZERO, 0, 0, POLAR_DIFF), (Plane.Y_ZERO, 0, 1, POLAR_SUM),
    (Plane.Y_ZERO, 1, 0, POLAR_SUM), (Plane.Y_ZERO, 1, 1, POLAR_DIFF),
    (Plane.Z_ZERO, 0, 0, AZIMUTH_SUM), (Plane.Z_ZERO, 0, 1, AZIMUTH_DIFF),
    (Plane.Z_ZERO, 1, 0, AZIMUTH_SUM), (Plane.Z_ZERO, 1, 1, AZIMUTH_DIFF),
]


class TestPlaneConditionTable:
    @pytest.mark.parametrize("plane, s, t, expected", PLANE_TABLE,
                             ids=[f"{row[0].name}-{row[1]}{row[2]}" for row in PLANE_TABLE])
    def test_kind_and_exact_targets(self, plane, s, t, expected):
        cond = plane_condition(plane, BellLabel(s, t))
        assert (cond.plane, cond.label) == (plane, BellLabel(s, t))
        assert (cond.condition_kind, cond.target_values) == expected

    def test_generic_rejected(self):
        with pytest.raises(ValueError):
            plane_condition(Plane.GENERIC, BellLabel(0, 0))


class TestPredicates:
    def test_x_plane_examples(self):
        assert condition_x_plane(PI / 4, PI / 4, s=0)          # sum pi/2
        assert condition_x_plane(PI, HALF_PI, s=0)             # sum 3*pi/2
        assert not condition_x_plane(HALF_PI, HALF_PI, s=1)    # diff 0
        assert condition_x_plane(0.0, HALF_PI, s=1)            # diff pi/2

    def test_y_plane_examples(self):
        assert condition_y_plane(PI / 4, PI / 4, s=0, t=1)     # hadamard pair, sum pi/2
        assert condition_y_plane(HALF_PI, 0.0, s=1, t=1)       # sigma1 vs sigma3, diff pi/2
        assert not condition_y_plane(PI / 4, PI / 4, s=0, t=0)

    def test_z_plane_examples(self):
        assert condition_z_plane(0.0, HALF_PI, t=0)            # sigma1 vs sigma2, sum pi/2
        assert condition_z_plane(3 * HALF_PI, 0.0, t=1)        # diff 3*pi/2
        assert not condition_z_plane(PI, PI, t=0)              # sum 2*pi not in set

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            condition_x_plane(-0.1, 0.5, s=0)
        with pytest.raises(ValueError):
            condition_x_plane(0.1, PI + 0.2, s=0)
        with pytest.raises(ValueError):
            condition_z_plane(2 * PI + 0.1, 0.5, t=0)
        with pytest.raises(ValueError):
            condition_x_plane(0.1, 0.5, s=2)
        with pytest.raises(ValueError):
            condition_x_plane(0.1, 0.5, s=0, tol=0.0)

    @pytest.mark.parametrize("bad", [1.0, np.float64(1.0), 0.5], ids=repr)
    def test_bits_must_be_integers(self, bad):
        with pytest.raises(TypeError, match="s must be an integer 0 or 1"):
            condition_x_plane(0.5, 1.0, bad)
        with pytest.raises(TypeError, match="t must be an integer 0 or 1"):
            condition_y_plane(0.5, 1.0, 0, bad)

    def test_integer_bits_of_any_type_are_accepted(self):
        assert condition_x_plane(PI / 4, PI / 4, np.int64(0))  # sum pi/2
        assert condition_z_plane(HALF_PI, 0.0, True)          # diff pi/2

    def test_symmetric_under_swap(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            mu, nu = rng.uniform(0, PI, 2)
            s, t = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            assert condition_x_plane(mu, nu, s) == condition_x_plane(nu, mu, s)
            assert condition_y_plane(mu, nu, s, t) == condition_y_plane(nu, mu, s, t)
            eta, zeta = rng.uniform(0, 2 * PI, 2)
            assert condition_z_plane(eta, zeta, t) == condition_z_plane(zeta, eta, t)


class TestPartnerAngles:
    def test_sum_condition(self):
        partners = partner_angles(Plane.X_ZERO, BellLabel(0, 0), PI / 4)
        assert partners == pytest.approx((PI / 4,), abs=1e-15)  # 3*pi/2 - pi/4 > pi

    def test_diff_condition_both_sides(self):
        partners = partner_angles(Plane.Y_ZERO, BellLabel(1, 1), HALF_PI)
        assert partners == pytest.approx((0.0, PI), abs=1e-15)

    def test_z_plane_stays_in_domain(self):
        partners = partner_angles(Plane.Z_ZERO, BellLabel(0, 0), 0.0)
        assert partners == pytest.approx((HALF_PI, 3 * HALF_PI), abs=1e-15)
        # anchor pi: 3*pi/2 - pi and 5*pi/2 - pi stay inside [0, 2*pi)
        partners = partner_angles(Plane.Z_ZERO, BellLabel(0, 0), PI)
        assert partners == pytest.approx((HALF_PI, 3 * HALF_PI), abs=1e-14)

    def test_anchor_domain(self):
        with pytest.raises(ValueError):
            partner_angles(Plane.X_ZERO, BellLabel(0, 0), PI + 0.1)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), row=st.sampled_from(PLANE_TABLE))
    def test_partners_are_independent(self, data, row):
        plane, s, t, _ = row
        hi = 2 * PI if plane is Plane.Z_ZERO else PI
        edges = [0.0, math.ulp(0.0), PI / 4, HALF_PI, PI, 1.5 * PI, math.nextafter(hi, 0.0), hi]
        anchor = data.draw(st.sampled_from([a for a in edges if a <= hi]) | st.floats(0.0, hi))
        partners = partner_angles(plane, BellLabel(s, t), anchor)
        assert list(partners) == sorted(set(partners))
        assert all(0.0 <= p <= hi and p != 2 * PI for p in partners)
        for partner in partners:
            if plane is Plane.Z_ZERO:
                angles, holds = (HALF_PI, anchor, HALF_PI, partner), condition_z_plane(anchor, partner, t)
            else:
                azimuth = HALF_PI if plane is Plane.X_ZERO else 0.0
                angles = (anchor, azimuth, partner, azimuth)
                holds = (condition_x_plane(anchor, partner, s) if plane is Plane.X_ZERO
                         else condition_y_plane(anchor, partner, s, t))
            theta = joint_closed_batch(*(np.array([x]) for x in angles), np.array([s]), np.array([t]))[0, 0]
            assert abs(theta - 0.25) <= 1e-15, (anchor, partner)
            assert holds, (anchor, partner)


def _grid_iff_check(plane, label, points):
    """Predicate vs closed-form criterion over a plane grid; returns mismatches."""
    if plane is Plane.Z_ZERO:
        first = np.linspace(0.0, 2 * PI, points, endpoint=False)
        second = first
        mu = np.full(points * points, HALF_PI)
        nu = mu
        eta = np.repeat(first, points)
        zeta = np.tile(second, points)
        predicate = lambda i: condition_z_plane(eta[i], zeta[i], label.t)
    else:
        azimuth = HALF_PI if plane is Plane.X_ZERO else 0.0
        first = np.linspace(0.0, PI, points)
        mu = np.repeat(first, points)
        nu = np.tile(first, points)
        eta = np.full(points * points, azimuth)
        zeta = eta
        if plane is Plane.X_ZERO:
            predicate = lambda i: condition_x_plane(mu[i], nu[i], label.s)
        else:
            predicate = lambda i: condition_y_plane(mu[i], nu[i], label.s, label.t)
    total = points * points
    s = np.full(total, label.s, dtype=np.int64)
    t = np.full(total, label.t, dtype=np.int64)
    theta = joint_closed_batch(mu, eta, nu, zeta, s, t)[:, 0]
    criterion = np.abs(theta - 0.25) <= 1e-9
    return sum(1 for i in range(total) if predicate(i) != criterion[i])


class TestIffConsistency:
    @pytest.mark.parametrize("s", [0, 1])
    @pytest.mark.parametrize("t", [0, 1])
    @pytest.mark.parametrize("plane", [Plane.X_ZERO, Plane.Y_ZERO, Plane.Z_ZERO])
    def test_predicate_matches_theta_criterion(self, plane, s, t):
        # coarser grids here (steps still hit the target angles exactly); the
        # acceptance suite runs the full resolution
        points = 73 if plane is not Plane.Z_ZERO else 72
        assert _grid_iff_check(plane, BellLabel(s, t), points) == 0


class TestCheckConsistency:
    def test_plane_membership_enforced(self):
        pair = ObservablePair(Observable(1.0, 1.0), Observable(1.0, 1.0))
        with pytest.raises(ValueError):
            check_consistency(True, pair, BellLabel(0, 0), Plane.X_ZERO)

    def test_agreement_cases(self):
        # sigma1 vs sigma3 in the y=0 plane on the odd-odd label: both true
        pair = ObservablePair(named_gate("sigma1"), named_gate("sigma3"))
        label = BellLabel(1, 1)
        predicate = condition_y_plane(pair.a.mu, pair.b.mu, label.s, label.t)
        assert predicate
        assert check_consistency(predicate, pair, label, Plane.Y_ZERO)

        # z-plane sum condition at eta = zeta = pi/4
        pair = ObservablePair(Observable(HALF_PI, PI / 4), Observable(HALF_PI, PI / 4))
        label = BellLabel(0, 0)
        predicate = condition_z_plane(pair.a.eta, pair.b.eta, label.t)
        assert predicate
        assert check_consistency(predicate, pair, label, Plane.Z_ZERO)

    def test_detects_wrong_prediction(self):
        pair = ObservablePair(named_gate("sigma3"), named_gate("sigma3"))
        assert not check_consistency(True, pair, BellLabel(0, 0), Plane.Y_ZERO)


class TestSolveIndependence:
    def test_x_plane_sum_root(self):
        def path(nu):
            return ObservablePair(Observable(PI / 4, HALF_PI), Observable(nu, HALF_PI))

        roots = solve_independence(path, BellLabel(0, 0), 181, lo=0.0, hi=PI)
        assert len(roots) == 1
        assert roots[0].sweep_parameter == pytest.approx(PI / 4, abs=1e-8)
        assert abs(roots[0].theta_at_root - 0.25) <= 1e-10
        assert condition_x_plane(PI / 4, roots[0].sweep_parameter, 0, tol=1e-8)

    def test_x_plane_difference_root(self):
        def path(nu):
            return ObservablePair(Observable(0.0, HALF_PI), Observable(nu, HALF_PI))

        roots = solve_independence(path, BellLabel(1, 0), 160, lo=0.0, hi=PI)
        assert len(roots) == 1
        assert roots[0].sweep_parameter == pytest.approx(HALF_PI, abs=1e-8)
        assert condition_x_plane(0.0, roots[0].sweep_parameter, 1, tol=1e-8)

    def test_constant_path_has_no_roots(self):
        pair = ObservablePair(named_gate("sigma3"), named_gate("sigma3"))
        roots = solve_independence(lambda _x: pair, BellLabel(0, 0), 50)
        assert roots == []

    def test_on_grid_root_not_duplicated(self):
        def path(nu):
            return ObservablePair(Observable(PI / 4, HALF_PI), Observable(nu, HALF_PI))

        # grid point 1 of linspace(0, pi, 5) is pi/4: hits the root exactly
        roots = solve_independence(path, BellLabel(0, 0), 5, lo=0.0, hi=PI)
        assert len(roots) == 1
        assert roots[0].bracket_width == 0.0

    def test_two_roots_sorted(self):
        def path(nu):
            return ObservablePair(Observable(PI, HALF_PI), Observable(nu, HALF_PI))

        # mu = pi: sum hits 3*pi/2 at nu = pi/2 only; diff condition for s=1 at pi/2 too
        roots0 = solve_independence(path, BellLabel(0, 0), 200, lo=0.0, hi=PI)
        assert len(roots0) == 1
        assert roots0[0].sweep_parameter == pytest.approx(HALF_PI, abs=1e-8)

        def path_half(nu):
            return ObservablePair(Observable(HALF_PI, HALF_PI), Observable(nu, HALF_PI))

        # mu = pi/2, s=0: sum hits pi/2 at nu = 0 and 3*pi/2 at nu = pi
        roots = solve_independence(path_half, BellLabel(0, 0), 201, lo=0.0, hi=PI)
        assert len(roots) == 2
        assert roots[0].sweep_parameter <= roots[1].sweep_parameter
        assert roots[0].sweep_parameter == pytest.approx(0.0, abs=1e-8)
        assert roots[1].sweep_parameter == pytest.approx(PI, abs=1e-8)

    def test_grid_validation(self):
        pair = ObservablePair(named_gate("sigma3"), named_gate("sigma3"))
        with pytest.raises(ValueError):
            solve_independence(lambda _x: pair, BellLabel(0, 0), 1)

    def test_grid_costs_one_batch_call(self, monkeypatch):
        calls = {"point": 0, "batch": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bipartite, "joint_distribution_closed",
                            counted("point", bipartite.joint_distribution_closed))
        monkeypatch.setattr(bipartite, "joint_closed_batch", counted("batch", bipartite.joint_closed_batch))

        def path(nu):  # theta = cos^2(nu / 2) / 2 never reaches 1/4 below nu = pi/2
            return ObservablePair(named_gate("sigma3"), Observable(nu, 0.0))

        assert solve_independence(path, BellLabel(0, 0), 1000, lo=0.0, hi=1.0) == []
        assert calls == {"point": 0, "batch": 1}

    def test_bisection_costs_one_point_call_per_step(self, monkeypatch):
        calls = {"point": 0, "batch": 0, "path": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bipartite, "joint_distribution_closed",
                            counted("point", bipartite.joint_distribution_closed))
        monkeypatch.setattr(bipartite, "joint_closed_batch", counted("batch", bipartite.joint_closed_batch))

        def path(nu):  # theta = cos^2(nu / 2) / 2 crosses 1/4 once, at nu = pi/2: off the grid and its midpoints
            return ObservablePair(named_gate("sigma3"), Observable(nu, 0.0))

        roots = solve_independence(counted("path", path), BellLabel(0, 0), 10, lo=0.0, hi=3.0)
        assert [root.sweep_parameter for root in roots] == [pytest.approx(HALF_PI, abs=1e-9)]
        steps = calls["path"] - 10  # one pair per grid point, then one per bisection step
        assert steps > 1
        assert (calls["batch"], calls["point"]) == (1, steps)


def _sigma3_path(nu):
    return ObservablePair(named_gate("sigma3"), Observable(nu, 0.0))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_solver_rejects_bad_theta_tolerances(tol):
    # -1 used to find no root, and NaN none either, instead of refusing
    with pytest.raises(ValueError, match="theta tolerance must be positive and finite"):
        solve_independence(_sigma3_path, BellLabel(0, 0), 10, hi=3.0, theta_tol=tol)


@pytest.mark.parametrize("grid", [2.5, np.float64(3.7), 10.0, "10"])
def test_solver_refuses_non_integral_grid_and_iterations(grid):
    # int() used to truncate them: 2.5 ran a 2-point grid
    with pytest.raises(TypeError):
        solve_independence(_sigma3_path, BellLabel(0, 0), grid, hi=3.0)


@pytest.mark.parametrize("lo,hi", [("0", 3.0), (0.0, b"3"), (None, 3.0)])
def test_solver_refuses_text_bounds(lo, hi):
    # float() used to parse them: lo="0", hi=b"3" found the root at pi/2
    with pytest.raises(TypeError, match="must be a number"):
        solve_independence(_sigma3_path, BellLabel(0, 0), 10, lo=lo, hi=hi)


@pytest.mark.parametrize("lo,hi", [(math.nan, 3.0), (0.0, math.inf)])
def test_solver_refuses_non_finite_bounds(lo, hi):
    with pytest.raises(ValueError, match="lo and hi must be finite"):
        solve_independence(lambda x: _sigma3_path(1.0), BellLabel(0, 0), 10, lo=lo, hi=hi)


def test_bisection_stops_when_the_bracket_collapses():
    # theta jumps across 1/4 at x = 0.3 without reaching it: a sign change with no root
    calls = []

    def jump(x):
        calls.append(x)
        return _sigma3_path(1.0 if x < 0.3 else 2.0)

    assert solve_independence(jump, BellLabel(0, 0), 10) == []
    steps = calls[10:]
    assert 0.0 < max(steps) - min(steps) < 0.12
    assert len(steps) <= 64  # about 54 halvings from a 1/9-wide bracket to adjacent doubles


def test_nan_angle_tolerance_is_rejected():
    with pytest.raises(ValueError, match="angle tolerance must be positive"):
        condition_x_plane(PI / 4, PI / 4, s=0, tol=math.nan)


def test_infinite_angle_tolerance_is_rejected():
    with pytest.raises(ValueError, match="angle tolerance must be positive and finite"):
        condition_x_plane(PI / 4, 1.0, s=0, tol=math.inf)


TEXT_ANGLES = ["3", b"3", bytearray(b"3"), memoryview(b"3")]


@pytest.mark.parametrize("text", TEXT_ANGLES, ids=type)
def test_text_angles_are_type_errors(text):
    # float() would parse them: "3" gave two partners on z=0
    with pytest.raises(TypeError, match="anchor must be a number"):
        partner_angles(Plane.Z_ZERO, BellLabel(1, 1), text)
    with pytest.raises(TypeError, match="mu must be a number"):
        condition_x_plane(text, 0.5, s=0)
    with pytest.raises(TypeError, match="zeta must be a number"):
        condition_z_plane(0.5, text, t=1)


def test_numeric_angle_types_are_accepted():
    assert partner_angles(Plane.Z_ZERO, BellLabel(1, 1), 3) == partner_angles(Plane.Z_ZERO, BellLabel(1, 1), 3.0)
    assert condition_y_plane(np.float64(HALF_PI), 0, s=0, t=0) == condition_y_plane(HALF_PI, 0.0, s=0, t=0)
