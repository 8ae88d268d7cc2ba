import math

import numpy as np
import pytest

from bellxtalk import observables as obs
from bellxtalk.observables import (
    HADAMARD,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    NamedGate,
    Observable,
    Plane,
    classify_plane,
    direction,
    eigenvalue,
    eigenvector,
    matrix,
    named_gate,
    require_tolerance,
)

PI = math.pi


class TestObservableConstruction:
    def test_azimuth_normalized(self):
        assert Observable(1.0, 2 * PI + 0.5).eta == pytest.approx(0.5, abs=1e-12)
        assert Observable(1.0, -0.5).eta == pytest.approx(2 * PI - 0.5, abs=1e-12)
        assert Observable(1.0, 2 * PI).eta == 0.0

    def test_polar_domain_enforced(self):
        with pytest.raises(ValueError):
            Observable(-0.1, 0.0)
        with pytest.raises(ValueError):
            Observable(PI + 1e-9, 0.0)
        # boundary values are allowed
        Observable(0.0, 0.0)
        Observable(PI, 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Observable(math.nan, 0.0)
        with pytest.raises(ValueError):
            Observable(0.0, math.inf)

    @pytest.mark.parametrize("text", ["0.3", b"0.3", bytearray(b"0.3"), memoryview(b"0.3")], ids=type)
    def test_rejects_text_angles(self, text):
        # float() would parse them
        with pytest.raises(TypeError, match="mu must be a number"):
            Observable(text, 0.0)
        with pytest.raises(TypeError, match="eta must be a number"):
            Observable(0.3, text)

    def test_accepts_numeric_angle_types(self):
        assert Observable(1, np.float64(0.5)) == Observable(1.0, 0.5)


class TestNamedGates:
    # these four identities anchor the parameterization
    @pytest.mark.parametrize(
        "angles,expected",
        [
            ((0.0, PI / 2), SIGMA3),
            ((PI / 2, PI / 2), SIGMA2),
            ((PI / 2, 0.0), SIGMA1),
            ((PI / 4, 0.0), HADAMARD),
        ],
    )
    def test_matrix_identities(self, angles, expected):
        got = matrix(Observable(*angles))
        assert np.abs(got - expected).max() <= 1e-15

    def test_named_gate_matrices(self):
        assert np.abs(matrix(named_gate(NamedGate.SIGMA1)) - SIGMA1).max() <= 1e-15
        assert np.abs(matrix(named_gate("hadamard")) - HADAMARD).max() <= 1e-15
        assert np.array_equal(matrix(named_gate(NamedGate.SIGMA3)), np.diag([1.0, -1.0]).astype(complex))

    def test_named_gate_angles(self):
        gate = named_gate(NamedGate.SIGMA2)
        assert (gate.mu, gate.eta) == (PI / 2, PI / 2)


class TestMatrixProperties:
    def test_grid_hermitian_traceless_involutive(self):
        mus = np.linspace(0.0, PI, 100)
        etas = np.linspace(0.0, 2 * PI, 100, endpoint=False)
        worst_herm = worst_trace = worst_invol = 0.0
        eye = np.eye(2)
        for mu in mus:
            for eta in etas:
                m = matrix(Observable(mu, eta))
                worst_herm = max(worst_herm, np.abs(m - m.conj().T).max())
                worst_trace = max(worst_trace, abs(m[0, 0] + m[1, 1]))
                worst_invol = max(worst_invol, np.abs(m @ m - eye).max())
        assert worst_herm <= 1e-14
        assert worst_trace <= 1e-14
        assert worst_invol <= 1e-13

    def test_eigenframe_on_grid(self):
        worst_eig = worst_orth = worst_norm = 0.0
        for mu in np.linspace(0.0, PI, 40):
            for eta in np.linspace(0.0, 2 * PI, 40, endpoint=False):
                o = Observable(mu, eta)
                m = matrix(o)
                u0, u1 = eigenvector(o, 0), eigenvector(o, 1)
                worst_eig = max(
                    worst_eig,
                    np.abs(m @ u0 - eigenvalue(0) * u0).max(),
                    np.abs(m @ u1 - eigenvalue(1) * u1).max(),
                )
                worst_orth = max(worst_orth, abs(np.vdot(u0, u1)))
                worst_norm = max(
                    worst_norm,
                    abs(np.linalg.norm(u0) - 1.0),
                    abs(np.linalg.norm(u1) - 1.0),
                )
        assert worst_eig <= 1e-13
        assert worst_orth <= 1e-14
        assert worst_norm <= 1e-14

    def test_pole_azimuth_is_global_phase_only(self):
        # at mu=0 the matrix is azimuth-independent (sigma3 for every eta)
        reference = matrix(Observable(0.0, 0.0))
        for eta in (0.1, 1.0, 2.5, 4.0, 6.2):
            assert np.array_equal(matrix(Observable(0.0, eta)), reference)

    def test_sigma3_eigenframe(self):
        o = Observable(0.0, 0.0)
        assert np.array_equal(eigenvector(o, 0), [1, 0])
        assert np.array_equal(eigenvector(o, 1), [0, 1])

    def test_sigma1_eigenvector(self):
        # oracle check: sigma1 u = u for the symmetric combination
        u = eigenvector(Observable(PI / 2, 0.0), 0)
        assert np.allclose(u, np.array([1, 1]) / math.sqrt(2), atol=1e-15)
        assert np.abs(SIGMA1 @ u - u).max() <= 1e-15

    def test_eigen_index_validation(self):
        with pytest.raises(ValueError):
            eigenvector(Observable(0.5, 0.5), 2)
        with pytest.raises(ValueError):
            eigenvalue(-1)

    @pytest.mark.parametrize("k", [1.0, np.float64(0.0), "1", None])
    def test_non_integral_eigen_index_is_a_type_error(self, k):
        # eigenvalue(1.0) used to return -1.0 and eigenvector a tuple-index TypeError
        with pytest.raises(TypeError, match="eigenvector index must be an integer 0 or 1"):
            eigenvalue(k)
        with pytest.raises(TypeError, match="eigenvector index must be an integer 0 or 1"):
            eigenvector(Observable(0.5, 0.5), k)


class TestEigenvalue:
    def test_spectrum(self):
        assert eigenvalue(0) == 1.0
        assert eigenvalue(1) == -1.0
        assert eigenvalue(0) * eigenvalue(1) == -1.0


class TestDirection:
    @pytest.mark.parametrize(
        "angles,expected",
        [
            ((0.0, 1.3), (0.0, 0.0, 1.0)),
            ((PI / 2, 0.0), (1.0, 0.0, 0.0)),
            ((PI / 2, PI / 2), (0.0, 1.0, 0.0)),
        ],
    )
    def test_axes(self, angles, expected):
        d = direction(Observable(*angles))
        assert np.allclose(d.as_array(), expected, atol=1e-15)

    def test_unit_norm_and_reconstruction(self):
        for mu in np.linspace(0.0, PI, 20):
            for eta in np.linspace(0.0, 2 * PI, 20, endpoint=False):
                o = Observable(mu, eta)
                d = direction(o)
                assert abs(d.x**2 + d.y**2 + d.z**2 - 1.0) <= 1e-12
                rebuilt = d.x * SIGMA1 + d.y * SIGMA2 + d.z * SIGMA3
                assert np.abs(rebuilt - matrix(o)).max() <= 1e-13


class TestClassifyPlane:
    def test_single_plane_examples(self):
        assert Plane.X_ZERO in classify_plane(Observable(PI / 3, PI / 2), 1e-9)
        assert Plane.Y_ZERO in classify_plane(Observable(PI / 4, 0.0), 1e-9)
        assert Plane.Z_ZERO in classify_plane(Observable(PI / 2, 1.0), 1e-9)

    def test_generic(self):
        cls = classify_plane(Observable(1.0, 1.0), 1e-9)
        assert cls.is_generic
        assert cls.planes == (Plane.GENERIC,)

    def test_axis_direction_reports_both_planes(self):
        # sigma2 direction (0, 1, 0) lies in x=0 and z=0 simultaneously
        cls = classify_plane(Observable(PI / 2, PI / 2), 1e-9)
        assert cls.planes == (Plane.X_ZERO, Plane.Z_ZERO)

    def test_tolerance_recorded_and_validated(self):
        assert classify_plane(Observable(1.0, 1.0), 1e-6).tolerance == 1e-6
        with pytest.raises(ValueError):
            classify_plane(Observable(1.0, 1.0), 0.0)


def test_normalize_azimuth_edge_cases():
    assert obs.normalize_azimuth(0.0) == 0.0
    assert obs.normalize_azimuth(2 * PI) == 0.0
    assert obs.normalize_azimuth(-1e-18) in (0.0, 2 * PI - 1e-18)
    assert 0.0 <= obs.normalize_azimuth(-1e-18) < 2 * PI
    assert 0.0 <= obs.normalize_azimuth(123.456) < 2 * PI


@pytest.mark.parametrize("eta", [-0.0, 0.0, -2 * PI, 2 * PI, -4 * PI, 4 * PI, -6 * PI], ids=repr)
def test_a_reduced_azimuth_of_zero_is_positive_zero(eta):
    # fmod(-2*pi, 2*pi) is -0.0, which would print as eta=-0
    for reduced in (obs.normalize_azimuth(eta), Observable(1.0, eta).eta):
        assert reduced == 0.0 and math.copysign(1.0, reduced) == 1.0


@pytest.mark.parametrize("eta", [-1.0, -PI, -7.5, -2 * PI + 1e-9, 5 * PI, -1e-18, 1e-300, -1e300])
def test_every_reduced_azimuth_has_a_clear_sign_bit(eta):
    reduced = obs.normalize_azimuth(eta)
    assert 0.0 <= reduced < 2 * PI and math.copysign(1.0, reduced) == 1.0
    assert Observable(0.5, eta).eta == reduced


def test_classify_plane_rejects_nan_tolerance():
    with pytest.raises(ValueError, match="tolerance must be positive"):
        classify_plane(Observable(1.0, 1.0), math.nan)


def test_classify_plane_rejects_infinite_tolerance():
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        classify_plane(Observable(1.0, 1.0), math.inf)


@pytest.mark.parametrize("tol", [0.0, -1.0, -0.0, math.nan, math.inf, -math.inf])
def test_require_tolerance_rejects_and_names(tol):
    with pytest.raises(ValueError, match="^tolerance must be positive and finite$"):
        require_tolerance(tol)
    with pytest.raises(ValueError, match="^angle tolerance must be positive and finite$"):
        require_tolerance(tol, "angle tolerance")


@pytest.mark.parametrize("tol", [5e-324, 1e-12, 1.0, 1e308])
def test_require_tolerance_accepts_positive_finite(tol):
    assert require_tolerance(tol) is None
