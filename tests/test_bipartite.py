import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bellxtalk import _kernels, bipartite, cli
from bellxtalk.bipartite import (
    INDEX_ORDER,
    BellLabel,
    InternalConsistencyError,
    JointDistribution,
    ObservablePair,
    bell_state,
    bell_state_batch,
    commutator_norm,
    commutator_norms,
    has_equal_marginals,
    is_klein_symmetric,
    joint_amplitude_batch,
    joint_bruteforce_batch,
    joint_closed_alt_batch,
    joint_closed_batch,
    joint_distribution_amplitude,
    joint_distribution_bruteforce,
    joint_distribution_closed,
    lift_first,
    lift_second,
    marginals,
    outcome_frame,
)
from bellxtalk.observables import IDENTITY2, SIGMA1, SIGMA2, SIGMA3, Observable, matrix, named_gate

PI = math.pi
SQRT_HALF = 1.0 / math.sqrt(2.0)

# brute-force Born-rule oracle value for (mu=pi/3, eta=0; nu=pi/4, zeta=0) on
# label (0,0); equals 0.5*cos(pi/24)^2 on the diagonal
ORACLE_PI3_PI4 = (0.4914814565722671, 0.008518543427732917, 0.008518543427732912, 0.4914814565722671)


ENTRY = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def _random_angles(seed, rows):
    rng = np.random.default_rng(seed)
    return tuple(rng.uniform(0, hi, rows) for hi in (PI, 2 * PI, PI, 2 * PI))


def pair_of(mu, eta, nu, zeta):
    return ObservablePair(Observable(mu, eta), Observable(nu, zeta))


class TestBellStates:
    @pytest.mark.parametrize(
        "s,t,expected",
        [
            (0, 0, (SQRT_HALF, 0, 0, SQRT_HALF)),
            (1, 0, (SQRT_HALF, 0, 0, -SQRT_HALF)),
            (0, 1, (0, SQRT_HALF, SQRT_HALF, 0)),
            (1, 1, (0, SQRT_HALF, -SQRT_HALF, 0)),
        ],
    )
    def test_vectors(self, s, t, expected):
        assert np.allclose(bell_state(BellLabel(s, t)), expected, atol=1e-16)

    def test_unit_norm(self):
        for s in (0, 1):
            for t in (0, 1):
                assert np.linalg.norm(bell_state(BellLabel(s, t))) == pytest.approx(1.0, abs=1e-15)

    def test_batch_matches_scalar(self):
        s = np.array([0, 1, 0, 1])
        t = np.array([0, 0, 1, 1])
        batch = bell_state_batch(s, t)
        for i in range(4):
            assert np.array_equal(batch[i], bell_state(BellLabel(int(s[i]), int(t[i]))))

    def test_label_validation(self):
        with pytest.raises(ValueError):
            BellLabel(2, 0)
        with pytest.raises(ValueError):
            BellLabel(0, -1)

    @pytest.mark.parametrize("bad", [1.0, np.float64(1.0), 0.5, "1", None], ids=repr)
    def test_label_bits_must_be_integers(self, bad):
        with pytest.raises(TypeError, match="bell label bit s must be an integer 0 or 1"):
            BellLabel(bad, 0)
        with pytest.raises(TypeError, match="bell label bit t must be an integer 0 or 1"):
            BellLabel(0, bad)

    def test_label_stores_plain_ints(self):
        label = BellLabel(np.int64(1), True)
        assert (label.s, label.t) == (1, 1)
        assert type(label.s) is int and type(label.t) is int

    def test_row_form_matches_the_array(self):
        for s in (0, 1):
            for t in (0, 1):
                row = bipartite.bell_state_row(BellLabel(s, t))
                assert len(row) == 4 and all(type(x) is float for x in row)
                assert np.array_equal(np.array(row, dtype=complex), bell_state(BellLabel(s, t)))

    @pytest.mark.parametrize("s,t,name", [([2], [0], "s"), ([0], [2], "t"), ([0], [5], "t"), ([0.5], [0], "s")])
    def test_batch_rejects_bits_outside_zero_one(self, s, t, name):
        with pytest.raises(ValueError, match=f"{name} entries must be 0 or 1"):
            bell_state_batch(s, t)

    def test_batch_rejects_text_bits_and_length_mismatch(self):
        with pytest.raises(TypeError, match="s must hold numbers"):
            bell_state_batch(["1"], [0])
        with pytest.raises(ValueError, match="t must be a 1-d array of length 2"):
            bell_state_batch([0, 1], [0])


class TestLifts:
    def test_hand_expanded_kronecker(self):
        assert np.array_equal(lift_first(SIGMA3), np.diag([1, 1, -1, -1]).astype(complex))
        assert np.array_equal(lift_second(SIGMA3), np.diag([1, -1, 1, -1]).astype(complex))
        assert np.array_equal(lift_first(IDENTITY2), np.eye(4))

    def test_lift_spectrum(self):
        # lifted observables square to the identity: spectrum {1, -1}
        for m in (SIGMA1, SIGMA2, SIGMA3):
            lifted = lift_first(m)
            assert np.abs(lifted @ lifted - np.eye(4)).max() <= 1e-15
            assert np.abs(lifted - lifted.conj().T).max() == 0.0

    def test_stack_lifts_equal_kron_of_each_row(self):
        rng = np.random.default_rng(29)
        stack = rng.normal(size=(2, 2, 9)) + 1j * rng.normal(size=(2, 2, 9))
        first, second = lift_first(stack), lift_second(stack)
        assert first.shape == second.shape == (4, 4, 9)
        for n in range(9):
            assert np.array_equal(first[:, :, n], np.kron(stack[:, :, n], IDENTITY2))
            assert np.array_equal(second[:, :, n], np.kron(IDENTITY2, stack[:, :, n]))

    @pytest.mark.parametrize("bad", [[["1", "0"], ["0", "-1"]], np.array([[b"1", b"0"], [b"0", b"1"]]),
                                     [[1, None], [0, 1]]], ids=repr)
    def test_rejects_text_and_none(self, bad):
        for lift in (lift_first, lift_second):
            with pytest.raises(TypeError, match="matrix must hold numbers"):
                lift(bad)

    def test_rejects_wrong_shape_and_non_finite(self):
        bad = [np.eye(3), np.zeros(4), np.zeros((2, 3, 5)), np.array([[np.nan, 0], [0, 1]]),
               np.array([[1, np.inf], [0, 1]]), np.full((2, 2, 3), complex(0, np.inf))]
        for lift in (lift_first, lift_second):
            for m in bad:
                with pytest.raises(ValueError):
                    lift(m)

    @settings(max_examples=200, deadline=None)
    @given(
        stacks=arrays(np.complex128, st.integers(1, 8).map(lambda n: (2, 2, 2, n)), elements=ENTRY),
        alpha=ENTRY,
        beta=ENTRY,
    )
    def test_lifts_are_linear_on_stacks(self, stacks, alpha, beta):
        # commutator_norms expands each row in the lifted matrix units, which is exact only for linear lifts
        x, y = stacks
        scale = abs(alpha) * np.abs(x).max() + abs(beta) * np.abs(y).max()
        for lift in (lift_first, lift_second):
            combined = lift(alpha * x + beta * y)
            assert combined.shape == (4, 4, x.shape[2])
            assert np.abs(combined - (alpha * lift(x) + beta * lift(y))).max() <= 1e-14 * scale


class TestOutcomeFrame:
    def test_sigma3_pair_is_computational_basis(self):
        frame = outcome_frame(pair_of(0, 0, 0, 0))
        assert np.allclose(frame.vectors, np.eye(4), atol=1e-16)

    def test_gram_matrix_identity(self):
        frame = outcome_frame(ObservablePair(named_gate("hadamard"), named_gate("sigma2")))
        gram = frame.vectors.conj() @ frame.vectors.T
        assert np.abs(gram - np.eye(4)).max() <= 1e-13

    def test_members_are_joint_eigenvectors(self):
        pair = ObservablePair(named_gate("sigma1"), named_gate("sigma2"))
        lift_a = lift_first(matrix(pair.a))
        lift_b = lift_second(matrix(pair.b))
        frame = outcome_frame(pair)
        for (k, ell) in INDEX_ORDER:
            v = frame.vector(k, ell)
            assert np.abs(lift_a @ v - (1.0 if k == 0 else -1.0) * v).max() <= 1e-13
            assert np.abs(lift_b @ v - (1.0 if ell == 0 else -1.0) * v).max() <= 1e-13


class TestJointDistributionType:
    def test_clamps_numeric_undershoot(self):
        dist = JointDistribution((-1e-16, 0.5, 0.25, 0.25))
        assert dist.p[0] == 0.0
        assert math.copysign(1.0, JointDistribution((-0.0, 0.5, 0.25, 0.25)).p[0]) == 1.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            JointDistribution((0.5, 0.5, 0.1, -0.1))
        with pytest.raises(ValueError):
            JointDistribution((0.3, 0.3, 0.3, 0.3))  # sums to 1.2
        with pytest.raises(ValueError, match="^probability nan lies outside"):
            JointDistribution((math.nan, 0.5, 0.25, 0.25))
        for bad in (math.inf, -math.inf, 1.0 + 2e-12, -2e-12):
            with pytest.raises(ValueError, match=f"^probability {bad} lies outside"):
                JointDistribution((bad, 0.5, 0.25, 0.25))

    def test_clamps_slight_overshoot_to_one(self):
        dist = JointDistribution((1.0 + 5e-13, 0.0, 0.0, 0.0))
        assert dist.p == (1.0, 0.0, 0.0, 0.0)

    def test_accessor(self):
        dist = JointDistribution((0.1, 0.2, 0.3, 0.4))
        assert dist.probability(0, 1) == 0.2
        assert dist.probability(1, 0) == 0.3
        with pytest.raises(ValueError):
            dist.probability(2, 0)

    @pytest.mark.parametrize("k,ell", [(1.0, 0), (0, 1.0), (np.float64(1.0), 0), ("1", 0)])
    def test_accessor_refuses_non_integral_indices(self, k, ell):
        # a float index used to fail on the tuple index, with no word of which index was wrong
        with pytest.raises(TypeError, match="outcome index . must be an integer 0 or 1"):
            JointDistribution((0.1, 0.2, 0.3, 0.4)).probability(k, ell)

    @pytest.mark.parametrize("p", [("0.25",) * 4, (b"0.25",) * 4, (0.25, 0.25, 0.25, "0.25"),
                                   np.array(["0.25"] * 4), "1000"], ids=repr)
    def test_text_probabilities_are_type_errors(self, p):
        # float() would parse them
        with pytest.raises(TypeError, match="probabilities must be numbers"):
            JointDistribution(p)


class TestBruteForce:
    def test_correlated_basis_state(self):
        dist = joint_distribution_bruteforce(pair_of(0, 0, 0, 0), bell_state(BellLabel(0, 0)))
        assert np.allclose(dist.p, (0.5, 0, 0, 0.5), atol=1e-15)

    def test_deterministic_product_state(self):
        ket01 = np.array([0, 1, 0, 0], dtype=complex)
        dist = joint_distribution_bruteforce(pair_of(0, 0, 0, 0), ket01)
        assert dist.p == (0.0, 1.0, 0.0, 0.0)

    def test_oracle_point(self):
        dist = joint_distribution_bruteforce(pair_of(PI / 3, 0, PI / 4, 0), bell_state(BellLabel(0, 0)))
        assert np.abs(np.array(dist.p) - ORACLE_PI3_PI4).max() <= 1e-15
        assert dist.p[0] == pytest.approx(0.5 * math.cos(PI / 24) ** 2, abs=1e-15)

    def test_rejects_unnormalized_state(self):
        bad = [
            np.array([1, 0, 0, 1], dtype=complex),
            np.array([np.nan, 0, 0, 1], dtype=complex),
            np.array([1, 0, np.inf, 0], dtype=complex),
            np.array([1, complex(0, -np.inf), 0, 0]),
        ]
        for psi in bad:
            with pytest.raises(ValueError):
                joint_distribution_bruteforce(pair_of(0, 0, 0, 0), psi)

    def test_rejects_wrong_shapes(self):
        bad = [
            np.array([1, 0], dtype=complex),
            np.array([1, 0, 0], dtype=complex),
            np.zeros(8, dtype=complex),
            bell_state(BellLabel(0, 0))[np.newaxis, :],
            np.eye(4, dtype=complex),
        ]
        for psi in bad:
            with pytest.raises(ValueError, match="length 4"):
                joint_distribution_bruteforce(pair_of(0, 0, 0, 0), psi)

    @pytest.mark.parametrize("psi", [
        ["0.7071067811865475", "0", "0", "0.7071067811865475"],
        (SQRT_HALF, 0, b"0", SQRT_HALF),
        np.array(["1", "0", "0", "0"]),
        [SQRT_HALF, None, 0, SQRT_HALF],
        None,
        "1000",
        b"1000",
    ], ids=repr)
    def test_rejects_text_and_none(self, psi):
        with pytest.raises(TypeError, match="psi must hold numbers"):
            joint_distribution_bruteforce(pair_of(0.3, 1.0, 2.0, 4.0), psi)

    def test_takes_lists_tuples_and_arrays_alike(self):
        pair = pair_of(0.4, 1.3, 2.1, 5.0)
        expected = joint_distribution_bruteforce(pair, bell_state(BellLabel(1, 0)))
        for psi in ([SQRT_HALF, 0, 0, -SQRT_HALF], (SQRT_HALF, 0.0, 0j, -SQRT_HALF),
                    bipartite.bell_state_row(BellLabel(1, 0)), np.array([SQRT_HALF, 0, 0, -SQRT_HALF])):
            assert joint_distribution_bruteforce(pair, psi) == expected

    def test_one_kernel_call_per_pair(self, monkeypatch):
        calls = []
        kernel = _kernels.bruteforce_joint

        def counted(*args):
            calls.append(len(args[0]))
            return kernel(*args)

        monkeypatch.setattr(_kernels, "bruteforce_joint", counted)
        joint_distribution_bruteforce(pair_of(0.4, 1.3, 2.1, 5.0), bell_state(BellLabel(1, 0)))
        assert calls == [1]


@pytest.mark.parametrize("name, route, state", [
    ("amplitude_joint", joint_distribution_amplitude, lambda label: label),
    ("bruteforce_joint", joint_distribution_bruteforce, bell_state),
], ids=["amplitude", "brute"])
def test_point_route_takes_an_ndarray_row_from_a_patched_kernel(monkeypatch, name, route, state):
    kernel = getattr(_kernels, name)
    pair, label = pair_of(0.4, 1.3, 2.1, 5.0), BellLabel(1, 1)
    expected = route(pair, state(label))
    monkeypatch.setattr(_kernels, name, lambda *args: np.array(kernel(*args)))
    assert route(pair, state(label)) == expected


class TestAmplitudeMethod:
    def test_matches_brute_on_basis_pair(self):
        dist = joint_distribution_amplitude(pair_of(0, 0, 0, 0), BellLabel(0, 0))
        assert np.allclose(dist.p, (0.5, 0, 0, 0.5), atol=1e-15)

    def test_sigma2_pair_anticorrelated(self):
        # amplitude 0.5*|e^{-i pi}/2 + 1/2|^2 = 0 on the diagonal
        dist = joint_distribution_amplitude(pair_of(PI / 2, PI / 2, PI / 2, PI / 2), BellLabel(0, 0))
        assert dist.p[0] <= 1e-15
        assert dist.p[3] <= 1e-15
        assert dist.p[1] == pytest.approx(0.5, abs=1e-15)

    def test_oracle_point(self):
        dist = joint_distribution_amplitude(pair_of(PI / 3, 0, PI / 4, 0), BellLabel(0, 0))
        assert np.abs(np.array(dist.p) - ORACLE_PI3_PI4).max() <= 1e-14


class TestClosedMethod:
    def test_x_plane_independence_point(self):
        dist = joint_distribution_closed(pair_of(PI / 4, PI / 2, PI / 4, PI / 2), BellLabel(0, 0))
        assert np.abs(np.array(dist.p) - 0.25).max() <= 1e-15

    def test_z_plane_independence_point(self):
        dist = joint_distribution_closed(pair_of(PI / 2, 0, PI / 2, PI / 2), BellLabel(0, 0))
        assert np.abs(np.array(dist.p) - 0.25).max() <= 1e-15

    def test_oracle_point(self):
        dist = joint_distribution_closed(pair_of(PI / 3, 0, PI / 4, 0), BellLabel(0, 0))
        assert np.abs(np.array(dist.p) - ORACLE_PI3_PI4).max() <= 1e-14


class TestThreeWayAgreement:
    def test_randomized(self):
        rng = np.random.default_rng(7)
        n = 2000
        mu = rng.uniform(0, PI, n)
        eta = rng.uniform(0, 2 * PI, n)
        nu = rng.uniform(0, PI, n)
        zeta = rng.uniform(0, 2 * PI, n)
        s = rng.integers(0, 2, n)
        t = rng.integers(0, 2, n)
        closed = joint_closed_batch(mu, eta, nu, zeta, s, t)
        amp = joint_amplitude_batch(mu, eta, nu, zeta, s, t)
        brute = joint_bruteforce_batch(mu, eta, nu, zeta, bell_state_batch(s, t))
        assert np.abs(closed - amp).max() <= 1e-12
        assert np.abs(closed - brute).max() <= 1e-12
        assert np.abs(amp - brute).max() <= 1e-12

    def test_scalar_matches_batch(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            mu, nu = rng.uniform(0, PI, 2)
            eta, zeta = rng.uniform(0, 2 * PI, 2)
            s, t = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            pair, label = pair_of(mu, eta, nu, zeta), BellLabel(s, t)
            row = joint_closed_batch(
                np.array([mu]), np.array([eta]), np.array([nu]), np.array([zeta]),
                np.array([s]), np.array([t]),
            )[0]
            assert np.array_equal(np.array(joint_distribution_closed(pair, label).p), row)
            brute_scalar = joint_distribution_bruteforce(pair, bell_state(label))
            brute_row = joint_bruteforce_batch(
                np.array([mu]), np.array([eta]), np.array([nu]), np.array([zeta]),
                bell_state(label)[np.newaxis, :],
            )[0]
            # one pair evaluates brute force with cmath, whose complex product
            # rounds without FMA: the rows agree within an ulp or two, not bit for bit
            assert np.abs(np.array(brute_scalar.p) - brute_row).max() <= 1e-15


class TestMarginals:
    def test_row_and_column_sums(self):
        (pa, pb) = marginals(JointDistribution((0.5, 0.0, 0.0, 0.5)))
        assert pa == (0.5, 0.5)
        assert pb == (0.5, 0.5)
        (pa, pb) = marginals(JointDistribution((1.0, 0.0, 0.0, 0.0)))
        assert pa == (1.0, 0.0)
        assert pb == (1.0, 0.0)

    def test_each_side_sums_to_one(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            dist = JointDistribution(tuple(rng.dirichlet(np.ones(4))))
            (pa, pb) = marginals(dist)
            assert pa[0] + pa[1] == pytest.approx(1.0, abs=1e-12)
            assert pb[0] + pb[1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("check", [is_klein_symmetric, has_equal_marginals], ids=lambda f: f.__name__)
def test_symmetry_checks_reject_bad_tolerances(check, tol):
    # they used to answer False instead of refusing the tolerance
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        check(JointDistribution((0.25, 0.25, 0.25, 0.25)), tol)


class TestBellStateInvariants:
    def test_klein_symmetry_and_uniform_marginals(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            pair = pair_of(rng.uniform(0, PI), rng.uniform(0, 2 * PI), rng.uniform(0, PI), rng.uniform(0, 2 * PI))
            label = BellLabel(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            dist = joint_distribution_bruteforce(pair, bell_state(label))
            assert is_klein_symmetric(dist, tol=1e-12)
            assert has_equal_marginals(dist, tol=1e-12)
            (pa0, pa1), (pb0, pb1) = marginals(dist)
            assert max(abs(pa0 - 0.5), abs(pa1 - 0.5), abs(pb0 - 0.5), abs(pb1 - 0.5)) <= 1e-12

    def test_variant_closed_forms_agree(self):
        rng = np.random.default_rng(13)
        n = 2000
        mu = rng.uniform(0, PI, n)
        eta = rng.uniform(0, 2 * PI, n)
        nu = rng.uniform(0, PI, n)
        zeta = rng.uniform(0, 2 * PI, n)
        for s_bit in (0, 1):
            for t_bit in (0, 1):
                s = np.full(n, s_bit, dtype=np.int64)
                t = np.full(n, t_bit, dtype=np.int64)
                primary = joint_closed_batch(mu, eta, nu, zeta, s, t, check=False)
                alternate = joint_closed_alt_batch(mu, eta, nu, zeta, s, t)
                assert np.abs(primary - alternate).max() <= 1e-12


# poles, 2*pi, plane boundaries, the last doubles below pi and 2*pi, and what
# --deg turns 90/180/270/360 into (duplicates collapse)
EDGE_POLAR = sorted({0.0, PI / 4, PI / 2, PI, math.nextafter(PI, 0.0), math.radians(90), math.radians(180)})
EDGE_AZIMUTH = sorted({0.0, PI / 2, PI, 3 * PI / 2, 2 * PI, math.nextafter(2 * PI, 0.0),
                       math.radians(90), math.radians(180), math.radians(270), math.radians(360)})
LABELS = [(s_bit, t_bit) for s_bit in (0, 1) for t_bit in (0, 1)]


def _edge_grid(polar, azimuth):
    """Every (mu, eta, nu, zeta, s, t) over the given values and the four labels."""
    mesh = np.meshgrid(polar, azimuth, polar, azimuth, (0, 1), (0, 1), indexing="ij")
    mu, eta, nu, zeta, s, t = (axis.ravel() for axis in mesh)
    return mu, eta, nu, zeta, s.astype(np.int64), t.astype(np.int64)


class TestEdgeAngles:
    def test_routes_agree_on_edge_grid(self):
        mu, eta, nu, zeta, s, t = _edge_grid(EDGE_POLAR, EDGE_AZIMUTH)
        closed = joint_closed_batch(mu, eta, nu, zeta, s, t)
        others = (
            joint_closed_alt_batch(mu, eta, nu, zeta, s, t),
            joint_amplitude_batch(mu, eta, nu, zeta, s, t),
            joint_bruteforce_batch(mu, eta, nu, zeta, bell_state_batch(s, t)),
        )
        for other in others:
            assert np.abs(closed - other).max() <= 1e-15

    def test_pole_pairs_give_exact_cells(self):
        mu, eta, nu, zeta, s, t = _edge_grid((0.0, PI), EDGE_AZIMUTH)
        probs = joint_closed_batch(mu, eta, nu, zeta, s, t)
        assert np.isin(probs, (0.0, 0.5)).all()

    @settings(max_examples=200, deadline=None)
    @given(
        mu=st.sampled_from((0.0, PI)),
        nu=st.sampled_from((0.0, PI)),
        eta=st.floats(0.0, 2 * PI),
        zeta=st.floats(0.0, 2 * PI),
        label=st.sampled_from(LABELS),
    )
    def test_poles_exact_for_any_azimuth(self, mu, nu, eta, zeta, label):
        dist = joint_distribution_closed(pair_of(mu, eta, nu, zeta), BellLabel(*label))
        assert set(dist.p) <= {0.0, 0.5}


class TestSymmetryEquivalenceOnGeneralStates:
    """Diagonal symmetry holds exactly when all marginals coincide."""

    @staticmethod
    def _random_unit_state(rng):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        return psi / np.linalg.norm(psi)

    @staticmethod
    def _symmetric_state(pair, rng):
        # amplitudes (a, b, b, a) over the outcome frame give p00=p11, p01=p10
        frame = outcome_frame(pair).vectors
        a = (rng.normal() + 1j * rng.normal())
        b = (rng.normal() + 1j * rng.normal())
        psi = a * frame[0] + b * frame[1] + b * frame[2] + a * frame[3]
        return psi / np.linalg.norm(psi)

    def test_both_directions(self):
        rng = np.random.default_rng(23)
        checked_true = checked_false = 0
        for i in range(300):
            pair = pair_of(rng.uniform(0, PI), rng.uniform(0, 2 * PI), rng.uniform(0, PI), rng.uniform(0, 2 * PI))
            if i % 3 == 0:
                psi = self._symmetric_state(pair, rng)
            else:
                psi = self._random_unit_state(rng)
            dist = joint_distribution_bruteforce(pair, psi)
            symmetric = is_klein_symmetric(dist, tol=1e-10)
            equal = has_equal_marginals(dist, tol=1e-10)
            assert symmetric == equal
            checked_true += symmetric
            checked_false += not symmetric
        # both branches of the equivalence must actually be exercised
        assert checked_true >= 50
        assert checked_false >= 50


class TestCommutator:
    def test_lifted_pairs_commute(self):
        assert commutator_norm(ObservablePair(named_gate("sigma1"), named_gate("sigma2"))) <= 1e-14
        assert commutator_norm(ObservablePair(named_gate("hadamard"), named_gate("sigma3"))) <= 1e-14

    def test_unlifted_contrast(self):
        # [sigma1, sigma2] = 2i sigma3 on the single-qubit plane
        comm = SIGMA1 @ SIGMA2 - SIGMA2 @ SIGMA1
        assert np.linalg.norm(comm) == pytest.approx(2 * math.sqrt(2.0), abs=1e-15)

    def test_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pair = pair_of(rng.uniform(0, PI), rng.uniform(0, 2 * PI), rng.uniform(0, PI), rng.uniform(0, 2 * PI))
            assert commutator_norm(pair) <= 1e-13

    def test_point_equals_verify_on_one_row(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            mu, eta, nu, zeta = rng.uniform(0, PI), rng.uniform(0, 2 * PI), rng.uniform(0, PI), rng.uniform(0, 2 * PI)
            rows = np.array([mu]), np.array([eta]), np.array([nu]), np.array([zeta])
            assert commutator_norm(pair_of(mu, eta, nu, zeta)) == cli._max_commutator_norm(*rows)

    @staticmethod
    def _reference_norms(mu, eta, nu, zeta, second_on_first=False, leak=0.0):
        """Scalar np.kron lifts, 4x4 products and Frobenius norm, one row at a time.

        A nonzero leak adds leak * (B tensor I) to the lift of B.
        """
        def hand_matrix(polar, azimuth):
            phase = complex(math.cos(azimuth), -math.sin(azimuth))
            c, s = math.cos(polar), math.sin(polar)
            return np.array([[c, phase * s], [phase.conjugate() * s, -c]])

        norms = []
        for row in zip(mu.tolist(), eta.tolist(), nu.tolist(), zeta.tolist()):
            big_a = np.kron(hand_matrix(*row[:2]), IDENTITY2)
            b = hand_matrix(*row[2:])
            big_b = np.kron(b, IDENTITY2) if second_on_first else np.kron(IDENTITY2, b)
            if leak:
                big_b = big_b + leak * np.kron(b, IDENTITY2)
            norms.append(np.linalg.norm(big_a @ big_b - big_b @ big_a))
        return np.array(norms)

    def _check_against_reference(self, angles, monkeypatch):
        assert np.abs(commutator_norms(*angles) - self._reference_norms(*angles)).max() <= 1e-15
        # B lifted onto the first factor gives [A, B] (x) I: a nonzero norm to compare
        monkeypatch.setattr(bipartite, "lift_second", bipartite.lift_first)
        wrong = commutator_norms(*angles)
        reference = self._reference_norms(*angles, second_on_first=True)
        assert reference.max() > 1.0
        assert np.abs(wrong - reference).max() <= 1e-14

    def test_batch_matches_scalar_reference_on_random_rows(self, monkeypatch):
        rng = np.random.default_rng(37)
        n = 500
        angles = (rng.uniform(0, PI, n), rng.uniform(0, 2 * PI, n), rng.uniform(0, PI, n), rng.uniform(0, 2 * PI, n))
        self._check_against_reference(angles, monkeypatch)

    def test_batch_matches_scalar_reference_on_edge_grid(self, monkeypatch):
        mu, eta, nu, zeta, s, t = _edge_grid(EDGE_POLAR, EDGE_AZIMUTH)
        one_label = (s == 0) & (t == 0)  # the commutator does not depend on the label
        self._check_against_reference((mu[one_label], eta[one_label], nu[one_label], zeta[one_label]), monkeypatch)

    @pytest.mark.parametrize("rows", [1, cli.VERIFY_BLOCK_ROWS + 1])
    def test_one_row_and_a_block_past_its_end_match_scalar_reference(self, rows, monkeypatch):
        self._check_against_reference(_random_angles(47, rows), monkeypatch)

    def test_small_leak_onto_the_wrong_factor_is_measured(self, monkeypatch):
        # I (x) B + 1e-9 B (x) I: the commutator is 1e-9 [A, B] (x) I, far above rounding
        lift_second = bipartite.lift_second
        monkeypatch.setattr(bipartite, "lift_second", lambda b: lift_second(b) + 1e-9 * bipartite.lift_first(b))
        angles = _random_angles(53, 300)
        reference = self._reference_norms(*angles, leak=1e-9)
        assert reference.max() > 1e-9
        assert np.abs(commutator_norms(*angles) - reference).max() <= 1e-15

    def test_correct_lifts_build_no_row_matrices(self, monkeypatch):
        # every basis commutator of correct lifts is exactly zero, so each finite row's norm is zero
        calls = []
        matrices = bipartite.matrices
        monkeypatch.setattr(bipartite, "matrices", lambda *args: calls.append(len(args[0])) or matrices(*args))
        angles = _random_angles(61, 1025)
        norms = commutator_norms(*angles)
        assert calls == []
        assert norms.dtype == np.float64 and np.array_equal(norms, np.zeros(len(angles[0])))
        monkeypatch.setattr(bipartite, "lift_second", bipartite.lift_first)
        assert commutator_norms(*angles).min() > 0.0
        assert calls == [1025, 1025]  # the wrong lift takes the product: A's and B's matrices, once each

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_a_non_finite_angle_row_is_nan_with_correct_lifts(self, bad):
        mu, eta, nu, zeta = _random_angles(67, 5)
        zeta[2] = bad
        with np.errstate(invalid="ignore"):
            norms = commutator_norms(mu, eta, nu, zeta)
        assert math.isnan(norms[2])
        assert np.array_equal(np.delete(norms, 2), np.zeros(4))

    def test_a_lift_patched_between_calls_reaches_the_next_call(self, monkeypatch):
        # the basis commutators are built on every call, never kept from an earlier one
        angles = _random_angles(59, 40)
        correct = commutator_norms(*angles)
        assert correct.max() <= 1e-15
        monkeypatch.setattr(bipartite, "lift_second", bipartite.lift_first)
        wrong = commutator_norms(*angles)
        assert np.abs(wrong - self._reference_norms(*angles, second_on_first=True)).max() <= 1e-14
        monkeypatch.undo()
        assert np.array_equal(commutator_norms(*angles), correct)


class TestInternalConsistency:
    def test_disagreement_raises(self):
        good = np.full((2, 4), 0.25)
        bad = good.copy()
        bad[1, 2] += 5e-9
        with pytest.raises(InternalConsistencyError):
            bipartite._require_variant_agreement(good, bad)

    def test_disagreement_names_its_gap_and_row_and_pickles(self):
        good = np.full((3, 4), 0.25)
        bad = good.copy()
        bad[2, 1] += 5e-9
        with pytest.raises(InternalConsistencyError) as caught:
            bipartite._require_variant_agreement(good, bad)
        assert caught.value.row == 2
        assert caught.value.gap == pytest.approx(5e-9)
        assert str(caught.value).endswith(" at row 2")
        copy = pickle.loads(pickle.dumps(caught.value))
        assert (copy.gap, copy.row, str(copy)) == (caught.value.gap, 2, str(caught.value))

    def test_agreement_within_tolerance_passes(self):
        good = np.full((2, 4), 0.25)
        shifted = good + 1e-12
        bipartite._require_variant_agreement(good, shifted)

    @pytest.mark.parametrize("plant", [1e-9, math.nan], ids=["shift", "nan"])
    def test_point_route_checks_every_call(self, monkeypatch, plant):
        alternate = bipartite._kernels.closed_joint_alt

        def shifted(*args):
            (p00, *rest), = alternate(*args)  # the one row the point route asks for
            return [(p00 + plant, *rest)]

        monkeypatch.setattr(bipartite._kernels, "closed_joint_alt", shifted)
        with pytest.raises(InternalConsistencyError) as caught:
            joint_distribution_closed(pair_of(0.4, 1.3, 2.1, 5.0), BellLabel(1, 0))
        assert caught.value.row == 0
        if math.isnan(plant):
            assert math.isnan(caught.value.gap)
        else:
            assert caught.value.gap == pytest.approx(plant, rel=1e-6)


class TestBatchValidation:
    def test_angle_domain(self):
        ok = np.array([0.5])
        with pytest.raises(ValueError):
            joint_closed_batch(np.array([-0.1]), ok, ok, ok, np.array([0]), np.array([0]))
        with pytest.raises(ValueError):
            joint_closed_batch(ok, np.array([7.0]), ok, ok, np.array([0]), np.array([0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            joint_closed_batch(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2), np.zeros(2, int), np.zeros(2, int))

    def test_bit_validation(self):
        z = np.zeros(1)
        with pytest.raises(ValueError):
            joint_closed_batch(z, z, z, z, np.array([2]), np.array([0]))

    @pytest.mark.parametrize("route", [joint_closed_batch, joint_closed_alt_batch, joint_amplitude_batch])
    @pytest.mark.parametrize("name", ["s", "t"])
    @pytest.mark.parametrize("bad", [2, -1])
    def test_bits_outside_zero_one_are_named(self, route, name, bad):
        z = np.zeros(3)
        bits = {"s": np.array([0, 1, 0]), "t": np.array([1, 0, 1])}
        bits[name][1] = bad
        with pytest.raises(ValueError, match=f"{name} entries must be 0 or 1"):
            route(z, z, z, z, bits["s"], bits["t"])

    @pytest.mark.parametrize("route", [joint_closed_batch, joint_closed_alt_batch, joint_amplitude_batch])
    @pytest.mark.parametrize("name", ["s", "t"])
    @pytest.mark.parametrize("bad", [1.9, -0.5, 0.5, math.nan])
    def test_fractional_bits_are_rejected_before_the_cast(self, route, name, bad):
        one = np.ones(1)
        bits = {"s": np.zeros(1), "t": np.zeros(1)}
        bits[name][0] = bad
        with pytest.raises(ValueError, match=f"{name} entries must be 0 or 1"):
            route(one, one, one, one, bits["s"], bits["t"])

    def test_whole_float_and_bool_bits_are_accepted(self):
        one = [1.0]
        expected = joint_closed_batch(one, one, one, one, [1], [0])
        assert np.array_equal(joint_closed_batch(one, one, one, one, [1.0], [0.0]), expected)
        assert np.array_equal(joint_closed_batch(one, one, one, one, [True], [False]), expected)

    @pytest.mark.parametrize("route", [joint_closed_batch, joint_closed_alt_batch, joint_amplitude_batch])
    @pytest.mark.parametrize("name", ["s", "t"])
    @pytest.mark.parametrize("bad", [["1"], [b"1"], [1j], [None]])
    def test_non_numeric_bits_raise_type_error(self, route, name, bad):
        one = [1.0]
        bits = {"s": [0], "t": [0], name: bad}
        with pytest.raises(TypeError, match=f"{name} must hold numbers"):
            route(one, one, one, one, bits["s"], bits["t"])

    @pytest.mark.parametrize("name", ["mu", "eta", "nu", "zeta"])
    @pytest.mark.parametrize("bad", [["1"], [b"1"], [1j], [None]])
    def test_non_numeric_angles_raise_type_error(self, name, bad):
        angles = {"mu": [1.0], "eta": [1.0], "nu": [1.0], "zeta": [1.0], name: bad}
        with pytest.raises(TypeError, match=f"{name} must hold numbers"):
            joint_closed_batch(*angles.values(), [0], [0])
        with pytest.raises(TypeError, match=f"{name} must hold numbers"):
            joint_bruteforce_batch(*angles.values(), bell_state_batch([0], [0]))

    @pytest.mark.parametrize("bad", [[[SQRT_HALF, "0", "0", SQRT_HALF]], [[b"1", 0, 0, 0]], [[1, None, 0, 0]]],
                             ids=repr)
    def test_text_states_raise_type_error(self, bad):
        with pytest.raises(TypeError, match="psi must hold numbers"):
            joint_bruteforce_batch([1.0], [1.0], [1.0], [1.0], bad)

    def test_psi_shape(self):
        z = np.zeros(2)
        with pytest.raises(ValueError):
            joint_bruteforce_batch(z, z, z, z, np.zeros((3, 4), dtype=complex))

    @pytest.mark.parametrize("entry,norm", [(2.0, "2.0"), (math.nan, "nan"), (math.inf, "inf"),
                                            (complex(0, -math.inf), "inf")])
    def test_states_off_unit_norm_are_refused(self, entry, norm):
        # clipping used to hide them: a norm-2 state gave the cells (1, 0, 0, 0), not (4, 0, 0, 0)
        z = np.zeros(1)
        with pytest.raises(ValueError, match=f"state vector at row 0 has norm {norm}, expected 1"):
            joint_bruteforce_batch(z, z, z, z, [[entry, 0, 0, 0]])

    def test_the_first_bad_state_row_is_named(self):
        z = np.zeros(5)
        psi = bell_state_batch([0, 1, 0, 1, 0], [0, 0, 1, 1, 0])
        psi[2] *= 1.1
        psi[4] = np.nan
        with pytest.raises(ValueError, match="state vector at row 2 has norm 1.1"):
            joint_bruteforce_batch(z, z, z, z, psi)
