import math

import numpy as np
import pytest

from bellxtalk import _kernels, bipartite
from bellxtalk.bipartite import BellLabel, JointDistribution, ObservablePair
from bellxtalk.information import (
    LN2,
    CrosstalkReport,
    crosstalk_report,
    degree_of_dependence,
    degree_rows,
    entropy_theta,
    is_informationally_independent,
    mutual_information,
    mutual_information_rows,
    report_from_distribution,
    shannon_entropy,
    shannon_entropy_rows,
)
from bellxtalk.observables import Observable, named_gate

PI = math.pi

# direct-sum oracle values for the distribution (0.3, 0.2, 0.2, 0.3)
E_03 = 1.366158847569202
I_03 = 0.020135513550688863


def bell_shaped(theta):
    return JointDistribution((theta, 0.5 - theta, 0.5 - theta, theta))


class TestEntropyTheta:
    def test_maximum_at_quarter(self):
        assert abs(entropy_theta(0.25) - 2 * LN2) <= 1e-14

    def test_endpoints_use_zero_log_convention(self):
        assert abs(entropy_theta(0.0) - LN2) <= 1e-14
        assert abs(entropy_theta(0.5) - LN2) <= 1e-14

    def test_oracle_value(self):
        assert entropy_theta(0.3) == pytest.approx(E_03, abs=1e-14)

    def test_domain_enforced_with_slack(self):
        entropy_theta(-1e-13)
        entropy_theta(0.5 + 1e-13)
        with pytest.raises(ValueError):
            entropy_theta(-1e-6)
        with pytest.raises(ValueError):
            entropy_theta(0.51)

    @pytest.mark.parametrize("theta", ["0.1", b"0.1", bytearray(b"0.1")], ids=type)
    def test_text_theta_is_a_type_error(self, theta):
        # float() would parse it
        with pytest.raises(TypeError, match="theta must be a number"):
            entropy_theta(theta)

    def test_concave_on_interior_grid(self):
        thetas = np.linspace(1e-4, 0.5 - 1e-4, 1000)
        values = np.array([entropy_theta(t) for t in thetas])
        second_diff = values[:-2] - 2 * values[1:-1] + values[2:]
        assert second_diff.max() <= 1e-12

    def test_flat_at_maximum(self):
        h = 1e-4
        derivative = (entropy_theta(0.25 + h) - entropy_theta(0.25 - h)) / (2 * h)
        assert abs(derivative) <= 1e-6


class TestMutualInformation:
    def test_uniform_is_independent(self):
        assert mutual_information(bell_shaped(0.25)) <= 1e-14

    def test_perfect_correlation(self):
        assert abs(mutual_information(bell_shaped(0.5)) - LN2) <= 1e-14

    def test_oracle_point_three_tenths(self):
        dist = bell_shaped(0.3)
        assert mutual_information(dist) == pytest.approx(I_03, abs=1e-14)
        assert mutual_information(dist) == pytest.approx(2 * LN2 - entropy_theta(0.3), abs=1e-12)

    def test_bell_family_relation(self):
        # I = 2 ln 2 - E(theta) across the whole family
        for theta in np.linspace(0.0, 0.5, 101):
            dist = bell_shaped(theta)
            assert abs(mutual_information(dist) - (2 * LN2 - entropy_theta(theta))) <= 1e-12

    def test_nonnegative_on_random_distributions(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            p = rng.dirichlet(np.ones(4))
            assert mutual_information(JointDistribution(tuple(p))) >= 0.0

    def test_zero_iff_product(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a, b = rng.uniform(0.05, 0.95, 2)
            product = JointDistribution((a * b, a * (1 - b), (1 - a) * b, (1 - a) * (1 - b)))
            assert mutual_information(product) <= 1e-10
            marg = product.as_array()
            copula = np.clip(marg + np.array([0.02, -0.02, -0.02, 0.02]), 0, 1)
            perturbed = JointDistribution(tuple(copula / copula.sum()))
            pa = perturbed.p[0] + perturbed.p[1]
            pb = perturbed.p[0] + perturbed.p[2]
            deviation = abs(perturbed.p[0] - pa * pb)
            assert (mutual_information(perturbed) <= 1e-10) == (deviation <= 1e-8)


class TestDegree:
    def test_zero_at_independence(self):
        assert degree_of_dependence(bell_shaped(0.25)) == 0.0

    def test_one_at_perfect_correlation(self):
        assert degree_of_dependence(bell_shaped(0.5)) == pytest.approx(1.0, abs=1e-12)
        assert degree_of_dependence(bell_shaped(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_distance_from_quarter(self):
        offsets = np.linspace(0.0, 0.25, 60)
        upper = [degree_of_dependence(bell_shaped(0.25 + d)) for d in offsets]
        lower = [degree_of_dependence(bell_shaped(0.25 - d)) for d in offsets]
        assert all(b > a for a, b in zip(upper, upper[1:]))
        assert all(b > a for a, b in zip(lower, lower[1:]))

    def test_bounded(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            p = rng.dirichlet(np.ones(4))
            assert 0.0 <= degree_of_dependence(JointDistribution(tuple(p))) <= 1.0


class TestIndependencePredicate:
    def test_uniform(self):
        assert is_informationally_independent(bell_shaped(0.25), 1e-9)

    def test_correlated(self):
        assert not is_informationally_independent(bell_shaped(0.5), 1e-9)

    def test_closed_form_independence_point(self):
        from bellxtalk.bipartite import joint_distribution_closed

        pair = ObservablePair(Observable(PI / 4, PI / 2), Observable(PI / 4, PI / 2))
        dist = joint_distribution_closed(pair, BellLabel(0, 0))
        assert is_informationally_independent(dist, 1e-9)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            is_informationally_independent(bell_shaped(0.25), 0.0)


class TestCrosstalkReport:
    def test_x_plane_sum_condition(self):
        # sigma2 and sigma3 directions both lie in x=0; mu+nu = pi/2
        pair = ObservablePair(Observable(PI / 2, PI / 2), Observable(0.0, PI / 2))
        report = crosstalk_report(pair, BellLabel(0, 0), 1e-9)
        assert report.independent
        assert report.theta == pytest.approx(0.25, abs=1e-15)
        assert report.degree <= 1e-12

    def test_perfectly_correlated_pair(self):
        pair = ObservablePair(named_gate("sigma3"), named_gate("sigma3"))
        report = crosstalk_report(pair, BellLabel(0, 0), 1e-9)
        assert report.theta == pytest.approx(0.5, abs=1e-15)
        assert report.degree == pytest.approx(1.0, abs=1e-12)
        assert not report.independent

    def test_hadamard_sigma3_on_odd_label(self):
        # brute-force oracle gives theta = 0.5*sin(pi/8)^2 here
        pair = ObservablePair(named_gate("hadamard"), named_gate("sigma3"))
        report = crosstalk_report(pair, BellLabel(1, 1), 1e-9)
        assert report.theta == pytest.approx(0.07322330470336312, abs=1e-14)
        assert not report.independent

    def test_field_consistency(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            pair = ObservablePair(
                Observable(rng.uniform(0, PI), rng.uniform(0, 2 * PI)),
                Observable(rng.uniform(0, PI), rng.uniform(0, 2 * PI)),
            )
            label = BellLabel(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            report = crosstalk_report(pair, label, 1e-9)
            assert isinstance(report, CrosstalkReport)
            assert LN2 - 1e-12 <= report.entropy <= 2 * LN2 + 1e-12
            assert report.mutual_info >= -1e-12
            assert 0.0 <= report.degree <= 1.0 + 1e-12
            assert report.independent == (abs(report.theta - 0.25) <= report.tolerance)
            # for Bell-state distributions the entropy matches the theta form
            assert abs(report.entropy - entropy_theta(report.theta)) <= 1e-12
            assert abs(report.mutual_info - (2 * LN2 - entropy_theta(report.theta))) <= 1e-12


def bell_rows(c):
    """Bell rows ((1+c)/4, (1-c)/4, (1-c)/4, (1+c)/4), clamped to [0, 1] as joint_closed_batch clamps."""
    diagonal, off = (1.0 + c) / 4.0, (1.0 - c) / 4.0
    return np.clip(np.stack([diagonal, off, off, diagonal], axis=1), 0.0, 1.0)


def four_cell_information(rows):
    """Entropy and mutual information of (n, 4) rows, each cell's term added in cell order."""
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy_terms = np.where(rows > 0.0, -rows * np.log(rows), 0.0)
        pa = rows[:, [0, 0, 2, 2]] + rows[:, [1, 1, 3, 3]]  # each cell's row marginal
        pb = rows[:, [0, 1, 0, 1]] + rows[:, [2, 3, 2, 3]]  # and its column marginal
        mutual_terms = np.where(rows > 0.0, rows * np.log(rows / (pa * pb)), 0.0)
    entropy = entropy_terms[:, 0] + entropy_terms[:, 1] + entropy_terms[:, 2] + entropy_terms[:, 3]
    mutual = mutual_terms[:, 0] + mutual_terms[:, 1] + mutual_terms[:, 2] + mutual_terms[:, 3]
    return entropy, np.maximum(mutual, 0.0)


class TestRowHelpers:
    def test_match_scalar_functions(self):
        rng = np.random.default_rng(43)
        c = np.concatenate([rng.uniform(-1.0, 1.0, 64), [1.0, -1.0, 0.0, 0.5, -0.5]])
        rows = bell_rows(c)
        entropies = shannon_entropy_rows(rows[:, 0], rows[:, 1])
        infos = mutual_information_rows(rows[:, 0], rows[:, 1])
        degrees = degree_rows(infos)
        for i in range(rows.shape[0]):
            dist = JointDistribution(tuple(rows[i]))
            assert entropies[i] == pytest.approx(shannon_entropy(dist), abs=1e-14)
            assert infos[i] == pytest.approx(mutual_information(dist), abs=1e-14)
            assert degrees[i] == pytest.approx(degree_of_dependence(dist), abs=1e-14)

    def test_zero_probability_cells(self):
        # perfect correlation, perfect anticorrelation, and an all-zero row, whose
        # 0/0 ratios never reach the sums
        p00, p01 = np.array([0.5, 0.0, 0.0]), np.array([0.0, 0.5, 0.0])
        assert shannon_entropy_rows(p00, p01).tolist() == [pytest.approx(LN2, abs=1e-15)] * 2 + [0.0]
        assert mutual_information_rows(p00, p01).tolist() == [pytest.approx(LN2, abs=1e-15)] * 2 + [0.0]

    @pytest.mark.parametrize("n", [1, 5, 4096, 4099])
    def test_bell_columns_give_the_four_cell_bits(self, n):
        # the helpers read the two strided columns that sweep passes; every third
        # row is a pole (c = 1 or -1), or just past one, where the clamp acts
        rng = np.random.default_rng(n)
        c = rng.uniform(-1.0, 1.0, n)
        poles = [1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0)]
        c[::3] = np.resize(poles, len(c[::3]))
        rows = bell_rows(c)
        entropy, mutual = four_cell_information(rows)
        assert shannon_entropy_rows(rows[:, 0], rows[:, 1]).tobytes() == entropy.tobytes()
        assert mutual_information_rows(rows[:, 0], rows[:, 1]).tobytes() == mutual.tobytes()


def test_point_report_calls_the_kernels_once_each(monkeypatch):
    calls = {"batch": 0, "closed": 0, "alt": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bipartite, "joint_closed_batch", counted("batch", bipartite.joint_closed_batch))
    monkeypatch.setattr(_kernels, "closed_joint", counted("closed", _kernels.closed_joint))
    monkeypatch.setattr(_kernels, "closed_joint_alt", counted("alt", _kernels.closed_joint_alt))
    crosstalk_report(ObservablePair(Observable(0.4, 1.3), Observable(2.1, 5.0)), BellLabel(1, 0))
    assert calls == {"batch": 0, "closed": 1, "alt": 1}


def test_report_from_distribution_plumbs_tolerance():
    report = report_from_distribution(bell_shaped(0.2500005), tol=1e-3)
    assert report.independent
    report = report_from_distribution(bell_shaped(0.2500005), tol=1e-9)
    assert not report.independent


def test_nan_tolerance_is_rejected():
    with pytest.raises(ValueError, match="tolerance must be positive"):
        is_informationally_independent(bell_shaped(0.25), math.nan)


def test_infinite_tolerance_is_rejected():
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        is_informationally_independent(bell_shaped(0.3), math.inf)
