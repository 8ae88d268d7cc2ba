import math

import numpy as np
import pytest

from bellxtalk.bipartite import BellLabel, JointDistribution, ObservablePair, joint_distribution_closed
from bellxtalk.information import LN2, entropy_theta
from bellxtalk.observables import Observable
from bellxtalk.sampler import SampleCounts, cell_z_scores, empirical_distribution, empirical_report, sample

UNIFORM = JointDistribution((0.25, 0.25, 0.25, 0.25))

# locked after the first run of the splitmix64 reference (n = 10^6, seed 42)
GOLDEN_UNIFORM_COUNTS = (249700, 250003, 250105, 250192)
GOLDEN_SMALL_COUNTS = (20, 31, 21, 28)  # n = 100, seed 7


class TestSampleCountsType:
    def test_counts_must_sum_to_n(self):
        with pytest.raises(ValueError):
            SampleCounts(n=10, counts=(1, 2, 3, 5), seed=0)

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            SampleCounts(n=1, counts=(-1, 1, 1, 0), seed=0)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            SampleCounts(n=0, counts=(0, 0, 0, 0), seed=0)

    @pytest.mark.parametrize("n,counts,seed", [
        (2, ("1", "1", 0, 0), 0), (2, (b"1", 1, 0, 0), 0), ("2", (1, 1, 0, 0), 0), (2, (1, 1, 0, 0), "0"),
        (2.0, (1, 1, 0, 0), 0), (2, (1.0, 1, 0, 0), 0), (2, (1.5, 0.5, 0, 0), 0),
    ])
    def test_text_and_fractions_are_type_errors(self, n, counts, seed):
        # int() would parse the text and truncate the fractions
        with pytest.raises(TypeError):
            SampleCounts(n=n, counts=counts, seed=seed)

    def test_numpy_integers_are_stored_as_int(self):
        counts = SampleCounts(n=np.int64(2), counts=np.array([1, 1, 0, 0]), seed=np.uint64(3))
        assert counts == SampleCounts(n=2, counts=(1, 1, 0, 0), seed=3)
        assert all(type(x) is int for x in (counts.n, counts.seed, *counts.counts))


class TestSampling:
    def test_golden_counts(self):
        counts = sample(UNIFORM, 10**6, 42)
        assert counts.counts == GOLDEN_UNIFORM_COUNTS
        sigma = math.sqrt(1e6 * 0.25 * 0.75)
        assert max(abs(c - 250000) for c in counts.counts) <= 4 * sigma

    def test_small_golden_counts(self):
        assert sample(UNIFORM, 100, 7).counts == GOLDEN_SMALL_COUNTS

    def test_bit_identical_reruns(self):
        first = sample(UNIFORM, 50000, 12345)
        second = sample(UNIFORM, 50000, 12345)
        assert first == second

    def test_deterministic_outcome(self):
        counts = sample(JointDistribution((1.0, 0.0, 0.0, 0.0)), 1000, 99)
        assert counts.counts == (1000, 0, 0, 0)

    def test_support_restriction(self):
        counts = sample(JointDistribution((0.5, 0.0, 0.0, 0.5)), 1000, 3)
        assert counts.counts[1] == 0
        assert counts.counts[2] == 0
        assert counts.counts[0] + counts.counts[3] == 1000

    def test_single_draw(self):
        counts = sample(UNIFORM, 1, 0)
        assert sum(counts.counts) == 1

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            sample(UNIFORM, 10, -1)
        with pytest.raises(ValueError):
            sample(UNIFORM, 10, 2**64)
        sample(UNIFORM, 10, 2**64 - 1)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            sample(UNIFORM, 0, 0)

    @pytest.mark.parametrize("n,seed", [(2.5, 0), (10.0, 0), (10, 1.5), (10, 1.0), ("10", 0), (10, "1")])
    def test_non_integral_size_and_seed_are_rejected(self, n, seed):
        with pytest.raises(TypeError):
            sample(UNIFORM, n, seed)

    def test_numpy_integers_are_accepted(self):
        counts = sample(UNIFORM, np.int64(100), np.uint64(7))
        assert counts == sample(UNIFORM, 100, 7)
        assert type(counts.n) is int and type(counts.seed) is int


class TestEmpiricalReport:
    def test_uniform_counts(self):
        counts = SampleCounts(n=1000, counts=(250, 250, 250, 250), seed=0)
        report = empirical_report(counts, tol=1e-3)
        assert report.degree == 0.0
        assert report.independent

    def test_perfect_correlation(self):
        counts = SampleCounts(n=1000, counts=(500, 0, 0, 500), seed=0)
        report = empirical_report(counts, tol=1e-3)
        assert report.degree == pytest.approx(1.0, abs=1e-12)
        assert not report.independent

    def test_three_tenths_shape(self):
        counts = SampleCounts(n=1000, counts=(300, 200, 200, 300), seed=0)
        report = empirical_report(counts, tol=1e-3)
        assert report.theta == pytest.approx(0.3, abs=1e-15)
        # direct-sum oracle: I = 2 ln 2 - E(0.3)
        assert report.mutual_info == pytest.approx(0.020135513550688863, abs=1e-12)
        assert report.mutual_info == pytest.approx(2 * LN2 - entropy_theta(0.3), abs=1e-12)

    def test_empirical_distribution_normalizes(self):
        counts = SampleCounts(n=3, counts=(1, 1, 1, 0), seed=0)
        dist = empirical_distribution(counts)
        assert sum(dist.p) == pytest.approx(1.0, abs=1e-15)


class TestZScores:
    def test_zero_variance_cells(self):
        dist = JointDistribution((1.0, 0.0, 0.0, 0.0))
        counts = SampleCounts(n=100, counts=(100, 0, 0, 0), seed=0)
        assert cell_z_scores(counts, dist) == (0.0, 0.0, 0.0, 0.0)

    def test_mismatched_zero_cell_is_infinite(self):
        dist = JointDistribution((1.0, 0.0, 0.0, 0.0))
        counts = SampleCounts(n=100, counts=(99, 1, 0, 0), seed=0)
        scores = cell_z_scores(counts, dist)
        assert math.isinf(scores[1])

    def test_centered_scores(self):
        dist = JointDistribution((0.5, 0.5, 0.0, 0.0))
        counts = SampleCounts(n=100, counts=(50, 50, 0, 0), seed=0)
        assert cell_z_scores(counts, dist) == (0.0, 0.0, 0.0, 0.0)


class TestConsistencyWithClosedForm:
    def test_empirical_cells_track_probabilities(self):
        rng = np.random.default_rng(2024)
        for trial in range(20):
            pair = ObservablePair(
                Observable(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
                Observable(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
            )
            label = BellLabel(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            dist = joint_distribution_closed(pair, label)
            counts = sample(dist, 10**5, 500 + trial)
            for observed, p in zip(counts.counts, dist.p):
                if 0.0 < p < 1.0:
                    bound = 5.0 * math.sqrt(counts.n * p * (1.0 - p))
                    assert abs(observed - counts.n * p) <= bound
                else:
                    assert observed == (counts.n if p == 1.0 else 0)
