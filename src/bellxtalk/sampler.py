"""Deterministic seeded sampling of joint measurement outcomes.

The generator is splitmix64: draw i (0-based) mixes the 64-bit value
seed + (i+1)*0x9E3779B97F4A7C15 (mod 2^64) through the splitmix64 finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

and keeps the top 53 bits, scaled by 2^-53, as a uniform double in [0, 1).
The outcome is the first cell whose cumulative probability is >= the draw
(ties resolve to the lower index), in the fixed cell order
(0,0),(0,1),(1,0),(1,1). This pins the byte-level behaviour so independent
implementations reproduce identical counts.
"""

from __future__ import annotations

import math
import operator

from . import _kernels
from . import _np as np
from .bipartite import JointDistribution
from .information import DEFAULT_INDEPENDENCE_TOL, CrosstalkReport, report_from_distribution
from .observables import Record


class SampleCounts(Record):
    """Outcome tallies of one sampling run, in the fixed cell order."""

    n: int
    counts: tuple[int, int, int, int]
    seed: int

    def __post_init__(self) -> None:
        n = operator.index(self.n)  # TypeError for text or a float, which int() would parse or truncate
        if n < 1:
            raise ValueError("sample size must be at least 1")
        counts = tuple(map(operator.index, self.counts))
        if len(counts) != 4 or any(c < 0 for c in counts):
            raise ValueError("counts must be four non-negative integers")
        if sum(counts) != n:
            raise ValueError(f"counts sum to {sum(counts)}, expected n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "seed", operator.index(self.seed))


def sample(dist: JointDistribution, n: int, seed: int) -> SampleCounts:
    """Draw n independent outcomes from dist; identical inputs give identical counts."""
    n, seed = operator.index(n), operator.index(seed)  # TypeError for a float, which int() would truncate
    if n < 1:
        raise ValueError("sample size must be at least 1")
    if not 0 <= seed <= _kernels._U64_MAX:
        raise ValueError("seed must be an unsigned 64-bit integer")
    cdf = np.cumsum(dist.as_array())
    counts = _kernels.sample_counts(cdf, n, np.uint64(seed))
    return SampleCounts(n=n, counts=counts, seed=seed)


def empirical_distribution(counts: SampleCounts) -> JointDistribution:
    """Relative frequencies counts/n as a distribution."""
    return JointDistribution(tuple(c / counts.n for c in counts.counts))


def empirical_report(counts: SampleCounts, tol: float = DEFAULT_INDEPENDENCE_TOL) -> CrosstalkReport:
    """Crosstalk summary of the empirical distribution counts/n."""
    return report_from_distribution(empirical_distribution(counts), tol)


def cell_z_scores(counts: SampleCounts, dist: JointDistribution) -> tuple[float, float, float, float]:
    """Normal-approximation z-score of each observed cell against expected p.

    Cells with p = 0 or p = 1 have zero variance; they score 0 when the count
    matches exactly and inf otherwise.
    """
    scores = []
    for observed, p in zip(counts.counts, dist.p):
        expected = counts.n * p
        sigma = math.sqrt(counts.n * p * (1.0 - p))
        if sigma == 0.0:
            scores.append(0.0 if observed == round(expected) else math.inf)
        else:
            scores.append((observed - expected) / sigma)
    return tuple(scores)
