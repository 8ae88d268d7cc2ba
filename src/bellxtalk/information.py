"""Crosstalk measures for the joint outcome distribution.

All quantities use natural logarithms (nats). Bell-state distributions have
the shape (theta, 1/2-theta, 1/2-theta, theta); for them the mutual
information between the two measurements equals 2*ln(2) - entropy, and zero
mutual information is equivalent to theta = 1/4.

The one-distribution measures run on plain floats; only the row helpers for
sweeps use numpy (see _np).
"""

from __future__ import annotations

import math

from . import _np as np
from . import bipartite
from .bipartite import BellLabel, JointDistribution, ObservablePair
from .observables import Record, angle_value, require_tolerance

LN2 = math.log(2.0)
THETA_SLACK = 1e-12
DEFAULT_INDEPENDENCE_TOL = 1e-9


def entropy_theta(theta: float) -> float:
    """Entropy of the distribution (theta, 1/2-theta, 1/2-theta, theta) in nats.

    Defined for theta in [0, 1/2] with the 0*ln(0) = 0 convention at the
    endpoints; inputs within 1e-12 outside the interval are clamped first.
    """
    theta = angle_value(theta, "theta")
    if not -THETA_SLACK <= theta <= 0.5 + THETA_SLACK:
        raise ValueError(f"theta must lie in [0, 1/2], got {theta}")
    theta = min(0.5, max(0.0, theta))
    rest = 0.5 - theta
    h = 0.0
    if theta > 0.0:
        h -= 2.0 * theta * math.log(theta)
    if rest > 0.0:
        h -= 2.0 * rest * math.log(rest)
    return h


def shannon_entropy(dist: JointDistribution) -> float:
    """Entropy -sum p*ln(p) of the four-cell distribution, in nats."""
    h = 0.0  # a loop, not sum(), which compensates from Python 3.12 on and would move the last bits
    for x in dist.p:
        if x > 0.0:
            h -= x * math.log(x)
    return h


def mutual_information(dist: JointDistribution) -> float:
    """Information flow between the two measurements, in nats; never negative."""
    p00, p01, p10, p11 = dist.p
    pa0, pa1 = p00 + p01, p10 + p11
    pb0, pb1 = p00 + p10, p01 + p11
    info = 0.0
    for x, product in ((p00, pa0 * pb0), (p01, pa0 * pb1), (p10, pa1 * pb0), (p11, pa1 * pb1)):
        if x > 0.0:
            info += x * math.log(x / product)
    return max(info, 0.0)


def _degree(mutual_info: float) -> float:
    return min(1.0, max(0.0, mutual_info / LN2))


def degree_of_dependence(dist: JointDistribution) -> float:
    """Mutual information normalized by its maximum ln(2); clamped to [0, 1].

    0 exactly at independence; 1 for perfectly (anti)correlated outcomes.
    """
    return _degree(mutual_information(dist))


def is_informationally_independent(dist: JointDistribution, tol: float = DEFAULT_INDEPENDENCE_TOL) -> bool:
    """True when the diagonal probability p00 equals 1/4 within tol."""
    require_tolerance(tol)
    return abs(dist.p[0] - 0.25) <= tol


class CrosstalkReport(Record):
    """Information summary of one joint distribution.

    theta is the diagonal probability p00; entropy and mutual_info are in
    nats; degree is mutual information over ln(2), in [0, 1]; independent
    records |theta - 1/4| <= tolerance.
    """

    theta: float
    entropy: float
    mutual_info: float
    degree: float
    independent: bool
    tolerance: float


def report_from_distribution(dist: JointDistribution, tol: float = DEFAULT_INDEPENDENCE_TOL) -> CrosstalkReport:
    """Assemble the crosstalk summary of an existing distribution."""
    mutual_info = mutual_information(dist)
    return CrosstalkReport(
        theta=dist.p[0],
        entropy=shannon_entropy(dist),
        mutual_info=mutual_info,
        degree=_degree(mutual_info),
        independent=is_informationally_independent(dist, tol),
        tolerance=float(tol),
    )


def crosstalk_report(pair: ObservablePair, label: BellLabel, tol: float = DEFAULT_INDEPENDENCE_TOL) -> CrosstalkReport:
    """Closed-form distribution of the pair on the Bell state, summarized."""
    return report_from_distribution(bipartite.joint_distribution_closed(pair, label), tol)


# ---------------------------------------------------------------------------
# vectorized row helpers for sweeps and grids; p has shape (n, 4)
# ---------------------------------------------------------------------------

def shannon_entropy_rows(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, -p * np.log(p), 0.0)
    return terms.sum(axis=1)


def mutual_information_rows(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    pa0 = p[:, 0] + p[:, 1]
    pa1 = p[:, 2] + p[:, 3]
    pb0 = p[:, 0] + p[:, 2]
    pb1 = p[:, 1] + p[:, 3]
    product = np.stack([pa0 * pb0, pa0 * pb1, pa1 * pb0, pa1 * pb1], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p / product), 0.0)
    return np.maximum(terms.sum(axis=1), 0.0)


def degree_rows(mutual_info: np.ndarray) -> np.ndarray:
    """Each row's degree of dependence from its mutual_information_rows value."""
    return np.clip(mutual_info / LN2, 0.0, 1.0)
