"""Crosstalk measures for the joint outcome distribution.

All quantities use natural logarithms (nats). Bell-state distributions have
the shape (theta, 1/2-theta, 1/2-theta, theta); for them the mutual
information between the two measurements equals 2*ln(2) - entropy, and zero
mutual information is equivalent to theta = 1/4.

The one-distribution measures run on plain floats; only the row helpers for
sweeps use numpy (see _np). Those take Bell rows by their two distinct
columns, p00 and p01, the form joint_closed_batch gives bit for bit.
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
    if p00 > 0.0:
        info += p00 * math.log(p00 / (pa0 * pb0))
    if p01 > 0.0:
        info += p01 * math.log(p01 / (pa0 * pb1))
    if p10 > 0.0:
        info += p10 * math.log(p10 / (pa1 * pb0))
    if p11 > 0.0:
        info += p11 * math.log(p11 / (pa1 * pb1))
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
    """Assemble the crosstalk summary of an existing distribution.

    independent is is_informationally_independent's test, made inline.
    """
    require_tolerance(tol)
    theta = dist.p[0]
    mutual_info = mutual_information(dist)
    return CrosstalkReport(theta, shannon_entropy(dist), mutual_info, _degree(mutual_info),
                           abs(theta - 0.25) <= tol, float(tol))


def crosstalk_report(pair: ObservablePair, label: BellLabel, tol: float = DEFAULT_INDEPENDENCE_TOL) -> CrosstalkReport:
    """Closed-form distribution of the pair on the Bell state, summarized."""
    return report_from_distribution(bipartite.joint_distribution_closed(pair, label), tol)


# ---------------------------------------------------------------------------
# vectorized row helpers for sweeps and grids; each row is a Bell row
# (p00, p01, p01, p00), given by its two distinct columns p00 and p01
# ---------------------------------------------------------------------------

def shannon_entropy_rows(p00: np.ndarray, p01: np.ndarray) -> np.ndarray:
    """Each Bell row's entropy in nats, its four cells' terms added in cell order."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t0, t1 = (np.where(p > 0.0, -p * np.log(p), 0.0) for p in (p00, p01))
    return t0 + t1 + t1 + t0


def mutual_information_rows(p00: np.ndarray, p01: np.ndarray) -> np.ndarray:
    """Each Bell row's mutual information in nats; never negative.

    All four marginals of a Bell row are p00 + p01, so every cell's product
    of marginals is its square, bit for bit, since float addition commutes.
    """
    product = np.square(p00 + p01)
    with np.errstate(divide="ignore", invalid="ignore"):
        t0, t1 = (np.where(p > 0.0, p * np.log(p / product), 0.0) for p in (p00, p01))
    return np.maximum(t0 + t1 + t1 + t0, 0.0)


def degree_rows(mutual_info: np.ndarray) -> np.ndarray:
    """Each row's degree of dependence from its mutual_information_rows value."""
    return np.clip(mutual_info / LN2, 0.0, 1.0)
