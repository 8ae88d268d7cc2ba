"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
import time

import numpy as np
import pytest

from bellxtalk import (
    BellLabel,
    Observable,
    ObservablePair,
    bell_state,
    commutator_norm,
    condition_x_plane,
    condition_y_plane,
    condition_z_plane,
    entropy_theta,
    joint_distribution_bruteforce,
    matrix,
    mutual_information,
    outcome_frame,
    sample,
)
from bellxtalk.bipartite import (
    JointDistribution,
    bell_state_batch,
    joint_amplitude_batch,
    joint_bruteforce_batch,
    joint_closed_alt_batch,
    joint_closed_batch,
    joint_distribution_closed,
)
from bellxtalk.cli import main
from bellxtalk.observables import HADAMARD, SIGMA1, SIGMA2, SIGMA3

PI = math.pi
TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)

N_RANDOM = 10_000
RANDOM_SEED = 20240501


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {name}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def random_draws():
    """Shared random tuple set; the three methods are evaluated and timed once."""
    rng = np.random.default_rng(RANDOM_SEED)
    mu = rng.uniform(0.0, PI, N_RANDOM)
    eta = rng.uniform(0.0, TWO_PI, N_RANDOM)
    nu = rng.uniform(0.0, PI, N_RANDOM)
    zeta = rng.uniform(0.0, TWO_PI, N_RANDOM)
    s = rng.integers(0, 2, N_RANDOM)
    t = rng.integers(0, 2, N_RANDOM)

    start = time.perf_counter()
    closed = joint_closed_batch(mu, eta, nu, zeta, s, t, check=False)
    amplitude = joint_amplitude_batch(mu, eta, nu, zeta, s, t)
    brute = joint_bruteforce_batch(mu, eta, nu, zeta, bell_state_batch(s, t))
    elapsed = time.perf_counter() - start

    return {
        "angles": (mu, eta, nu, zeta),
        "labels": (s, t),
        "closed": closed,
        "amplitude": amplitude,
        "brute": brute,
        "elapsed": elapsed,
    }


def test_criterion_01_three_method_equivalence(random_draws):
    closed, amplitude, brute = (random_draws[k] for k in ("closed", "amplitude", "brute"))
    gap = max(
        float(np.abs(closed - amplitude).max()),
        float(np.abs(closed - brute).max()),
        float(np.abs(amplitude - brute).max()),
    )
    elapsed = random_draws["elapsed"]
    ok = gap <= 1e-12 and elapsed <= 5.0
    _report(1, "three-method equivalence over 10^4 random tuples", ok,
            f"max gap {gap:.2e}, runtime {elapsed:.2f}s")


def test_criterion_02_uniform_marginals(random_draws):
    worst = 0.0
    for p in (random_draws["brute"], random_draws["closed"]):
        worst = max(
            worst,
            float(np.abs(p[:, 0] + p[:, 1] - 0.5).max()),
            float(np.abs(p[:, 2] + p[:, 3] - 0.5).max()),
            float(np.abs(p[:, 0] + p[:, 2] - 0.5).max()),
            float(np.abs(p[:, 1] + p[:, 3] - 0.5).max()),
        )
    _report(2, "all Bell-state marginals equal 1/2", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_03_diagonal_symmetry_and_equivalence(random_draws):
    worst = 0.0
    for p in (random_draws["amplitude"], random_draws["brute"]):
        worst = max(
            worst,
            float(np.abs(p[:, 0] - p[:, 3]).max()),
            float(np.abs(p[:, 1] - p[:, 2]).max()),
        )
    symmetric_on_bell = worst <= 1e-12

    # equivalence of diagonal symmetry and equal marginals on general states
    rng = np.random.default_rng(RANDOM_SEED + 1)
    mismatches = 0
    for i in range(1000):
        pair = ObservablePair(
            Observable(rng.uniform(0, PI), rng.uniform(0, TWO_PI)),
            Observable(rng.uniform(0, PI), rng.uniform(0, TWO_PI)),
        )
        if i % 3 == 0:
            frame = outcome_frame(pair).vectors
            a = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            psi = a * frame[0] + b * frame[1] + b * frame[2] + a * frame[3]
            psi /= np.linalg.norm(psi)
        else:
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
        p = joint_distribution_bruteforce(pair, psi).p
        symmetric = abs(p[0] - p[3]) <= 1e-10 and abs(p[1] - p[2]) <= 1e-10
        margins = (p[0] + p[1], p[2] + p[3], p[0] + p[2], p[1] + p[3])
        equal = max(margins) - min(margins) <= 1e-10
        mismatches += symmetric != equal
    ok = symmetric_on_bell and mismatches == 0
    _report(3, "diagonal symmetry on Bell states; iff equal marginals on 10^3 general states",
            ok, f"max asymmetry {worst:.2e}, mismatches {mismatches}")


def test_criterion_04_lifted_operators_commute():
    rng = np.random.default_rng(RANDOM_SEED + 2)
    worst = 0.0
    for _ in range(1000):
        pair = ObservablePair(
            Observable(rng.uniform(0, PI), rng.uniform(0, TWO_PI)),
            Observable(rng.uniform(0, PI), rng.uniform(0, TWO_PI)),
        )
        worst = max(worst, commutator_norm(pair))
    _report(4, "lifted commutator norm on 10^3 random pairs", worst <= 1e-13, f"max norm {worst:.2e}")


def test_criterion_05_closed_variant_identity(random_draws):
    mu, eta, nu, zeta = random_draws["angles"]
    worst = 0.0
    for s_bit in (0, 1):
        for t_bit in (0, 1):
            s = np.full(N_RANDOM, s_bit, dtype=np.int64)
            t = np.full(N_RANDOM, t_bit, dtype=np.int64)
            primary = joint_closed_batch(mu, eta, nu, zeta, s, t, check=False)
            alternate = joint_closed_alt_batch(mu, eta, nu, zeta, s, t)
            worst = max(worst, float(np.abs(primary - alternate).max()))
    _report(5, "both closed-form variants agree for all four labels", worst <= 1e-12,
            f"max gap {worst:.2e}")


def test_criterion_06_plane_grid_iff_conditions():
    start = time.perf_counter()
    disagreements = 0
    checked = 0

    polar = np.linspace(0.0, PI, 181)  # 1-degree spacing
    mu = np.repeat(polar, polar.shape[0])
    nu = np.tile(polar, polar.shape[0])
    total = mu.shape[0]
    for azimuth, predicate in (
        (PI / 2, lambda i, s_bit, t_bit: condition_x_plane(mu[i], nu[i], s_bit)),
        (0.0, lambda i, s_bit, t_bit: condition_y_plane(mu[i], nu[i], s_bit, t_bit)),
    ):
        eta = np.full(total, azimuth)
        for s_bit in (0, 1):
            for t_bit in (0, 1):
                s = np.full(total, s_bit, dtype=np.int64)
                t = np.full(total, t_bit, dtype=np.int64)
                theta = joint_closed_batch(mu, eta, nu, eta, s, t)[:, 0]
                criterion = np.abs(theta - 0.25) <= 1e-9
                for i in range(total):
                    disagreements += predicate(i, s_bit, t_bit) != criterion[i]
                checked += total

    azimuths = np.linspace(0.0, TWO_PI, 360, endpoint=False)  # 1-degree spacing
    eta = np.repeat(azimuths, azimuths.shape[0])
    zeta = np.tile(azimuths, azimuths.shape[0])
    total = eta.shape[0]
    half = np.full(total, PI / 2)
    for s_bit in (0, 1):
        for t_bit in (0, 1):
            s = np.full(total, s_bit, dtype=np.int64)
            t = np.full(total, t_bit, dtype=np.int64)
            theta = joint_closed_batch(half, eta, half, zeta, s, t)[:, 0]
            criterion = np.abs(theta - 0.25) <= 1e-9
            for i in range(total):
                disagreements += condition_z_plane(eta[i], zeta[i], t_bit) != criterion[i]
            checked += total

    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed <= 30.0
    _report(6, "plane predicates match theta criterion on 1-degree grids", ok,
            f"{checked} points, {disagreements} disagreements, runtime {elapsed:.1f}s")


def test_criterion_07_named_gate_identities():
    worst = max(
        float(np.abs(matrix(Observable(0.0, PI / 2)) - SIGMA3).max()),
        float(np.abs(matrix(Observable(PI / 2, PI / 2)) - SIGMA2).max()),
        float(np.abs(matrix(Observable(PI / 2, 0.0)) - SIGMA1).max()),
        float(np.abs(matrix(Observable(PI / 4, 0.0)) - HADAMARD).max()),
    )
    _report(7, "named-gate matrix identities", worst <= 1e-15, f"max entry gap {worst:.2e}")


def test_criterion_08_entropy_endpoints():
    gaps = (
        abs(entropy_theta(0.25) - 2 * LN2),
        abs(entropy_theta(0.0) - LN2),
        abs(entropy_theta(0.5) - LN2),
        abs(mutual_information(JointDistribution((0.25, 0.25, 0.25, 0.25)))),
        abs(mutual_information(JointDistribution((0.5, 0.0, 0.0, 0.5))) - LN2),
    )
    worst = max(gaps)
    _report(8, "entropy and mutual-information endpoint values", worst <= 1e-14,
            f"max gap {worst:.2e}")


def test_criterion_09_sampler_consistency():
    rng = np.random.default_rng(RANDOM_SEED + 3)
    n = 1_000_000
    violations = 0
    worst_z = 0.0
    for trial in range(20):
        pair = ObservablePair(
            Observable(rng.uniform(0, PI), rng.uniform(0, TWO_PI)),
            Observable(rng.uniform(0, PI), rng.uniform(0, TWO_PI)),
        )
        label = BellLabel(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        dist = joint_distribution_closed(pair, label)
        counts = sample(dist, n, 9000 + trial)
        again = sample(dist, n, 9000 + trial)
        assert counts == again  # bit-identical re-run
        for observed, p in zip(counts.counts, dist.p):
            if 0.0 < p < 1.0:
                z = abs(observed - n * p) / math.sqrt(n * p * (1.0 - p))
                worst_z = max(worst_z, z)
                violations += z > 5.0
            else:
                violations += observed != (n if p == 1.0 else 0)
    _report(9, "sampler matches closed form within 5 sigma (20 runs of 10^6)",
            violations == 0, f"worst |z| {worst_z:.2f}")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    verify_code = main(["verify"])
    capsys.readouterr()

    sweep_args = [
        "sweep",
        "--mu", repr(PI / 4), "--eta", repr(PI / 2), "--zeta", repr(PI / 2),
        "--s", "0", "--t", "0",
        "--vary", f"nu=0:{repr(PI)}:181",
    ]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(sweep_args + ["--out", str(first)]) == 0
    assert main(sweep_args + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()

    rows = first.read_text().strip().split("\n")[1:]
    independent_nu = [float(r.split(",")[2]) for r in rows if r.split(",")[-1] == "1"]
    predicted = len(independent_nu) == 1 and abs(independent_nu[0] - PI / 4) <= 1e-12

    ok = verify_code == 0 and identical and predicted
    _report(10, "CLI verify exits 0; sweep byte-identical with predicted independent rows",
            ok, f"verify exit {verify_code}, identical {identical}, rows {independent_nu}")
