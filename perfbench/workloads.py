"""The four benchmark workloads: seeded inputs, the operations they run, and
the checks that decide whether each operation's output is correct.

Every workload is timed two ways. A cold operation runs each of its CLI
argument lists as a fresh ``python -m bellxtalk`` process, which is what a
command-line user waits for. A warm operation runs the same work in-process,
through ``cli.main(argv)`` or the library API, which is what a library user
waits for. The program receives only the inputs generated here; the seed
itself never reaches it except as the sampler or verify seed argument.

The checks use the benchmark's own oracle, not the program's routes: on every
Bell state ``p00 = p11 = (1 + a.S b)/4`` and ``p01 = p10 = (1 - a.S b)/4``,
where ``a`` and ``b`` are the Bloch vectors of the two observables and ``S``
is a diagonal sign matrix fixed by the Bell label ``(s, t)``.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("sweep_grid", "sample_draws", "verify_oracles", "point_queries")

PROB_TOL = 1e-12      # oracle agreement for probabilities and theta
ROOT_TOL = 1e-10      # |theta - 1/4| at every independence root
PARTNER_TOL = 1e-9    # |theta - 1/4| at every partner angle
INDEPENDENCE_TOL = 1e-9
U64 = 2**64

CSV_HEADER = b"mu,eta,nu,zeta,s,t,p00,p01,p10,p11,entropy,mutual_info,degree,independent"

# diagonal of S for each Bell label (s, t)
_SIGNS = {(0, 0): (1, -1, 1), (1, 0): (-1, 1, 1), (0, 1): (1, 1, -1), (1, 1): (-1, -1, -1)}

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = U64 - 1


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY exercises the same code quickly."""

    grid: tuple[int, int] = (250, 160)
    draws: int = 10_000_000
    check_draws: int = 2000
    verify_samples: int = 200_000
    points: int = 2000
    solve_grid: int = 1000


FULL = Sizes()
TINY = Sizes(grid=(5, 4), draws=20_000, check_draws=300, verify_samples=500, points=40, solve_grid=40)


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    digests: dict[int, str] = field(default_factory=dict)
    verdicts: dict[str, str | None] = field(default_factory=dict)

    def record(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(failure)


@dataclass
class Workload:
    """One workload at one seed.

    ``argvs`` are the CLI invocations of one operation: a cold operation runs
    each as its own process, a warm one calls ``cli.main`` on each in turn.
    ``check`` judges the output bytes of invocation ``i``: the ``--out`` file
    when ``out_path`` is set, stdout otherwise. ``library`` replaces the warm
    CLI calls with library calls; it records its own operations and returns
    the latencies of its tiny calls and its total time inside the library,
    both in nanoseconds. ``final`` runs extra checked operations once, after
    timing.
    """

    name: str
    item_unit: str
    items: int
    outputs: int
    argvs: list[list[str]]
    check: Callable[[int, bytes], str | None]
    out_path: str | None = None
    library: Callable[[Tally], tuple[list[int], int]] | None = None
    final: Callable[[Tally], None] | None = None


def oracle(mu, eta, nu, zeta, s: int, t: int) -> np.ndarray:
    """(p00, p01, p10, p11) from the correlation-vector form; arrays broadcast."""
    sx, sy, sz = _SIGNS[(int(s), int(t))]
    mu, eta, nu, zeta = (np.asarray(x, dtype=np.float64) for x in (mu, eta, nu, zeta))
    c = (sx * np.sin(mu) * np.cos(eta) * np.sin(nu) * np.cos(zeta)
         + sy * np.sin(mu) * np.sin(eta) * np.sin(nu) * np.sin(zeta)
         + sz * np.cos(mu) * np.cos(nu))
    diag = 0.25 * (1.0 + c)
    off = 0.25 * (1.0 - c)
    return np.stack([diag, off, off, diag], axis=-1)


def splitmix_counts(cdf, n: int, seed: int) -> list[int]:
    """Reference sampler: the documented splitmix64 inverse-CDF rule in pure Python."""
    counts = [0, 0, 0, 0]
    for i in range(1, n + 1):
        z = (seed + i * _GAMMA) & _MASK
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        z ^= z >> 31
        u = (z >> 11) * 2.0 ** -53
        cell = next((k for k in range(3) if u <= cdf[k]), 3)
        counts[cell] += 1
    return counts


def _angle(x: float) -> str:
    return repr(float(x))


def _point_args(point) -> list[str]:
    mu, eta, nu, zeta, s, t = point
    return ["--mu", _angle(mu), "--eta", _angle(eta), "--nu", _angle(nu), "--zeta", _angle(zeta),
            "--s", str(s), "--t", str(t)]


def _random_point(rng) -> tuple:
    return (float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2.0 * math.pi)),
            float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2.0 * math.pi)),
            int(rng.integers(0, 2)), int(rng.integers(0, 2)))


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split()]


# ---------------------------------------------------------------------------
# sweep_grid
# ---------------------------------------------------------------------------

def sweep_grid(seed: int, sizes: Sizes, tmpdir: str) -> Workload:
    """The bulk path: CSV formatting and the write dominate, the kernels are a small share."""
    rng = np.random.default_rng(seed % U64)
    eta, nu = float(rng.uniform(0.0, 2.0 * math.pi)), float(rng.uniform(0.0, math.pi))
    s, t = int(rng.integers(0, 2)), int(rng.integers(0, 2))
    n_mu, n_zeta = sizes.grid
    out_path = f"{tmpdir}/sweep.csv"
    argv = ["sweep", "--eta", _angle(eta), "--nu", _angle(nu), "--s", str(s), "--t", str(t),
            "--vary", f"mu=0:{_angle(math.pi)}:{n_mu}",
            "--vary", f"zeta=0:{_angle(2.0 * math.pi)}:{n_zeta}",
            "--out", out_path]
    mu_axis = np.linspace(0.0, math.pi, n_mu)
    zeta_axis = np.linspace(0.0, 2.0 * math.pi, n_zeta)
    rows = n_mu * n_zeta

    def check(_: int, data: bytes) -> str | None:
        header, _, body = data.partition(b"\n")
        if header != CSV_HEADER:
            return f"sweep header {header[:80]!r}"
        table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
        if table.shape != (rows, 14):
            return f"sweep table shape {table.shape}, expected ({rows}, 14)"
        expected_angles = np.column_stack([
            np.repeat(mu_axis, n_zeta), np.full(rows, eta), np.full(rows, nu), np.tile(zeta_axis, n_mu),
        ])
        if np.abs(table[:, :4] - expected_angles).max() > PROB_TOL:
            return "sweep angle columns differ from the requested grid"
        if (table[:, 4] != s).any() or (table[:, 5] != t).any():
            return "sweep label columns differ from the requested label"
        want = oracle(table[:, 0], table[:, 1], table[:, 2], table[:, 3], s, t)
        gap = float(np.abs(table[:, 6:10] - want).max())
        if gap > PROB_TOL:
            return f"sweep probabilities off the oracle by {gap:.3e}"
        return None

    return Workload("sweep_grid", "rows", rows, rows, [argv], check, out_path=out_path)


# ---------------------------------------------------------------------------
# sample_draws
# ---------------------------------------------------------------------------

_CELL_LINE = re.compile(r"^\((\d),(\d)\)\s+(\d+)\s+(\S+)\s+(\S+)\s+(\S+)$", re.MULTILINE)


def _parse_sample(text: str):
    head = re.search(r"^n=(\d+) seed=(\d+)$", text, re.MULTILINE)
    cells = _CELL_LINE.findall(text)
    if head is None or len(cells) != 4:
        return None
    counts = [int(c[2]) for c in cells]
    closed = [float(c[4]) for c in cells]
    return int(head.group(1)), int(head.group(2)), counts, closed


def sample_draws(seed: int, sizes: Sizes, tmpdir: str) -> Workload:
    """Seeded draws at a generic and a zero-cell point: the sampler kernel dominates."""
    rng = np.random.default_rng(seed % U64)
    generic = _random_point(rng)
    zero_cell = (0.0, 0.0, 0.0, 0.0, int(rng.integers(0, 2)), int(rng.integers(0, 2)))
    points = [generic, zero_cell]
    sampler_seed = seed % U64

    def argv(point, n: int) -> list[str]:
        return ["sample", *_point_args(point), "--n", str(n), "--seed", str(sampler_seed)]

    def judge(point, n: int, text: str) -> str | None:
        parsed = _parse_sample(text)
        if parsed is None:
            return "sample output unreadable"
        got_n, got_seed, counts, closed = parsed
        if got_n != n or got_seed != sampler_seed or sum(counts) != n:
            return f"sample n={got_n} seed={got_seed} counts sum {sum(counts)}, expected n={n}"
        want = oracle(*point[:4], point[4], point[5])
        gap = float(np.abs(np.array(closed) - want).max())
        if gap > PROB_TOL:
            return f"sample closed-form column off the oracle by {gap:.3e}"
        for cell, (count, p) in enumerate(zip(counts, want)):
            if count and p <= 1e-15:
                return f"sample put {count} draw(s) in zero-probability cell {cell}"
        return None

    def check(i: int, data: bytes) -> str | None:
        return judge(points[i], sizes.draws, data.decode())

    def final(tally: Tally) -> None:
        # small-n calls whose counts must equal the benchmark's own splitmix64
        from bellxtalk import cli

        for point in points:
            code, out, err = call_main(cli, argv(point, sizes.check_draws))
            failure = cli_failure(code, err) or judge(point, sizes.check_draws, out)
            if failure is None:
                _, _, counts, closed = _parse_sample(out)
                cdf = np.cumsum(np.array(closed))
                cdf[3] = 1.0
                reference = splitmix_counts(cdf, sizes.check_draws, sampler_seed)
                if counts != reference:
                    failure = f"sample counts {counts} differ from splitmix64 reference {reference}"
            tally.record(failure)

    return Workload("sample_draws", "draws", 2 * sizes.draws, 2,
                    [argv(p, sizes.draws) for p in points], check, final=final)


# ---------------------------------------------------------------------------
# verify_oracles
# ---------------------------------------------------------------------------

def verify_oracles(seed: int, sizes: Sizes, tmpdir: str) -> Workload:
    """Every oracle route: the commutator and brute force dominate, memory grows with n."""
    n = sizes.verify_samples
    verify_seed = seed % U64
    argv = ["verify", "--samples", str(n), "--seed", str(verify_seed)]

    def check(_: int, data: bytes) -> str | None:
        text = data.decode()
        if not text.startswith(f"samples={n} seed={verify_seed} "):
            return f"verify header {text[:60]!r}"
        if "all checks passed" not in text:
            return "verify did not report 'all checks passed'"
        return None

    return Workload("verify_oracles", "tuples", n, n, [argv], check)


# ---------------------------------------------------------------------------
# point_queries
# ---------------------------------------------------------------------------

def _line_value(text: str, prefix: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def point_queries(seed: int, sizes: Sizes, tmpdir: str) -> Workload:
    """The same kernels as many tiny calls: per-call overhead and import time dominate."""
    rng = np.random.default_rng(seed % U64)
    probe = _random_point(rng)
    n = sizes.points
    mu = rng.uniform(0.0, math.pi, n)
    eta = rng.uniform(0.0, 2.0 * math.pi, n)
    nu = rng.uniform(0.0, math.pi, n)
    zeta = rng.uniform(0.0, 2.0 * math.pi, n)
    s = rng.integers(0, 2, n)
    t = rng.integers(0, 2, n)
    want_theta = np.array([oracle(*row[:4], row[4], row[5])[0] for row in zip(mu, eta, nu, zeta, s, t)])
    # solve path: mu sweeps [0, pi], so a.S b changes sign whenever b has a z part
    path_eta, path_nu, path_zeta = (float(rng.uniform(0.0, 2.0 * math.pi)),
                                    float(rng.uniform(0.0, math.pi)),
                                    float(rng.uniform(0.0, 2.0 * math.pi)))
    path_label = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
    anchors = rng.uniform(0.0, 1.0, 3)
    argv = ["probs", *_point_args(probe), "--method", "all"]

    def check(_: int, data: bytes) -> str | None:
        text = data.decode()
        lines = text.splitlines()
        try:
            row = lines.index("joint probabilities p(k,l), rows k=0,1:")
            probs = np.array(_floats(lines[row + 1]) + _floats(lines[row + 2]))
            theta = float(_line_value(text, "theta       ="))
            spread = float(_line_value(text, "max pairwise method discrepancy ="))
        except (ValueError, IndexError, TypeError):
            return "probs output unreadable"
        want = oracle(*probe[:4], probe[4], probe[5])
        gap = max(float(np.abs(probs - want).max()), abs(theta - want[0]))
        if gap > PROB_TOL or spread > PROB_TOL:
            return f"probs off the oracle by {gap:.3e}, method spread {spread:.3e}"
        return None

    def library(tally: Tally) -> tuple[list[int], int]:
        from bellxtalk import bipartite, independence, information, observables

        pairs = [bipartite.ObservablePair(observables.Observable(a, b), observables.Observable(c, d))
                 for a, b, c, d in zip(mu.tolist(), eta.tolist(), nu.tolist(), zeta.tolist())]
        labels = [bipartite.BellLabel(int(x), int(y)) for x, y in zip(s, t)]
        clock = time.perf_counter_ns

        def timed(fn, *args):
            """(result, ns) of one library call; a call that raises is a failed operation."""
            start = clock()
            try:
                result = fn(*args)
            except Exception as exc:  # counted, so that the run still reports
                tally.record(f"{fn.__name__} raised {exc!r}")
                return None, clock() - start
            return result, clock() - start

        latencies = []
        for pair, label, want in zip(pairs, labels, want_theta):
            report, ns = timed(information.crosstalk_report, pair, label)
            latencies.append(ns)
            if report is not None:
                tally.record(_check_report(report, want))
        busy = sum(latencies)

        def path(x: float):
            return bipartite.ObservablePair(observables.Observable(math.pi * x, path_eta),
                                            observables.Observable(path_nu, path_zeta))

        roots, ns = timed(independence.solve_independence, path, bipartite.BellLabel(*path_label),
                          sizes.solve_grid)
        busy += ns
        if roots is not None:
            thetas = [oracle(math.pi * r.sweep_parameter, path_eta, path_nu, path_zeta, *path_label)[0]
                      for r in roots]
            bad = [th for th in thetas if abs(th - 0.25) > ROOT_TOL + PROB_TOL]
            tally.record(f"independence roots off theta=1/4: {bad[:3]}" if bad else None)

        planes = (observables.Plane.X_ZERO, observables.Plane.Y_ZERO, observables.Plane.Z_ZERO)
        for plane, fraction in zip(planes, anchors):
            polar = plane is not observables.Plane.Z_ZERO
            anchor = fraction * (math.pi if polar else 2.0 * math.pi)
            for label in map(bipartite.BellLabel, (0, 1, 0, 1), (0, 0, 1, 1)):
                partners, ns = timed(independence.partner_angles, plane, label, anchor)
                busy += ns
                if partners is not None:
                    tally.record(_check_partners(plane.name, polar, label, anchor, partners))
        return latencies, busy

    items = n + 1 + 3 * 4
    return Workload("point_queries", "calls", items, n + sizes.solve_grid, [argv], check, library=library)


def _check_report(report, want: float) -> str | None:
    independent = abs(report.theta - 0.25) <= INDEPENDENCE_TOL
    if abs(report.theta - want) > PROB_TOL or report.independent != independent:
        return f"crosstalk_report theta {report.theta!r} independent {report.independent}, oracle {want!r}"
    return None


def _check_partners(plane: str, polar: bool, label, anchor: float, partners) -> str | None:
    """Every partner angle must put theta at 1/4 by the oracle."""
    fixed = {"X_ZERO": 0.5 * math.pi, "Y_ZERO": 0.0, "Z_ZERO": 0.5 * math.pi}[plane]
    for partner in partners:
        if polar:
            theta = oracle(anchor, fixed, partner, fixed, label.s, label.t)[0]
        else:
            theta = oracle(fixed, anchor, fixed, partner, label.s, label.t)[0]
        if abs(theta - 0.25) > PARTNER_TOL:
            return f"partner_angles {plane} {label} anchor {anchor!r}: theta {theta!r} at {partner!r}"
    return None


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def call_main(cli, argv: list[str]) -> tuple[int, str, str]:
    """cli.main(argv) with stdout and stderr captured; an escaping exception becomes its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # the benchmark counts a crash as a failed operation
            traceback.print_exc(file=err)
            code = -1
    return code, out.getvalue(), err.getvalue()


def cli_failure(code: int, stderr: str) -> str | None:
    """Failure from the exit code and stderr alone, or None."""
    if "Traceback (most recent call last)" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1][:200]
    if code != 0:
        return f"exit code {code}: {stderr.strip()[:200]}"
    return None


_FACTORIES = {
    "sweep_grid": sweep_grid,
    "sample_draws": sample_draws,
    "verify_oracles": verify_oracles,
    "point_queries": point_queries,
}


def make(name: str, seed: int, sizes: Sizes, tmpdir: str) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``; outputs go under ``tmpdir``."""
    return _FACTORIES[name](seed, sizes, tmpdir)
