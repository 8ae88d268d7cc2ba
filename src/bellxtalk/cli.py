"""Command-line interface.

Subcommands: probs (single-point report), sweep (CSV parameter sweep),
verify (randomized cross-validation of the three probability routes),
independence (closed-form angle conditions), sample (seeded sampling run).
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import bipartite, independence, information, sampler
from .bipartite import BellLabel, InternalConsistencyError, JointDistribution, ObservablePair
from .observables import TWO_PI, Observable, Plane

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

CSV_HEADER = "mu,eta,nu,zeta,s,t,p00,p01,p10,p11,entropy,mutual_info,degree,independent"
#: sweep rows formatted and written per block; the formatted text in memory
#: stays at one block whatever the grid size
SWEEP_BLOCK_ROWS = 4096
#: verify tuples per block; every route, reduction and check runs one block at
#: a time, so verify's memory beyond the drawn angles stays at one block
VERIFY_BLOCK_ROWS = 4096

_ANGLE_NAMES = ("mu", "eta", "nu", "zeta")
_PLANE_FLAGS = {"x0": Plane.X_ZERO, "y0": Plane.Y_ZERO, "z0": Plane.Z_ZERO}


def _fmt(value: float) -> str:
    # 17 significant digits round-trip double precision exactly
    return format(float(value), ".17g")


@dataclass(frozen=True)
class VarySpec:
    """Inclusive linear range for one swept angle."""

    name: str
    start: float
    stop: float
    steps: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


def _parse_vary(text: str) -> VarySpec:
    name, sep, spec = text.partition("=")
    if not sep or name not in _ANGLE_NAMES:
        raise ValueError(f"--vary expects one of {_ANGLE_NAMES} as 'name=start:stop:steps', got {text!r}")
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"--vary range must be 'start:stop:steps', got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ValueError(f"--vary range {spec!r}: {exc}") from None
    if steps < 1:
        raise ValueError("--vary steps must be at least 1")
    return VarySpec(name=name, start=start, stop=stop, steps=steps)


def _to_radians(value: float, use_degrees: bool) -> float:
    return math.radians(value) if use_degrees else float(value)


def _parse_point(args) -> tuple[ObservablePair, BellLabel]:
    pair = ObservablePair(
        a=Observable(_to_radians(args.mu, args.deg), _to_radians(args.eta, args.deg)),
        b=Observable(_to_radians(args.nu, args.deg), _to_radians(args.zeta, args.deg)),
    )
    return pair, BellLabel(args.s, args.t)


# ---------------------------------------------------------------------------
# probs
# ---------------------------------------------------------------------------

def cmd_probs(args) -> int:
    pair, label = _parse_point(args)
    psi = bipartite.bell_state(label)
    methods = {
        "closed": lambda: bipartite.joint_distribution_closed(pair, label),
        "amplitude": lambda: bipartite.joint_distribution_amplitude(pair, label),
        "brute": lambda: bipartite.joint_distribution_bruteforce(pair, psi),
    }
    wanted = list(methods) if args.method == "all" else [args.method]
    dists = {name: methods[name]() for name in wanted}
    dist = dists[wanted[0]]
    report = information.report_from_distribution(dist, args.tol)

    print(f"observable A: mu={_fmt(pair.a.mu)} eta={_fmt(pair.a.eta)}")
    print(f"observable B: nu={_fmt(pair.b.mu)} zeta={_fmt(pair.b.eta)}")
    print(f"bell label:   s={label.s} t={label.t}")
    print(f"method:       {wanted[0]}")
    print("joint probabilities p(k,l), rows k=0,1:")
    print(f"  {_fmt(dist.p[0]):<26} {_fmt(dist.p[1])}")
    print(f"  {_fmt(dist.p[2]):<26} {_fmt(dist.p[3])}")
    (pa0, pa1), (pb0, pb1) = bipartite.marginals(dist)
    print(f"marginals A:  {_fmt(pa0)} {_fmt(pa1)}")
    print(f"marginals B:  {_fmt(pb0)} {_fmt(pb1)}")
    print(f"theta       = {_fmt(report.theta)}")
    print(f"entropy     = {_fmt(report.entropy)} nats")
    print(f"mutual_info = {_fmt(report.mutual_info)} nats")
    print(f"degree      = {_fmt(report.degree)}")
    print(f"independent = {'yes' if report.independent else 'no'} (tol {_fmt(report.tolerance)})")
    if len(dists) > 1:
        arrays = [d.as_array() for d in dists.values()]
        gap = max(
            float(np.abs(x - y).max())
            for i, x in enumerate(arrays)
            for y in arrays[i + 1:]
        )
        print(f"max pairwise method discrepancy = {gap:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_grid(args) -> tuple[dict[str, np.ndarray], int]:
    varies = [_parse_vary(text) for text in (args.vary or [])]
    if len(varies) > 2:
        raise ValueError("at most two parameters can vary")
    names = [v.name for v in varies]
    if len(set(names)) != len(names):
        raise ValueError("each --vary parameter may appear only once")

    fixed = {name: _to_radians(getattr(args, name), args.deg) for name in _ANGLE_NAMES}
    axes = [np.radians(vary.values()) if args.deg else vary.values() for vary in varies]
    total = math.prod(len(axis) for axis in axes)
    # the first listed parameter varies slowest
    grid = dict(zip(names, (mesh.ravel() for mesh in np.meshgrid(*axes, indexing="ij"))))
    columns = {
        name: grid[name] if name in grid else np.full(total, fixed[name])
        for name in _ANGLE_NAMES
    }
    return columns, total


def cmd_sweep(args) -> int:
    if not args.tol > 0.0:  # also rejects NaN
        raise ValueError("tolerance must be positive")
    label = BellLabel(args.s, args.t)
    columns, total = _sweep_grid(args)
    s = np.full(total, label.s, dtype=np.int64)
    t = np.full(total, label.t, dtype=np.int64)
    probs = bipartite.joint_closed_batch(
        columns["mu"], columns["eta"], columns["nu"], columns["zeta"], s, t
    )
    entropy = information.shannon_entropy_rows(probs)
    mutual = information.mutual_information_rows(probs)
    degree = information.degree_rows(probs)
    independent = (np.abs(probs[:, 0] - 0.25) <= args.tol).astype(int)

    out = contextlib.nullcontext(sys.stdout) if args.out == "-" else _replacing(args.out)
    try:
        with out as handle:
            _write_sweep_rows(handle, label, columns, probs, entropy, mutual, degree, independent)
    except OSError as exc:  # name the path given, not _replacing's temp file
        raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    return EXIT_OK


class _AngleText(dict):
    """float -> its 17-digit text, formatted on first use."""

    def __missing__(self, value: float) -> str:
        text = "%.17g" % value
        if value != 0.0:  # 0.0 == -0.0 as keys, but they print as "0" and "-0"
            self[value] = text
        return text


def _write_sweep_rows(handle, label, columns, probs, entropy, mutual, degree, independent) -> None:
    """Write the CSV header and rows to handle, formatting SWEEP_BLOCK_ROWS rows at a time.

    ``"%.17g" % x`` is the text of ``_fmt(x)`` for every float; the label bits
    are the same on every row, so they are part of the row format.
    """
    row = f"%s,%s,%s,%s,{label.s},{label.t}," + ",".join(["%.17g"] * 7) + ",%d\n"
    handle.write(CSV_HEADER + "\n")
    for start in range(0, probs.shape[0], SWEEP_BLOCK_ROWS):
        block = slice(start, start + SWEEP_BLOCK_ROWS)
        angle_text = _AngleText()  # one per block, so distinct angles cannot pile up
        angles = [map(angle_text.__getitem__, columns[name][block].tolist()) for name in _ANGLE_NAMES]
        fields = zip(*angles, *probs[block].T.tolist(), entropy[block].tolist(),
                     mutual[block].tolist(), degree[block].tolist(), independent[block].tolist())
        handle.write("".join(map(row.__mod__, fields)))


@contextlib.contextmanager
def _replacing(path: str):
    """Text handle on a temp file beside path, renamed onto path when the block succeeds.

    On any failure the temp file is removed and path is left as it was. A
    symlink is followed, so the file it names is replaced, not the link; a
    path that exists but is no regular file, such as /dev/stdout or a pipe,
    is written in place.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            yield handle
        return
    directory, name = os.path.split(target)
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # the mode open(path, "w") gives, not mkstemp's 0o600
            yield handle
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationResult:
    """Worst-case deviations over the random draw set."""

    samples: int
    seed: int
    max_method_gap: float
    max_sum_error: float
    max_klein_gap: float
    max_marginal_gap: float
    max_variant_gap: float
    max_commutator: float
    worst_tuple: tuple[float, float, float, float, int, int]

    def worst(self) -> float:
        return max(
            self.max_method_gap, self.max_sum_error, self.max_klein_gap,
            self.max_marginal_gap, self.max_variant_gap, self.max_commutator,
        )

    def passes(self, tol: float) -> bool:
        return self.worst() <= tol


def run_verification(samples: int = 10000, seed: int = 0) -> VerificationResult:
    """Cross-validate the three probability routes on random angle tuples.

    Draws (mu, eta, nu, zeta, s, t) uniformly, all six columns at once, so a
    seed gives the same tuples whatever the block size. Every route (closed,
    alternate closed, amplitude, brute force), reduction and check then runs
    VERIFY_BLOCK_ROWS tuples at a time, so memory beyond the drawn columns
    stays at one block. Per-block maxima are kept, and the worst tuple is the
    first row, over all blocks, with the largest three-method gap.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.0, math.pi, samples)
    eta = rng.uniform(0.0, TWO_PI, samples)
    nu = rng.uniform(0.0, math.pi, samples)
    zeta = rng.uniform(0.0, TWO_PI, samples)
    s = rng.integers(0, 2, samples)
    t = rng.integers(0, 2, samples)

    block_maxima, block_worst_rows = [], []
    for start in range(0, samples, VERIFY_BLOCK_ROWS):
        block = slice(start, start + VERIFY_BLOCK_ROWS)
        angles = mu[block], eta[block], nu[block], zeta[block]
        bits = s[block], t[block]
        closed = bipartite.joint_closed_batch(*angles, *bits, check=False)
        alternate = bipartite.joint_closed_alt_batch(*angles, *bits)
        amplitude = bipartite.joint_amplitude_batch(*angles, *bits)
        brute = bipartite.joint_bruteforce_batch(*angles, bipartite.bell_state_batch(*bits))

        method_gap = np.maximum(
            np.abs(closed - amplitude),
            np.maximum(np.abs(closed - brute), np.abs(amplitude - brute)),
        ).max(axis=1)
        worst = int(method_gap.argmax())
        block_worst_rows.append(start + worst)
        block_maxima.append((
            method_gap[worst],
            max(np.abs(m.sum(axis=1) - 1.0).max() for m in (closed, amplitude, brute)),
            max(
                np.abs(amplitude[:, 0] - amplitude[:, 3]).max(),
                np.abs(amplitude[:, 1] - amplitude[:, 2]).max(),
                np.abs(brute[:, 0] - brute[:, 3]).max(),
                np.abs(brute[:, 1] - brute[:, 2]).max(),
            ),
            max(
                np.abs(brute[:, 0] + brute[:, 1] - 0.5).max(),
                np.abs(brute[:, 2] + brute[:, 3] - 0.5).max(),
                np.abs(brute[:, 0] + brute[:, 2] - 0.5).max(),
                np.abs(brute[:, 1] + brute[:, 3] - 0.5).max(),
            ),
            np.abs(closed - alternate).max(),
            _max_commutator_norm(*angles),
        ))

    maxima = np.array(block_maxima)
    # argmax takes the first of equal maxima, so the first worst block's first worst row
    worst_row = block_worst_rows[int(maxima[:, 0].argmax())]
    gap, sum_error, klein, marginal, variant, commutator = maxima.max(axis=0).tolist()
    return VerificationResult(
        samples=samples,
        seed=seed,
        max_method_gap=gap,
        max_sum_error=sum_error,
        max_klein_gap=klein,
        max_marginal_gap=marginal,
        max_variant_gap=variant,
        max_commutator=commutator,
        worst_tuple=(
            float(mu[worst_row]), float(eta[worst_row]),
            float(nu[worst_row]), float(zeta[worst_row]),
            int(s[worst_row]), int(t[worst_row]),
        ),
    )


_EYE2 = np.eye(2, dtype=np.complex128)


def _observable_matrices(polar: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    """[[cos, e^-i*azimuth sin], [e^i*azimuth sin, -cos]] of each row; shape (2, 2, n)."""
    mats = np.empty((2, 2, polar.shape[0]), dtype=np.complex128)
    c, sn = np.cos(polar), np.sin(polar)
    phase = np.exp(-1j * azimuth)
    mats[0, 0] = c
    mats[0, 1] = phase * sn
    mats[1, 0] = np.conj(phase) * sn
    mats[1, 1] = -c
    return mats


def _lift_first(a: np.ndarray) -> np.ndarray:
    """a (x) I of each 2x2 in a (2, 2, n) stack; shape (4, 4, n)."""
    return np.einsum("ijn,kl->ikjln", a, _EYE2).reshape(4, 4, -1)


def _lift_second(b: np.ndarray) -> np.ndarray:
    """I (x) b of each 2x2 in a (2, 2, n) stack; shape (4, 4, n)."""
    return np.einsum("ij,kln->ikjln", _EYE2, b).reshape(4, 4, -1)


def _matmul_rows_last(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for (4, 4, n) stacks of matrices: four broadcast multiply-adds over the inner index."""
    out = x[:, 0, None] * y[0]
    for k in range(1, 4):
        out += x[:, k, None] * y[k]
    return out


def _max_commutator_norm(mu, eta, nu, zeta) -> float:
    """Largest Frobenius norm of [A (x) I, I (x) B], VERIFY_BLOCK_ROWS tuples at a time.

    Struct-of-arrays form, the row index last: the generic Kronecker lifts
    and both full 4x4 products are (4, 4, n) stacks, and each squared norm
    sums the squares of the commutator's float64 view.
    """
    block_max = []
    for start in range(0, len(mu), VERIFY_BLOCK_ROWS):
        block = slice(start, start + VERIFY_BLOCK_ROWS)
        lift_a = _lift_first(_observable_matrices(mu[block], eta[block]))
        lift_b = _lift_second(_observable_matrices(nu[block], zeta[block]))
        comm = _matmul_rows_last(lift_a, lift_b) - _matmul_rows_last(lift_b, lift_a)
        parts = comm.reshape(16, -1).view(np.float64)  # re, im of each row side by side
        squares = np.einsum("ij,ij->j", parts, parts).reshape(-1, 2).sum(axis=1)
        block_max.append(squares.max())
    return float(np.sqrt(np.max(block_max)))


def cmd_verify(args) -> int:
    if not args.tol > 0.0:  # also rejects NaN
        raise ValueError("tolerance must be positive")
    result = run_verification(samples=args.samples, seed=args.seed)
    checks = [
        ("three-method max gap", result.max_method_gap),
        ("normalization error", result.max_sum_error),
        ("diagonal symmetry gap", result.max_klein_gap),
        ("marginal deviation from 1/2", result.max_marginal_gap),
        ("closed-variant gap", result.max_variant_gap),
        ("lifted commutator norm", result.max_commutator),
    ]
    print(f"samples={result.samples} seed={result.seed} tol={args.tol:g}")
    ok = True
    for name, value in checks:
        status = "OK" if value <= args.tol else "FAIL"
        ok &= value <= args.tol
        print(f"  {name:<30} {value:.3e}  {status}")
    if not ok:
        mu, eta, nu, zeta, s, t = result.worst_tuple
        print("worst tuple:")
        print(f"  mu={_fmt(mu)} eta={_fmt(eta)} nu={_fmt(nu)} zeta={_fmt(zeta)} s={s} t={t}")
        return EXIT_VERIFY_FAILED
    print("all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

def cmd_independence(args) -> int:
    plane = _PLANE_FLAGS[args.plane]
    label = BellLabel(args.s, args.t)
    cond = independence.plane_condition(plane, label)

    if plane is Plane.Z_ZERO:
        lhs = "eta + zeta" if cond.condition_kind is independence.ConditionKind.SUM else "|eta - zeta|"
        anchor_name, partner_name = "eta", "zeta"
        anchor = args.eta
        if args.mu is not None:
            raise ValueError("plane z0 takes an --eta anchor, not --mu")
    else:
        lhs = "mu + nu" if cond.condition_kind is independence.ConditionKind.SUM else "|mu - nu|"
        anchor_name, partner_name = "mu", "nu"
        anchor = args.mu
        if args.eta is not None:
            raise ValueError(f"plane {args.plane} takes a --mu anchor, not --eta")

    if anchor is not None:  # a bad anchor raises here, before anything is printed
        anchor_rad = _to_radians(anchor, args.deg)
        partners = independence.partner_angles(plane, label, anchor_rad)

    targets = ", ".join(_fmt(v) for v in cond.target_values)
    multiples = ", ".join(f"{v / math.pi:g}*pi" for v in cond.target_values)
    print(f"plane: {plane.value}")
    print(f"bell label: s={label.s} t={label.t}")
    print(f"condition: {lhs} in {{{targets}}}  ({multiples})")
    if anchor is not None:
        values = ", ".join(_fmt(v) for v in partners) if partners else "none"
        print(f"solutions for {partner_name} at {anchor_name}={_fmt(anchor_rad)}: {values}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    pair, label = _parse_point(args)
    dist = bipartite.joint_distribution_closed(pair, label)
    counts = sampler.sample(dist, args.n, args.seed)
    empirical = sampler.empirical_distribution(counts)
    report = sampler.empirical_report(counts, args.tol)
    scores = sampler.cell_z_scores(counts, dist)

    print(f"n={counts.n} seed={counts.seed}")
    print("cell        count        empirical            closed-form          z-score")
    for (k, ell), observed, emp, expected, z in zip(
        bipartite.INDEX_ORDER, counts.counts, empirical.p, dist.p, scores
    ):
        print(f"({k},{ell})  {observed:>12}  {_fmt(emp):<20} {_fmt(expected):<20} {z:+.3f}")
    print(f"empirical theta       = {_fmt(report.theta)}")
    print(f"empirical entropy     = {_fmt(report.entropy)} nats")
    print(f"empirical mutual_info = {_fmt(report.mutual_info)} nats")
    print(f"empirical degree      = {_fmt(report.degree)}")
    print(f"independent = {'yes' if report.independent else 'no'} (tol {_fmt(report.tolerance)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_angle_args(parser: argparse.ArgumentParser, with_label: bool = True) -> None:
    parser.add_argument("--mu", type=float, default=0.0, help="polar angle of observable A")
    parser.add_argument("--eta", type=float, default=0.0, help="azimuthal angle of observable A")
    parser.add_argument("--nu", type=float, default=0.0, help="polar angle of observable B")
    parser.add_argument("--zeta", type=float, default=0.0, help="azimuthal angle of observable B")
    if with_label:
        parser.add_argument("--s", type=int, choices=(0, 1), default=0, help="bell label bit s")
        parser.add_argument("--t", type=int, choices=(0, 1), default=0, help="bell label bit t")
    parser.add_argument("--deg", action="store_true", help="interpret input angles as degrees")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellxtalk",
        description="Joint measurement statistics and crosstalk conditions for paired "
                    "single-qubit observables on Bell states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probs", help="single-point probability and crosstalk report")
    _add_angle_args(p)
    p.add_argument("--method", choices=("closed", "amplitude", "brute", "all"), default="closed")
    p.add_argument("--tol", type=float, default=information.DEFAULT_INDEPENDENCE_TOL,
                   help="independence tolerance on |theta - 1/4|")
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("sweep", help="parameter sweep emitted as CSV")
    _add_angle_args(p)
    p.add_argument("--vary", action="append", metavar="name=start:stop:steps",
                   help="angle range to sweep (repeat for a second axis; first varies slowest)")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.add_argument("--tol", type=float, default=information.DEFAULT_INDEPENDENCE_TOL)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="randomized agreement and invariant checks")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("independence", help="closed-form independence conditions per plane")
    p.add_argument("--plane", choices=sorted(_PLANE_FLAGS), required=True)
    p.add_argument("--s", type=int, choices=(0, 1), required=True)
    p.add_argument("--t", type=int, choices=(0, 1), required=True)
    p.add_argument("--mu", type=float, default=None, help="anchor polar angle (planes x0/y0)")
    p.add_argument("--eta", type=float, default=None, help="anchor azimuthal angle (plane z0)")
    p.add_argument("--deg", action="store_true")
    p.set_defaults(func=cmd_independence)

    p = sub.add_parser("sample", help="seeded sampling run with closed-form comparison")
    _add_angle_args(p)
    p.add_argument("--n", type=int, default=10000, help="number of draws")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=information.DEFAULT_INDEPENDENCE_TOL)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a grid or sample count too large for this machine
        print(f"error: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
