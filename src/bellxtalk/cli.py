"""Command-line interface.

Subcommands: probs (single-point report), sweep (CSV parameter sweep),
verify (randomized cross-validation of the three probability routes),
independence (closed-form angle conditions), sample (seeded sampling run).
Exit codes: 0 success, 1 verification failure, 2 usage error.

The algebra lives in the library: sweep and verify call the batch routes
(verify also bipartite.commutator_norms) one block of rows at a time, so
neither holds more than one block. The sweep CSV's text is exactly
``"%.17g" %`` of each float; _text makes it one numpy pass per column of a
block.

Importing this module loads no numpy (see _np), and probs, on any --method,
never does. Each command imports the rest itself: _text for the first sweep
block written, tempfile for sweep --out, independence for independence and
sampler for sample.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import operator
import os
import sys

from . import _np as np
from . import bipartite, information
from .bipartite import BellLabel, InternalConsistencyError, ObservablePair
from .observables import Observable, Plane, Record, require_tolerance

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

CSV_HEADER = "mu,eta,nu,zeta,s,t,p00,p01,p10,p11,entropy,mutual_info,degree,independent"
#: sweep rows per block; the grid columns, the kernel with its variant check,
#: the information columns, the formatting and the write run one block at a
#: time, so sweep's memory stays at one block whatever the grid size
SWEEP_BLOCK_ROWS = 4096
#: verify tuples per block; the draws and every route and check run one block
#: at a time, so verify's memory stays at one block whatever --samples. Half
#: sweep's block, for a lower peak; column-slice checks pay for the blocks
VERIFY_BLOCK_ROWS = 2048

_ANGLE_NAMES = tuple(bipartite.ANGLE_BOUNDS)
_PLANE_FLAGS = {"x0": Plane.X_ZERO, "y0": Plane.Y_ZERO, "z0": Plane.Z_ZERO}


def _fmt(value: float) -> str:
    # 17 significant digits round-trip double precision exactly
    return format(float(value), ".17g")


def _parse_vary(text: str) -> tuple[str, np.ndarray]:
    """The angle name and inclusive linspace axis of one --vary spec."""
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
    if not (math.isfinite(start) and math.isfinite(stop)):  # before linspace meets them
        raise ValueError(f"--vary range {spec!r} must be finite")
    if not math.isfinite(stop - start):  # linspace would overflow and warn
        raise ValueError(f"--vary range {spec!r} is wider than the largest float")
    if steps < 1:
        raise ValueError("--vary steps must be at least 1")
    return name, np.linspace(start, stop, steps)


def _to_radians(value: float, use_degrees: bool) -> float:
    return math.radians(value) if use_degrees else float(value)


def _parse_point(args) -> tuple[ObservablePair, BellLabel]:
    pair = ObservablePair(
        a=Observable(_to_radians(args.mu, args.deg), _to_radians(args.eta, args.deg)),
        b=Observable(_to_radians(args.nu, args.deg), _to_radians(args.zeta, args.deg)),
    )
    return pair, BellLabel(args.s, args.t)


def _print_report(report, prefix: str = "") -> None:
    """The theta, information and independence lines of probs and sample."""
    print(f"{prefix}theta       = {_fmt(report.theta)}")
    print(f"{prefix}entropy     = {_fmt(report.entropy)} nats")
    print(f"{prefix}mutual_info = {_fmt(report.mutual_info)} nats")
    print(f"{prefix}degree      = {_fmt(report.degree)}")
    print(f"independent = {'yes' if report.independent else 'no'} (tol {_fmt(report.tolerance)})")


# ---------------------------------------------------------------------------
# probs
# ---------------------------------------------------------------------------

def cmd_probs(args) -> int:
    pair, label = _parse_point(args)
    methods = {
        "closed": lambda: bipartite.joint_distribution_closed(pair, label),
        "amplitude": lambda: bipartite.joint_distribution_amplitude(pair, label),
        "brute": lambda: bipartite.joint_distribution_bruteforce(pair, bipartite.bell_state_row(label)),
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
    _print_report(report)
    if len(dists) > 1:
        rows = [d.p for d in dists.values()]
        gap = max(abs(x - y) for i, p in enumerate(rows) for q in rows[i + 1:] for x, y in zip(p, q))
        print(f"max pairwise method discrepancy = {gap:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_axes(args) -> tuple[dict[str, np.ndarray], int]:
    """Each angle's axis in radians, validated, and the number of grid rows.

    A varied angle's axis is its linspace and a fixed angle's axis holds its
    one value. The varied axes come first, in the order given: the first
    listed varies slowest. Every axis is checked here, so a bad angle
    anywhere in the grid is reported before any row is written.
    """
    texts = args.vary or []
    if len(texts) > 2:
        raise ValueError("at most two parameters can vary")
    names = [text.partition("=")[0] for text in texts]  # before any axis is built
    if len(set(names)) != len(names):
        raise ValueError("each --vary parameter may appear only once")
    axes = {name: np.radians(axis) if args.deg else axis for name, axis in map(_parse_vary, texts)}
    for name in _ANGLE_NAMES:  # in the kernel's order, so of two bad angles it names the first
        axes.setdefault(name, np.array([_to_radians(getattr(args, name), args.deg)]))
        bipartite.validated_angle(name, axes[name])
    return axes, math.prod(len(axis) for axis in axes.values())


def _sweep_grid(
    axes: dict[str, np.ndarray], start: int, stop: int
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each axis's values in grid rows start to stop - 1, and each row's index into them.

    Row r takes element (r // stride) % len(axis) of each axis, where stride
    is the product of the lengths of the axes after it. For two varied axes
    that is axis0[r // n1] and axis1[r % n1], row r of
    np.meshgrid(axis0, axis1, indexing="ij") raveled. The values run over
    consecutive axis elements, wrapping past the end, from element
    (start // stride) % len(axis) to the last one the rows reach, at most
    min(stop - start, len(axis)) of them; values[index] is the angle column.
    """
    rows = np.arange(start, stop)
    grid = {}
    stride = 1
    for name, axis in reversed(axes.items()):
        pos, lo = rows // stride, start // stride
        used = min(int(pos[-1]) - lo + 1, len(axis))
        grid[name] = axis[(lo + np.arange(used)) % len(axis)], (pos - lo) % len(axis)
        stride *= len(axis)
    return grid


def cmd_sweep(args) -> int:
    """Write the sweep CSV, running the whole pipeline SWEEP_BLOCK_ROWS rows at a time.

    The axes and fixed angles are validated before the header is written, so
    a bad angle anywhere in the grid exits 2 with nothing written. Each block
    builds its angle columns, runs the closed kernel with its every-call
    variant check and the information columns, and is formatted and written.
    Only the axes live for the whole run, so memory stays at one block
    whatever the grid size. A consistency failure names its row counted from
    the start of the grid. On stdout the header and the earlier blocks have
    been written by then; --out is left as it was.
    """
    require_tolerance(args.tol)
    label = BellLabel(args.s, args.t)
    axes, total = _sweep_axes(args)

    out = contextlib.nullcontext(sys.stdout) if args.out == "-" else _replacing(args.out)
    try:
        with out as handle:
            handle.write(CSV_HEADER + "\n")
            for start in range(0, total, SWEEP_BLOCK_ROWS):
                stop = min(start + SWEEP_BLOCK_ROWS, total)
                grid = _sweep_grid(axes, start, stop)
                s = np.full(stop - start, label.s, dtype=np.int64)
                t = np.full(stop - start, label.t, dtype=np.int64)
                try:
                    probs = bipartite.joint_closed_batch(
                        *(values[index] for values, index in map(grid.get, _ANGLE_NAMES)), s, t
                    )
                except InternalConsistencyError as exc:  # name the grid row, not the block's
                    raise InternalConsistencyError(exc.gap, start + exc.row) from None
                entropy = information.shannon_entropy_rows(probs)
                mutual = information.mutual_information_rows(probs)
                degree = information.degree_rows(mutual)
                independent = (np.abs(probs[:, 0] - 0.25) <= args.tol).astype(int)
                _write_sweep_rows(handle, label, grid, probs, entropy, mutual, degree, independent)
    except OSError as exc:  # name the path given, not _replacing's temp file
        raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    return EXIT_OK


def _write_sweep_rows(handle, label, grid, probs, entropy, mutual, degree, independent) -> None:
    """Write one block's CSV rows to handle.

    Every float's text is ``"%.17g" % x``, the text of ``_fmt(x)``, made one
    column at a time by ``_text.floats``. Each angle's block values (see
    _sweep_grid) are formatted once and gathered by row index a slice at a
    time. The rows are Bell-shaped as joint_closed_batch gives them, p11 ==
    p00 and p10 == p01 bit for bit, so p11 and p10 reuse the texts of p00 and
    p01. The label bits are the same on every row. The rows go to handle as
    str, 512 at a time, so any text handle takes them: the --out temp file,
    sys.stdout or a StringIO.
    """
    from . import _text

    angles = [(_text.floats(values), index) for values, index in map(grid.get, _ANGLE_NAMES)]
    p00, p01 = (_text.floats(probs[:, k]) for k in (0, 1))
    flags = (independent + ord("0")).astype(np.uint8)[:, None]  # 0 or 1
    fields = [*angles, str(label.s).encode(), str(label.t).encode(), p00, p01, p01, p00,
              *map(_text.floats, (entropy, mutual, degree)), flags]
    for text in _text.lines(fields):
        handle.write(text)


@contextlib.contextmanager
def _replacing(path: str):
    """Text handle on a temp file beside path, renamed onto path when the block succeeds.

    On any failure the temp file is removed and path is left as it was. A
    symlink is followed, so the file it names is replaced, not the link; a
    path that exists but is no regular file, such as /dev/stdout or a pipe,
    is written in place.
    """
    import tempfile

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

#: verify's checks, in the order it prints them and VerificationResult.maxima holds them
CHECKS = (
    "three-method max gap",
    "normalization error",
    "diagonal symmetry gap",
    "marginal deviation from 1/2",
    "closed-variant gap",
    "lifted commutator norm",
)


class VerificationResult(Record):
    """Worst-case deviations over the random draw set: each check's maximum, in CHECKS order."""

    samples: int
    seed: int
    maxima: tuple[float, ...]
    worst_tuple: tuple[float, float, float, float, int, int]

    def passes(self, tol: float) -> bool:
        """True when every check is within tol; a NaN fails its check."""
        return all(value <= tol for value in self.maxima)


def run_verification(samples: int = 10000, seed: int = 0) -> VerificationResult:
    """Cross-validate the three probability routes on random angle tuples.

    Draws (mu, eta, nu, zeta, s, t) uniformly, VERIFY_BLOCK_ROWS tuples at a
    time from _verify_draws, the same tuples for a seed whatever the block
    size. Each block's routes and checks fold into running maxima, and its
    arrays are dropped before the next block's kernels run: memory stays at
    one block. Checks read column slices and views, not costlier axis=1
    reductions (row sums add in m.sum(axis=1)'s order), and numpy folds them:
    a NaN anywhere a check reads makes it NaN. The worst tuple is the first
    row, over all blocks, with the largest three-method gap.
    """
    samples, seed = operator.index(samples), operator.index(seed)  # TypeError for a float
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if seed < 0:  # numpy's own message would not name the seed
        raise ValueError("seed must be a non-negative integer")
    maxima = np.full(len(CHECKS), -np.inf)
    worst_tuple = None
    for mu, eta, nu, zeta, s, t in _verify_draws(samples, seed):
        angles = mu, eta, nu, zeta
        closed = bipartite.joint_closed_batch(*angles, s, t, check=False)
        variant_gap = np.abs(closed - bipartite.joint_closed_alt_batch(*angles, s, t)).max()
        amplitude = bipartite.joint_amplitude_batch(*angles, s, t)
        brute = bipartite.joint_bruteforce_batch(*angles, bipartite.bell_state_batch(s, t))

        gap = np.maximum(
            np.abs(closed - amplitude),
            np.maximum(np.abs(closed - brute), np.abs(amplitude - brute)),
        )
        worst, cell = divmod(int(gap.argmax()), 4)  # the first row holding the largest gap
        block_maxima = np.array([  # in CHECKS order
            gap[worst, cell],
            np.max([np.abs(m[:, 0] + m[:, 1] + m[:, 2] + m[:, 3] - 1.0) for m in (closed, amplitude, brute)]),
            np.maximum(np.abs(amplitude - amplitude[:, ::-1]), np.abs(brute - brute[:, ::-1])).max(),
            np.abs(brute[:, [0, 2, 0, 1]] + brute[:, [1, 3, 2, 3]] - 0.5).max(),
            variant_gap,
            _max_commutator_norm(*angles),
        ])
        del closed, amplitude, brute, gap
        # the first row with the largest gap, a NaN counting as largest, as argmax counts it in a block
        if worst_tuple is None or (not block_maxima[0] <= maxima[0] and not np.isnan(maxima[0])):
            worst_tuple = (
                float(mu[worst]), float(eta[worst]), float(nu[worst]), float(zeta[worst]),
                int(s[worst]), int(t[worst]),
            )
        np.maximum(maxima, block_maxima, out=maxima)

    return VerificationResult(samples, seed, tuple(maxima.tolist()), worst_tuple)


def _verify_draws(samples: int, seed: int):
    """Yield verify's (mu, eta, nu, zeta, s, t) columns VERIFY_BLOCK_ROWS rows at a time.

    The rows are those of default_rng(seed) drawing the six whole columns in
    turn: four uniform angle columns, then the s and t bits. Each column has
    its own PCG64 stream, advanced once to where the column starts in that
    sequence. A uniform value takes one 64-bit word, so angle column k starts
    at word k*n. An integers(0, 2) value takes one 32-bit half of a word, so
    label column k starts at half q = k*n past word 4n: the stream advances
    4n + q // 2 words and, when q is odd, throws the low half away.
    """
    def positioned(words: int, skip_half: bool = False) -> np.random.Generator:
        bits = np.random.PCG64(seed)
        bits.advance(words)
        stream = np.random.Generator(bits)
        if skip_half:
            stream.integers(0, 2, 1)
        return stream

    angle_streams = [
        (positioned(k * samples), high)
        for k, high in enumerate(bipartite.ANGLE_BOUNDS.values())
    ]
    label_streams = [
        positioned(4 * samples + q // 2, q % 2 == 1) for q in (0, samples)
    ]
    for start in range(0, samples, VERIFY_BLOCK_ROWS):
        rows = min(VERIFY_BLOCK_ROWS, samples - start)
        yield (
            *(stream.uniform(0.0, high, rows) for stream, high in angle_streams),
            *(stream.integers(0, 2, rows) for stream in label_streams),
        )


def _max_commutator_norm(mu, eta, nu, zeta) -> float:
    """Largest Frobenius norm of [A (x) I, I (x) B] over one block of rows."""
    return float(bipartite.commutator_norms(mu, eta, nu, zeta).max())


def cmd_verify(args) -> int:
    require_tolerance(args.tol)
    result = run_verification(samples=args.samples, seed=args.seed)
    print(f"samples={result.samples} seed={result.seed} tol={args.tol:g}")
    for name, value in zip(CHECKS, result.maxima):
        print(f"  {name:<30} {value:.3e}  {'OK' if value <= args.tol else 'FAIL'}")
    if not result.passes(args.tol):
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
    from . import independence

    plane = _PLANE_FLAGS[args.plane]
    label = BellLabel(args.s, args.t)
    cond = independence.plane_condition(plane, label)

    polar = plane is not Plane.Z_ZERO  # x0 and y0 pair the polar angles, z0 the azimuths
    anchor_name, partner_name, article, wrong = ("mu", "nu", "a", "eta") if polar else ("eta", "zeta", "an", "mu")
    if getattr(args, wrong) is not None:
        raise ValueError(f"plane {args.plane} takes {article} --{anchor_name} anchor, not --{wrong}")
    anchor = getattr(args, anchor_name)
    lhs = (f"{anchor_name} + {partner_name}" if cond.condition_kind is independence.ConditionKind.SUM
           else f"|{anchor_name} - {partner_name}|")

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
    from . import sampler

    require_tolerance(args.tol)  # before the draws, which may take seconds
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
    _print_report(report, prefix="empirical ")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_angle_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", type=float, default=0.0, help="polar angle of observable A")
    parser.add_argument("--eta", type=float, default=0.0, help="azimuthal angle of observable A")
    parser.add_argument("--nu", type=float, default=0.0, help="polar angle of observable B")
    parser.add_argument("--zeta", type=float, default=0.0, help="azimuthal angle of observable B")
    parser.add_argument("--s", type=int, choices=(0, 1), default=0, help="bell label bit s")
    parser.add_argument("--t", type=int, choices=(0, 1), default=0, help="bell label bit t")
    parser.add_argument("--deg", action="store_true", help="interpret input angles as degrees")


@functools.cache
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

    p = sub.add_parser("sweep", help="parameter sweep emitted as CSV")
    _add_angle_args(p)
    p.add_argument("--vary", action="append", metavar="name=start:stop:steps",
                   help="angle range to sweep (repeat for a second axis; first varies slowest)")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.add_argument("--tol", type=float, default=information.DEFAULT_INDEPENDENCE_TOL)

    p = sub.add_parser("verify", help="randomized agreement and invariant checks")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("independence", help="closed-form independence conditions per plane")
    p.add_argument("--plane", choices=sorted(_PLANE_FLAGS), required=True)
    p.add_argument("--s", type=int, choices=(0, 1), required=True)
    p.add_argument("--t", type=int, choices=(0, 1), required=True)
    p.add_argument("--mu", type=float, default=None, help="anchor polar angle (planes x0/y0)")
    p.add_argument("--eta", type=float, default=None, help="anchor azimuthal angle (plane z0)")
    p.add_argument("--deg", action="store_true")

    p = sub.add_parser("sample", help="seeded sampling run with closed-form comparison")
    _add_angle_args(p)
    p.add_argument("--n", type=int, default=10000, help="number of draws")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=information.DEFAULT_INDEPENDENCE_TOL)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        # looked up per call, so a handler replaced on this module is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a --vary step count whose axis does not fit in memory
        print(f"error: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
