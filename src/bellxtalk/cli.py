"""Command-line interface.

Subcommands: probs (single-point report), sweep (CSV parameter sweep),
verify (randomized cross-validation of the three probability routes),
independence (closed-form angle conditions), sample (seeded sampling run).
Exit codes: 0 success, 1 verification failure, 2 usage error or unwritable output.

The algebra lives in the library, and sweep (cmd_sweep) and verify
(run_verification) run it one block of rows at a time, so neither holds
more than one block. The sweep CSV's text is exactly ``"%.17g" %`` of each
float, made by _text one numpy pass per column of a block.

verify's engine lives in _verify. This module resolves two of its names,
run_verification and _max_commutator_norm, on first access (PEP 562) and
keeps them: cmd_verify runs run_verification looked up here, and the engine
reads _max_commutator_norm back through this module, so a name the
benchmark's tracer replaces here is the one that runs.

Importing this module loads no numpy (see _np), and probs, on any --method,
never does. Each command imports the rest itself: _sweep and _text once the
sweep grid is valid, tempfile for sweep --out, independence for independence,
sampler for sample and _verify for verify.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

from . import _np as np
from . import bipartite, information
from .bipartite import BellLabel, InternalConsistencyError, ObservablePair
from .observables import Observable, Plane, require_tolerance

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

CSV_HEADER = "mu,eta,nu,zeta,s,t,p00,p01,p10,p11,entropy,mutual_info,degree,independent"
#: sweep rows per block; the grid columns, the kernel with its variant check,
#: the information columns, the formatting and the write run one block at a
#: time, so sweep's memory stays at one block whatever the grid size
SWEEP_BLOCK_ROWS = 4096

_ANGLE_NAMES = tuple(bipartite.ANGLE_BOUNDS)
_PLANE_FLAGS = {"x0": Plane.X_ZERO, "y0": Plane.Y_ZERO, "z0": Plane.Z_ZERO}

#: the names of _verify resolved here on first access (see above)
_VERIFY_NAMES = frozenset({"run_verification", "_max_commutator_norm"})


def __getattr__(name: str):
    if name not in _VERIFY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _verify

    value = globals()[name] = getattr(_verify, name)
    return value


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
        if len(axis) == 1:  # a fixed angle: a 0-stride index of zeros
            grid[name] = axis, np.broadcast_to(0, stop - start)
            continue
        pos, lo = rows // stride, start // stride
        used = min(int(pos[-1]) - lo + 1, len(axis))
        grid[name] = axis[(lo + np.arange(used)) % len(axis)], (pos - lo) % len(axis)
        stride *= len(axis)
    return grid


def cmd_sweep(args) -> int:
    """Write the sweep CSV, running the whole pipeline SWEEP_BLOCK_ROWS rows at a time.

    The axes and fixed angles are validated before the header is written, so
    a bad angle anywhere in the grid exits 2 with nothing written. Each
    block's grid is built here and handed to _sweep.write_block, which runs
    the closed kernel with its every-call variant check and the information
    columns, formats and writes the rows, and keeps none of its arrays. Only
    the axes live for the whole run, so memory stays at one block whatever
    the grid size. A consistency failure names its row counted from the start
    of the grid. On stdout the header and the earlier blocks have been
    written by then; --out is left as it was.
    """
    require_tolerance(args.tol)
    label = BellLabel(args.s, args.t)
    axes, total = _sweep_axes(args)
    from . import _sweep

    out = contextlib.nullcontext(sys.stdout) if args.out == "-" else _replacing(args.out)
    try:
        with out as handle:
            handle.write(CSV_HEADER + "\n")
            for start in range(0, total, SWEEP_BLOCK_ROWS):
                try:
                    _sweep.write_block(handle, _sweep_grid(axes, start, min(start + SWEEP_BLOCK_ROWS, total)),
                                       label, args.tol)
                except InternalConsistencyError as exc:  # name the grid row, not the block's
                    raise InternalConsistencyError(exc.gap, start + exc.row) from None
    except OSError as exc:  # name the path given, not _replacing's temp file
        if args.out == "-":
            raise  # main reports stdout's errors, for every command
        raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    return EXIT_OK


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

def cmd_verify(args) -> int:
    require_tolerance(args.tol)
    from ._verify import CHECKS

    # through the module: its __getattr__ resolves the engine, and a patched name runs
    result = sys.modules[__name__].run_verification(samples=args.samples, seed=args.seed)
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
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # so that an unwritable stdout fails here, not as the interpreter exits
        return code
    except OSError as exc:  # stdout is unwritable: a pipe whose reader has gone, say, or a full disk
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # takes what stdout holds at exit
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
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
