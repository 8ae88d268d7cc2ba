"""Rebuild tests/golden.json, the pinned CLI outputs that tests/test_golden.py checks.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

Each case is one ``bellxtalk`` command line, run in-process. The file maps the
command line to its [exit code, stdout, stderr], except for these kinds:

- the stdout of a sweep, and of a verify run at 10k or 200k samples, is
  stored as its sha256 (hashed_cases);
- the anchored ``independence`` runs of one plane and label are stored under
  the key of the unanchored run plus " <anchors>", as a list of what each run
  prints after the unanchored run's stdout, in the order of _anchor_flags.
  Each such run must exit 0 with nothing on stderr.

The bad-input runs (error_cases and usage_error_cases) must each exit
nonzero, print nothing on stdout and one line, with no traceback, on stderr.

Three more keys each hold one sha256: LIBRARY_KEY of library_text
(``plane_condition``, ``partner_angles`` and the three plane predicates over
edge grids), PROBS_KEY of probs_text (``probs --method all`` over an edge
grid) and REPORT_KEY of report_text (``crosstalk_report`` as ``float.hex`` on
fixed points). SAMPLE_KEY holds the sha256 of sample_text, the stdout of
``sample`` at pinned seeds. SOLVER_KEY holds solver_lines itself: the roots
of ``solve_independence`` as ``float.hex`` on seeded paths. Rebuild the file
only when an output is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

from bellxtalk.bipartite import BellLabel, ObservablePair
from bellxtalk.cli import main
from bellxtalk.independence import (
    condition_x_plane,
    condition_y_plane,
    condition_z_plane,
    partner_angles,
    plane_condition,
    solve_independence,
)
from bellxtalk.information import crosstalk_report
from bellxtalk.observables import Observable, Plane

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

PI = math.pi
LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))
LIBRARY_KEY = "independence library sha256"
PROBS_KEY = "probs --method all edge grid sha256"
REPORT_KEY = "crosstalk_report float.hex sha256"
SAMPLE_KEY = "sample stdout sha256"
SOLVER_KEY = "solve_independence float.hex"
#: the poles, the plane boundaries and the closed end 2*pi
EDGE_POLAR = (0.0, PI / 2, PI)
EDGE_AZIMUTH = (0.0, PI / 2, PI, 2 * PI)


def _anchor_flags(plane: str) -> list[tuple[str, ...]]:
    """Every anchor of one plane, in radians and in degrees: the edges, inner points, the last double below the top."""
    if plane == "z0":
        flag = "--eta"
        radians = [0.0, PI / 4, PI / 2, PI, 1.5 * PI, math.nextafter(2 * PI, 0.0), 2 * PI]
        degrees = [0.0, 45.0, 90.0, 180.0, 270.0, math.nextafter(360.0, 0.0), 360.0]
    else:
        flag = "--mu"
        radians = [0.0, PI / 4, PI / 2, math.nextafter(PI, 0.0), PI]
        degrees = [0.0, 45.0, 90.0, math.nextafter(180.0, 0.0), 180.0]
    return [(flag, repr(value)) for value in radians] + [(flag, repr(value), "--deg") for value in degrees]


def groups() -> list[tuple[str, ...]]:
    """The unanchored ``independence`` run of every plane and label."""
    return [("independence", "--plane", plane, "--s", str(s), "--t", str(t))
            for plane in ("x0", "y0", "z0") for s, t in LABELS]


def anchored(group: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [group + anchor for anchor in _anchor_flags(group[2])]


def anchored_key(group: tuple[str, ...]) -> str:
    return key(group) + " <anchors>"


def error_cases() -> list[tuple[str, ...]]:
    """The other plane's anchor flag, and anchors outside the domain."""
    return [("independence", *argv) for argv in (
        ("--plane", "x0", "--s", "0", "--t", "0", "--eta", "1.0"),
        ("--plane", "y0", "--s", "1", "--t", "0", "--eta", "0"),
        ("--plane", "z0", "--s", "0", "--t", "1", "--mu", "1.0"),
        ("--plane", "y0", "--s", "0", "--t", "1", "--mu", "-0.1"),
        ("--plane", "x0", "--s", "1", "--t", "1", "--mu", repr(math.nextafter(PI, 4.0))),
        ("--plane", "z0", "--s", "1", "--t", "1", "--eta", repr(math.nextafter(2 * PI, 7.0))),
        ("--plane", "z0", "--s", "0", "--t", "0", "--eta", "361", "--deg"),
        ("--plane", "x0", "--s", "0", "--t", "1", "--mu", "nan"),
        ("--plane", "y0", "--s", "1", "--t", "1", "--mu", "inf"),
    )]


def usage_error_cases() -> list[tuple[str, ...]]:
    """Bad tolerances, angles, --vary specs, sample sizes and seeds of the other commands."""
    cases = [(command, "--tol", tol) for command in ("probs", "sweep", "verify", "sample")
             for tol in ("0", "-1", "nan", "inf")]
    return cases + [
        ("probs", "--mu", "4"),
        ("sweep", "--vary", "mu=0:4:3"),
        ("sweep", "--vary", "mu=0:1"),
        ("sweep", "--vary", "nu=0:1:3", "--vary", "nu=0:2:3"),
        ("sweep", "--vary", "mu=0:1:3", "--vary", "nu=0:1:3", "--vary", "eta=0:1:3"),
        ("verify", "--samples", "0"),
        ("verify", "--seed", "-1"),
        ("sample", "--n", "0"),
        ("sample", "--seed", str(2**64)),
    ]


def is_one_line_error(record: list) -> bool:
    """A bad-input run's record: nonzero exit, no stdout, one stderr line and no traceback."""
    code, out, err = record
    return code != 0 and out == "" and err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err


def sweep_cases() -> list[tuple[str, ...]]:
    pi, two_pi = repr(PI), repr(2 * PI)
    return [
        # one axis of 4096 rows, from 0 to pi, beside fixed angles 2*pi and 0
        ("sweep", "--vary", f"mu=0:{pi}:4096", "--eta", two_pi, "--nu", repr(PI / 4), "--zeta", "0",
         "--s", "0", "--t", "0"),
        # two axes, 63 x 65 = 4095 rows
        ("sweep", "--vary", f"eta=0:{two_pi}:63", "--vary", f"nu=0:{pi}:65", "--mu", repr(PI / 2),
         "--zeta", "1.25", "--s", "0", "--t", "1"),
        # two axes, 17 x 241 = 4097 rows
        ("sweep", "--vary", f"zeta=0:{two_pi}:17", "--vary", f"mu=0:{pi}:241", "--eta", "0.5",
         "--nu", pi, "--s", "1", "--t", "0", "--tol", "0.05"),
        # degrees, 64 x 64 = 4096 rows
        ("sweep", "--deg", "--vary", "eta=0:360:64", "--vary", "mu=0:180:64", "--nu", "90",
         "--zeta", "45", "--s", "1", "--t", "1"),
        # one axis of 4097 rows
        ("sweep", "--vary", f"nu=0:{pi}:4097", "--mu", "1.1", "--eta", two_pi, "--zeta", pi,
         "--s", "1", "--t", "1"),
        # one row at the edges
        ("sweep", "--mu", pi, "--eta", two_pi, "--nu", "0", "--zeta", pi, "--s", "0", "--t", "1"),
        # two axes, 3 x 2731 = 8193 rows: two blocks and a row
        ("sweep", "--vary", f"nu=0:{pi}:3", "--vary", f"zeta=0:{two_pi}:2731", "--mu", "0.75",
         "--eta", "2.5", "--s", "0", "--t", "1"),
        # 1023, 1024, 1025 and 2049 rows, across the edges of the 512-row slices the text is joined in
        ("sweep", "--vary", f"mu=0:{pi}:1023", "--eta", "1.5", "--nu", "2.0", "--zeta", "3.5",
         "--s", "1", "--t", "0"),
        ("sweep", "--vary", f"zeta=0:{two_pi}:1024", "--mu", "0.25", "--eta", "5.5", "--nu", "1.75",
         "--s", "0", "--t", "0"),
        ("sweep", "--vary", f"eta=0:{two_pi}:5", "--vary", f"nu=0:{pi}:205", "--mu", "2.75",
         "--zeta", "0.5", "--s", "1", "--t", "1"),
        ("sweep", "--vary", f"nu=0:{pi}:2049", "--mu", "0.6", "--eta", "4.0", "--zeta", "2.2",
         "--s", "0", "--t", "1", "--tol", "0.01"),
    ]


def long_verify_cases() -> list[tuple[str, ...]]:
    return [("verify", "--samples", "10000", "--seed", seed) for seed in ("0", "5")] + [
        ("verify", "--samples", "200000", "--seed", "0")]


def hashed_cases() -> list[tuple[str, ...]]:
    """The cases whose stdout is stored as its sha256."""
    return sweep_cases() + long_verify_cases()


def verify_cases() -> list[tuple[str, ...]]:
    cases = []
    for seed in ("0", "7"):
        for samples in ("1", "4097"):
            base = ("verify", "--samples", samples, "--seed", seed)
            cases += [base, base + ("--tol", "1e-17")]
    return cases


def library_text() -> str:
    """plane_condition, partner_angles (as float.hex) and the three predicates over edge grids, one line each."""
    lines = []
    for plane in (Plane.X_ZERO, Plane.Y_ZERO, Plane.Z_ZERO):
        hi = 2 * PI if plane is Plane.Z_ZERO else PI
        # multiples of pi/16 hit the targets exactly; the last double below hi is an edge of its own
        grid = [k * PI / 16 for k in range(int(round(hi / (PI / 16))) + 1)] + [math.nextafter(hi, 0.0), 1.0, 2.5]
        for s, t in LABELS:
            label = BellLabel(s, t)
            lines.append(repr(plane_condition(plane, label)))
            for anchor in grid:
                lines.append(" ".join(x.hex() for x in partner_angles(plane, label, anchor)))
            if plane is Plane.X_ZERO:
                predicate = lambda a, b: condition_x_plane(a, b, s)
            elif plane is Plane.Y_ZERO:
                predicate = lambda a, b: condition_y_plane(a, b, s, t)
            else:
                predicate = lambda a, b: condition_z_plane(a, b, t)
            lines.append("".join("1" if predicate(a, b) else "0" for a in grid for b in grid))
    return "\n".join(lines) + "\n"


def probs_text() -> str:
    """stdout of ``probs --method all`` over the edge grid and the four labels."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for mu in EDGE_POLAR:
            for eta in EDGE_AZIMUTH:
                for nu in EDGE_POLAR:
                    for zeta in EDGE_AZIMUTH:
                        for s, t in LABELS:
                            assert main([
                                "probs", "--method", "all", "--mu", repr(mu), "--eta", repr(eta),
                                "--nu", repr(nu), "--zeta", repr(zeta), "--s", str(s), "--t", str(t)]) == 0
    return out.getvalue()


def report_points() -> list[tuple[float, float, float, float]]:
    """2000 points drawn by a seeded random.Random, then the edge grid."""
    rng = random.Random(11903)
    points = [(rng.uniform(0.0, PI), rng.uniform(0.0, 2 * PI), rng.uniform(0.0, PI), rng.uniform(0.0, 2 * PI))
              for _ in range(2000)]
    return points + [(mu, eta, nu, zeta) for mu in EDGE_POLAR for eta in EDGE_AZIMUTH
                     for nu in EDGE_POLAR for zeta in EDGE_AZIMUTH]


def report_text() -> str:
    """Every field of crosstalk_report, floats as float.hex, at each point and label; one line each."""
    lines = []
    for mu, eta, nu, zeta in report_points():
        pair = ObservablePair(Observable(mu, eta), Observable(nu, zeta))
        for s, t in LABELS:
            r = crosstalk_report(pair, BellLabel(s, t))
            lines.append(" ".join([*(x.hex() for x in (r.theta, r.entropy, r.mutual_info, r.degree)),
                                   str(r.independent), r.tolerance.hex()]))
    return "\n".join(lines) + "\n"


def solver_paths() -> list[tuple[str, object, int]]:
    """(name, path, grid) of each solver case: seeded random paths, then a path with roots on its grid.

    The random paths sweep mu over [0, pi] and, on the second kind, zeta over
    [z, z + 2*pi], which Observable reduces modulo 2*pi; the last path lies in
    the x=0 plane, where theta = 1/4 at mu + nu = pi/2 or |mu - nu| = pi/2.
    """
    rng = random.Random(20240611)
    paths = []
    for i in range(3):
        eta, nu, zeta = rng.uniform(0.0, 2 * PI), rng.uniform(0.0, PI), rng.uniform(0.0, 2 * PI)
        paths.append((f"mu {eta!r} {nu!r} {zeta!r}",
                      lambda x, eta=eta, nu=nu, zeta=zeta: ObservablePair(Observable(PI * x, eta), Observable(nu, zeta)),
                      257))
        paths.append((f"mu zeta {eta!r} {nu!r} {zeta!r}",
                      lambda x, eta=eta, nu=nu, zeta=zeta: ObservablePair(Observable(PI * x, eta),
                                                                          Observable(nu, zeta + 2 * PI * x)),
                      64 + i))
    paths.append(("x0 mu pi/4", lambda x: ObservablePair(Observable(PI * x, PI / 2), Observable(PI / 4, PI / 2)), 5))
    return paths


def solver_lines() -> list[str]:
    """Each root's sweep parameter, theta and bracket width as float.hex, one line per path and label."""
    lines = []
    for name, path, grid in solver_paths():
        for s, t in LABELS:
            roots = solve_independence(path, BellLabel(s, t), grid)
            lines.append(f"{name} grid={grid} s={s} t={t}: " + " ".join(
                f"{r.sweep_parameter.hex()},{r.theta_at_root.hex()},{r.bracket_width.hex()}" for r in roots))
    return lines


def sample_cases() -> list[tuple[str, ...]]:
    """``sample`` at pinned seeds, on points with no zero cell."""
    points = (("--mu", "1.234", "--eta", "4.321", "--nu", "2.468", "--zeta", "0.987", "--s", "1", "--t", "0"),
              ("--mu", "0.3", "--eta", "0", "--nu", "2.9", "--zeta", "6.1", "--s", "0", "--t", "1"),
              ("--mu", "90", "--eta", "45", "--nu", "60", "--zeta", "300", "--s", "1", "--t", "1", "--deg"))
    seeds = ("0", "7", str(2**64 - 1))
    return [("sample", *point, "--n", n, "--seed", seed)
            for point in points for seed in seeds for n in ("1", "100000")]


def sample_text() -> str:
    """[exit code, stdout, stderr] of every sample case, one JSON line each."""
    return "".join(json.dumps(run(argv)) + "\n" for argv in sample_cases())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: tuple[str, ...]) -> list:
    """[exit code, stdout, stderr] of one command line, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, out.getvalue(), err.getvalue()]


def key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def hashed_record(argv: tuple[str, ...]) -> list:
    code, out, err = run(argv)
    return [code, sha256(out), err]


def build() -> dict:
    golden = {}
    for group in groups():
        golden[key(group)] = header = run(group)
        tails = []
        for argv in anchored(group):
            code, out, err = run(argv)
            assert (code, err) == (0, "") and out.startswith(header[1]), argv
            tails.append(out[len(header[1]):])
        golden[anchored_key(group)] = tails
    for argv in error_cases() + usage_error_cases():
        golden[key(argv)] = record = run(argv)
        assert is_one_line_error(record), argv
    golden.update((key(argv), hashed_record(argv)) for argv in hashed_cases())
    golden.update((key(argv), run(argv)) for argv in verify_cases())
    golden[LIBRARY_KEY] = sha256(library_text())
    golden[PROBS_KEY] = sha256(probs_text())
    golden[REPORT_KEY] = sha256(report_text())
    golden[SAMPLE_KEY] = sha256(sample_text())
    golden[SOLVER_KEY] = solver_lines()
    return golden


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in build().items()) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
