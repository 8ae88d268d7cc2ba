"""bellxtalk benchmark: cold-CLI and warm-library timings on four workloads,
and a traced run that splits warm time by module.

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 32 --trace 0

Run from anywhere; the program is imported and started from ``src/`` next to
this directory. ``--workload all`` runs every workload in turn.

With ``--trace 0`` one run measures, within ``--seconds``:

- ``setup_s``: a cold interpreter plus ``import bellxtalk.cli`` plus
  ``build_parser()``, median of the samples spread over the run;
- cold operations (``python -m bellxtalk ...`` processes, one at a time):
  ``wall_s`` is their mean wall time;
- ``peak_alloc_mb``: the peak of the memory one cold operation allocates
  through Python and numpy, from one extra cold operation traced by
  tracemalloc (untimed). It repeats for one input, while the children's
  peak RSS, which the info line reports, moved by a few MB between runs of
  the same input on a shared host;
- warm operations (the same work in this process): ``items_per_s`` is the
  items of one operation over the mean warm time; ``call_p50_us`` is the
  median latency of the calls within each warm operation, averaged over the
  operations. A call is a tiny library call in ``point_queries`` and a whole
  warm operation elsewhere.

Operation timings are means over the run, not medians: on a host whose speed
switches between two states every few seconds, operations have bimodal
times, and their median jumps between the modes from run to run while the
mean moves only in proportion to the time spent in each state. Within one
operation of tiny calls the median is kept, because it ignores the calls
the host preempts. For the same reason the 99th percentile of call latency,
which on a shared host measures the preemptions, is reported in the info
line with its sample count and is not a metric.

Set-up samples, cold and warm operations take turns so that each kind is
sampled over the whole run. With ``--trace 1`` the run interleaves untraced
and traced warm operations and ``-X importtime`` children instead,
and reports the per-layer metrics of ``tracing.py``, start-up import times
from ``-X importtime``, and the tracing overhead.

Every operation's output is checked (see ``workloads.py``). Lines before the
last one describe the environment and the run; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The error
rate is ``failed / attempted``. Load comes from this one process; numpy's
thread pools are pinned to one thread in it and in every child.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # pin numpy's thread pools before numpy loads
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SHARE = 0.25  # time for set-up (or import-time) samples, relative to cold and to warm operations
MIN_OPS = 3         # samples of each kind per run, at least
WATCHDOG_S = 170    # a run that takes longer is killed with its child and fails

SETUP_CODE = "import bellxtalk.cli as cli; cli.build_parser()"
# Runs the CLI as ``python -m bellxtalk`` does, then writes a peak in bytes to
# the file named by its first argument. If the second argument is 1 the peak
# is that of the memory allocated through Python and numpy, traced by
# tracemalloc from the first statement on; otherwise it is the process's own
# peak RSS (VmHWM). A child's ru_maxrss would not do: Linux carries the
# parent's peak into it at exec.
CLI_CODE = """\
import runpy, sys
peak_path, traced = sys.argv.pop(1), sys.argv.pop(1) == "1"
if traced:
    import tracemalloc
    tracemalloc.start()
sys.argv[0] = "bellxtalk"
try:
    runpy.run_module("bellxtalk", run_name="__main__", alter_sys=True)
finally:
    with open(peak_path, "w") as out:
        if traced:
            out.write(str(tracemalloc.get_traced_memory()[1]))
        else:
            with open("/proc/self/status") as status:
                kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
            out.write(str(int(kb) * 1024))
"""
IMPORT_CODE = "import numpy; import bellxtalk.cli"


class Watchdog(Exception):
    pass


def _alarm(signum, frame):
    raise Watchdog(f"run exceeded {WATCHDOG_S} s")


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds, so the running child is killed and the temp files go


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], env: dict[str, str], tmpdir: Path):
    """Run one child to completion: (wall s, exit code, stdout bytes, stderr text)."""
    out_path, err_path = tmpdir / "child.out", tmpdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    return wall, code, out_path.read_bytes(), err_path.read_text(errors="replace")


def _take_output(wl: workloads.Workload, stdout: bytes) -> bytes:
    if wl.out_path is None:
        return stdout
    path = Path(wl.out_path)
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""
    finally:
        path.unlink(missing_ok=True)


def record_cli(wl, tally: workloads.Tally, index: int, code: int, data: bytes, stderr: str) -> None:
    """Count one CLI invocation: exit code, traceback, same bytes as before, and the check."""
    failure = workloads.cli_failure(code, stderr)
    if failure is None:
        digest = hashlib.sha256(data).hexdigest()
        if tally.digests.setdefault(index, digest) != digest:
            failure = f"{wl.argvs[index][0]} output differs from an earlier run of the same invocation"
        else:
            if digest not in tally.verdicts:
                tally.verdicts[digest] = wl.check(index, data)
            failure = tally.verdicts[digest]
    tally.record(failure)


def cold_op(wl, tally, env, tmpdir, traced: bool = False) -> tuple[float, float]:
    """One cold operation: (wall s, largest peak of its processes in MB).

    The peak is RSS, or with ``traced`` the tracemalloc peak, which slows the
    children, so their wall time then means nothing.
    """
    wall, mb = 0.0, 0.0
    peak = tmpdir / "child.peak"
    for i, argv in enumerate(wl.argvs):
        peak.unlink(missing_ok=True)
        seconds, code, out, err = spawn(["-c", CLI_CODE, str(peak), str(int(traced)), *argv],
                                        env, tmpdir)
        wall += seconds
        if peak.exists():
            mb = max(mb, int(peak.read_text()) / 2**20)
        record_cli(wl, tally, i, code, _take_output(wl, out), err)
    return wall, mb


def warm_op(wl, tally, cli) -> tuple[float, list[int], int]:
    """One warm operation: (seconds in the program, per-call ns, bytes the CLI wrote)."""
    if wl.library is not None:
        latencies, busy_ns = wl.library(tally)
        return busy_ns * 1e-9, latencies, 0
    total, written = 0.0, 0
    for i, argv in enumerate(wl.argvs):
        start = time.perf_counter()
        code, out, err = workloads.call_main(cli, argv)
        total += time.perf_counter() - start
        data = _take_output(wl, out.encode())
        written += len(out.encode()) + (len(data) if wl.out_path else 0)
        record_cli(wl, tally, i, code, data, err)
    return total, [round(total * 1e9)], written


def setup_sample(tally, env, tmpdir) -> float:
    wall, code, _, err = spawn(["-c", SETUP_CODE], env, tmpdir)
    tally.record(workloads.cli_failure(code, err))
    return wall


def import_times(tally, env, tmpdir) -> tuple[float, float]:
    """(numpy, bellxtalk) cumulative import seconds from one -X importtime child."""
    _, code, _, err = spawn(["-X", "importtime", "-c", IMPORT_CODE], env, tmpdir)
    numpy_us = bellxtalk_us = 0
    for line in err.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not line.startswith("import time:"):
            continue
        name = fields[2]
        if name.startswith("  "):  # nested import, counted in its parent
            continue
        try:
            cumulative = int(fields[1])
        except ValueError:  # the header line
            continue
        if name.strip() == "numpy":
            numpy_us += cumulative
        elif name.strip().split(".")[0] == "bellxtalk":
            bellxtalk_us += cumulative
    failure = workloads.cli_failure(code, err.replace("import time:", ""))
    if failure is None and not (numpy_us and bellxtalk_us):
        failure = "importtime output lacks numpy or bellxtalk"
    tally.record(failure)
    return numpy_us * 1e-6, bellxtalk_us * 1e-6


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def share_time(sides, deadline: float) -> list[list]:
    """Run the callables of ``sides``, ``[(fn, share), ...]``, in turn until the deadline.

    The next callable is the one furthest below its share of the time spent
    so far, so every kind of sample is spread over the whole run. Each runs
    at least MIN_OPS times; after that an operation starts only if its median
    wall time still fits before the deadline. Returns each callable's results.
    """
    results = [[] for _ in sides]
    walls = [[] for _ in sides]
    spent = [0.0] * len(sides)
    while True:
        short = [i for i, r in enumerate(results) if len(r) < MIN_OPS]
        i = min(short or range(len(sides)), key=lambda k: spent[k] / sides[k][1])
        if not short and time.perf_counter() + statistics.median(walls[i]) > deadline:
            return results
        start = time.perf_counter()
        results[i].append(sides[i][0]())
        walls[i].append(time.perf_counter() - start)
        spent[i] += walls[i][-1]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def quartiles(values) -> dict:
    """Sample count and quartiles, for the info line."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": round(q1, 6), "median": round(q2, 6), "q3": round(q3, 6)}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(wl, tally, cli, env, tmpdir, deadline, info) -> dict:
    _, alloc_mb = cold_op(wl, tally, env, tmpdir, traced=True)
    setup, cold, warm = share_time([
        (lambda: setup_sample(tally, env, tmpdir), SETUP_SHARE),
        (lambda: cold_op(wl, tally, env, tmpdir), 1.0),
        (lambda: warm_op(wl, tally, cli), 1.0),
    ], deadline)
    calls = [ns * 1e-3 for _, latencies, _ in warm for ns in latencies]
    warm_s = statistics.fmean(seconds for seconds, _, _ in warm)
    info.update(item_unit=wl.item_unit, items_per_op=wl.items, samples={
        "setup_s": quartiles(setup),
        "cold_wall_s": quartiles([wall for wall, _ in cold]),
        "cold_peak_rss_mb": quartiles([rss for _, rss in cold]),
        "warm_s": quartiles([seconds for seconds, _, _ in warm]),
        "call_us": quartiles(calls),
    }, call_mean_us=statistics.fmean(calls), call_p99_us=percentile(calls, 99.0))
    return {
        "wall_s": _metric(statistics.fmean(wall for wall, _ in cold), "s"),
        "items_per_s": _metric(wl.items / warm_s, "1/s"),
        "peak_alloc_mb": _metric(alloc_mb, "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "call_p50_us": _metric(statistics.fmean(
            statistics.median(latencies) * 1e-3 for _, latencies, _ in warm), "us"),
    }


def trace(wl, tally, cli, env, tmpdir, deadline, info) -> dict:
    tracer = tracing.Tracer()
    missing: set[str] = set()

    def traced():
        tracer.clear()
        with tracing.installed(tracer) as absent:
            seconds, _, written = warm_op(wl, tally, cli)
        missing.update(absent)
        return seconds, written, len(tracer.spans), tracing.layer_metrics(tracer.spans, absent)

    imports, plain, traced_ops = share_time([
        (lambda: import_times(tally, env, tmpdir), SETUP_SHARE),
        (lambda: warm_op(wl, tally, cli)[0], 1.0),
        (traced, 1.0),
    ], deadline)
    traced_s = statistics.median(op[0] for op in traced_ops)
    plain_s = statistics.median(plain)
    units = {name: unit for name, (unit, _, _) in tracing.SPAN_METRICS.items()}
    units["independence.residual_calls"] = "count"
    metrics = {}
    for name in traced_ops[0][3]:
        metrics[name] = _metric(statistics.median(op[3][name] for op in traced_ops), units[name])
    if "kernels.rows" in metrics:
        outputs = wl.outputs + metrics.get("independence.residual_calls", {"value": 0})["value"]
        metrics["kernels.rows_per_output"] = _metric(metrics["kernels.rows"]["value"] / outputs, "ratio")
    metrics["cli.bytes_out"] = _metric(statistics.median(op[1] for op in traced_ops), "bytes")
    metrics["import.numpy_s"] = _metric(statistics.median(n for n, _ in imports), "s")
    metrics["import.bellxtalk_s"] = _metric(statistics.median(b for _, b in imports), "s")
    metrics["trace.warm_s"] = _metric(traced_s, "s")
    metrics["trace.overhead_ratio"] = _metric(traced_s / plain_s - 1.0, "ratio")
    metrics["trace.spans"] = _metric(statistics.median(op[2] for op in traced_ops), "count")
    info.update(untraced_ops=len(plain), traced_ops=len(traced_ops), untraced_warm_s=plain_s,
                absent=sorted(missing))
    info["shares_of_traced_warm"] = {
        name: round(m["value"] / traced_s, 4) for name, m in metrics.items()
        if m["unit"] == "s" and name.split(".")[0] not in ("import", "trace")
    }
    return metrics


def environment(bellxtalk, kernels, numpy) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "bellxtalk").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": getattr(kernels, "BACKEND", "absent"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "bellxtalk": bellxtalk.__file__,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, env_info: dict,
                 sizes: workloads.Sizes = workloads.FULL) -> dict:
    from bellxtalk import cli

    start = time.perf_counter()
    deadline = start + seconds
    tally = workloads.Tally()
    env = child_env()
    tmpdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        # untimed warm-up: byte-compile for the children, fill the caches, first in-process call
        spawn(["-c", SETUP_CODE], env, tmpdir)
        tiny = workloads.make(name, seed, workloads.TINY, str(tmpdir))
        warm_op(tiny, tally, cli)
        if tiny.final:
            tiny.final(tally)
        tally.digests.clear()
        tally.verdicts.clear()

        wl = workloads.make(name, seed, sizes, str(tmpdir))
        info = {"workload": name, "seed": seed}
        if traced:
            metrics = trace(wl, tally, cli, env, tmpdir, deadline, info)
        else:
            metrics = measure(wl, tally, cli, env, tmpdir, deadline, info)
        if wl.final:
            wl.final(tally)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if wl.out_path is not None and 0 in tally.digests:
        info["csv_sha256"] = tally.digests[0]
    info.update(error_rate=tally.failed / tally.attempted, failures=tally.messages,
                run_s=round(time.perf_counter() - start, 3))
    print("env " + json.dumps(env_info, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for metric, m in metrics.items():
        print(f"metric {name} {metric} = {m['value']:.6g} {m['unit']}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "bellxtalk" / "__init__.py").is_file():
        print(f"error: no bellxtalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import bellxtalk
    from bellxtalk import _kernels

    if Path(bellxtalk.__file__).resolve().parent != SRC / "bellxtalk":
        print(f"error: imported bellxtalk from {bellxtalk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env_info = environment(bellxtalk, _kernels, numpy)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminate)
    results = {}
    for name in names:
        signal.alarm(WATCHDOG_S)
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), env_info)
        except Watchdog as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 3
        finally:
            signal.alarm(0)
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
