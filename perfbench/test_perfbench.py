"""Tests of the benchmark itself, at tiny input sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from bellxtalk import _kernels, cli

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# a splitmix64 seed whose first draw is exactly 0.0; with the Bell label this
# seed picks for the zero-cell point, cell (0,0) has probability zero
ZERO_DRAW_SEED = 2**64 - 0x9E3779B97F4A7C15


def _tiny(name: str, seed: int, tmp_path):
    return workloads.make(name, seed, workloads.TINY, str(tmp_path))


def _warm(wl, tally):
    run.warm_op(wl, tally, cli)
    if wl.final:
        wl.final(tally)


def _swap_cells(fn):
    """Wrap fn so the first two cells of its result trade places."""
    def swapped(*args, **kwargs):
        out = np.array(fn(*args, **kwargs))
        out[..., [0, 1]] = out[..., [1, 0]]
        return out
    return swapped


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_cold_and_warm_pass(name, tmp_path):
    wl = _tiny(name, 3, tmp_path)
    tally = workloads.Tally()
    run.cold_op(wl, tally, run.child_env(), tmp_path)
    _warm(wl, tally)
    _warm(wl, tally)
    assert tally.attempted >= 3
    assert tally.failed == 0, tally.messages


def test_cold_peak_rss_is_the_childs_own(tmp_path):
    ballast = bytearray(200 * 2**20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touch every page so it counts in this process's RSS
    tally = workloads.Tally()
    _, rss = run.cold_op(_tiny("point_queries", 1, tmp_path), tally, run.child_env(), tmp_path)
    del ballast
    assert tally.failed == 0
    assert 5 < rss < 150


def test_traced_cold_peak_counts_what_the_child_allocates(tmp_path):
    small_tally, tally = workloads.Tally(), workloads.Tally()
    env = run.child_env()
    small_wl = _tiny("verify_oracles", 1, tmp_path)
    _, small = run.cold_op(small_wl, small_tally, env, tmp_path, traced=True)
    big = workloads.verify_oracles(1, workloads.Sizes(verify_samples=20_000), str(tmp_path))
    _, large = run.cold_op(big, tally, env, tmp_path, traced=True)
    _, rss = run.cold_op(big, tally, env, tmp_path)
    assert small_tally.failed == tally.failed == 0, small_tally.messages + tally.messages
    assert 1 < small < large < rss


@pytest.mark.parametrize("name, patched", [
    ("sweep_grid", ("closed_joint", "closed_joint_alt")),
    ("point_queries", ("closed_joint", "closed_joint_alt")),
    ("sample_draws", ("sample_counts",)),
    ("verify_oracles", ("amplitude_joint",)),
])
def test_planted_swapped_cell_is_a_failure(name, patched, tmp_path, monkeypatch):
    for attr in patched:
        monkeypatch.setattr(_kernels, attr, _swap_cells(getattr(_kernels, attr)))
    wl = _tiny(name, 4, tmp_path)
    tally = workloads.Tally()
    _warm(wl, tally)
    assert tally.failed >= 1


def test_raising_library_call_is_a_failure(tmp_path, monkeypatch):
    from bellxtalk import independence

    def broken(*args):
        raise RuntimeError("planted")

    monkeypatch.setattr(independence, "solve_independence", broken)
    tally = workloads.Tally()
    run.warm_op(_tiny("point_queries", 2, tmp_path), tally, cli)
    assert tally.failed == 1
    assert "planted" in tally.messages[0]


def test_cold_failure_is_counted(tmp_path):
    wl = _tiny("verify_oracles", 1, tmp_path)
    wl.argvs = [["verify", "--samples", "0"]]
    tally = workloads.Tally()
    run.cold_op(wl, tally, run.child_env(), tmp_path)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "exit code 2" in tally.messages[0]


def test_changed_bytes_between_repeats_are_a_failure(tmp_path):
    wl = _tiny("verify_oracles", 1, tmp_path)
    tally = workloads.Tally()
    run.record_cli(wl, tally, 0, 0, b"samples=500 seed=1 tol=1e-12\nall checks passed\n", "")
    run.record_cli(wl, tally, 0, 0, b"samples=500 seed=1 tol=1e-12 \nall checks passed\n", "")
    assert (tally.attempted, tally.failed) == (2, 1)


def test_zero_draw_seed_is_counted_not_skipped(tmp_path):
    wl = _tiny("sample_draws", ZERO_DRAW_SEED, tmp_path)
    tally = workloads.Tally()
    wl.final(tally)
    assert tally.attempted == 2
    assert tally.failed == 1
    assert "zero-probability cell 0" in tally.messages[0]


def test_splitmix_reference_matches_the_sampler():
    from bellxtalk import bipartite, sampler

    dist = bipartite.JointDistribution((0.1, 0.2, 0.3, 0.4))
    cdf = np.cumsum(dist.as_array())
    cdf[3] = 1.0
    assert workloads.splitmix_counts(cdf, 5000, 99) == list(sampler.sample(dist, 5000, 99).counts)


def test_oracle_matches_the_closed_forms():
    rng = np.random.default_rng(0)
    mu, nu = rng.uniform(0, np.pi, (2, 200))
    eta, zeta = rng.uniform(0, 2 * np.pi, (2, 200))
    for s, t in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        bits = np.full(200, s), np.full(200, t)
        got = _kernels.closed_joint(mu, eta, nu, zeta, *bits)
        assert np.abs(got - workloads.oracle(mu, eta, nu, zeta, s, t)).max() < 1e-14


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span("cli.cmd_sweep", 0, 100, -1, 0),
        tracing.Span("bipartite.joint_closed_batch", 10, 40, 0, 0),
        tracing.Span("_kernels.closed_joint", 15, 25, 1, 7),
        tracing.Span("_kernels.closed_joint_alt", 25, 35, 1, 7),
    ]
    metrics = tracing.layer_metrics(spans, set())
    assert metrics["cli.sweep_format_write_s"] == pytest.approx(70e-9)
    assert metrics["bipartite.batch_self_s"] == pytest.approx(10e-9)
    assert metrics["kernels.closed_s"] == pytest.approx(10e-9)
    assert metrics["kernels.rows"] == 14
    assert metrics["kernels.calls"] == 2


def test_removed_function_is_absent_not_fatal(tmp_path, monkeypatch):
    monkeypatch.delattr(_kernels, "amplitude_joint")
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as missing:
        assert _kernels.closed_joint is not _kernels.closed_joint_numpy
        tally = workloads.Tally()
        run.warm_op(_tiny("sweep_grid", 1, tmp_path), tally, cli)
    assert missing == {"_kernels.amplitude_joint"}
    assert _kernels.closed_joint is _kernels.closed_joint_numpy
    assert tally.failed == 0
    metrics = tracing.layer_metrics(tracer.spans, missing)
    assert "kernels.amplitude_s" not in metrics
    assert metrics["kernels.rows"] == 2 * 20


def _result(capsys, *args) -> dict:
    result = run.run_workload(*args, {"commit": "test"}, workloads.TINY)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("env ") and lines[1].startswith("info ")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return result


def test_run_reports_every_end_to_end_metric(capsys):
    result = _result(capsys, "point_queries", 5, 0.5, False)
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(capsys):
    result = _result(capsys, "sweep_grid", 6, 0.5, True)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    assert result["metrics"]["kernels.rows_per_output"]["value"] == 2


def test_benchmark_json_names_this_runner():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
