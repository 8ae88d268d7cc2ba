import contextlib
import io
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellxtalk import _kernels, _sweep, _verify, bipartite, cli, information
from bellxtalk._verify import CHECKS, VerificationResult
from bellxtalk.cli import CSV_HEADER, main, run_verification

PI = math.pi
PI_STR = repr(PI)
HALF_PI_STR = repr(PI / 2)
QUARTER_PI_STR = repr(PI / 4)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestProbs:
    def test_sigma3_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "probs", "--mu", "0", "--eta", "0", "--nu", "0", "--zeta", "0", "--s", "0", "--t", "0"
        )
        assert code == 0
        assert "theta       = 0.5" in out
        assert "independent = no" in out

    def test_x_plane_independent_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "probs",
            "--mu", QUARTER_PI_STR, "--eta", HALF_PI_STR,
            "--nu", QUARTER_PI_STR, "--zeta", HALF_PI_STR,
            "--s", "0", "--t", "0",
        )
        assert code == 0
        assert "theta       = 0.25" in out
        assert "independent = yes" in out

    def test_method_all_reports_discrepancy(self, capsys):
        code, out, _ = run_cli(
            capsys, "probs", "--mu", "1.1", "--eta", "2.2", "--nu", "0.7", "--zeta", "5.5",
            "--s", "1", "--t", "1", "--method", "all",
        )
        assert code == 0
        line = next(l for l in out.splitlines() if "discrepancy" in l)
        assert float(line.split("=")[1]) <= 1e-12

    def test_method_all_shows_a_planted_amplitude_fault(self, capsys, monkeypatch):
        # a kernel that swaps two cells, and answers the one-pair lists with an ndarray
        kernel = bipartite._kernels.amplitude_joint
        calls = []

        def swapped(*args):
            calls.append(type(args[0]))
            out = np.array(kernel(*args))
            out[:, [0, 1]] = out[:, [1, 0]]
            return out

        monkeypatch.setattr(bipartite._kernels, "amplitude_joint", swapped)
        code, out, _ = run_cli(
            capsys, "probs", "--mu", "1.1", "--eta", "2.2", "--nu", "0.7", "--zeta", "5.5",
            "--s", "1", "--t", "1", "--method", "all",
        )
        assert code == 0 and calls == [list]
        line = next(l for l in out.splitlines() if "discrepancy" in l)
        assert float(line.split("=")[1]) >= 1e-3

    def test_method_brute_matches_closed(self, capsys):
        args = ["--mu", "0.9", "--eta", "1.2", "--nu", "2.0", "--zeta", "0.3", "--s", "0", "--t", "1"]
        _, out_closed, _ = run_cli(capsys, "probs", *args, "--method", "closed")
        _, out_brute, _ = run_cli(capsys, "probs", *args, "--method", "brute")

        def theta_of(text):
            return float(next(l for l in text.splitlines() if l.startswith("theta")).split("=")[1])

        assert theta_of(out_closed) == pytest.approx(theta_of(out_brute), abs=1e-13)

    def test_degrees_flag(self, capsys):
        _, out_deg, _ = run_cli(
            capsys, "probs", "--deg", "--mu", "45", "--eta", "90", "--nu", "45", "--zeta", "90"
        )
        _, out_rad, _ = run_cli(
            capsys, "probs",
            "--mu", QUARTER_PI_STR, "--eta", HALF_PI_STR,
            "--nu", QUARTER_PI_STR, "--zeta", HALF_PI_STR,
        )
        assert out_deg == out_rad

    def test_usage_error_on_bad_polar_angle(self, capsys):
        code, _, err = run_cli(capsys, "probs", "--mu", "4.0")
        assert code == 2
        assert "error" in err

    def test_usage_error_on_bad_bit(self, capsys):
        assert run_cli(capsys, "probs", "--s", "2")[0] == 2

    @pytest.mark.parametrize("given,reduced", [
        ("7", "0.71681469282041377"), ("-1", "5.2831853071795862"), (repr(2 * PI), "0"),
    ])
    def test_any_finite_azimuth_is_reduced_modulo_two_pi(self, capsys, given, reduced):
        point = ("--mu", "1", "--nu", "1.3", "--s", "1")
        code, out, _ = run_cli(capsys, "probs", *point, "--eta", given, "--zeta", given)
        assert code == 0
        assert out.splitlines()[:2] == [f"observable A: mu=1 eta={reduced}", f"observable B: nu=1.3 zeta={reduced}"]
        assert out == run_cli(capsys, "probs", *point, "--eta", reduced, "--zeta", reduced)[1]

    @pytest.mark.parametrize("flags", [("--eta", "-0.0"), ("--eta", repr(-2 * PI)), ("--eta", repr(-4 * PI)),
                                       ("--zeta", "-0"), ("--zeta", repr(-2 * PI)), ("--zeta", repr(-8 * PI)),
                                       ("--eta", "-0", "--zeta", repr(-6 * PI))], ids=" ".join)
    def test_an_azimuth_reduced_to_zero_prints_as_zero(self, capsys, flags):
        # fmod leaves -0.0 for -0.0 and each multiple of -2*pi; sweep, which does not reduce, keeps its -0
        code, out, _ = run_cli(capsys, "probs", "--mu", "1", "--nu", "1.3", *flags)
        assert code == 0
        assert out.splitlines()[:2] == ["observable A: mu=1 eta=0", "observable B: nu=1.3 zeta=0"]
        assert out == run_cli(capsys, "probs", "--mu", "1", "--nu", "1.3")[1]


class TestSweep:
    def test_x_plane_single_independent_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep",
            "--mu", QUARTER_PI_STR, "--eta", HALF_PI_STR, "--zeta", HALF_PI_STR,
            "--s", "0", "--t", "0",
            "--vary", f"nu=0:{PI_STR}:181",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert ",".join(header) == CSV_HEADER
        assert len(rows) == 181
        independent = [row for row in rows if row["independent"] == "1"]
        assert len(independent) == 1
        assert float(independent[0]["nu"]) == pytest.approx(PI / 4, abs=1e-12)

    def test_difference_condition_row(self, capsys):
        # sigma3 anchor (mu = 0) with s = 1: independent at nu = pi/2
        code, out, _ = run_cli(
            capsys, "sweep",
            "--mu", "0", "--eta", HALF_PI_STR, "--zeta", HALF_PI_STR,
            "--s", "1", "--t", "0",
            "--vary", f"nu=0:{PI_STR}:181",
        )
        assert code == 0
        _, rows = parse_csv(out)
        independent = [row for row in rows if row["independent"] == "1"]
        assert len(independent) == 1
        assert float(independent[0]["nu"]) == pytest.approx(PI / 2, abs=1e-12)

    def test_single_point_matches_probs(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--mu", "1.0", "--eta", "2.0", "--nu", "0.5", "--zeta", "0.25",
            "--s", "1", "--t", "0", "--vary", "nu=0.5:0.5:1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        from bellxtalk import BellLabel, Observable, ObservablePair, joint_distribution_closed

        dist = joint_distribution_closed(
            ObservablePair(Observable(1.0, 2.0), Observable(0.5, 0.25)), BellLabel(1, 0)
        )
        assert float(rows[0]["p00"]) == dist.p[0]
        assert float(rows[0]["p01"]) == dist.p[1]

    def test_two_axes_row_major_first_slowest(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--vary", "mu=0:1:3", "--vary", "nu=0:1:2",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 6
        got = [(float(r["mu"]), float(r["nu"])) for r in rows]
        assert got == [(0.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_byte_identical_output(self, tmp_path, capsys):
        argv = [
            "sweep", "--mu", QUARTER_PI_STR, "--eta", HALF_PI_STR, "--zeta", HALF_PI_STR,
            "--s", "0", "--t", "0", "--vary", f"nu=0:{PI_STR}:50",
        ]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        blob = first.read_bytes()
        assert blob == second.read_bytes()
        assert b"\r" not in blob
        assert not blob.startswith(b"\xef\xbb\xbf")
        assert blob.endswith(b"\n")

    def test_float_format_roundtrips(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--mu", "1.1", "--vary", "nu=0:1:3")
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r["nu"]) for r in rows] == [0.0, 0.5, 1.0]
        assert float(rows[0]["mu"]) == 1.1

    def test_too_many_axes_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--vary", "mu=0:1:2", "--vary", "nu=0:1:2", "--vary", "eta=0:1:2"
        )
        assert code == 2
        assert "at most two" in err

    def test_duplicate_axis_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--vary", "mu=0:1:2", "--vary", "mu=0:2:2")
        assert code == 2

    def test_malformed_vary_rejected(self, capsys):
        assert run_cli(capsys, "sweep", "--vary", "nu=0:1")[0] == 2
        assert run_cli(capsys, "sweep", "--vary", "sigma=0:1:2")[0] == 2
        assert run_cli(capsys, "sweep", "--vary", "nu=0:1:0")[0] == 2

    @pytest.mark.parametrize("spec", [
        "mu=0:inf:3", "mu=0:-inf:3", "mu=0:nan:3", "mu=inf:1:3", "mu=-inf:1:3", "mu=nan:1:3",
    ])
    def test_non_finite_vary_range_rejected(self, capsys, spec):
        code, out, err = run_cli(capsys, "sweep", "--vary", spec)
        assert code == 2
        assert out == ""
        assert err == f"error: --vary range {spec.partition('=')[2]!r} must be finite\n"

    def test_vary_range_wider_than_a_float_rejected(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--vary", "mu=-1e308:1e308:3")
        assert code == 2
        assert out == ""
        assert err == "error: --vary range '-1e308:1e308:3' is wider than the largest float\n"


class TestVerify:
    def test_passes_at_default_tolerance(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "2000", "--seed", "1")
        assert code == 0
        assert "all checks passed" in out

    def test_fails_below_float_precision(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "500", "--tol", "1e-18")
        assert code == 1
        assert "worst tuple" in out

    def test_deterministic_report(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--samples", "1", "--seed", "9")
        _, second, _ = run_cli(capsys, "verify", "--samples", "1", "--seed", "9")
        assert first == second

    def test_run_verification_values(self):
        result = run_verification(samples=1500, seed=4)
        maxima = dict(zip(CHECKS, result.maxima, strict=True))
        assert maxima.pop("lifted commutator norm") <= 1e-13
        assert max(maxima.values()) <= 1e-12
        assert result.passes(1e-12)

    @pytest.mark.parametrize("check", CHECKS)
    def test_a_nan_check_fails_the_run(self, check):
        result = run_verification(samples=5, seed=1)
        assert result.passes(1.0)
        maxima = list(result.maxima)
        maxima[CHECKS.index(check)] = math.nan
        assert not VerificationResult(result.samples, result.seed, tuple(maxima), result.worst_tuple).passes(1.0)

    @pytest.mark.parametrize("block,nan_block,nan_row", [(_verify.VERIFY_BLOCK_ROWS, 0, 0), (4, 1, 2)])
    def test_a_nan_gap_is_the_worst_tuple(self, block, nan_block, nan_row, capsys, monkeypatch):
        # NaN > x is false, so a NaN gap in the first row or a later block must still be the worst row
        amplitude, calls = _kernels.amplitude_joint, []

        def nan_in_one_row(*columns):
            cells = amplitude(*columns)
            if len(calls) == nan_block:
                cells[nan_row] = math.nan
            calls.append(None)
            return cells

        monkeypatch.setattr(_verify, "VERIFY_BLOCK_ROWS", block)
        monkeypatch.setattr(_kernels, "amplitude_joint", nan_in_one_row)
        code, out, _ = run_cli(capsys, "verify", "--samples", "10", "--seed", "0")
        assert code == 1
        assert "three-method max gap           nan  FAIL" in out
        columns = [np.concatenate(column) for column in zip(*_verify._verify_draws(10, 0))]
        mu, eta, nu, zeta, s, t = (column[nan_block * block + nan_row] for column in columns)
        assert out.splitlines()[-2:] == [
            "worst tuple:",
            f"  mu={cli._fmt(mu)} eta={cli._fmt(eta)} nu={cli._fmt(nu)} zeta={cli._fmt(zeta)} s={s} t={t}",
        ]

    #: the checks that read each route, by the kernel that computes the route
    FEEDS = {
        "closed_joint": {"three-method max gap", "normalization error", "closed-variant gap"},
        "closed_joint_alt": {"closed-variant gap"},
        "amplitude_joint": {"three-method max gap", "normalization error", "diagonal symmetry gap"},
        "bruteforce_joint": {
            "three-method max gap", "normalization error", "diagonal symmetry gap", "marginal deviation from 1/2",
        },
    }

    @staticmethod
    def _plant_nan(monkeypatch, kernel, cell=0):
        """Make _kernels.<kernel> give NaN in row 0, column cell, of every block."""
        original = getattr(_kernels, kernel)

        def planted(*columns):
            cells = original(*columns)
            cells[0, cell] = math.nan
            return cells

        monkeypatch.setattr(_kernels, kernel, planted)

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("kernel", FEEDS)
    def test_a_nan_route_makes_each_check_it_feeds_nan(self, kernel, check, monkeypatch):
        # a Python max() over the routes kept a NaN only when it came first: a NaN
        # amplitude cell (0, 0) left the normalization error at 3.3e-16
        self._plant_nan(monkeypatch, kernel)
        maxima = dict(zip(CHECKS, run_verification(10, 0).maxima, strict=True))
        assert math.isnan(maxima[check]) == (check in self.FEEDS[kernel])

    @pytest.mark.parametrize("samples,seed", [(1, 0), (7, 3), (_verify.VERIFY_BLOCK_ROWS + 5, 11), (3000, 2**63 + 5)])
    def test_column_checks_are_bit_identical_to_axis1_reductions(self, samples, seed):
        _assert_same_bits(run_verification(samples, seed).maxima, _axis1_maxima(samples, seed))

    @pytest.mark.parametrize("cell", range(4))
    @pytest.mark.parametrize("kernel", FEEDS)
    def test_column_checks_are_bit_identical_to_axis1_reductions_with_a_nan(self, kernel, cell, monkeypatch):
        self._plant_nan(monkeypatch, kernel, cell)
        samples = _verify.VERIFY_BLOCK_ROWS + 5
        _assert_same_bits(run_verification(samples, 4).maxima, _axis1_maxima(samples, 4))

    def test_verify_prints_each_check_once_in_checks_order(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "20", "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        assert [line[:32].strip() for line in lines[1:-1]] == list(CHECKS)
        assert lines[-1] == "all checks passed"

    @pytest.mark.parametrize("samples,seed", [(2.5, 0), (5.0, 0), (5, 1.5), ("5", 0), (5, "1")])
    def test_non_integral_samples_and_seed_are_type_errors(self, samples, seed):
        # they used to fail inside numpy: 2.5 with an unsupported & operand, a 1.5 seed in SeedSequence
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            run_verification(samples, seed)

    def test_numpy_integer_samples_and_seed_are_accepted(self):
        result = run_verification(np.int64(5), np.uint64(1))
        assert result == run_verification(5, 1)
        assert type(result.samples) is int and type(result.seed) is int

    def test_sample_count_validation(self, capsys):
        assert run_cli(capsys, "verify", "--samples", "0")[0] == 2

    def test_negative_seed_is_named(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--samples", "10", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: seed must be a non-negative integer\n"

    @pytest.mark.parametrize("samples", [6, 7, 8, 1000])
    def test_block_boundaries_do_not_change_the_result(self, samples, monkeypatch):
        monkeypatch.setattr(_verify, "VERIFY_BLOCK_ROWS", samples)
        whole = run_verification(samples=samples, seed=12)
        monkeypatch.setattr(_verify, "VERIFY_BLOCK_ROWS", 7)
        assert run_verification(samples=samples, seed=12) == whole

    @pytest.mark.parametrize("seed", [0, 12, 2**63 + 5])
    @pytest.mark.parametrize("block", [7, _verify.VERIFY_BLOCK_ROWS])
    @pytest.mark.parametrize("samples", [1, 2, 7, 4095, 4096, 4097, 100003])
    def test_block_draws_equal_whole_column_draws(self, samples, block, seed, monkeypatch):
        monkeypatch.setattr(_verify, "VERIFY_BLOCK_ROWS", block)
        drawn = [np.concatenate(column) for column in zip(*_verify._verify_draws(samples, seed))]
        rng = np.random.default_rng(seed)
        whole = [rng.uniform(0.0, high, samples) for high in (PI, 2 * PI, PI, 2 * PI)]
        whole += [rng.integers(0, 2, samples) for _ in range(2)]
        for got, want in zip(drawn, whole, strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_memory_does_not_grow_with_samples(self):
        def peak(samples):
            tracemalloc.start()
            try:
                run_verification(samples=samples, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_verification(samples=10, seed=3)  # one-time allocations stay out of both peaks
        n = 16384
        assert (peak(4 * n) - peak(n)) / (3 * n) < 1

    @staticmethod
    def _count_calls(monkeypatch, module, name):
        """Record the arguments of each call of module.<name>, which still runs."""
        original, calls = getattr(module, name), []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_each_block_is_validated_once(self, monkeypatch):
        # the batch routes validated the same six columns in three routes of every block
        monkeypatch.setattr(_verify, "VERIFY_BLOCK_ROWS", 7)
        calls = self._count_calls(monkeypatch, bipartite, "validated_angle")
        run_verification(20, 5)  # blocks of 7, 7 and 6 tuples
        assert [name for name, _ in calls] == ["mu", "eta", "nu", "zeta"] * 3

    def test_the_lifts_run_once_per_run(self, monkeypatch):
        # the commutator basis is built once per run, not per block, and not kept between runs
        monkeypatch.setattr(_verify, "VERIFY_BLOCK_ROWS", 7)
        lifts = [self._count_calls(monkeypatch, _verify, name) for name in ("lift_first", "lift_second")]
        run_verification(20, 5)
        assert [len(calls) for calls in lifts] == [1, 1]
        run_verification(20, 5)
        assert [len(calls) for calls in lifts] == [2, 2]

    def test_brute_force_gets_the_bits_of_bell_state_batch_for_every_label(self, monkeypatch):
        monkeypatch.setattr(_verify, "VERIFY_BLOCK_ROWS", 7)
        calls = self._count_calls(monkeypatch, _kernels, "bruteforce_joint")
        run_verification(20, 5)
        blocks = list(_verify._verify_draws(20, 5))
        assert len(calls) == len(blocks) == 3
        labels = set()
        for (*_, psi), (*_, s, t) in zip(calls, blocks):
            assert psi.dtype == np.complex128
            assert psi.tobytes() == _verify.bell_state_batch(s, t).tobytes()
            labels.update(zip(s.tolist(), t.tolist()))
        assert labels == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_a_bell_state_off_unit_norm_is_refused_before_any_block(self, monkeypatch):
        bell_state_batch = _verify.bell_state_batch
        monkeypatch.setattr(_verify, "bell_state_batch", lambda s, t: 1.1 * bell_state_batch(s, t))
        blocks = self._count_calls(monkeypatch, bipartite, "_validated_rows")
        with pytest.raises(ValueError, match="state vector at row 0 has norm 1.1"):
            run_verification(5, 0)
        assert blocks == []

    def test_the_worst_tuple_holds_plain_floats_and_ints(self):
        worst = run_verification(50, 2).worst_tuple
        assert [type(value) for value in worst] == [float] * 4 + [int] * 2

    def test_planted_wrong_lift_fails_the_commutator_check(self, capsys, monkeypatch):
        # B lifted onto the first factor: [A (x) I, B (x) I] = [A, B] (x) I is not zero
        monkeypatch.setattr(_verify, "lift_second", _verify.lift_first)
        code, out, _ = run_cli(capsys, "verify", "--samples", "200", "--seed", "2")
        assert code == 1
        line = next(l for l in out.splitlines() if "lifted commutator norm" in l)
        assert line.split()[-1] == "FAIL"
        assert float(line.split()[-2]) > 0.1
        assert self._statuses(out) == {"lifted commutator norm": "FAIL"}

    def test_planted_lift_of_a_onto_the_second_factor_fails_the_commutator_check(self, capsys, monkeypatch):
        # A lifted onto the second factor: [I (x) A, I (x) B] = I (x) [A, B] is not zero
        monkeypatch.setattr(_verify, "lift_first", _verify.lift_second)
        code, out, _ = run_cli(capsys, "verify", "--samples", "200", "--seed", "2")
        assert code == 1
        line = next(l for l in out.splitlines() if "lifted commutator norm" in l)
        assert line.split()[-1] == "FAIL"
        assert float(line.split()[-2]) > 0.1
        assert self._statuses(out) == {"lifted commutator norm": "FAIL"}

    def test_small_leak_in_a_lift_fails_the_commutator_check(self, capsys, monkeypatch):
        # I (x) B + 1e-9 B (x) I leaves a commutator near 1e-9, far below the gross faults above
        lift_second = _verify.lift_second
        monkeypatch.setattr(_verify, "lift_second", lambda b: lift_second(b) + 1e-9 * _verify.lift_first(b))
        code, out, _ = run_cli(capsys, "verify", "--samples", "200", "--seed", "2", "--tol", "1e-12")
        assert code == 1
        assert self._statuses(out) == {"lifted commutator norm": "FAIL"}

    def test_verify_runs_the_run_verification_set_on_cli(self, capsys, monkeypatch):
        # cmd_verify looks the engine up on cli, where a tracer or a test replaces it
        seen = []

        def stub(samples, seed):
            seen.append((samples, seed))
            return VerificationResult(samples, seed, (0.0,) * len(CHECKS), (0.0, 0.0, 0.0, 0.0, 0, 0))

        monkeypatch.setattr(cli, "run_verification", stub)
        code, out, _ = run_cli(capsys, "verify", "--samples", "3", "--seed", "4")
        assert code == 0 and seen == [(3, 4)]
        assert out.startswith("samples=3 seed=4 ") and out.endswith("all checks passed\n")

    def test_verify_runs_the_commutator_check_set_on_cli(self, capsys, monkeypatch):
        # _verify reads cli._max_commutator_norm per block, so a replaced one is what each block runs
        monkeypatch.setattr(_verify, "VERIFY_BLOCK_ROWS", 7)
        calls = []
        monkeypatch.setattr(cli, "_max_commutator_norm", lambda *args: calls.append(args) or 0.5)
        code, out, _ = run_cli(capsys, "verify", "--samples", "20", "--seed", "5")
        assert code == 1 and [len(args[0]) for args in calls] == [7, 7, 6]
        assert self._statuses(out) == {"lifted commutator norm": "FAIL"}

    @staticmethod
    def _statuses(out):
        """The name and status of each verify check that is not OK; there are six in all."""
        statuses = {l[:32].strip(): l.split()[-1] for l in out.splitlines() if l.endswith(("OK", "FAIL"))}
        assert len(statuses) == 6
        return {name: status for name, status in statuses.items() if status != "OK"}


def _axis1_maxima(samples, seed):
    """verify's maxima from the (n, 4) reductions along axis=1 it used before
    its column slices, each check folded over its routes with np.max."""
    blocks = []
    for mu, eta, nu, zeta, s, t in _verify._verify_draws(samples, seed):
        angles = mu, eta, nu, zeta
        closed = bipartite.joint_closed_batch(*angles, s, t, check=False)
        alternate = _verify.joint_closed_alt_batch(*angles, s, t)
        amplitude = _verify.joint_amplitude_batch(*angles, s, t)
        brute = _verify.joint_bruteforce_batch(*angles, _verify.bell_state_batch(s, t))
        method_gap = np.maximum(
            np.abs(closed - amplitude),
            np.maximum(np.abs(closed - brute), np.abs(amplitude - brute)),
        ).max(axis=1)
        blocks.append([
            method_gap.max(),
            np.max([np.abs(m.sum(axis=1) - 1.0).max() for m in (closed, amplitude, brute)]),
            np.max([
                np.abs(amplitude[:, 0] - amplitude[:, 3]).max(),
                np.abs(amplitude[:, 1] - amplitude[:, 2]).max(),
                np.abs(brute[:, 0] - brute[:, 3]).max(),
                np.abs(brute[:, 1] - brute[:, 2]).max(),
            ]),
            np.max([
                np.abs(brute[:, 0] + brute[:, 1] - 0.5).max(),
                np.abs(brute[:, 2] + brute[:, 3] - 0.5).max(),
                np.abs(brute[:, 0] + brute[:, 2] - 0.5).max(),
                np.abs(brute[:, 1] + brute[:, 3] - 0.5).max(),
            ]),
            np.abs(closed - alternate).max(),
            cli._max_commutator_norm(*angles, _verify.commutator_basis()),
        ])
    return np.max(blocks, axis=0)


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestIndependenceCommand:
    @staticmethod
    def _condition_targets(out):
        line = next(l for l in out.splitlines() if l.startswith("condition"))
        inside = line[line.index("{") + 1:line.index("}")]
        return [float(v) for v in inside.split(",")]

    def test_x_plane_sum_targets(self, capsys):
        code, out, _ = run_cli(capsys, "independence", "--plane", "x0", "--s", "0", "--t", "0")
        assert code == 0
        assert "mu + nu" in out
        assert self._condition_targets(out) == pytest.approx([PI / 2, 3 * PI / 2], abs=1e-15)

    def test_z_plane_difference_targets(self, capsys):
        code, out, _ = run_cli(capsys, "independence", "--plane", "z0", "--s", "0", "--t", "1")
        assert code == 0
        assert "|eta - zeta|" in out
        assert self._condition_targets(out) == pytest.approx([PI / 2, 3 * PI / 2], abs=1e-15)

    def test_partner_solutions(self, capsys):
        code, out, _ = run_cli(
            capsys, "independence", "--plane", "y0", "--s", "1", "--t", "1", "--mu", HALF_PI_STR
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("solutions"))
        values = [float(v) for v in line.split(":")[1].split(",")]
        assert values == pytest.approx([0.0, PI], abs=1e-15)

    def test_wrong_anchor_flag_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "independence", "--plane", "x0", "--s", "0", "--t", "0", "--eta", "1.0"
        )
        assert code == 2
        assert "anchor" in err

    def test_unknown_plane_rejected(self, capsys):
        assert run_cli(capsys, "independence", "--plane", "w0", "--s", "0", "--t", "0")[0] == 2

    @pytest.mark.parametrize("argv", [
        ("--plane", "x0", "--s", "0", "--t", "0", "--mu", "7"),
        ("--plane", "x0", "--s", "0", "--t", "0", "--mu", "nan"),
        ("--plane", "z0", "--s", "1", "--t", "0", "--eta", "7"),
    ])
    def test_bad_anchor_prints_nothing_to_stdout(self, capsys, argv):
        code, out, err = run_cli(capsys, "independence", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: anchor must lie in")


class TestSampleCommand:
    def test_zero_probability_cells_stay_empty(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--mu", "0", "--nu", "0", "--s", "0", "--t", "0",
            "--n", "100000", "--seed", "7",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("(")]
        counts = [int(l.split()[1]) for l in lines]
        assert counts[1] == 0
        assert counts[2] == 0
        assert sum(counts) == 100000

    def test_single_draw(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "1", "--seed", "0")
        assert code == 0
        assert "n=1 " in out

    def test_z_scores_bounded_at_independence_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample",
            "--mu", QUARTER_PI_STR, "--eta", HALF_PI_STR,
            "--nu", QUARTER_PI_STR, "--zeta", HALF_PI_STR,
            "--n", "1000000", "--seed", "11",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("(")]
        scores = [abs(float(l.split()[-1])) for l in lines]
        assert max(scores) < 5.0

    def test_bad_n_rejected(self, capsys):
        assert run_cli(capsys, "sample", "--n", "0")[0] == 2

    @pytest.mark.parametrize("given,reduced", [("7", "0.71681469282041377"), ("-1", "5.2831853071795862")])
    def test_any_finite_azimuth_is_reduced_modulo_two_pi(self, capsys, given, reduced):
        # sample prints no angle, so its report at the given azimuth is compared with its report at the reduced one
        point = ("--mu", "1", "--nu", "1.3", "--n", "1000", "--seed", "5")
        code, out, _ = run_cli(capsys, "sample", *point, "--eta", given, "--zeta", "0.4")
        assert code == 0
        assert out == run_cli(capsys, "sample", *point, "--eta", reduced, "--zeta", "0.4")[1]


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("tol", ["0", "-1"])
@pytest.mark.parametrize("command", ["probs", "sweep", "verify", "sample"])
def test_nonpositive_tolerance_is_usage_error(capsys, command, tol):
    code, out, err = run_cli(capsys, command, f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "error: tolerance must be positive" in err


TWO_PI_STR = repr(2 * PI)
BLOCK = cli.SWEEP_BLOCK_ROWS


#: `probs --method all` stdout, pinned byte for byte: a generic point, poles
#: with azimuth 2*pi (printed as 0), A = +y, B = -x, which lie on the
#: boundaries between the coordinate planes, and a point that is clamped.
#: The discrepancy line compares the closed row with the amplitude and
#: brute-force rows, which one pair evaluates with cmath: CPython's complex
#: product rounds without FMA, so that line may differ from an ndarray
#: evaluation of the same rows in its last digit
GOLDEN_PROBS = [
    (("--mu", "1.234", "--eta", "4.321", "--nu", "2.468", "--zeta", "0.987", "--s", "1", "--t", "0"), """\
observable A: mu=1.234 eta=4.3209999999999997
observable B: nu=2.468 zeta=0.98699999999999999
bell label:   s=1 t=0
method:       closed
joint probabilities p(k,l), rows k=0,1:
  0.10285369502095354        0.39714630497904646
  0.39714630497904646        0.10285369502095354
marginals A:  0.5 0.5
marginals B:  0.5 0.5
theta       = 0.10285369502095354
entropy     = 1.2013606472258467 nats
mutual_info = 0.18493371389404384 nats
degree      = 0.26680295192811543
independent = no (tol 1.0000000000000001e-09)
max pairwise method discrepancy = 2.220e-16
"""),
    (("--mu", "0", "--eta", TWO_PI_STR, "--nu", PI_STR, "--zeta", TWO_PI_STR, "--s", "0", "--t", "1"), """\
observable A: mu=0 eta=0
observable B: nu=3.1415926535897931 zeta=0
bell label:   s=0 t=1
method:       closed
joint probabilities p(k,l), rows k=0,1:
  0.5                        0
  0                          0.5
marginals A:  0.5 0.5
marginals B:  0.5 0.5
theta       = 0.5
entropy     = 0.69314718055994529 nats
mutual_info = 0.69314718055994529 nats
degree      = 1
independent = no (tol 1.0000000000000001e-09)
max pairwise method discrepancy = 1.110e-16
"""),
    (("--mu", HALF_PI_STR, "--eta", HALF_PI_STR, "--nu", HALF_PI_STR, "--zeta", PI_STR, "--s", "1", "--t", "1"), """\
observable A: mu=1.5707963267948966 eta=1.5707963267948966
observable B: nu=1.5707963267948966 zeta=3.1415926535897931
bell label:   s=1 t=1
method:       closed
joint probabilities p(k,l), rows k=0,1:
  0.24999999999999997        0.25
  0.25                       0.24999999999999997
marginals A:  0.5 0.5
marginals B:  0.5 0.5
theta       = 0.24999999999999997
entropy     = 1.3862943611198906 nats
mutual_info = 0 nats
degree      = 0
independent = yes (tol 1.0000000000000001e-09)
max pairwise method discrepancy = 5.551e-17
"""),
    # one closed cell is -5.55e-17 before the clamp
    (("--mu", "0.001599624906226557", "--eta", "0", "--nu", "0.001599624906226557", "--zeta", "0",
      "--s", "0", "--t", "0"), """\
observable A: mu=0.0015996249062265569 eta=0
observable B: nu=0.0015996249062265569 zeta=0
bell label:   s=0 t=0
method:       closed
joint probabilities p(k,l), rows k=0,1:
  0.5                        0
  0                          0.5
marginals A:  0.5 0.5
marginals B:  0.5 0.5
theta       = 0.5
entropy     = 0.69314718055994529 nats
mutual_info = 0.69314718055994529 nats
degree      = 1
independent = no (tol 1.0000000000000001e-09)
max pairwise method discrepancy = 2.220e-16
"""),
]


@pytest.mark.parametrize("point, expected", GOLDEN_PROBS, ids=["generic", "poles", "plane_boundaries", "clamped"])
def test_probs_output_is_pinned(capsys, point, expected):
    code, out, err = run_cli(capsys, "probs", *point, "--method", "all")
    assert (code, err) == (0, "")
    assert out == expected


def reference_sweep_csv(grid, s, t, tol):
    """The sweep CSV by the documented rule: every float through format(x, ".17g")."""
    mu, eta, nu, zeta = (np.asarray(grid[name], dtype=np.float64) for name in ("mu", "eta", "nu", "zeta"))
    n = mu.shape[0]
    probs = bipartite.joint_closed_batch(mu, eta, nu, zeta, np.full(n, s), np.full(n, t))
    # entropy and mutual information from all four cells, each cell's term added in cell order
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy_terms = np.where(probs > 0.0, -probs * np.log(probs), 0.0)
        pa = probs[:, [0, 0, 2, 2]] + probs[:, [1, 1, 3, 3]]  # each cell's row marginal
        pb = probs[:, [0, 1, 0, 1]] + probs[:, [2, 3, 2, 3]]  # and its column marginal
        mutual_terms = np.where(probs > 0.0, probs * np.log(probs / (pa * pb)), 0.0)
    entropy = entropy_terms[:, 0] + entropy_terms[:, 1] + entropy_terms[:, 2] + entropy_terms[:, 3]
    mutual = np.maximum(mutual_terms[:, 0] + mutual_terms[:, 1] + mutual_terms[:, 2] + mutual_terms[:, 3], 0.0)
    degree = information.degree_rows(mutual)
    lines = [CSV_HEADER]
    for i in range(n):
        angles = [format(float(x[i]), ".17g") for x in (mu, eta, nu, zeta)]
        values = [format(float(x), ".17g") for x in (*probs[i], entropy[i], mutual[i], degree[i])]
        independent = int(abs(probs[i, 0] - 0.25) <= tol)
        lines.append(",".join([*angles, str(s), str(t), *values, str(independent)]))
    return ("\n".join(lines) + "\n").encode()


# (argv, the grid it asks for, s, t); rows 1, BLOCK + 1, 2 * BLOCK + 7 and more
# than BLOCK in the last two, so the last block is partial; -0 beside 0 checks
# that signed zeros keep their text
WRITER_CASES = [
    (["--mu", "-0", "--eta", TWO_PI_STR, "--nu", "1.1", "--zeta", "0", "--s", "1", "--t", "1"],
     {"mu": [-0.0], "eta": [2 * PI], "nu": [1.1], "zeta": [0.0]}, 1, 1),
    (["--eta", "0", "--nu", QUARTER_PI_STR, "--zeta", "-0", "--s", "0", "--t", "1",
      "--vary", f"mu=0:{PI_STR}:{BLOCK + 1}"],
     {"mu": np.linspace(0.0, PI, BLOCK + 1), "eta": np.zeros(BLOCK + 1),
      "nu": np.full(BLOCK + 1, PI / 4), "zeta": np.full(BLOCK + 1, -0.0)}, 0, 1),
    (["--mu", QUARTER_PI_STR, "--zeta", HALF_PI_STR, "--s", "1", "--t", "0",
      "--vary", f"eta=0:{TWO_PI_STR}:3", "--vary", f"nu=0:{PI_STR}:{(2 * BLOCK + 7) // 3}"],
     {"mu": np.full(2 * BLOCK + 7, PI / 4),
      "eta": np.repeat(np.linspace(0.0, 2 * PI, 3), (2 * BLOCK + 7) // 3),
      "nu": np.tile(np.linspace(0.0, PI, (2 * BLOCK + 7) // 3), 3),
      "zeta": np.full(2 * BLOCK + 7, PI / 2)}, 1, 0),
    # degrees: the axes are np.radians of the degree linspaces, the fixed angles math.radians
    (["--deg", "--mu", "30", "--zeta", "90", "--s", "0", "--t", "0",
      "--vary", "eta=0:360:5", "--vary", f"nu=0:180:{BLOCK // 2 + 1}"],
     {"mu": np.full(5 * (BLOCK // 2 + 1), math.radians(30)),
      "eta": np.repeat(np.radians(np.linspace(0.0, 360.0, 5)), BLOCK // 2 + 1),
      "nu": np.tile(np.radians(np.linspace(0.0, 180.0, BLOCK // 2 + 1)), 5),
      "zeta": np.full(5 * (BLOCK // 2 + 1), math.radians(90))}, 0, 0),
    # no --eta or --zeta: the default 0.0 fixed angles, and a fast axis shorter than a block
    (["--s", "1", "--t", "1", "--vary", f"mu=0:{PI_STR}:3", "--vary", f"nu=0:{PI_STR}:{BLOCK - 5}"],
     {"mu": np.repeat(np.linspace(0.0, PI, 3), BLOCK - 5), "eta": np.zeros(3 * (BLOCK - 5)),
      "nu": np.tile(np.linspace(0.0, PI, BLOCK - 5), 3), "zeta": np.zeros(3 * (BLOCK - 5))}, 1, 1),
    # near the pole one block holds p01 == 0 at mu = 0, p01 < 1e-4 and mu < 1e-4 in exponent
    # form, and values that take the numpy fast path
    (["--nu", "0", "--s", "0", "--t", "0", "--vary", f"mu=0:1e-3:{BLOCK + 3}"],
     {"mu": np.linspace(0.0, 1e-3, BLOCK + 3), "eta": np.zeros(BLOCK + 3),
      "nu": np.zeros(BLOCK + 3), "zeta": np.zeros(BLOCK + 3)}, 0, 0),
    # BLOCK - 1, BLOCK, BLOCK + 1 and 2 * BLOCK + 1 rows: one partial block, one
    # full block, a full block and a one-row block, two full blocks and one row
    (["--eta", "0.7", "--nu", "1.1", "--zeta", "2.9", "--s", "0", "--t", "1",
      "--vary", f"mu=0:{PI_STR}:{BLOCK - 1}"],
     {"mu": np.linspace(0.0, PI, BLOCK - 1), "eta": np.full(BLOCK - 1, 0.7),
      "nu": np.full(BLOCK - 1, 1.1), "zeta": np.full(BLOCK - 1, 2.9)}, 0, 1),
    (["--mu", "0.3", "--nu", "2.2", "--s", "1", "--t", "0",
      "--vary", f"eta=0:{TWO_PI_STR}:64", "--vary", f"zeta=0:{TWO_PI_STR}:{BLOCK // 64}"],
     {"mu": np.full(BLOCK, 0.3), "eta": np.repeat(np.linspace(0.0, 2 * PI, 64), BLOCK // 64),
      "nu": np.full(BLOCK, 2.2), "zeta": np.tile(np.linspace(0.0, 2 * PI, BLOCK // 64), 64)}, 1, 0),
    (["--eta", "4.0", "--zeta", "0.2", "--s", "1", "--t", "1",
      "--vary", f"nu=0:{PI_STR}:17", "--vary", f"mu=0:{PI_STR}:241"],  # 17 * 241 == BLOCK + 1
     {"mu": np.tile(np.linspace(0.0, PI, 241), 17), "eta": np.full(BLOCK + 1, 4.0),
      "nu": np.repeat(np.linspace(0.0, PI, 17), 241), "zeta": np.full(BLOCK + 1, 0.2)}, 1, 1),
    # mu = nu = 0 in row 0 gives zero cells; p01 and the first tenth of mu lie below 1e-4
    (["--s", "0", "--t", "0", "--vary", f"mu=0:1e-3:{2 * BLOCK + 1}"],
     {"mu": np.linspace(0.0, 1e-3, 2 * BLOCK + 1), "eta": np.zeros(2 * BLOCK + 1),
      "nu": np.zeros(2 * BLOCK + 1), "zeta": np.zeros(2 * BLOCK + 1)}, 0, 0),
]
WRITER_IDS = ["1", "block+1", "2block+7", "deg", "default-angles", "near-pole",
              "block-1", "block", "17x241", "2block+1-zero-cells"]


class TestSweepWriter:
    @pytest.mark.parametrize("argv, grid, s, t", WRITER_CASES,
                             ids=WRITER_IDS)
    def test_bytes_match_reference_on_file_and_stdout(self, tmp_path, capsys, argv, grid, s, t):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--tol", "0.2", "--out", str(out)]) == 0
        assert main(["sweep", *argv, "--tol", "0.2", "--out", "-"]) == 0
        blob = out.read_bytes()
        assert blob == reference_sweep_csv(grid, s, t, 0.2)
        assert capsys.readouterr().out.encode() == blob

    @pytest.mark.parametrize("argv, grid, s, t", WRITER_CASES, ids=WRITER_IDS)
    def test_stdout_without_a_binary_buffer_matches_out(self, tmp_path, argv, grid, s, t):
        # a StringIO has no .buffer, so the writer must take text handles
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == 0
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(["sweep", *argv]) == 0
        assert stdout.getvalue().encode() == out.read_bytes()

    def test_out_file_is_the_only_file_left_with_the_usual_mode(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--vary", "nu=0:1:5", "--out", str(out)]) == 0
        assert os.listdir(tmp_path) == ["sweep.csv"]
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    def test_failure_mid_write_leaves_out_unchanged(self, tmp_path, monkeypatch):
        out = tmp_path / "sweep.csv"
        out.write_bytes(b"previous contents\n")
        blocks = []

        class Broken(RuntimeError):
            pass

        write = _sweep.write_block

        def failing_after_first_block(*args):
            blocks.append(args)
            if len(blocks) > 1:
                raise Broken("second block")
            write(*args)

        monkeypatch.setattr(cli, "SWEEP_BLOCK_ROWS", 2)
        monkeypatch.setattr(_sweep, "write_block", failing_after_first_block)
        with pytest.raises(Broken):
            main(["sweep", "--vary", "nu=0:1:5", "--out", str(out)])
        assert len(blocks) == 2
        assert out.read_bytes() == b"previous contents\n"
        assert os.listdir(tmp_path) == ["sweep.csv"]

    def test_symlinked_out_replaces_the_file_it_names(self, tmp_path):
        target = tmp_path / "data.csv"
        target.write_bytes(b"previous contents\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["sweep", "--vary", "nu=0:1:3", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_bytes().startswith(CSV_HEADER.encode())
        assert sorted(os.listdir(tmp_path)) == ["data.csv", "link.csv"]

    def test_out_that_is_a_pipe_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["sweep", "--vary", "nu=0:1:3", "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]
        assert main(["sweep", "--vary", "nu=0:1:3"]) == 0
        assert received == [capsys.readouterr().out.encode()]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), names=st.permutations(cli._ANGLE_NAMES), varied=st.integers(0, 2))
    def test_grid_block_gathers_the_meshgrid_rows(self, data, names, varied):
        # the axes as _sweep_axes orders them: the varied ones first, then the fixed
        # ones in kernel order; -0.0 beside 0.0 checks that the gather keeps the sign
        angle = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])
        order = [*names[:varied], *(n for n in cli._ANGLE_NAMES if n not in names[:varied])]
        sizes = data.draw(st.lists(st.integers(1, 50), min_size=varied, max_size=varied))
        axes = {
            name: np.array(data.draw(st.lists(angle, min_size=size, max_size=size)))
            for name, size in zip(order, sizes + [1] * (4 - varied))
        }
        total = math.prod(len(axis) for axis in axes.values())
        start = data.draw(st.integers(0, total - 1))
        stop = data.draw(st.integers(start + 1, total))
        mesh = np.meshgrid(*axes.values(), indexing="ij")
        grid = cli._sweep_grid(axes, start, stop)
        for name, column in zip(axes, mesh):
            values, index = grid[name]
            want = column.ravel()[start:stop]
            assert len(values) <= min(stop - start, len(axes[name]))
            assert values[index].tobytes() == want.tobytes()
            texts = ["%.17g" % value for value in values.tolist()]
            assert [texts[i] for i in index.tolist()] == ["%.17g" % value for value in want.tolist()]

    def test_fixed_angle_index_is_a_zero_stride_view(self):
        # a one-value axis indexes its value from every row without a column of zeros
        axes = {"mu": np.linspace(0.0, 1.0, 5), "eta": np.array([0.5]), "nu": np.arange(3.0), "zeta": np.array([-0.0])}
        grid = cli._sweep_grid(axes, 2, 14)
        for name in ("eta", "zeta"):
            values, index = grid[name]
            assert index.strides == (0,) and index.shape == (12,) and index.tolist() == [0] * 12
            assert values.tobytes() == axes[name].tobytes()
        values, index = grid["nu"]
        assert values[index].tolist() == [2.0, 0.0, 1.0] * 4

    def test_one_axis_sweep_memory_is_the_axis_plus_one_block(self, tmp_path):
        out = str(tmp_path / "sweep.csv")

        def peak(steps):
            tracemalloc.start()
            try:
                assert main(["sweep", "--vary", f"mu=0:{PI_STR}:{steps}", "--out", out]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the axis takes 8 B per step; the texts of a whole axis would take about 98
        assert peak(32 * BLOCK) - peak(4 * BLOCK) < 16 * (32 * BLOCK - 4 * BLOCK)

    def test_sweep_memory_does_not_grow_with_rows(self, tmp_path):
        out = str(tmp_path / "sweep.csv")

        def peak(n_mu, n_zeta):
            argv = ["sweep", "--eta", "1.3", "--nu", "2.0", "--vary", f"mu=0:{PI_STR}:{n_mu}",
                    "--vary", f"zeta=0:{TWO_PI_STR}:{n_zeta}", "--out", out]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 4 * BLOCK and 32 * BLOCK rows: under 1 B per added row
        assert peak(512, 256) - peak(128, 128) < 512 * 256 - 128 * 128

    # nu first passes pi in block 3, zeta first passes 2*pi in block 1
    @pytest.mark.parametrize("spec, name, hi, block", [
        ("nu=0:4:20000", "nu", PI, 3), ("zeta=0:7:9000", "zeta", 2 * PI, 1),
    ])
    def test_bad_angle_in_a_late_block_writes_nothing(self, tmp_path, capsys, spec, name, hi, block):
        start, stop, steps = spec.partition("=")[2].split(":")
        axis = np.linspace(float(start), float(stop), int(steps))
        assert int(np.argmax(axis > hi)) // BLOCK == block
        out = tmp_path / "sweep.csv"
        out.write_bytes(b"previous contents\n")
        for target in ("-", str(out)):
            code, stdout, err = run_cli(capsys, "sweep", "--vary", spec, "--out", target)
            assert code == 2
            assert stdout == ""
            assert err == f"error: {name} must lie in [0, {hi}]\n"
        assert out.read_bytes() == b"previous contents\n"
        assert os.listdir(tmp_path) == ["sweep.csv"]

    @pytest.mark.parametrize("plant", [1e-9, math.nan], ids=["shift", "nan"])
    def test_consistency_failure_in_a_late_block_names_the_grid_row(self, tmp_path, capsys, monkeypatch, plant):
        rows = 2 * BLOCK + 5
        bad_nu = np.linspace(0.0, 1.0, rows)[BLOCK + 3]
        alternate = bipartite._kernels.closed_joint_alt

        def shifted(mu, eta, nu, zeta, s, t):
            cells = alternate(mu, eta, nu, zeta, s, t)
            cells[nu == bad_nu, 1] += plant
            return cells

        monkeypatch.setattr(bipartite._kernels, "closed_joint_alt", shifted)
        out = tmp_path / "sweep.csv"
        out.write_bytes(b"previous contents\n")
        code, stdout, err = run_cli(capsys, "sweep", "--vary", f"nu=0:1:{rows}", "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert err.startswith("internal consistency failure: closed-form variants disagree by ")
        assert err.endswith(f" at row {BLOCK + 3}\n")
        assert out.read_bytes() == b"previous contents\n"
        assert os.listdir(tmp_path) == ["sweep.csv"]
        # on stdout the header and block 0 are written before block 1 fails
        code, stdout, _ = run_cli(capsys, "sweep", "--vary", f"nu=0:1:{rows}")
        assert code == 1
        assert stdout.count("\n") == 1 + BLOCK


@pytest.mark.parametrize("tol", ["nan", "-nan"])
@pytest.mark.parametrize("command", ["probs", "sweep", "verify", "sample"])
def test_nan_tolerance_is_usage_error(capsys, command, tol):
    code, out, err = run_cli(capsys, command, f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "error: tolerance must be positive" in err


@pytest.mark.parametrize("tol", ["inf", "1e999"])
@pytest.mark.parametrize("command", ["probs", "sweep", "verify", "sample"])
def test_infinite_tolerance_is_usage_error(capsys, command, tol):
    # with tol = inf every check passes: probs would call any pair independent
    code, out, err = run_cli(capsys, command, f"--tol={tol}", *(["--samples", "1"] if command == "verify" else []))
    assert code == 2
    assert out == ""
    assert err == "error: tolerance must be positive and finite\n"


def test_sample_checks_its_tolerance_before_drawing(capsys, monkeypatch):
    from bellxtalk import sampler

    draws = []
    monkeypatch.setattr(sampler, "sample", lambda *args: draws.append(args))
    code, out, err = run_cli(capsys, "sample", "--n", "300000000", "--tol", "inf")
    assert (code, out, err) == (2, "", "error: tolerance must be positive and finite\n")
    assert draws == []


_CLOSED_STDOUT = [
    ("probs", "--method", "all"),
    ("independence", "--plane", "x0", "--s", "0", "--t", "1", "--mu", "0.3"),
    ("sample", "--n", "10"),
    ("verify", "--samples", "3"),
    ("sweep", "--vary", "mu=0:1:3"),
    ("sweep", "--vary", "mu=0:1:20000"),  # past the stdout buffer, so a write fails before sweep returns
]


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", _CLOSED_STDOUT, ids=" ".join)
def test_a_closed_stdout_is_one_error_line_and_exit_2(argv, unbuffered):
    # stdout is a pipe whose read end is closed: with PYTHONUNBUFFERED the first print fails, without
    # it the flush after the command; either way no traceback, and nothing left to fail at exit
    read, write = os.pipe()
    os.close(read)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    try:
        result = subprocess.run([sys.executable, "-m", "bellxtalk", *argv], stdout=write, stderr=subprocess.PIPE,
                                env=env, text=True, timeout=60)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (2, "error: cannot write stdout: Broken pipe\n")


class TestUnwritableOut:
    def test_missing_directory_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code, stdout, err = run_cli(capsys, "sweep", "--vary", "nu=0:1:3", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err == f"error: cannot write {out}: No such file or directory\n"
        assert os.listdir(tmp_path) == []

    def test_write_error_mid_sweep_names_out_and_leaves_no_temp_file(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "sweep.csv"
        out.write_bytes(b"previous contents\n")
        blocks = []

        write = _sweep.write_block

        def disk_full_after_first_block(*args):
            blocks.append(args)
            if len(blocks) > 1:
                raise OSError(28, "No space left on device")
            write(*args)

        monkeypatch.setattr(cli, "SWEEP_BLOCK_ROWS", 2)
        monkeypatch.setattr(_sweep, "write_block", disk_full_after_first_block)
        code, stdout, err = run_cli(capsys, "sweep", "--vary", "nu=0:1:5", "--out", str(out))
        assert code == 2
        assert err == f"error: cannot write {out}: No space left on device\n"
        assert "Traceback" not in err
        assert out.read_bytes() == b"previous contents\n"
        assert os.listdir(tmp_path) == ["sweep.csv"]


def test_commutator_block_peak_stays_small():
    angles = np.random.default_rng(6).uniform(0.0, PI, (4, _verify.VERIFY_BLOCK_ROWS))
    cli._max_commutator_norm(*angles, _verify.commutator_basis())
    tracemalloc.start()
    try:
        cli._max_commutator_norm(*angles, _verify.commutator_basis())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_verify_block_peak_stays_small():
    # the kernels fill their outputs one tile at a time, the variant gap is
    # folded before amplitude and brute force run, and each block's arrays are
    # dropped before the next block's kernels run: 0.70 MB over one or two
    # blocks of 2048 tuples, against 1.13 and 1.28 MB over blocks of 4096 whose
    # arrays lived into the next block
    peaks = []
    for blocks in (1, 2):
        cli.run_verification(blocks * _verify.VERIFY_BLOCK_ROWS, 6)
        tracemalloc.start()
        try:
            cli.run_verification(blocks * _verify.VERIFY_BLOCK_ROWS, 6)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1.075 * 2**20
    assert peaks[1] - peaks[0] < 32 * 2**10  # one (n, 4) array kept into the next block is 64 KB


def _sweep_block_peaks(tmp_path):
    """Traced peaks of warm sweeps of one and two blocks, each 64 rows of a 64-step zeta axis."""
    peaks = []
    for blocks in (1, 2):
        argv = ["sweep", "--eta", "1.3", "--nu", "2.0", "--vary", f"mu=0:{PI_STR}:{64 * blocks}",
                "--vary", f"zeta=0:{TWO_PI_STR}:{BLOCK // 64}", "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_sweep_block_peak_stays_small(tmp_path):
    # each number column is dropped once formatted and no array of a block
    # lives into the next: 0.93 MB over one or two blocks of 4096 rows, against
    # 1.38 MB when the block's probabilities, information columns and label
    # bits lived until the write was done
    peaks = _sweep_block_peaks(tmp_path)
    assert peaks[0] < 1.0 * 2**20
    assert peaks[1] - peaks[0] < 32 * 2**10  # one block's probabilities are 128 KB


def test_sweep_block_peak_sees_a_block_kept_into_the_next(tmp_path, monkeypatch):
    kept = []
    closed = bipartite.joint_closed_batch
    monkeypatch.setattr(bipartite, "joint_closed_batch", lambda *args: kept.append(closed(*args)) or kept[-1])
    peaks = _sweep_block_peaks(tmp_path)
    assert peaks[1] - peaks[0] >= 32 * 2**10


def test_point_route_variant_disagreement_exits_1(capsys, monkeypatch):
    alternate = bipartite._kernels.closed_joint_alt

    def shifted(*args):
        (p00, *rest), = alternate(*args)  # the one row the point route asks for
        return [(p00 + 1e-9, *rest)]

    monkeypatch.setattr(bipartite._kernels, "closed_joint_alt", shifted)
    code, out, err = run_cli(capsys, "probs", "--mu", "0.4", "--eta", "1.3", "--nu", "2.1", "--zeta", "5.0")
    assert code == 1
    assert out == ""
    assert "internal consistency failure" in err


def test_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep.csv"
    out.write_bytes(b"previous contents\n")

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(bipartite, "joint_closed_batch", exhausted)
    code, stdout, err = run_cli(capsys, "sweep", "--vary", "nu=0:1:3", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err == "error: out of memory: Unable to allocate 298. GiB for an array\n"
    assert out.read_bytes() == b"previous contents\n"
    assert os.listdir(tmp_path) == ["sweep.csv"]


@pytest.mark.parametrize("command, handler", [
    ("probs", "cmd_probs"),
    ("sweep", "cmd_sweep"),
    ("verify", "cmd_verify"),
    ("independence", "cmd_independence"),
    ("sample", "cmd_sample"),
])
def test_main_runs_the_handler_named_by_the_command(monkeypatch, command, handler):
    seen = []

    def stub(args):
        seen.append(args.command)
        return 7

    monkeypatch.setattr(cli, handler, stub)
    extra = ["--plane", "x0", "--s", "0", "--t", "1"] if command == "independence" else []
    assert main([command, *extra]) == 7
    assert seen == [command]
    assert cli.build_parser() is cli.build_parser()
