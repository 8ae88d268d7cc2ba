"""The numpy kernels: brute force and the sampler against independent references, the
probability kernels' one-row math path against their ndarray path, and what the package imports."""

import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellxtalk import _kernels, _verify
from test_bipartite import EDGE_AZIMUTH, EDGE_POLAR, LABELS, _edge_grid


def reference_bruteforce(mu, eta, nu, zeta, psi):
    """Born rule as one 3-operand einsum over (n, 2, 2) frames: the kernel's former form."""
    n = mu.shape[0]
    cm, sm = np.cos(0.5 * mu), np.sin(0.5 * mu)
    cn, sn = np.cos(0.5 * nu), np.sin(0.5 * nu)
    ph_a = np.exp(-1j * eta)
    ph_b = np.exp(-1j * zeta)
    ua = np.empty((n, 2, 2), dtype=np.complex128)
    ua[:, 0, 0] = ph_a * cm
    ua[:, 0, 1] = sm
    ua[:, 1, 0] = -ph_a * sm
    ua[:, 1, 1] = cm
    ub = np.empty((n, 2, 2), dtype=np.complex128)
    ub[:, 0, 0] = ph_b * cn
    ub[:, 0, 1] = sn
    ub[:, 1, 0] = -ph_b * sn
    ub[:, 1, 1] = cn
    amps = np.einsum("nka,nlb,nab->nkl", ua.conj(), ub.conj(), psi.reshape(n, 2, 2))
    return (amps.real * amps.real + amps.imag * amps.imag).reshape(n, 4)


def _random_angles(rng, n):
    return (rng.uniform(0.0, math.pi, n), rng.uniform(0.0, 2 * math.pi, n),
            rng.uniform(0.0, math.pi, n), rng.uniform(0.0, 2 * math.pi, n))


@pytest.mark.parametrize("s, t", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_bruteforce_matches_einsum_reference_on_random_rows(s, t):
    rng = np.random.default_rng(10 + 2 * s + t)
    angles = _random_angles(rng, 5000)
    psi = _verify.bell_state_batch(np.full(5000, s), np.full(5000, t))
    got = _kernels.bruteforce_joint(*angles, psi)
    assert got.shape == (5000, 4)
    assert np.abs(got - reference_bruteforce(*angles, psi)).max() <= 1e-15


def test_bruteforce_matches_einsum_reference_on_edge_grid():
    mu, eta, nu, zeta, s, t = _edge_grid(EDGE_POLAR, EDGE_AZIMUTH)
    psi = _verify.bell_state_batch(s, t)
    got = _kernels.bruteforce_joint(mu, eta, nu, zeta, psi)
    assert np.abs(got - reference_bruteforce(mu, eta, nu, zeta, psi)).max() <= 1e-15


def test_bruteforce_matches_einsum_reference_on_non_bell_states():
    rng = np.random.default_rng(11)
    angles = _random_angles(rng, 5000)
    psi = rng.normal(size=(5000, 4)) + 1j * rng.normal(size=(5000, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    got = _kernels.bruteforce_joint(*angles, psi)
    assert np.abs(got - reference_bruteforce(*angles, psi)).max() <= 1e-15


def test_sampler_matches_reference_implementation():
    # independent pure-python splitmix64, kept deliberately separate from the
    # kernels so the documented algorithm stays pinned
    mask = (1 << 64) - 1

    def reference_counts(cdf, n, seed):
        tallies = [0, 0, 0, 0]
        for i in range(n):
            z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
            u = (z >> 11) * 2.0**-53
            cell = 0
            while cell < 3 and u > cdf[cell]:
                cell += 1
            tallies[cell] += 1
        return tallies

    cdf = np.array([0.25, 0.5, 0.75, 1.0])
    for seed in (0, 7, 123456789):
        expected = reference_counts(cdf, 3000, seed)
        got = _kernels.sample_counts(cdf, 3000, np.uint64(seed))
        assert list(got) == expected


def test_sampler_chunking_consistent():
    # counts must not depend on the sampler's internal chunk size
    cdf = np.array([0.3, 0.55, 0.8, 1.0])
    n = _kernels._SAMPLE_CHUNK + 12345
    whole = _kernels.sample_counts(cdf, n, np.uint64(9))
    assert int(whole.sum()) == n


CLOSED_KERNELS = ["closed_joint", "closed_joint_alt"]
#: their list route multiplies complex numbers in CPython, which rounds without
#: FMA where numpy's SIMD product may use it, so it is held within 1e-15, not to the bit
ORACLE_KERNELS = ["amplitude_joint", "bruteforce_joint"]
POLAR = st.floats(0.0, math.pi) | st.sampled_from(EDGE_POLAR)
AZIMUTH = st.floats(0.0, 2 * math.pi) | st.sampled_from(EDGE_AZIMUTH)
ROWS = st.lists(st.tuples(POLAR, AZIMUTH, POLAR, AZIMUTH, st.sampled_from(LABELS)), min_size=2, max_size=8)


def _columns(rows):
    """mu, eta, nu, zeta, s, t arrays of hypothesis rows (mu, eta, nu, zeta, (s, t))."""
    mu, eta, nu, zeta = (np.array(column) for column in list(zip(*rows))[:4])
    s, t = (np.array(bits, dtype=np.int64) for bits in zip(*(row[4] for row in rows)))
    return mu, eta, nu, zeta, s, t


def _kernel_args(name, mu, eta, nu, zeta, s, t):
    """The kernel's arguments for these rows: brute force takes the Bell states of s, t for the bits."""
    if name == "bruteforce_joint":
        return mu, eta, nu, zeta, _verify.bell_state_batch(s, t)
    return mu, eta, nu, zeta, s, t


def _one_row_calls(kernel, *arrays):
    """kernel on one-element lists, row by row; each call must give a list of one tuple of 4 floats."""
    rows = []
    for row in zip(*(a.tolist() for a in arrays)):
        out = kernel(*([x] for x in row))
        assert isinstance(out, list) and len(out) == 1
        assert isinstance(out[0], tuple) and len(out[0]) == 4 and all(type(x) is float for x in out[0])
        rows.append(out[0])
    return rows


def _hex_rows(rows):
    return [[float(x).hex() for x in row] for row in rows]


@pytest.mark.parametrize("name", CLOSED_KERNELS)
@settings(max_examples=200, deadline=None)
@given(rows=ROWS)
def test_one_row_lists_match_the_ndarray_path(name, rows):
    kernel = getattr(_kernels, name)
    columns = _columns(rows)
    assert _hex_rows(_one_row_calls(kernel, *columns)) == _hex_rows(kernel(*columns))


@pytest.mark.parametrize("name", CLOSED_KERNELS)
def test_one_row_lists_match_the_ndarray_path_on_edge_grid(name):
    # poles, azimuth 2*pi and just below it, the plane boundaries, all four labels
    kernel = getattr(_kernels, name)
    grid = _edge_grid(EDGE_POLAR, EDGE_AZIMUTH)
    assert _hex_rows(_one_row_calls(kernel, *grid)) == _hex_rows(kernel(*grid))


@pytest.mark.parametrize("name", ORACLE_KERNELS)
@settings(max_examples=200, deadline=None)
@given(rows=ROWS)
def test_oracle_one_row_lists_match_the_ndarray_path(name, rows):
    kernel = getattr(_kernels, name)
    args = _kernel_args(name, *_columns(rows))
    assert np.abs(np.array(_one_row_calls(kernel, *args)) - kernel(*args)).max() <= 1e-15


@pytest.mark.parametrize("name", ORACLE_KERNELS)
def test_oracle_one_row_lists_match_the_ndarray_path_on_edge_grid(name):
    kernel = getattr(_kernels, name)
    args = _kernel_args(name, *_edge_grid(EDGE_POLAR, EDGE_AZIMUTH))
    assert np.abs(np.array(_one_row_calls(kernel, *args)) - kernel(*args)).max() <= 1e-15


def test_bruteforce_one_row_lists_match_the_ndarray_path_on_non_bell_states():
    rng = np.random.default_rng(12)
    angles = _random_angles(rng, 2000)
    psi = rng.normal(size=(2000, 4)) + 1j * rng.normal(size=(2000, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    rows = _one_row_calls(_kernels.bruteforce_joint, *angles, psi)
    assert np.abs(np.array(rows) - _kernels.bruteforce_joint(*angles, psi)).max() <= 1e-15


@pytest.mark.parametrize("name", CLOSED_KERNELS + ORACLE_KERNELS)
@pytest.mark.parametrize("n", [0, 1, 3])
def test_probability_kernels_return_n_by_4_arrays(name, n):
    # ndarrays give an (n, 4) ndarray, lists a list of n tuples of 4 floats
    kernel = getattr(_kernels, name)
    rng = np.random.default_rng(n)
    arrays = _kernel_args(name, *_random_angles(rng, n), rng.integers(0, 2, n), rng.integers(0, 2, n))
    out = kernel(*arrays)
    assert isinstance(out, np.ndarray) and out.shape == (n, 4) and out.dtype == np.float64
    rows = kernel(*(a.tolist() for a in arrays))
    assert isinstance(rows, list) and len(rows) == n
    assert all(isinstance(row, tuple) and len(row) == 4 and all(type(x) is float for x in row) for row in rows)


#: each ndarray kernel against np.stack of its cell helper on the whole columns, the pre-tiling form
_WHOLE_COLUMNS = {
    "closed_joint": lambda *rows: _kernels._closed_cells(*rows, np.sin, np.cos),
    "closed_joint_alt": lambda *rows: _kernels._closed_alt_cells(*rows, np.sin, np.cos, np.where),
    "amplitude_joint": lambda *rows: _kernels._amplitude_cells(*rows, np.sin, np.cos, np.exp, np.where),
    "bruteforce_joint": lambda mu, eta, nu, zeta, psi: _kernels._bruteforce_cells(
        mu, eta, nu, zeta, psi.T, np.sin, np.cos, np.exp),
}


#: no rows, one, either side of one tile's edge, and a verify block past its last whole tile
TILE_EDGE_ROWS = [0, 1, _kernels._TILE - 1, _kernels._TILE, _kernels._TILE + 1, _verify.VERIFY_BLOCK_ROWS + 3]


@pytest.mark.parametrize("name", CLOSED_KERNELS + ORACLE_KERNELS)
@pytest.mark.parametrize("n", TILE_EDGE_ROWS)
def test_tiled_output_is_bit_identical_to_whole_column_cells(name, n):
    rng = np.random.default_rng(n)
    args = _kernel_args(name, *_random_angles(rng, n), rng.integers(0, 2, n), rng.integers(0, 2, n))
    got = getattr(_kernels, name)(*args)
    assert got.shape == (n, 4) and got.dtype == np.float64
    assert np.array_equal(got, np.stack(_WHOLE_COLUMNS[name](*args), axis=1))


@pytest.mark.parametrize("n", TILE_EDGE_ROWS)
def test_tiled_bruteforce_is_bit_identical_on_non_bell_states(n):
    rng = np.random.default_rng(100 + n)
    angles = _random_angles(rng, n)
    psi = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    got = _kernels.bruteforce_joint(*angles, psi)
    assert np.array_equal(got, np.stack(_WHOLE_COLUMNS["bruteforce_joint"](*angles, psi), axis=1))


def _amplitude_cells_per_cell(mu, eta, nu, zeta, s, t, sin, cos, exp, where):
    """_amplitude_cells with every product and signed phase written out per cell, as it was first written."""
    tr_m = (cos(0.5 * mu), sin(0.5 * mu))
    tr_n = (cos(0.5 * nu), sin(0.5 * nu))
    ph_a = exp(-1j * eta)
    ph_b = exp(-1j * zeta)
    ph_ab = ph_a * ph_b
    sign_s = 1.0 - 2.0 * s
    cells = []
    for k in (0, 1):
        sk = 1.0 - 2.0 * k
        for ell in (0, 1):
            sl = 1.0 - 2.0 * ell
            amp_t0 = (sk * sl) * ph_ab * (tr_m[k] * tr_n[ell]) + sign_s * (tr_m[1 - k] * tr_n[1 - ell])
            amp_t1 = sk * ph_a * (tr_m[k] * tr_n[1 - ell]) + (sign_s * sl) * ph_b * (tr_m[1 - k] * tr_n[ell])
            amp = where(t == 0, amp_t0, amp_t1)
            cells.append(0.5 * (amp.real * amp.real + amp.imag * amp.imag))
    return tuple(cells)


@pytest.mark.parametrize("grid", ["random", "edge"])
def test_amplitude_cells_are_bit_identical_to_the_per_cell_form(grid):
    # each product and signed phase is formed once, from the operands the per-cell form used
    if grid == "edge":
        columns = _edge_grid(EDGE_POLAR, EDGE_AZIMUTH)
    else:
        rng = np.random.default_rng(26)
        columns = (*_random_angles(rng, 5000), rng.integers(0, 2, 5000), rng.integers(0, 2, 5000))
    got = _kernels._amplitude_cells(*columns, np.sin, np.cos, np.exp, np.where)
    want = _amplitude_cells_per_cell(*columns, np.sin, np.cos, np.exp, np.where)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))
    for row in list(zip(*(column.tolist() for column in columns)))[:500]:
        got = _kernels._amplitude_cells(*row, math.sin, math.cos, cmath.exp, _kernels._pick)
        want = _amplitude_cells_per_cell(*row, math.sin, math.cos, cmath.exp, _kernels._pick)
        assert [x.hex() for x in got] == [x.hex() for x in want]


_IMPORT_PROBE = """
import contextlib
import io
import sys

wanted = set()


class Recorder:
    # sees every import before the real finders do, found or not
    def find_spec(self, name, path=None, target=None):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__", "").startswith(("importlib", "_frozen_importlib")):
            frame = frame.f_back
        top = name.partition(".")[0]
        if (frame.f_globals.get("__name__", "").startswith("bellxtalk")
                and top not in sys.stdlib_module_names and top != "bellxtalk"):
            wanted.add(top)


sys.meta_path.insert(0, Recorder())
import bellxtalk.cli
print(",".join(sorted(wanted)))
with contextlib.redirect_stdout(io.StringIO()):
    assert bellxtalk.cli.main(sys.argv[1:]) == 0
print(",".join(sorted(wanted)))
"""


@pytest.mark.parametrize("argv, wanted", [
    (("probs", "--method", "all"), ""),
    (("verify", "--samples", "3"), "numpy"),
], ids=["probs --method all", "verify --samples 3"])
def test_package_asks_for_no_dependency_but_numpy(argv, wanted):
    # importing the CLI asks for nothing outside the stdlib; one pair on every
    # route asks for nothing more, and the command that runs every batch route
    # asks for numpy alone: it may not even try an optional accelerator,
    # whether or not one is installed
    src = os.path.dirname(os.path.dirname(_kernels.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split("\n") == ["", wanted, ""]
