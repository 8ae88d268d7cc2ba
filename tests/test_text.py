"""The sweep's column formatter against "%.17g" % on every value, and its CSV row joiner."""

import collections
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bellxtalk import _text, cli


def texts(values):
    matrix = _text.floats(np.asarray(values, dtype=np.float64))
    return [row.tobytes().rstrip(b"\0").decode("ascii") for row in matrix]


def reference(values):
    return ["%.17g" % value for value in np.asarray(values, dtype=np.float64).tolist()]


def around(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,  # zeros, subnormals
    *around(1e-4), *around(1e16), *around(1e17),  # the ends of the fast path
    # every k's layout with one, two and seventeen significant digits
    *(x for k in range(-5, 18) for x in [*around(float(f"1e{k}")), float(f"1.5e{k}"),
                                         float(f"1.2345678901234567e{k}")]),
    9.9999999999999995e-05, 0.00099999999999999999, 9.9999999999999999, 99999999999999984.0,
    1000000000000000.25, 1000000000000000.75, 1234567890123456.25, 123456789012345.125,  # ties of lo
    math.pi, 2 * math.pi, math.pi / 4, 0.25, 0.5, 1.0, 0.1, 1 / 3, 2 / 3,
    -math.pi, -1.0, -1e-5, -0.5, -1e300,
]

finite = st.floats(allow_nan=False, allow_infinity=False)
fast_range = st.floats(min_value=1e-4, max_value=1e17, exclude_max=True)
# x.25 and x.75 above 2**50, x.125 ... x.875 above 2**49: the 18th significant digit is an exact 5
ties = (st.tuples(st.integers(2**50, 2**51 - 1), st.sampled_from([0.25, 0.75]))
        | st.tuples(st.integers(2**49, 10**15 - 1), st.sampled_from([0.125, 0.375, 0.625, 0.875])))


def test_edges_match_percent_format():
    assert texts(EDGES) == reference(EDGES)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(0, cli.SWEEP_BLOCK_ROWS), elements=finite | fast_range))
@example(np.array(EDGES))
def test_any_finite_column_matches_percent_format(values):
    assert texts(values) == reference(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(ties.map(lambda pair: pair[0] + pair[1]), min_size=1, max_size=50))
def test_half_way_ties_round_to_even_like_percent_format(values):
    assert texts(values) == reference(values)


def test_values_outside_the_fast_path_raise_no_numpy_warning():
    # each reaches log10, ldexp or an int cast only as the 1.0 that stands in for it
    values = [*around(1e17), 1e300, math.inf, -math.inf, math.nan, 0.0, -0.0, -2.5, 5e-324]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert texts(values) == reference(values)


def _second_call_peak(values):
    """Traced peak of a _text.floats call on values after a first call has built its tables."""
    _text.floats(values)
    tracemalloc.start()
    try:
        _text.floats(values)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_floats_drops_each_intermediate_at_its_last_use():
    # a block of probabilities: 432 KB, with the 88 KB text matrix; 625 KB when
    # every intermediate of _scaled and _fixed lived to the end of the call
    values = np.random.default_rng(4).uniform(0.0, 0.5, cli.SWEEP_BLOCK_ROWS)
    assert _second_call_peak(values) <= 450 * 2**10


def test_floats_slow_path_texts_are_one_bytes_array():
    # a block of values below 1e-4, every one through "%.17g" %: about 567 KB
    # with the texts in one NUL-padded bytes array; 1104 KB when they were
    # padded, joined and re-parsed
    values = np.random.default_rng(5).uniform(0.0, 1e-4, cli.SWEEP_BLOCK_ROWS)
    assert _second_call_peak(values) <= 0.75 * 2**20


def test_lines_joins_text_and_shared_fields():
    a, b = _text.floats([0.5, 3.0]), _text.floats([1e20, -2.5])
    rows = "".join(_text.lines([b"x", a, b"1", b"0", b, b"y"]))
    assert rows == "x,0.5,1,0,1e+20,y\nx,3,1,0,-2.5,y\n"


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 9])
def test_lines_joins_every_field_kind_across_slice_edges(monkeypatch, rows):
    # 1, S - 1, S, S + 1 and 2S + 1 rows of 4-row slices; one row is also a one-row sweep
    monkeypatch.setattr(_text, "_SLICE_ROWS", 4)
    rng = np.random.default_rng(rows)
    column = rng.uniform(0, 7, rows)
    column[::2] = [1e20, -0.0, 2.5e-300, math.inf, math.pi][:len(column[::2])]  # wider than 22
    axis = np.array([0.1, 1e17, 0.75])
    index = rng.integers(0, len(axis), rows)
    fixed = np.array([2 * math.pi])  # a one-row matrix, gathered for every row
    fields = [b"x", _text.floats(column), (_text.floats(axis), index), b"1",
              (_text.floats(fixed), np.zeros(rows, np.intp)), _text.floats(column[::-1]), b"y"]
    texts = list(_text.lines(fields))
    assert len(texts) == -(-rows // 4)
    expected = [f"x,{'%.17g' % a},{'%.17g' % axis[k]},1,{'%.17g' % fixed[0]},{'%.17g' % b},y\n"
                for a, k, b in zip(column.tolist(), index.tolist(), column[::-1].tolist())]
    assert "".join(texts) == "".join(expected)


def test_lines_working_set_is_a_slice_not_the_rows(monkeypatch, capsys):
    # the fields of one 4096-row sweep block, as the sweep hands them to lines
    captured = []
    monkeypatch.setattr(_text, "lines", lambda fields: captured.append(fields) or [])
    argv = ["sweep", "--vary", "mu=0:3:64", "--vary", "zeta=0:6:64", "--eta", "0.5", "--nu", "1.5"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    monkeypatch.undo()
    (fields,) = captured

    def width(field):
        if isinstance(field, bytes):
            return len(field)
        return (field if isinstance(field, np.ndarray) else field[0]).shape[1]

    rows, row_width = cli.SWEEP_BLOCK_ROWS, sum(map(width, fields)) + len(fields)
    drain = collections.deque(maxlen=0).extend  # keeps none of the yielded text
    drain(_text.lines(fields))
    tracemalloc.start()
    try:
        drain(_text.lines(fields))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows * row_width / 2


def test_importing_the_cli_leaves_the_formatter_unloaded():
    src = os.path.dirname(os.path.dirname(_text.__file__))
    probe = "import sys, bellxtalk.cli; print('bellxtalk._text' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"

