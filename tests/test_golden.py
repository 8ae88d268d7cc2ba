"""CLI and library outputs pinned byte for byte in golden.json (rebuilt by make_golden.py)."""

import hashlib
import json

import pytest

import make_golden as mg

with open(mg.GOLDEN_PATH, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


def test_golden_holds_exactly_the_cases():
    expected = [mg.key(group) for group in mg.groups()]
    expected += [mg.anchored_key(group) for group in mg.groups()]
    expected += [mg.key(argv) for argv in mg.error_cases() + mg.sweep_cases() + mg.verify_cases()]
    assert sorted(GOLDEN) == sorted(expected + [mg.LIBRARY_KEY])


@pytest.mark.parametrize("group", mg.groups(), ids=mg.key)
def test_independence(group):
    header = mg.run(group)
    assert header == GOLDEN[mg.key(group)]
    tails = GOLDEN[mg.anchored_key(group)]
    for argv, tail in zip(mg.anchored(group), tails, strict=True):
        assert mg.run(argv) == [0, header[1] + tail, ""], argv


@pytest.mark.parametrize("argv", mg.error_cases(), ids=mg.key)
def test_independence_error(argv):
    assert mg.run(argv) == GOLDEN[mg.key(argv)]


@pytest.mark.parametrize("argv", mg.sweep_cases(), ids=range(len(mg.sweep_cases())))
def test_sweep_csv_hash(argv):
    assert mg.sweep_record(argv) == GOLDEN[mg.key(argv)]


@pytest.mark.parametrize("argv", mg.verify_cases(), ids=mg.key)
def test_verify(argv):
    assert mg.run(argv) == GOLDEN[mg.key(argv)]


def test_library_outputs():
    assert hashlib.sha256(mg.library_text().encode()).hexdigest() == GOLDEN[mg.LIBRARY_KEY]
