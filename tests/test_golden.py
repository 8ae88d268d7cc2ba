"""CLI and library outputs pinned byte for byte in golden.json (rebuilt by make_golden.py)."""

import json

import pytest

import make_golden as mg

with open(mg.GOLDEN_PATH, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


def test_golden_holds_exactly_the_cases():
    expected = [mg.key(group) for group in mg.groups()]
    expected += [mg.anchored_key(group) for group in mg.groups()]
    expected += [mg.key(argv) for argv in mg.error_cases() + mg.usage_error_cases() + mg.hashed_cases() + mg.verify_cases()]
    assert sorted(GOLDEN) == sorted(expected + [mg.LIBRARY_KEY, mg.PROBS_KEY, mg.REPORT_KEY, mg.SAMPLE_KEY])


@pytest.mark.parametrize("group", mg.groups(), ids=mg.key)
def test_independence(group):
    header = mg.run(group)
    assert header == GOLDEN[mg.key(group)]
    tails = GOLDEN[mg.anchored_key(group)]
    for argv, tail in zip(mg.anchored(group), tails, strict=True):
        assert mg.run(argv) == [0, header[1] + tail, ""], argv


@pytest.mark.parametrize("argv", mg.error_cases(), ids=mg.key)
def test_independence_error(argv):
    record = mg.run(argv)
    assert record == GOLDEN[mg.key(argv)]
    assert mg.is_one_line_error(record)


@pytest.mark.parametrize("argv", mg.usage_error_cases(), ids=mg.key)
def test_usage_error(argv):
    record = mg.run(argv)
    assert record == GOLDEN[mg.key(argv)]
    assert mg.is_one_line_error(record)


@pytest.mark.parametrize("argv", mg.sweep_cases(), ids=range(len(mg.sweep_cases())))
def test_sweep_csv_hash(argv):
    assert mg.hashed_record(argv) == GOLDEN[mg.key(argv)]


@pytest.mark.parametrize("argv", mg.verify_cases(), ids=mg.key)
def test_verify(argv):
    assert mg.run(argv) == GOLDEN[mg.key(argv)]


@pytest.mark.parametrize("argv", mg.long_verify_cases(), ids=mg.key)
def test_verify_stdout_hash(argv):
    assert mg.hashed_record(argv) == GOLDEN[mg.key(argv)]


def test_library_outputs():
    assert mg.sha256(mg.library_text()) == GOLDEN[mg.LIBRARY_KEY]


def test_probs_all_methods_on_edge_grid():
    assert mg.sha256(mg.probs_text()) == GOLDEN[mg.PROBS_KEY]


def test_crosstalk_report_bits():
    assert mg.sha256(mg.report_text()) == GOLDEN[mg.REPORT_KEY]


def test_sample_stdout_at_pinned_seeds():
    assert mg.sha256(mg.sample_text()) == GOLDEN[mg.SAMPLE_KEY]
