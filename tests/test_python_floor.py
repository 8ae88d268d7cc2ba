"""Every source file of the package parses as the oldest Python that pyproject.toml declares.

The suite runs on a newer interpreter, so syntax added after the floor
(``except*``, a ``type`` statement, type parameters) would pass it unseen.
This checks syntax only: a standard-library call added after the floor is
not caught.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "bellxtalk").glob("*.py")), ids=lambda path: path.name)
def test_source_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_declared_floor())
