"""What a cold start loads: each test runs its probe in a fresh interpreter.

Importing the CLI and building its parser loads no numpy and no module that
only some commands run; probs, on every route, and independence never load
numpy; no command loads dataclasses; the package resolves its exports on first
use. numpy is imported in one place, the lazy module bellxtalk._np.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import bellxtalk

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bellxtalk.__file__)))

#: loaded only by the commands that use them
DEFERRED = ("numpy", "bellxtalk.independence", "bellxtalk.sampler", "tempfile")
#: loaded by no command: the records are built on observables.Record
NEVER = ("dataclasses",)

_PROBE = """
import contextlib, io, sys
for name in {unloaded!r}:  # tempfile, say, may come with the interpreter's own start-up
    sys.modules.pop(name, None)
import bellxtalk.cli as cli
cli.build_parser()
{body}
"""


def _probe(body: str = "", *argv: str) -> list[str]:
    """stdout lines of body, run in a fresh interpreter after importing the CLI and building its parser."""
    code = _PROBE.format(unloaded=DEFERRED + NEVER, body=body)
    result = subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=SRC),
                            capture_output=True, text=True, check=True)
    return result.stdout.splitlines()


_AFTER_MAIN = """
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "numpy" in sys.modules, "dataclasses" in sys.modules)
"""


def test_importing_the_cli_defers_numpy_and_the_command_modules():
    assert _probe("print(*sorted(set({deferred!r}) & set(sys.modules)))".format(deferred=DEFERRED + NEVER)) == [""]


@pytest.mark.parametrize("argv", [
    ("probs",),
    ("probs", "--method", "closed", "--mu", "1.2", "--eta", "6.283185307179586", "--s", "1"),
    ("probs", "--method", "amplitude", "--mu", "0.4", "--eta", "2.5", "--nu", "1.9", "--t", "1"),
    ("probs", "--method", "brute", "--nu", "3.141592653589793", "--zeta", "4.1", "--s", "1", "--t", "1"),
    ("probs", "--method", "all"),
    ("independence", "--plane", "x0", "--s", "0", "--t", "1", "--mu", "0.3"),
    ("independence", "--plane", "z0", "--s", "1", "--t", "1", "--eta", "90", "--deg"),
], ids=" ".join)
def test_one_pair_commands_never_import_numpy(argv):
    assert _probe(_AFTER_MAIN, *argv) == ["0 False False"]


@pytest.mark.parametrize("argv", [
    ("sweep", "--vary", "mu=0:1:3"),
    ("verify", "--samples", "3"),
    ("sample", "--n", "10"),
], ids=" ".join)
def test_array_commands_import_numpy(argv):
    assert _probe(_AFTER_MAIN, *argv) == ["0 True False"]


def test_every_export_resolves_to_its_module_object():
    body = """
import importlib
import bellxtalk
for module, names in bellxtalk._EXPORTS.items():
    for name in names:
        exec(f"from bellxtalk import {name} as value")
        assert value is getattr(importlib.import_module(f"bellxtalk.{module}"), name), name
print(sorted(bellxtalk._MODULE_OF) == sorted(bellxtalk.__all__))
"""
    assert _probe(body) == ["True"]


def test_dir_and_star_import_list_every_export():
    body = """
import bellxtalk
listed = dir(bellxtalk)  # before any export is resolved
namespace = {}
exec("from bellxtalk import *", namespace)
print(sorted(set(bellxtalk.__all__) - set(listed)), sorted(set(bellxtalk.__all__) - set(namespace)))
"""
    assert _probe(body) == ["[] []"]


def test_unknown_names_are_attribute_errors():
    body = """
import bellxtalk, bellxtalk.observables
for module in (bellxtalk, bellxtalk.observables):
    try:
        module.no_such_name
    except AttributeError as exc:
        print(exc)
"""
    assert _probe(body) == ["module 'bellxtalk' has no attribute 'no_such_name'",
                            "module 'bellxtalk.observables' has no attribute 'no_such_name'"]


def test_matrix_constants_are_built_once_on_first_use():
    body = """
from bellxtalk import observables
print("numpy" in sys.modules, "SIGMA2" in dir(observables))
first = observables.SIGMA2
print("numpy" in sys.modules, first is observables.SIGMA2, "SIGMA2" in vars(observables))
"""
    assert _probe(body) == ["False True", "True True True"]


def _importers(module: str) -> set[str]:
    """Names of the package's source files that import module or one of its submodules."""
    importers = set()
    for path in pathlib.Path(bellxtalk.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == module for name in names):
                importers.add(path.name)
    return importers


def test_only_the_np_module_imports_numpy():
    assert _importers("numpy") == {"_np.py"}


def test_no_module_imports_dataclasses():
    assert _importers("dataclasses") == set()


def test_np_module_loads_numpy_on_first_use_and_keeps_each_name():
    body = """
from bellxtalk import _np
print("numpy" in sys.modules, "sin" in vars(_np))
first = _np.sin
import numpy
print(first is numpy.sin, vars(_np)["sin"] is numpy.sin, _np.sin is first)
"""
    assert _probe(body) == ["False False", "True True True"]


def test_np_module_names_unknown_and_dunder_probes_as_attribute_errors():
    body = """
from bellxtalk import _np
for name in ("__wrapped__", "__all__", "__path__"):
    print(name, hasattr(_np, name), "numpy" in sys.modules)
try:
    _np.no_such_name
except AttributeError as exc:
    print("no_such_name" in str(exc))
"""
    assert _probe(body) == ["__wrapped__ False False", "__all__ False False", "__path__ False False", "True"]
