"""Every module-level name of the package is read somewhere.

A function, class or assigned name in src/bellxtalk/*.py that occurs as a
whole word nowhere in src/, tests/ or perfbench/ besides its own definition
is dead code.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _defined_names(tree: ast.Module):
    """Names bound by the module's own def, class and assignment statements."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (name.id for name in ast.walk(target) if isinstance(name, ast.Name))


def test_every_module_level_name_is_used():
    words = Counter()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defined = {}
    for path in sorted((ROOT / "src" / "bellxtalk").glob("*.py")):
        for name in _defined_names(ast.parse(path.read_text(encoding="utf-8"))):
            if not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, []).append(path.name)
    unused = [f"{where[0]}: {name}" for name, where in defined.items() if words[name] <= len(where)]
    assert unused == []
