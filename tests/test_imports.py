"""No module imports a name it never uses.

The project ships no linter, so this walks the syntax tree of every module
under src/loopspace and of every test module and fails on an imported name
that is never read.  The package's __init__.py is left out: its imports are
what it re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = ([p for p in sorted((ROOT / "src" / "loopspace").glob("*.py"))
            if p.name != "__init__.py"]
           + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source):
    """(line, name) of each name an import binds and no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_finds_unused_names():
    source = ("import os\nimport importlib.util\nfrom math import gcd, lcm as l\n"
              "print(gcd, importlib.util)\n")
    assert unused_imports(source) == [(1, "os"), (3, "l")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
