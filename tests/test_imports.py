"""No module imports a name it never uses, and no helper outlives its callers.

The project ships no linter, so this walks the syntax tree of every module
under src/loopspace and of every test module and fails on an imported name
that is never read.  The package's __init__.py is left out: its imports are
what it re-exports.  It also fails on a top-level function of the package
that nothing in the package refers to outside its own definition; a
re-export in __init__.py counts as a reference.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "loopspace").glob("*.py"))
MODULES = ([p for p in PACKAGE if p.name != "__init__.py"]
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


def names_in(node):
    """Every name a syntax tree reads, as a variable, an attribute or an
    imported name."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def dead_helpers(sources):
    """(module, name) of each top-level function that no module refers to
    outside its own body.  sources maps module name to source text; the
    functions of "__init__" are not checked, its imports are references."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    referenced = set()
    defined = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            names = names_in(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.discard(stmt.name)
                if mod != "__init__":
                    defined.append((mod, stmt.name))
            referenced |= names
    return sorted((mod, name) for mod, name in defined if name not in referenced)


def test_checker_finds_dead_helpers():
    sources = {
        "a": ("def used():\n    return 1\n\n"
              "def dead(n):\n    return dead(n - 1) if n else 0\n\n"
              "class K:\n    def m(self):\n        return used()\n"),
        "b": "def exported():\n    pass\n\ndef via_attribute():\n    pass\n",
        "c": "from . import b\n\nb.via_attribute()\n",
        "__init__": "from .b import exported\n\ndef public():\n    pass\n",
    }
    assert dead_helpers(sources) == [("a", "dead")]


def test_no_dead_helpers():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert dead_helpers(sources) == []
