"""No function under src/loopspace calls itself.

Recursion depth here would grow with the input (the number of generators,
the degree), and Python stops at about a thousand frames with a
RecursionError, which no exit code covers.  This walks the syntax tree of
every module and fails on a function whose body calls it by name, or, for
a method, through `self` or `cls`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "loopspace").glob("*.py"))


def self_calls(source):
    """(line, name) of each call a function makes to itself."""
    tree = ast.parse(source)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == fn.name
                    or id(fn) in methods and isinstance(f, ast.Attribute)
                    and f.attr == fn.name and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")):
                found.append((node.lineno, fn.name))
    return sorted(found)


def test_checker_finds_self_calls():
    source = ("def walk(n):\n"
              "    def rec(i):\n"
              "        return rec(i - 1) if i else 0\n"
              "    return rec(n) + other(n)\n"
              "class Tree:\n"
              "    def depth(self):\n"
              "        return self.depth() + self.size()\n"
              "def depth(tree):\n"
              "    return tree.depth()\n")
    assert self_calls(source) == [(3, "rec"), (7, "depth")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_self_recursion(path):
    assert self_calls(path.read_text(encoding="utf-8")) == []
