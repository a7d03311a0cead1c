"""No module imports a name it never uses, no helper outlives its callers,
no test hook hides in the product, and the command line starts light.

The project ships no linter, so this walks the syntax tree of every module
under src/loopspace and of every test module and fails on an imported name
that is never read.  The package's __init__.py is left out: its imports are
what it re-exports.  It also fails on a top-level function of the package
that nothing in the package refers to outside its own definition, and on a
method or property of a top-level class that nothing reads as an
attribute; a re-export in __init__.py counts as a reference.  No function
of the package takes a parameter whose name starts with an underscore, the
shape of a hook only tests pass, and every option of the command line
shows its help.  A fresh interpreter that imports loopspace.cli loads none
of the modules only rare paths need.
"""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loopspace.cli import build_parser
from loopspace.exactq import CochainComplex, TensorComplex
from loopspace.pdquotient import FiniteCdga
from test_traced_names import traced_names

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


def attributes_read(node):
    """Every name a syntax tree reads as an attribute, x.name."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def dead_helpers(sources, exempt):
    """(module, name) of each top-level function that no module refers to
    outside its own body, and (module, "Class.name") of each method or
    property of a top-level class that no module reads as an attribute
    outside its own body.  sources maps module name to source text; the
    functions of "__init__" are not checked, its imports are references.
    A string in a `CHECKS` assignment counts as an attribute read, as the
    checks are read by those names; dunder methods and the names in exempt
    ("name" or "Class.name") are not checked.  A variable that shares a
    method's name is no reference to the method."""
    referenced = set()      # names read as variables, attributes or imports
    attributes = set()      # names read as attributes, and the CHECKS strings
    defined = []
    for mod, src in sources.items():
        for stmt in ast.parse(src).body:
            # (node, its qualified name if it is a checked definition, else None)
            if isinstance(stmt, FUNCTIONS):
                members = [(stmt, stmt.name)]
            elif isinstance(stmt, ast.ClassDef):
                members = [(f, None) for f in stmt.bases + stmt.decorator_list]
                for f in stmt.body:
                    checked = (isinstance(f, FUNCTIONS)
                               and not f.name.startswith("__"))
                    members.append((f, stmt.name + "." + f.name if checked else None))
            else:
                members = [(stmt, None)]
                if any(isinstance(t, ast.Name) and t.id == "CHECKS"
                       for t in getattr(stmt, "targets", ())):
                    attributes |= {c.value for c in ast.walk(stmt)
                                   if isinstance(c, ast.Constant)}
            for node, qualname in members:
                names, attrs = names_in(node), attributes_read(node)
                if qualname is not None:
                    names.discard(node.name)
                    attrs.discard(node.name)
                    if mod != "__init__":
                        defined.append((mod, qualname, node.name))
                referenced |= names
                attributes |= attrs
    return sorted((mod, qualname) for mod, qualname, name in defined
                  if name not in (attributes if "." in qualname else referenced)
                  and qualname not in exempt)


def test_checker_finds_dead_helpers():
    sources = {
        "a": ("def used():\n    return 1\n\n"
              "def dead(n):\n    return dead(n - 1) if n else 0\n\n"
              "class K:\n    def m(self):\n        return used()\n"),
        "b": "def exported():\n    pass\n\ndef via_attribute():\n    pass\n",
        "c": "from . import b\n\nb.via_attribute()\n",
        "__init__": "from .b import exported\n\ndef public():\n    pass\n",
    }
    assert dead_helpers(sources, ()) == [("a", "K.m"), ("a", "dead")]


def test_checker_finds_dead_methods():
    sources = {
        "a": ("class K(Base):\n"
              "    def __len__(self):\n        return self.size\n\n"
              "    @property\n    def size(self):\n        return 0\n\n"
              "    def again(self):\n        return self.again()\n\n"
              "    def checked(self):\n        pass\n\n"
              "    def traced(self):\n        pass\n\n"
              "    def dead(self):\n        pass\n\n"
              "    def column(self):\n        pass\n\n"
              "class Base:\n    def read(self):\n        pass\n"),
        "b": ("from .a import K\n\n"
              "CHECKS = ((\"one\", \"checked\"),)\n\n"
              "def use(k):\n    return getattr(k, CHECKS[0][1]), k.read\n\n"
              "def apply(rows):\n    column = {}\n    for r in rows:\n"
              "        column[r] = 1\n    return column\n\n"
              "use(K())\napply(())\n"),
    }
    assert dead_helpers(sources, ("K.traced",)) == [
        ("a", "K.again"), ("a", "K.column"), ("a", "K.dead")]


def test_no_dead_helpers():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    exempt = {name for _, name in traced_names()}
    assert dead_helpers(sources, exempt) == []


def test_cli_import_loads_no_rare_path_module():
    """python -m loopspace.cli imports no dataclasses (nor the inspect it
    pulls in), no json, which only --format json needs, and no
    importlib.resources, which only the corpus helpers need.  -S keeps
    site's own start-up imports from hiding one."""
    rare = ("dataclasses", "inspect", "json", "importlib.resources")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, loopspace.cli\n"
         "print(' '.join(m for m in %r if m in sys.modules))" % (rare,)],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert loaded == []


def class_methods(sources):
    """(module, class, name) of each function defined in the body of a
    top-level class."""
    return sorted((mod, stmt.name, f.name) for mod, src in sources.items()
                  for stmt in ast.parse(src).body if isinstance(stmt, ast.ClassDef)
                  for f in stmt.body if isinstance(f, FUNCTIONS))


def complex_classes():
    """Every subclass of CochainComplex, at any depth."""
    found, stack = [], [CochainComplex]
    while stack:
        subclasses = stack.pop().__subclasses__()
        found += subclasses
        stack += subclasses
    return found


def test_two_classes_build_the_slices():
    """Two slice builders: the model's generic Leibniz path of `gca`, the
    reference, and TensorComplex's, from `left_image` and `twist`, for
    the loop model, the extended and the dual complex and the
    derivations.  No complex builds a slice from the differential of one
    basis element, `image`, so only the generic path asks matrix_of_map
    for a matrix, and the quotient is no complex: the extended complex is
    the quotient at word length 0."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    methods = class_methods(sources)
    assert [(mod, cls) for mod, cls, name in methods if name == "slice_matrix"] == [
        ("exactq", "TensorComplex"), ("sullivan", "SullivanModel")]
    assert [cls.__name__ for cls in complex_classes() if "image" in vars(cls)] == []
    assert callers(sources, "matrix_of_map") == [("gca", "matrix_of_degree_slice")]
    assert not issubclass(FiniteCdga, CochainComplex)
    assert [m for m in methods if m[2] in ("by_degree", "slice_basis")] == []


def callers(sources, name, min_args=0):
    """(module, function) of each function or method whose body calls
    `name`, by name or as an attribute, with at least min_args arguments;
    a call inside a nested function or lambda counts for the innermost
    named function around it, and a call at module level for None."""
    found = set()

    def visit(node, mod, owner):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(sub, mod, sub.name)
                continue
            if (isinstance(sub, ast.Call)
                    and len(sub.args) + len(sub.keywords) >= min_args):
                f = sub.func
                if (isinstance(f, ast.Name) and f.id == name
                        or isinstance(f, ast.Attribute) and f.attr == name):
                    found.add((mod, owner))
            visit(sub, mod, owner)

    for mod, src in sources.items():
        visit(ast.parse(src), mod, None)
    return sorted(found, key=lambda mo: (mo[0], mo[1] or ""))


def test_checker_finds_callers():
    sources = {
        "a": ("def f(m):\n    return rref(m)\n\n"
              "class K:\n    def g(self):\n        return (lambda: exactq.rref(1))()\n\n"
              "def h(rref):\n    return rref\n"),
        "b": "x = rref(0)\n\ndef outer():\n    def inner():\n        rref(2)\n",
    }
    assert callers(sources, "rref") == [
        ("a", "f"), ("a", "g"), ("b", None), ("b", "inner")]
    assert callers(sources, "rref", 2) == []
    assert callers({"c": "def f():\n    rank(m, lower=d)\n"}, "rank", 2) == [("c", "f")]


def test_only_kernel_basis_asks_for_the_full_reduction():
    """Ranks and pivot columns come from the forward pass; a back-
    substitution behind them would be work whose result nobody reads."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert callers(sources, "rref") == [("exactq", "kernel_basis")]


def test_only_a_tested_composite_clears_a_rank():
    """rank leaves out the columns that the matrix below clears, which is
    exact only once m * lower == 0 has been tested; only the cohomology
    dimension of such a pair passes it a lower matrix, and only rank and
    induced_rank ask the forward pass to clear."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert callers(sources, "rank", 2) == [
        ("exactq", "_cohomology_dim_of_zero_composite")]
    assert callers(sources, "echelon", 2) == [
        ("exactq", "induced_rank"), ("exactq", "rank")]


def test_no_complex_takes_an_untested_cohomology():
    """A complex multiplies out each d(n) d(n - 1) once, in its
    `tested_pair`, before `betti` ranks the pair; the derivations of the
    base model and Du on A, the dual complex at word length zero, are
    complexes too, so every cohomology is some complex's `betti` and no
    one asks cohomology_dim to test and rank a pair in one call."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert callers(sources, "cohomology_dim") == []


def test_one_method_tests_every_composite():
    """Every d d test, its memo and its message live in
    `CochainComplex.tested_pair`: the walks and the dual complex's
    builder ask it, and `betti` runs it before any rank.  The one other
    caller of the product test is cohomology_dim, which nothing in the
    package calls (see above)."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert callers(sources, "product_is_zero") == [
        ("exactq", "cohomology_dim"), ("exactq", "tested_pair")]


def test_one_place_computes_the_koszul_sign_of_a_product():
    """Products, the Leibniz walk and the loop model's twist merge
    monomials; every other differential is built from theirs, so the
    sign convention lives in one place."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert callers(sources, "normalize_product") == [
        ("freeloop", "twist"), ("gca", "apply_derivation"), ("gca", "elem_mul")]


def test_three_walkers_share_the_populated_slices():
    """The Hodge table, the row pass of the loop Betti numbers and the
    rho (x) 1 quasi-iso walk the same (n, k), the ones the loop model
    lists; building the extended complex walks none."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert callers(sources, "slices") == [
        ("freeloop", "hodge_betti_table"), ("freeloop", "loop_betti"),
        ("sections", "_rho_quasi_iso")]


def test_the_row_pass_reads_no_betti_number():
    """loop_betti is a second elimination of the split slices, not a sum
    of the Betti numbers that the Hodge table read off the first."""
    tree = ast.parse((ROOT / "src" / "loopspace" / "freeloop.py").read_text(encoding="utf-8"))
    walk = next(f for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name == "loop_betti")
    assert "betti" not in attributes_read(walk)


def test_only_the_loop_side_walk_builds_rho_tensor_one():
    """The rho (x) 1 squares and induced ranks are taken in the one walk
    over the loop side, so no other path builds its matrices."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert callers(sources, "rho_tensor_matrix") == [("sections", "_rho_quasi_iso")]


def test_two_walks_take_induced_ranks():
    """rho on LV is the word-length zero slice of rho (x) 1, and Du on A
    that of Du (x) 1, so the rho walk and the duality quasi-iso take
    every induced rank; the quotient checks only that its projection is
    multiplicative, with no matrix and no rank."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert callers(sources, "induced_rank") == [
        ("sections", "_rho_quasi_iso"), ("sections", "verify_duality_quasi_iso")]
    assert [c for name in ("induced_rank", "is_chain_map", "betti")
            for c in callers(sources, name) if c[0] == "pdquotient"] == []


def test_the_rho_walk_compares_one_betti_number():
    """Word length 0 of the loop model is the base model, and freeloop
    alone says so: the rho walk reads the loop model's Betti number at
    every word length and nothing of `.base`, so at word length 0 it
    compares A's with one other."""
    tree = ast.parse((ROOT / "src" / "loopspace" / "sections.py").read_text(encoding="utf-8"))
    walk = next(f for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name == "_rho_quasi_iso")
    assert "base" not in attributes_read(walk)


def test_two_maps_are_placed_by_blocks():
    """rho (x) 1 and Du (x) 1, on A as on A (x) sV, are f (x) 1 between
    two complexes of tensors, and both are placed block by block from a
    table of f, so neither looks a row up in a dict over the codomain."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert callers(sources, "tensor_one_matrix") == [
        ("sections", "_du_tensor_matrix"), ("sections", "_rho_tensor_matrix")]


def test_rho_is_a_matrix_only_through_rho_tensor_matrix():
    """The projection is a table of monomial images; the extended complex
    reads it row by row, and rho on LV is the block of rho (x) 1 at word
    length zero, so pdquotient builds no matrix of it."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert callers(sources, "matrix") == []


def test_only_freeloop_reads_the_loop_differential():
    """D of the loop model is read in freeloop alone; other modules read
    D(t) through `FreeLoopModel.d_suspended`, and `exactq.TensorComplex`
    lays out the loop monomials."""
    readers = [p.stem for p in PACKAGE
               if "loop_differential" in names_in(ast.parse(p.read_text(encoding="utf-8")))]
    assert readers == ["freeloop"]


def test_one_class_lays_out_the_complexes_of_tensors():
    """A complex of tensors gives its left factors, the generators of its
    right factor, `left_image`, `twist` and `denominator`, and
    `exactq.TensorComplex` builds its bases and layouts from them, so no
    other module looks up a position table or keeps a layout, and no
    complex of tensors lays out a basis of its own."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert callers(sources, "slice_positions") == [("exactq", "_basis")]
    assert sorted({mod for mod, src in sources.items() for node in ast.walk(ast.parse(src))
                   if isinstance(node, ast.Tuple) and node.elts
                   and isinstance(node.elts[0], ast.Constant)
                   and node.elts[0].value == "layout"}) == ["exactq"]
    tensors = [cls for cls in complex_classes() if issubclass(cls, TensorComplex)
               and cls is not TensorComplex]
    assert sorted(cls.__name__ for cls in tensors) == [
        "DerivationComplex", "DualSectionComplex", "ExtendedQuotientModel",
        "FreeLoopModel"]
    assert [cls.__name__ for cls in tensors
            if {"_basis", "basis", "layout"} & set(vars(cls))] == []


def test_only_exactq_reads_the_integer_form():
    """A matrix is stored as integers over one denominator; other modules
    read it through the Fraction interface, so the format is known in
    exactq alone."""
    readers = [p.stem for p in PACKAGE
               if {"ints", "den"} & {node.attr for node in ast.walk(ast.parse(
                   p.read_text(encoding="utf-8"))) if isinstance(node, ast.Attribute)}]
    assert readers == ["exactq"]


def underscore_parameters(source):
    """(line, function, parameter) of each parameter of a function or
    method whose name starts with an underscore."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            found.extend((node.lineno, node.name, p.arg)
                         for p in params if p.arg.startswith("_"))
    return sorted(found)


def test_checker_finds_underscore_parameters():
    source = ("def f(a, _hook=None):\n    return a\n\n"
              "class K:\n    def m(self, *_args, _t=1, **_kw):\n        pass\n\n"
              "    async def n(self, b, /, _p):\n        pass\n")
    assert underscore_parameters(source) == [
        (1, "f", "_hook"), (5, "m", "_args"), (5, "m", "_kw"), (5, "m", "_t"),
        (8, "n", "_p")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_underscore_parameters(path):
    assert underscore_parameters(path.read_text(encoding="utf-8")) == []


def test_every_cli_option_shows_its_help():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        shown = parser.format_help()
        for action in parser._actions:
            assert action.help and action.help != argparse.SUPPRESS, (
                command, action.dest)
            assert all(opt in shown for opt in action.option_strings), (
                command, action.dest)
