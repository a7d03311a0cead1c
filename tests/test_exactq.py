"""Exact sparse linear algebra: worked examples plus randomized properties.

The oracles here are an independent dense Gauss-Jordan written directly in
the tests and, where it is installed, sympy's exact `Matrix.rref`, so the
sparse implementation is never checked against itself.
"""

from fractions import Fraction
from functools import lru_cache
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopspace import exactq, load_corpus_model
from loopspace.exactq import (
    ONE,
    SparseMatrix,
    add_term,
    cohomology_dim,
    echelon,
    induced_rank,
    is_chain_map,
    kernel_basis,
    matrix_of_map,
    product_is_zero,
    rank,
    rref,
)
from loopspace.errors import CompositionNotZero, InternalCheckFailure
from loopspace.freeloop import build_free_loop_model, hodge_betti_table
from loopspace.pdquotient import verify_quasi_iso
from loopspace.sections import (TheoremReport, verify_rho_tensor_quasi_iso,
                                verify_theorems)
from loopspace.sullivan import parse_model

Q = Fraction

FIXTURES = Path(__file__).parent / "fixtures"
FLAG = Path(__file__).parent.parent / "perfbench" / "models" / "flag.model"


def dense(m):
    entries = m.entries
    return [[entries.get((r, c), Q(0)) for c in range(m.cols)] for r in range(m.rows)]


def dense_rref(grid, rows, cols):
    """Textbook dense RREF oracle: returns (grid, pivot columns, rank)."""
    grid = [[Q(v) for v in row] for row in grid]
    pivots = []
    pr = 0
    for col in range(cols):
        pivot = None
        for r in range(pr, rows):
            if grid[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        grid[pr], grid[pivot] = grid[pivot], grid[pr]
        pv = grid[pr][col]
        grid[pr] = [v / pv for v in grid[pr]]
        for r in range(rows):
            if r != pr and grid[r][col]:
                f = grid[r][col]
                grid[r] = [a - f * b for a, b in zip(grid[r], grid[pr])]
        pivots.append(col)
        pr += 1
    return grid, tuple(pivots), len(pivots)


def transpose(grid):
    return [list(col) for col in zip(*grid)]


def dense_product(a, b):
    """Textbook dense product oracle: a * b as a grid of Fractions."""
    ga, gb = dense(a), dense(b)
    return [[sum((ga[i][k] * gb[k][j] for k in range(a.cols)), Q(0))
             for j in range(b.cols)] for i in range(a.rows)]


def dense_kernel(grid, rows, cols):
    """Basis of the right kernel, read off the dense RREF oracle."""
    red, pivots, _ = dense_rref(grid, rows, cols)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vec = [Q(0)] * cols
        vec[free] = Q(1)
        for i, p in enumerate(pivots):
            vec[p] = -red[i][free]
        basis.append(vec)
    return basis


def from_dense(grid, rows, cols):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if grid[r][c]:
                entries[(r, c)] = Q(grid[r][c])
    return SparseMatrix(rows, cols, entries)


def identity(n, scale=ONE):
    return SparseMatrix(n, n, {(i, i): scale for i in range(n)})


def from_columns(rows, columns):
    """The matrix whose columns are the sparse vectors {row: value}."""
    return SparseMatrix(rows, len(columns), {
        (r, c): v for c, col in enumerate(columns) for r, v in col.items()})


def apply(m, vec):
    """m times the sparse column vector {col: value}, as {row: Fraction}."""
    return {r: v for (r, _), v in m.mul(from_columns(m.cols, [vec])).entries.items()}


small_entries = st.integers(min_value=-4, max_value=4)
# mostly zeros, so empty rows and columns are common
small_fractions = st.sampled_from((Q(0), Q(0), Q(0), ONE, Q(-1, 2), Q(2, 3),
                                   Q(-3, 4), Q(5)))


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    grid = [[draw(small_entries) for _ in range(cols)] for _ in range(rows)]
    return grid, rows, cols


@st.composite
def complexes(draw, max_dim=4):
    """(d_out, d_in) with d_out * d_in == 0: d_in's columns are drawn
    combinations of a kernel basis of a drawn d_out."""
    grid, rows, cols = draw(matrices(max_dim))
    d_out = from_dense(grid, rows, cols)
    kernel = from_columns(cols, kernel_basis(d_out))
    n_in = draw(st.integers(min_value=0, max_value=max_dim))
    coeffs = [[draw(small_entries) for _ in range(n_in)] for _ in range(kernel.cols)]
    return d_out, kernel.mul(from_dense(coeffs, kernel.cols, n_in))


def in_kernel(draw, d_out, n, values):
    """A matrix of n columns drawn as combinations, with coefficients from
    values, of a kernel basis of d_out, so that d_out times it is 0."""
    kernel = from_columns(d_out.cols, kernel_basis(d_out))
    coeffs = [[draw(values) for _ in range(n)] for _ in range(kernel.cols)]
    return kernel.mul(from_dense(coeffs, kernel.cols, n))


@st.composite
def exact_chains(draw):
    """(d2, d1, d0) with d2 * d1 == 0 and d1 * d0 == 0, in Fractions with
    denominators; a dimension of 0 or 1 gives empty and single-row
    matrices, and d2 is sometimes the zero matrix.  The middle spaces are
    the larger, so that both composites often have ranks on both sides."""
    dims = [draw(st.integers(min_value=0, max_value=top)) for top in (3, 6, 6, 3)]
    zero = draw(st.integers(min_value=0, max_value=4)) == 0
    grid = [[Q(0) if zero else draw(small_fractions) for _ in range(dims[2])]
            for _ in range(dims[3])]
    d2 = from_dense(grid, dims[3], dims[2])
    d1 = in_kernel(draw, d2, dims[1], small_fractions)
    return d2, d1, in_kernel(draw, d1, dims[0], small_fractions)


@st.composite
def sparse_matrices(draw, max_dim=25):
    """Sparse rational matrices: a few nonzeros per row, small fractions."""
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    values = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    positions = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    entries = draw(st.dictionaries(positions, values, max_size=3 * rows))
    return SparseMatrix(rows, cols, entries)


big_numerators = st.integers(min_value=-10**30, max_value=10**30)
# products of small primes and of the prime 10^9 + 7
big_denominators = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 10**9 + 7)),
                            max_size=4).map(prod)
big_fractions = st.builds(Fraction, big_numerators, big_denominators)


@st.composite
def big_sparse_matrices(draw, max_dim=25):
    """Sparse matrices with numerators up to 10^30 and large denominators;
    some rows are drawn as combinations of two others, so elimination has
    to cancel large entries exactly."""
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    positions = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    entries = draw(st.dictionaries(positions, big_fractions, max_size=3 * rows))
    grid = [[entries.get((r, c), Q(0)) for c in range(cols)] for r in range(rows)]
    for r in draw(st.lists(st.integers(0, rows - 1), max_size=rows // 2)):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        a, b = draw(big_fractions), draw(big_fractions)
        grid[r] = [a * x + b * y for x, y in zip(grid[i], grid[j])]
    return from_dense(grid, rows, cols)


@st.composite
def rational_pairs(draw, max_dim=5):
    """(a, b) with a.cols == b.rows, sparse enough that a * b is often 0."""
    n, k, m = (draw(st.integers(min_value=0, max_value=max_dim)) for _ in range(3))
    values = st.fractions(min_value=-5, max_value=5, max_denominator=6)

    def matrix(rows, cols):
        if not rows or not cols:
            return SparseMatrix(rows, cols)
        positions = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        return SparseMatrix(rows, cols, draw(st.dictionaries(positions, values,
                                                             max_size=rows + cols)))
    return matrix(n, k), matrix(k, m)


@st.composite
def permutation_like_matrices(draw, max_dim=14):
    """Sparse matrices that take the forward pass's fast paths: a permuted
    partial diagonal of nonzero entries, negative and non-unit ones
    included, so that many columns have one live row and many pivot rows
    no other entry, plus a few denser rows across it."""
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    row_order = draw(st.permutations(range(rows)))
    col_order = draw(st.permutations(range(cols)))
    pivots = st.sampled_from((1, -1, 2, -3, 6, Q(-1, 2), Q(5, 3)))
    entries = {(row_order[i], col_order[i]): draw(pivots)
               for i in range(draw(st.integers(0, min(rows, cols))))}
    values = st.sampled_from((1, -1, -2, 3, Q(1, 2)))
    for r in draw(st.lists(st.integers(0, rows - 1), max_size=3)):
        for c in draw(st.lists(st.integers(0, cols - 1), max_size=cols)):
            entries[(r, c)] = draw(values)
    return SparseMatrix(rows, cols, entries)


def assert_reduced_entries(red, pivots):
    """Every entry a Fraction, and every pivot entry ONE."""
    assert all(type(v) is Fraction for v in red.entries.values())
    assert all(red.entries[(i, p)] == ONE for i, p in enumerate(pivots))


def assert_forward_pass(m, pivots, rk):
    """The forward pass alone, over the rows of fresh copies of m so that
    no memoised rank answers, gives the oracle's pivot columns and rank."""
    copy = SparseMatrix(m.rows, m.cols, m.entries)
    rows = echelon(copy.transpose())
    assert tuple(rows) == pivots
    assert all(row[p] > 0 for p, row in rows.items())
    assert rank(SparseMatrix(m.rows, m.cols, m.entries)) == rk


def loop_model_matrices():
    """Every loop differential slice (n, k) of s2xs3, of the s2xs2 fixture
    and of the benchmark's SU(3)/T^2 model."""
    s2xs3 = build_free_loop_model(load_corpus_model("s2xs3"))
    s2xs2 = build_free_loop_model(
        parse_model((FIXTURES / "s2xs2.model").read_text()))
    flag = build_free_loop_model(parse_model(FLAG.read_text()))
    for flm, top in ((s2xs3, 10), (s2xs2, 8), (flag, 8)):
        for n in range(top + 1):
            for k in range(n + 1):
                yield flm.d_matrix(n, k)


class TestSparseMatrix:
    def test_construction_strips_zeros(self):
        m = SparseMatrix(2, 2, {(0, 0): Q(0), (1, 1): Q(3)})
        assert m.entries == {(1, 1): Q(3)}
        assert (0, 0) not in m.entries
        assert m.entries

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 1, {(0, 1): Q(1)})
        with pytest.raises(ValueError):
            SparseMatrix(-1, 2)

    def test_entries_must_be_exact(self):
        with pytest.raises(TypeError):
            SparseMatrix(1, 1, {(0, 0): 0.5})
        with pytest.raises(TypeError):
            SparseMatrix(1, 2, {(0, 0): Q(1, 2), (0, 1): 0.5})
        m = SparseMatrix(1, 2, {(0, 0): 3, (0, 1): Q(1, 2)})
        assert m.entries == {(0, 0): Q(3), (0, 1): Q(1, 2)}
        assert all(type(v) is Fraction for v in m.entries.values())

    def test_from_columns_round_trip(self):
        cols = [{0: Q(1), 2: Q(-5)}, {}, {1: Q(7)}]
        m = from_columns(3, cols)
        assert m.rows == 3 and m.cols == 3
        assert m.columns() == [{0: Q(1), 2: Q(-5)}, {}, {1: Q(7)}]

    def test_mul_worked_example(self):
        a = from_dense([[1, 2], [3, 4]], 2, 2)
        b = from_dense([[0, 1], [1, 0]], 2, 2)
        assert dense(a.mul(b)) == [[Q(2), Q(1)], [Q(4), Q(3)]]

    def test_mul_shape_mismatch(self):
        a = SparseMatrix(2, 3)
        b = SparseMatrix(2, 2)
        with pytest.raises(ValueError):
            a.mul(b)

    def test_apply_matches_mul(self):
        m = from_dense([[1, 2, 0], [0, -1, 3]], 2, 3)
        vec = {0: Q(2), 2: Q(1)}
        out = apply(m, vec)
        assert out == {0: Q(2), 1: Q(3)}

    def test_equality_and_hash(self):
        a = SparseMatrix(2, 2, {(0, 1): Q(5)})
        b = SparseMatrix(2, 2, {(0, 1): Q(5)})
        assert a == b and hash(a) == hash(b)
        assert a != SparseMatrix(2, 2, {(0, 1): Q(4)})
        assert a != SparseMatrix(2, 3, {(0, 1): Q(5)})

    def test_equal_values_written_differently_are_equal(self):
        a = SparseMatrix(2, 2, {(0, 0): Q(2, 4), (1, 1): 3})
        b = SparseMatrix(2, 2, {(0, 0): Q(1, 2), (1, 1): Q(6, 2), (1, 0): 0})
        assert a == b and hash(a) == hash(b)
        # a product is brought to lowest terms
        c = SparseMatrix(1, 1, {(0, 0): Q(2, 3)}).mul(SparseMatrix(1, 1, {(0, 0): Q(3, 2)}))
        assert c == identity(1) and hash(c) == hash(identity(1))
        assert SparseMatrix(1, 2, {(0, 0): 4, (0, 1): Q(6)}) != identity(1)


@lru_cache(maxsize=None)
def quotient_extension(name):
    """A (x) L sV of a corpus model, checked up to degree 8."""
    return TheoremReport(load_corpus_model(name), 8).eqm


class TestAddTerm:
    def test_cancelling_sum_removes_the_key(self):
        acc = {"x": Q(1, 2), "y": Q(3)}
        add_term(acc, "x", Q(-1, 2))
        assert acc == {"y": Q(3)}

    def test_zero_on_an_absent_key_stores_nothing(self):
        acc = {"y": Q(3)}
        add_term(acc, "x", Q(0))
        assert acc == {"y": Q(3)}

    def test_nonzero_sum_replaces_the_value(self):
        acc = {"x": Q(1, 2)}
        add_term(acc, "x", Q(1, 3))
        assert acc == {"x": Q(5, 6)}

    def test_stored_value_stays_a_fraction(self):
        acc = {}
        add_term(acc, "x", Q(1, 2))
        add_term(acc, "x", Q(1, 2))
        add_term(acc, "y", Q(-2))
        assert acc == {"x": ONE, "y": Q(-2)}
        assert all(type(v) is Fraction for v in acc.values())

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_apply_stores_no_zero(self, rows, cols, data):
        # entries of one size, so row sums cancel often
        values = st.sampled_from((Q(-1), Q(-1, 2), Q(1, 2), ONE))
        positions = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        m = SparseMatrix(rows, cols, data.draw(st.dictionaries(positions, values)))
        vec = data.draw(st.dictionaries(st.integers(0, cols - 1), values))
        assert all(apply(m, vec).values())

    @given(st.sampled_from(("cp2", "s2xs3")), st.integers(0, 9), st.integers(0, 3),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_dbar_pair_stores_no_zero(self, name, n, k, data):
        """Dbar of one pair, d_A (x) 1 plus the twist summed by add_term,
        holds no zero, and neither does its column of the slice; the twist
        is c times(i, x) (x) t' for each term c x (x) t' of Dbar(1 (x) m)."""
        eqm = quotient_extension(name)
        basis = eqm.basis(n, k)
        if basis:
            col = data.draw(st.integers(0, len(basis) - 1))
            i, m = basis[col]
            dbar = {(j, m): c for j, c in (eqm.left_image(i) or {}).items()}
            for (x, m2), c in eqm.right_image(m).items():
                for j, a in eqm.times(i, x):
                    add_term(dbar, (j, m2), a * c)
            assert all(dbar.values())
            cod = eqm.basis(n + 1, k)
            column = {cod[r]: v for (r, c), v in eqm.d_matrix(n, k).entries.items()
                      if c == col}
            assert column == {key: Q(c, eqm.denominator) for key, c in dbar.items()}


class TestRref:
    def test_identity_is_fixed(self):
        m = from_dense([[1, 0], [0, 1]], 2, 2)
        red, pivots, rk = rref(m)
        assert red == m and pivots == (0, 1) and rk == 2
        assert_forward_pass(m, (0, 1), 2)

    def test_worked_example(self):
        # [[1,2,1],[2,4,0],[1,2,3]] has rank 2, pivots in columns 0 and 2
        m = from_dense([[1, 2, 1], [2, 4, 0], [1, 2, 3]], 3, 3)
        red, pivots, rk = rref(m)
        assert pivots == (0, 2) and rk == 2
        assert dense(red)[0] == [Q(1), Q(2), Q(0)]
        assert dense(red)[1] == [Q(0), Q(0), Q(1)]
        assert dense(red)[2] == [Q(0), Q(0), Q(0)]
        assert_forward_pass(m, (0, 2), 2)

    def test_zero_matrix(self):
        red, pivots, rk = rref(SparseMatrix(3, 4))
        assert not red.entries and pivots == () and rk == 0

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (3, 4)])
    def test_empty_matrix_has_rank_zero_without_elimination(
            self, shape, count_eliminations):
        m = SparseMatrix(*shape)
        assert echelon(m.transpose()) == {}
        eliminated = count_eliminations()
        assert rank(m) == 0
        assert eliminated == []

    def test_fractional_entries_in_the_forward_pass(self):
        # rows (1/2, 1/3, 0) and (3/4, 1/2, 5/6): the second minus 3/2 times
        # the first is (0, 0, 5/6), so the pivots are columns 0 and 2
        m = SparseMatrix(2, 3, {(0, 0): Q(1, 2), (0, 1): Q(1, 3),
                                (1, 0): Q(3, 4), (1, 1): Q(1, 2), (1, 2): Q(5, 6)})
        rows = echelon(SparseMatrix(2, 3, m.entries).transpose())
        assert tuple(rows) == (0, 2)
        assert all(type(v) is int for row in rows.values() for v in row.values())
        assert_forward_pass(m, (0, 2), 2)
        assert rref(m)[1:] == ((0, 2), 2)

    def test_rank_forms_no_fraction_and_no_matrix(self, monkeypatch):
        # the kernels read the integer form; of them only induced_rank
        # builds a matrix, its block
        m = SparseMatrix(2, 3, {(0, 0): Q(1, 2), (0, 2): Q(-7, 3),
                                (1, 0): Q(3), (1, 1): Q(5, 4)})
        d_in = from_dense([[Q(7, 3)], [Q(-28, 5)], [Q(1, 2)]], 3, 1)
        half = identity(3, Q(1, 2)), identity(2, Q(1, 2))
        f, d_out = identity(3, Q(2, 3)), SparseMatrix(1, 3, {(0, 1): Q(1, 3)})
        built = []

        def refuse(*args):
            raise AssertionError("built by a kernel")

        real = SparseMatrix._of_ints

        def counting(cls, *args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(exactq, "Fraction", refuse)
        monkeypatch.setattr(SparseMatrix, "__init__", refuse)
        monkeypatch.setattr(SparseMatrix, "_of_ints", classmethod(counting))
        assert rank(m) == 2
        assert product_is_zero(m, d_in)
        assert not product_is_zero(m, half[0])
        assert cohomology_dim(m, d_in) == 0
        assert is_chain_map(half[1], m, m, half[0])
        assert not is_chain_map(half[1], m, m, half[0], sign=-1)
        assert built == []
        assert induced_rank(f, d_out, d_in) == 2
        assert len(built) == 1

    def test_rref_forms_no_fraction_and_the_kernel_one_per_entry(self, monkeypatch):
        # rref puts its integer rows over one denominator in lowest terms;
        # kernel_basis forms each pivot entry of a kernel vector once
        grid = [[2, 0, Q(-7, 3), Q(1, 2)], [6, 3, Q(5, 4), 0]]
        m = from_dense(grid, 2, 4)
        want = from_dense(dense_rref(grid, 2, 4)[0], 2, 4)
        want_kernel = dense_kernel(grid, 2, 4)
        formed = []
        real = exactq.Fraction

        def counting(*args):
            formed.append(args)
            return real(*args)

        def refuse(*args):
            raise AssertionError("built through the constructor")

        monkeypatch.setattr(exactq, "Fraction", counting)
        monkeypatch.setattr(SparseMatrix, "__init__", refuse)
        assert rref(m) == (want, (0, 1), 2)
        assert formed == []
        kernel = kernel_basis(m)
        assert [[v.get(c, 0) for c in range(4)] for v in kernel] == want_kernel
        assert all(type(x) is real for v in kernel for x in v.values())
        assert len(formed) == sum(len(v) - 1 for v in kernel) == 4

    @given(matrices())
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_oracle(self, data):
        grid, rows, cols = data
        m = from_dense(grid, rows, cols)
        red, pivots, rk = rref(m)
        ogrid, opivots, ork = dense_rref(grid, rows, cols)
        assert pivots == opivots
        assert rk == ork
        assert dense(red) == [[Q(v) for v in row] for row in ogrid]
        assert_reduced_entries(red, pivots)
        assert_forward_pass(m, opivots, ork)

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, data):
        grid, rows, cols = data
        red, pivots, rk = rref(from_dense(grid, rows, cols))
        red2, pivots2, rk2 = rref(red)
        assert red2 == red and pivots2 == pivots and rk2 == rk

    @given(sparse_matrices())
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy(self, m):
        sympy = pytest.importorskip("sympy")
        red, pivots, rk = rref(m)
        sm = sympy.Matrix(dense(m))
        sred, spivots = sm.rref()
        assert pivots == tuple(spivots)
        assert rk == sm.rank()
        assert sympy.Matrix(dense(red)) == sred
        assert_forward_pass(m, tuple(spivots), sm.rank())

    @given(big_sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_large_entries_match_dense_oracle(self, m):
        red, pivots, rk = rref(m)
        ogrid, opivots, ork = dense_rref(dense(m), m.rows, m.cols)
        assert (pivots, rk) == (opivots, ork)
        assert dense(red) == ogrid
        assert_reduced_entries(red, pivots)
        assert_forward_pass(m, opivots, ork)

    @given(big_sparse_matrices())
    @settings(max_examples=25, deadline=None)
    def test_large_entries_match_sympy(self, m):
        sympy = pytest.importorskip("sympy")
        red, pivots, rk = rref(m)
        sred, spivots = sympy.Matrix(dense(m)).rref()
        assert (pivots, rk) == (tuple(spivots), len(spivots))
        assert sympy.Matrix(dense(red)) == sred
        assert_forward_pass(m, tuple(spivots), len(spivots))

    def test_row_plus_large_multiple_has_rank_one(self):
        row = [Q(1, 2), Q(-7, 3), Q(0), Q(5)]
        big = Q(10**20, 3)
        m = from_dense([row, [v + big * v for v in row]], 2, 4)
        red, pivots, rk = rref(m)
        assert rk == 1 and pivots == (0,)
        assert dense(red) == [[ONE, Q(-14, 3), Q(0), Q(10)], [Q(0)] * 4]
        assert_reduced_entries(red, pivots)
        assert_forward_pass(m, (0,), 1)

    def test_a_lone_pivot_entry_leaves_the_other_rows_unscaled(self):
        # column 0 has two live rows; the shorter, row 0, has no other
        # entry, so row 1 just drops column 0 and keeps its 5, and the
        # pivot entry is made positive all the same
        m = from_dense([[-2, 0], [3, 5]], 2, 2)
        assert echelon(m.transpose()) == {0: {0: 2}, 1: {1: 5}}
        # column 0 has one live row, the pivot without a search
        m = from_dense([[0, 1, 1], [-4, 2, 0]], 2, 3)
        assert echelon(m.transpose()) == {0: {0: 4, 1: -2}, 1: {1: 1, 2: 1}}
        red, pivots, rk = rref(m)
        assert (pivots, rk) == ((0, 1), 2)
        assert dense(red) == [[ONE, Q(0), Q(1, 2)], [Q(0), ONE, ONE]]

    @given(permutation_like_matrices())
    @settings(max_examples=150, deadline=None)
    def test_fast_paths_match_dense_oracle(self, m):
        red, pivots, rk = rref(m)
        ogrid, opivots, ork = dense_rref(dense(m), m.rows, m.cols)
        assert (pivots, rk) == (opivots, ork)
        assert dense(red) == ogrid
        assert_reduced_entries(red, pivots)
        assert_forward_pass(m, opivots, ork)

    @given(permutation_like_matrices())
    @settings(max_examples=60, deadline=None)
    def test_fast_paths_match_sympy(self, m):
        sympy = pytest.importorskip("sympy")
        red, pivots, rk = rref(m)
        sred, spivots = sympy.Matrix(dense(m)).rref()
        assert (pivots, rk) == (tuple(spivots), len(spivots))
        assert sympy.Matrix(dense(red)) == sred
        assert_forward_pass(m, tuple(spivots), len(spivots))

    def test_captured_inputs_keep_their_pivot_columns(self, monkeypatch):
        """Every matrix that a verify run of s2xs3 and the Hodge table of
        SU(3)/T^2 hand to the forward pass has the pivot columns of the
        dense oracle, which are those of any column by column
        elimination; so has the transpose, rows cleared or not, that the
        pass ran over, and clearing them kept the rank."""
        captured, real = [], exactq.echelon
        monkeypatch.setattr(exactq, "echelon",
                            lambda m, *cleared: captured.append((m, *cleared))
                            or real(m, *cleared))
        verify_theorems(load_corpus_model("s2xs3"), 13)
        hodge_betti_table(build_free_loop_model(parse_model(FLAG.read_text())), 10)
        monkeypatch.undo()
        assert len(captured) > 200
        assert sum(bool(c) for _, *cs in captured for c in cs) > 50
        for m, *cleared in captured:
            _, opivots, ork = dense_rref(dense(m), m.rows, m.cols)
            assert tuple(echelon(m.transpose())) == opivots
            if cleared:
                skip = flagged(cleared[0])
                kept = [row for c, row in enumerate(transpose(dense(m)))
                        if c not in skip]
                _, tpivots, tork = dense_rref(kept, len(kept), m.rows)
                assert tuple(echelon(m, *cleared)) == tpivots
                assert tork == ork

    def test_loop_model_slices_match_dense_oracle(self):
        for m in loop_model_matrices():
            red, pivots, rk = rref(m)
            ogrid, opivots, ork = dense_rref(dense(m), m.rows, m.cols)
            assert (pivots, rk) == (opivots, ork)
            assert dense(red) == ogrid
            assert_reduced_entries(red, pivots)
            assert_forward_pass(m, opivots, ork)

    @given(matrices(max_dim=7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_order_does_not_matter(self, mat, data):
        # the pivot rows are picked by length and index; the RREF is unique
        grid, rows, cols = mat
        perm = data.draw(st.permutations(range(rows)))
        shuffled = [grid[p] for p in perm]
        assert rref(from_dense(shuffled, rows, cols)) == rref(from_dense(grid, rows, cols))
        assert (tuple(echelon(from_dense(shuffled, rows, cols).transpose()))
                == tuple(echelon(from_dense(grid, rows, cols).transpose())))

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, data):
        grid, rows, cols = data
        m = from_dense(grid, rows, cols)
        assert rank(m) + len(kernel_basis(m)) == cols


class TestKernel:
    def test_zero_matrix_kernel_is_unit_vectors(self):
        ker = kernel_basis(SparseMatrix(3, 3))
        assert ker == [{0: ONE}, {1: ONE}, {2: ONE}]

    def test_worked_example(self):
        # kernel of [1 2] is spanned by (-2, 1)
        ker = kernel_basis(from_dense([[1, 2]], 1, 2))
        assert ker == [{1: ONE, 0: Q(-2)}]

    @given(matrices())
    @settings(max_examples=80, deadline=None)
    def test_kernel_vectors_are_killed(self, data):
        grid, rows, cols = data
        m = from_dense(grid, rows, cols)
        for vec in kernel_basis(m):
            assert apply(m, vec) == {}

    @given(matrices())
    @settings(max_examples=40, deadline=None)
    def test_kernel_vectors_independent(self, data):
        grid, rows, cols = data
        ker = kernel_basis(from_dense(grid, rows, cols))
        assert rank(from_columns(cols, ker)) == len(ker)


class TestCohomology:
    def test_two_step_complex(self):
        # 0 -> Q^2 --[1 1]--> Q -> 0 at the middle spot: ker is 1-dim, image 0
        d_out = from_dense([[1, 1]], 1, 2)
        d_in = SparseMatrix(2, 0)
        assert cohomology_dim(d_out, d_in) == 1

    def test_exact_complex_has_no_cohomology(self):
        # Q --id--> Q --0--> 0
        d_in = from_dense([[1]], 1, 1)
        d_out = SparseMatrix(0, 1)
        assert cohomology_dim(d_out, d_in) == 0

    def test_nonzero_composite_rejected(self):
        d_in = from_dense([[1]], 1, 1)
        d_out = from_dense([[1]], 1, 1)
        with pytest.raises(CompositionNotZero):
            cohomology_dim(d_out, d_in)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cohomology_dim(SparseMatrix(1, 2), SparseMatrix(3, 1))

    def test_fractional_nonzero_composite_rejected(self):
        d_out = from_dense([[Q(1, 2), Q(1, 3)]], 1, 2)
        d_in = from_dense([[2], [-2]], 2, 1)
        with pytest.raises(CompositionNotZero):
            cohomology_dim(d_out, d_in)
        assert cohomology_dim(d_out, from_dense([[2], [-3]], 2, 1)) == 0


class TestRankMemo:
    def test_rank_reduces_a_matrix_once(self, count_eliminations):
        reduced = count_eliminations()
        m = from_dense([[1, 2], [2, 4]], 2, 2)
        assert rank(m) == 1
        assert rank(m) == 1
        assert reduced == [m]

    def test_composite_check_runs_with_memoised_ranks(self, count_eliminations):
        reduced = count_eliminations()
        d_in = from_dense([[1]], 1, 1)
        d_out = from_dense([[1]], 1, 1)
        for m in (d_in, d_out, d_in, d_out):
            assert rank(m) == 1
        assert len(reduced) == 2
        with pytest.raises(CompositionNotZero):
            cohomology_dim(d_out, d_in)


def flagged(mask):
    """The positions of the nonzero bytes of mask, in order."""
    return tuple(i for i, f in enumerate(mask) if f)


def fresh(m):
    """A copy of m with no rank taken, so nothing is cleared from it."""
    return SparseMatrix(m.rows, m.cols, m.entries)


def oracle_rank(m):
    return dense_rref(dense(m), m.rows, m.cols)[2]


class TestClearing:
    """Once d(n) d(n - 1) == 0 has tested true, rank d(n) is taken on the
    transpose of d(n) without the rows that the pivot columns of d(n - 1)
    clear; the oracles are the dense elimination and sympy on the whole
    matrices."""

    @given(exact_chains())
    @settings(max_examples=150, deadline=None)
    def test_cleared_ranks_match_dense_oracle(self, chain):
        d2, d1, d0 = chain
        h1 = cohomology_dim(d1, d0)
        h2 = cohomology_dim(d2, d1)
        for m in chain:
            assert m._rank == oracle_rank(m)
            _, tpivots, _ = dense_rref(transpose(dense(m)), m.cols, m.rows)
            assert flagged(m._pivots) == tpivots
        assert h1 == d1.cols - d1._rank - d0._rank
        assert h2 == d2.cols - d2._rank - d1._rank
        # d1's pivots, from a pass that d0 cleared, clear d2
        assert d2._cleared is (d1._pivots if d1._rank and d2._rank else None)
        assert d1._cleared is (d0._pivots if d0._rank and d1._rank else None)

    @given(exact_chains())
    @settings(max_examples=40, deadline=None)
    def test_cleared_ranks_match_sympy(self, chain):
        sympy = pytest.importorskip("sympy")
        d2, d1, d0 = chain
        cohomology_dim(d1, d0)
        cohomology_dim(d2, d1)
        for m in chain:
            flat = [v for row in dense(m) for v in row]
            assert m._rank == sympy.Matrix(m.rows, m.cols, flat).rank()

    @given(exact_chains(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_induced_rank_with_cleared_block(self, chain, data):
        # f = s + d1 h + h' d2 commutes with d1 one degree down, as s + h d1
        # does there, and induces s on H(d2, d1): rank h2, or 0 for s = 0
        d2, d1, d0 = chain
        n = d2.cols

        def drawn(rows, cols):
            return from_dense([[data.draw(small_fractions) for _ in range(cols)]
                               for _ in range(rows)], rows, cols)

        s = data.draw(st.sampled_from((Q(0), ONE, Q(-1, 2), Q(3))))
        h, h2 = drawn(d1.cols, n), drawn(n, d2.rows)
        f = from_dense([[a + b + c for a, b, c in zip(*rows)] for rows in zip(
            dense(identity(n, s)), dense(d1.mul(h)), dense(h2.mul(d2)))], n, n)
        f_below = from_dense([[a + b for a, b in zip(*rows)] for rows in zip(
            dense(identity(d1.cols, s)), dense(h.mul(d1)))], d1.cols, d1.cols)
        assert is_chain_map(f, d1, d1, f_below)
        cohomology_dim(d1, d0)
        homology = cohomology_dim(d2, d1)
        uncleared = induced_rank(fresh(f), fresh(d2), fresh(d1))
        assert induced_rank(f, d2, d1) == uncleared == (homology if s else 0)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 3)])
    def test_empty_and_zero_pairs_clear_nothing(self, shape, count_eliminations):
        rows, cols = shape
        eliminated = count_eliminations()
        d_out, d_in = SparseMatrix(rows, cols), SparseMatrix(cols, 2)
        assert cohomology_dim(d_out, d_in) == cols
        assert eliminated == [] and d_out._cleared is None
        assert d_out._pivots == d_in._pivots == b""

    def test_single_row_is_cleared_to_its_rank(self, count_eliminations):
        # d_in spans e0 + e1; column 0 of d_out = -(column 1) is left out
        d_out = from_dense([[Q(1, 2), Q(-1, 2), Q(3)]], 1, 3)
        d_in = from_dense([[Q(2, 3)], [Q(2, 3)], [0]], 3, 1)
        eliminated = count_eliminations()
        assert cohomology_dim(d_out, d_in) == 1
        assert eliminated == [d_in, d_out]
        assert d_in._pivots == b"\x01\x00\x00" and d_out._cleared is d_in._pivots
        assert d_out._rank == 1 and d_out._pivots == b"\x01"


def count_cohomology_dim(monkeypatch):
    """Patch exactq._cohomology_dim_of_zero_composite, the step that every
    cohomology dimension ends in, to record the pair of matrices of every
    call, by identity."""
    calls = []
    real = exactq._cohomology_dim_of_zero_composite

    def counting(d_out, d_in):
        calls.append((id(d_out), id(d_in)))
        return real(d_out, d_in)

    monkeypatch.setattr(exactq, "_cohomology_dim_of_zero_composite", counting)
    return calls


class TestBettiMemo:
    def test_second_betti_takes_no_cohomology(self, monkeypatch):
        calls = count_cohomology_dim(monkeypatch)
        model = load_corpus_model("cp2")
        assert model.betti(4) == 1
        assert model.betti(4) == 1
        assert len(calls) == 1

    def test_cleared_cache_recomputes(self, monkeypatch):
        calls = count_cohomology_dim(monkeypatch)
        model = load_corpus_model("cp2")
        model.betti(4)
        model._cache.clear()
        assert model.betti(4) == 1
        assert len(calls) == 2

    def test_hodge_table_ranks_only_slices_not_yet_seen(self, monkeypatch):
        report = TheoremReport(load_corpus_model("cp2"), 8)
        flm, eqm = report.flm, report.eqm
        calls = count_cohomology_dim(monkeypatch)
        verify_quasi_iso(eqm, 5)
        verify_rho_tensor_quasi_iso(eqm, 5)
        seen = len(calls)
        table = hodge_betti_table(flm, 8)
        # the slices (n, 0) are the base model's, ranked by the duality
        # check that building eqm ran
        assert calls[seen:] == [
            (id(flm.d_matrix(n, k)), id(flm.d_matrix(n - 1, k)))
            for n, k in table.entries if n > 5 and k]
        assert len(set(calls)) == len(calls)


class TestQuotientRank:
    """induced_rank: how many classes the images of cocycles hit modulo
    the target's boundaries.  With d_out empty every vector is a cocycle."""

    def test_worked_example(self):
        # images e0, e1; target boundaries e0: one new class
        target_d_in = SparseMatrix(2, 1, {(0, 0): ONE})
        assert induced_rank(identity(2), SparseMatrix(0, 2), target_d_in) == 1

    def test_images_inside_denominator(self):
        target_d_in = SparseMatrix(1, 1, {(0, 0): ONE})
        assert induced_rank(identity(1, Q(5)), SparseMatrix(0, 1), target_d_in) == 0

    def test_empty_everything(self):
        assert induced_rank(SparseMatrix(3, 0), SparseMatrix(0, 0),
                            SparseMatrix(3, 0)) == 0

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_fractional_maps_match_the_dense_oracle(self, data):
        # dim(f(ker d_out) + im target_d_in) - rank(target_d_in), from the
        # dense RREF; no square needs to commute for that count
        n, r, m, p = (data.draw(st.integers(0, 4)) for _ in range(4))

        def drawn(rows, cols):
            return [[data.draw(small_fractions) for _ in range(cols)]
                    for _ in range(rows)]

        g_out, g_f, g_t = drawn(r, n), drawn(m, n), drawn(m, p)
        images = [[sum((g_f[i][c] * z[c] for c in range(n)), Q(0)) for i in range(m)]
                  for z in dense_kernel(g_out, r, n)]
        columns = images + [[g_t[i][j] for i in range(m)] for j in range(p)]
        spanned = [[col[i] for col in columns] for i in range(m)]
        want = (dense_rref(spanned, m, len(columns))[2]
                - dense_rref(g_t, m, p)[2])
        assert induced_rank(from_dense(g_f, m, n), from_dense(g_out, r, n),
                            from_dense(g_t, m, p)) == want

    @given(complexes())
    @settings(max_examples=60, deadline=None)
    def test_identity_and_scaled_identity_are_isomorphisms(self, data):
        d_out, d_in = data
        h = cohomology_dim(d_out, d_in)
        for scale in (ONE, Q(2)):
            assert induced_rank(identity(d_out.cols, scale), d_out, d_in) == h

    @given(complexes())
    @settings(max_examples=60, deadline=None)
    def test_zero_map_has_rank_zero(self, data):
        d_out, d_in = data
        zero = SparseMatrix(d_out.cols, d_out.cols)
        assert induced_rank(zero, d_out, d_in) == 0

    @given(complexes(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_null_homotopic_maps(self, data, more):
        # f = d_in h_n + h_{n+1} d_out sends cocycles to boundaries
        d_out, d_in = data
        n = d_out.cols

        def drawn(rows, cols):
            grid = [[more.draw(small_entries) for _ in range(cols)]
                    for _ in range(rows)]
            return from_dense(grid, rows, cols)

        h_n, h_n1 = drawn(d_in.cols, n), drawn(n, d_out.rows)
        acc = dict(d_in.mul(h_n).entries)
        for rc, v in h_n1.mul(d_out).entries.items():
            add_term(acc, rc, v)
        assert induced_rank(SparseMatrix(n, n, acc), d_out, d_in) == 0
        for i in range(n):
            add_term(acc, (i, i), ONE)
        assert (induced_rank(SparseMatrix(n, n, acc), d_out, d_in)
                == cohomology_dim(d_out, d_in))

    def test_denominator_rank_comes_from_the_memo(self, count_eliminations):
        target_d_in = SparseMatrix(2, 1, {(0, 0): ONE})
        assert rank(target_d_in) == 1
        reduced = count_eliminations()
        assert induced_rank(identity(2), SparseMatrix(0, 2), target_d_in) == 1
        assert target_d_in not in reduced

    def test_block_shapes_must_fit(self):
        with pytest.raises(ValueError):
            induced_rank(identity(2), SparseMatrix(0, 3), SparseMatrix(2, 0))
        with pytest.raises(ValueError):
            induced_rank(identity(2), SparseMatrix(0, 2), SparseMatrix(3, 0))

    def test_one_elimination_beside_the_memos(self, count_eliminations):
        d_out = SparseMatrix(1, 2, {(0, 1): ONE})
        target_d_in = SparseMatrix(2, 1, {(0, 0): ONE})
        assert rank(d_out) == rank(target_d_in) == 1
        reduced = count_eliminations()
        # the cocycle e0 lands on the boundary e0: rank 0
        assert induced_rank(identity(2), d_out, target_d_in) == 0
        assert len(reduced) == 1
        assert (reduced[0].rows, reduced[0].cols) == (3, 3)


class TestMatrixOfMap:
    def test_rows_follow_cod_and_columns_follow_dom(self):
        image = {"a": {"y": Q(2), "z": Q(-1)}, "b": {}, "c": {"x": Q(1, 3)}}
        m = matrix_of_map(["c", "a", "b"], ["z", "y", "x"], image.__getitem__,
                          "unused")
        assert dense(m) == [[0, Q(-1), 0], [0, Q(2), 0], [Q(1, 3), 0, 0]]

    def test_image_outside_cod_raises_with_the_given_message(self):
        with pytest.raises(InternalCheckFailure) as err:
            matrix_of_map(["a"], ["x"], lambda _: {"w": ONE},
                          "image left degree 7")
        assert str(err.value) == "image left degree 7"

    def test_empty_dom(self):
        m = matrix_of_map([], ["x", "y", "z"], lambda _: {}, "unused")
        assert (m.rows, m.cols) == (3, 0)
        assert not m.entries


class TestProductIsZero:
    def test_row_and_column_lcms_differ(self):
        a = from_dense([[Q(1, 2), Q(1, 3)]], 1, 2)
        assert product_is_zero(a, from_dense([[2], [-3]], 2, 1))
        assert not product_is_zero(a, from_dense([[2], [-2]], 2, 1))

    def test_nonzero_only_in_the_last_column(self):
        a = from_dense([[1, 1], [Q(1, 7), Q(1, 7)]], 2, 2)
        b = from_dense([[1, 0, 2], [-1, 0, -1]], 2, 3)
        assert a.mul(b).entries == {(0, 2): ONE, (1, 2): Q(1, 7)}
        assert not product_is_zero(a, b)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            product_is_zero(SparseMatrix(2, 3), SparseMatrix(2, 2))

    def test_empty_factors(self):
        assert product_is_zero(SparseMatrix(3, 0), SparseMatrix(0, 4))
        assert product_is_zero(SparseMatrix(0, 2), SparseMatrix(2, 0))

    @given(rational_pairs())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_fraction_product(self, pair):
        # mul and product_is_zero share one integer product; the dense
        # oracle is independent of it
        a, b = pair
        want = dense_product(a, b)
        assert a.mul(b) == from_dense(want, a.rows, b.cols)
        assert product_is_zero(a, b) == (not any(map(any, want)))

    @given(complexes())
    @settings(max_examples=60, deadline=None)
    def test_consecutive_differentials_compose_to_zero(self, data):
        d_out, d_in = data
        assert not d_out.mul(d_in).entries
        assert product_is_zero(d_out, d_in)


class TestIsChainMap:
    def test_identity_squares_commute(self):
        d = from_dense([[1, 2], [0, 0], [3, -1]], 3, 2)
        assert is_chain_map(identity(3), d, d, identity(2))
        assert is_chain_map(identity(3, Q(-2)), d, d, identity(2, Q(-2)))

    @given(matrices())
    @settings(max_examples=30, deadline=None)
    def test_identity_square_of_any_map_commutes(self, data):
        d = from_dense(*data)
        assert is_chain_map(identity(d.rows), d, d, identity(d.cols))

    def test_square_commuting_up_to_sign(self):
        # f_next * d == -(d * f) with f, f_next the identity and its negative
        d = from_dense([[1, 2], [0, 5]], 2, 2)
        f_next, f = identity(2, Q(-1)), identity(2)
        assert is_chain_map(f_next, d, d, f, sign=-1)
        assert not is_chain_map(f_next, d, d, f, sign=1)
        assert not is_chain_map(f_next, d, d, f)

    def test_sides_over_different_denominators(self):
        # (2/3) * (3/2) d and d * 1 are both d, over denominators 6 and 1
        d = from_dense([[1, 2], [0, 5]], 2, 2)
        d32 = from_dense([[Q(3, 2), 3], [0, Q(15, 2)]], 2, 2)
        assert is_chain_map(identity(2, Q(2, 3)), d32, d, identity(2))
        assert not is_chain_map(identity(2, Q(2, 3)), d, d, identity(2))

    def test_non_commuting_square_is_rejected(self):
        d_src = from_dense([[1, 0]], 1, 2)
        d_tgt = from_dense([[0, 1]], 1, 2)
        assert not is_chain_map(identity(1), d_src, d_tgt, identity(2))
        assert not is_chain_map(identity(1), d_src, d_tgt, identity(2), sign=-1)

    def test_sign_other_than_one_or_minus_one_raises(self):
        d = from_dense([[1, 2]], 1, 2)
        for sign in (0, 2, -2, Q(1, 2)):
            with pytest.raises(ValueError):
                is_chain_map(identity(1), d, d, identity(2), sign)

    def test_mismatched_shapes_raise(self):
        d = from_dense([[1, 2]], 1, 2)
        with pytest.raises(ValueError):
            is_chain_map(identity(2), d, d, identity(2))
        with pytest.raises(ValueError):
            # both products are defined, but 1x2 against 1x3
            is_chain_map(identity(1), d, d, SparseMatrix(2, 3))
