"""Free loop model, Hodge splitting, loop cohomology growth.

Frozen tables below were derived independently before implementation:
sphere loop cohomology from the standard small models (an odd sphere's
loop space has one class in every degree 0, n-1, n, 2n-2, ..., an even
sphere's exactly one class in each degree), projective space tables from
the elliptic model (x2, y5 / x3), and the product case by Kunneth.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopspace import (corpus_models, exactq, gca, load_corpus_model,
                       verify_theorems)
from loopspace.errors import DifferentialSquareNonzero
from loopspace.freeloop import (
    build_free_loop_model,
    growth_report,
    hodge_betti_table,
    integer_nth_root,
    loop_betti,
    _root_decimal,
)
from loopspace.sullivan import RankTable, cohomology_table, parse_model
from test_sections import get_model

Q = Fraction
TESTS = Path(__file__).resolve().parent
MODEL_FILES = (sorted((TESTS.parent / "perfbench" / "models").glob("*.model"))
               + sorted((TESTS / "fixtures").glob("*.model")))


def loop(name):
    return build_free_loop_model(load_corpus_model(name))


def row_list(hodge, n):
    row = hodge.row(n)
    return [row.get(k, 0) for k in range(n + 1)]


class TestConstruction:
    def test_s2_generators_and_differential(self):
        flm = loop("s2")
        assert [g.name for g in flm.generators] == ["x", "y", "sx", "sy"]
        assert [g.degree for g in flm.generators] == [2, 3, 1, 2]
        assert flm.generators[2].kind == "suspended"
        assert flm.generators[2].partner == 0
        d = flm.loop_differential
        assert d.images[0] == {}                      # D(x) = 0
        assert d.images[1] == {(2, 0, 0, 0): Q(1)}    # D(y) = x^2
        assert d.images[2] == {}                      # D(sx) = 0
        assert d.images[3] == {(1, 0, 1, 0): Q(-2)}   # D(sy) = -2 x sx

    def test_cp2_suspended_differential(self):
        flm = loop("cp2")
        # D(sy) = -s(x^3) = -3 x^2 sx
        assert flm.loop_differential.images[3] == {(2, 0, 1, 0): Q(-3)}

    def test_suspension_spec(self):
        flm = loop("s2")
        s = flm.suspension
        assert s.degree_shift == -1
        assert s.images[0] == {(0, 0, 1, 0): Q(1)}
        assert s.images[2] == {}

    def test_square_nonzero_base_is_rejected(self):
        bad = parse_model(
            "dim 9\ncomplete\ngen x 2\ngen y 3\ngen z 4\nd y = x^2\nd z = x*y\n")
        with pytest.raises(DifferentialSquareNonzero):
            build_free_loop_model(bad)


class TestLoopBetti:
    def test_s2_all_ones(self):
        table = loop_betti(loop("s2"), 8)
        assert table.as_array(8) == [1] * 9

    def test_s3_table(self):
        table = loop_betti(loop("s3"), 11)
        assert table.as_array(11) == [1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]

    def test_s2xs3_linear_growth(self):
        table = loop_betti(loop("s2xs3"), 13)
        assert table.as_array(13) == [1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]

    def test_trust_marker_for_truncated_base(self):
        m = parse_model("dim 2\ncomplete-to 6\ngen x 2\ngen y 3\nd y = x^2\n")
        table = loop_betti(build_free_loop_model(m), 8)
        assert table.trusted_up_to == 5


class TestHodge:
    def test_s2_cells(self):
        hodge = hodge_betti_table(loop("s2"), 8)
        nonzero = {key: v for key, v in hodge.entries.items() if v}
        assert nonzero == {
            (0, 0): 1, (1, 1): 1, (2, 0): 1, (3, 2): 1, (4, 1): 1,
            (5, 3): 1, (6, 2): 1, (7, 4): 1, (8, 3): 1,
        }
        # zero cells are stored too, one per populated slice
        assert hodge.get(2, 1) == 0 and (2, 1) in hodge.entries
        assert hodge.get(3, 0) == 0 and (3, 0) in hodge.entries
        # degree 2 word length 2 would need sx^2 = 0, so no slice at all
        assert (2, 2) not in hodge.entries

    def test_word_length_zero_is_base_cohomology(self):
        for name in ("s2", "s3", "cp2", "cp3", "s2xs3", "su3"):
            model = load_corpus_model(name)
            hodge = hodge_betti_table(build_free_loop_model(model), 9)
            table = cohomology_table(model, 9)
            for n in range(10):
                assert hodge.get(n, 0) == table.get(n), (name, n)

    def test_rows_sum_to_loop_betti(self):
        for name in ("s2", "cp2", "s2xs3"):
            flm = loop(name)
            hodge = hodge_betti_table(flm, 9)
            table = loop_betti(flm, 9, hodge=hodge)  # raises on mismatch
            for n in range(10):
                assert hodge.row_sum(n) == table.get(n), (name, n)

    def test_s2xs3_rows(self):
        hodge = hodge_betti_table(loop("s2xs3"), 13)
        expected = [
            [1],
            [0, 1],
            [1, 1, 0],
            [1, 0, 2, 0],
            [0, 3, 1, 0, 0],
            [1, 1, 0, 3, 0, 0],
            [0, 0, 5, 1, 0, 0, 0],
            [0, 2, 1, 0, 4, 0, 0, 0],
            [0, 0, 0, 7, 1, 0, 0, 0, 0],
            [0, 0, 3, 1, 0, 5, 0, 0, 0, 0],
            [0, 0, 0, 0, 9, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 4, 1, 0, 6, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 11, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 5, 1, 0, 7, 0, 0, 0, 0, 0, 0],
        ]
        for n, row in enumerate(expected):
            assert row_list(hodge, n) == row, n

    def test_cp2_word_length_one_column(self):
        hodge = hodge_betti_table(loop("cp2"), 9)
        assert hodge.get(1, 1) == 1
        assert hodge.get(6, 1) == 1 and hodge.get(7, 1) == 0 and hodge.get(8, 1) == 1

    def test_jobs_give_identical_tables(self):
        flm = loop("cp2")
        serial = hodge_betti_table(flm, 8, jobs=1)
        parallel = hodge_betti_table(flm, 8, jobs=3)
        assert serial.entries == parallel.entries

    def test_each_slice_is_reduced_once(self, count_eliminations):
        reduced = count_eliminations()
        hodge_betti_table(loop("cp2"), 8)
        assert reduced
        assert len({id(m) for m in reduced}) == len(reduced)

    def test_table_takes_no_full_reduction(self, monkeypatch):
        # every slice rank comes from the forward pass alone
        def refuse(m):
            raise AssertionError("rref reached from the Hodge table")

        monkeypatch.setattr(exactq, "rref", refuse)
        assert hodge_betti_table(loop("cp2"), 8).get(6, 1) == 1


class TestClosedForms:
    """Sphere loop cohomology in closed form (Vigue-Poirrier and Sullivan
    1976), to degree 24 through the same tables the CLI prints."""

    TOP = 24

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_odd_sphere_hodge_table(self, m):
        # x of degree 2m+1 and sx of degree 2m, D = 0: classes sx^j, x*sx^j
        model = parse_model("dim %d\ncomplete\ngen x %d\n" % (2 * m + 1, 2 * m + 1))
        hodge = hodge_betti_table(build_free_loop_model(model), self.TOP)
        expected = {}
        for j in range(self.TOP + 1):
            for n in (2 * m * j, 2 * m * j + 2 * m + 1):
                if n <= self.TOP:
                    expected[(n, j)] = 1
        assert {nk: v for nk, v in hodge.entries.items() if v} == expected

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_even_sphere_loop_betti(self, m):
        model = parse_model("dim %d\ncomplete\ngen x %d\ngen y %d\nd y = x^2\n"
                            % (2 * m, 2 * m, 4 * m - 1))
        flm = build_free_loop_model(model)
        betti = loop_betti(flm, self.TOP, hodge=hodge_betti_table(flm, self.TOP))
        expected = {0}
        for j in range(self.TOP + 1):
            expected |= {j * (4 * m - 2) + 2 * m - 1, j * (4 * m - 2) + 2 * m}
        assert betti.as_array(self.TOP) == [
            1 if n in expected else 0 for n in range(self.TOP + 1)]


class TestKunneth:
    """The loop model of a product is the tensor product of its factors'
    loop models, degrees and word lengths adding (Kunneth), so the Hodge
    table of a product model is the (n, k) convolution of its factors'
    tables: a check of the split tables against models they were not
    frozen from."""

    TOP = 11

    @pytest.mark.parametrize("product, factors", [
        ("s2xs3", ("s2", "s3")), ("s2xs2", ("s2", "s2")),
        ("cp2xs3", ("cp2", "s3")), ("s2cubed", ("s2", "s2", "s2"))],
        ids=["s2xs3", "s2xs2", "cp2xs3", "s2cubed"])
    def test_hodge_table_is_the_convolution_of_the_factors(self, product, factors):
        expected = {(0, 0): 1}
        for name in factors:
            table = hodge_betti_table(build_free_loop_model(get_model(name)), self.TOP)
            conv = {}
            for (n, k), a in expected.items():
                for (m, j), b in table.entries.items():
                    if b and n + m <= self.TOP:
                        conv[(n + m, k + j)] = conv.get((n + m, k + j), 0) + a * b
            expected = conv
        hodge = hodge_betti_table(build_free_loop_model(get_model(product)), self.TOP)
        assert hodge.trusted_up_to == self.TOP
        assert {nk: v for nk, v in hodge.entries.items() if v} == expected
        assert any(k >= 2 for n, k in expected)


@st.composite
def pure_models(draw):
    """Even generators with d = 0, odd ones whose d is a polynomial with
    non-integer coefficients in the even ones, so d*d = 0."""
    evens = draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3))
    odds = draw(st.lists(st.sampled_from([3, 5, 7]), min_size=1, max_size=3))
    even_gens = tuple(gca.Generator("x%d" % i, q) for i, q in enumerate(evens))
    coeffs = st.tuples(st.integers(-9, 9).filter(bool),
                       st.sampled_from([2, 3, 5, 7])).filter(
        lambda pq: pq[0] % pq[1])
    lines = ["dim 1", "complete"] + ["gen %s %d" % (g.name, g.degree)
                                     for g in even_gens]
    for j, q in enumerate(odds):
        lines.append("gen y%d %d" % (j, q))
        monos = gca.basis_of_degree(even_gens, q + 1)
        terms = draw(st.lists(st.tuples(st.sampled_from(monos), coeffs),
                              unique_by=lambda t: t[0], max_size=3)
                     if monos else st.just([]))
        poly = " ".join("%+d/%d*%s" % (p, r, gca.render_monomial(even_gens, m))
                        for m, (p, r) in terms)
        lines.append("d y%d = %s" % (j, poly or "0"))
    return parse_model("\n".join(lines) + "\n")


class TestFactorisedSlices:
    """FreeLoopModel builds its slices from the factors LV and L sV; the
    generic gca path over all 2r generators is the oracle.  A slice lists
    pairs (b, t), and b + t is the generic path's monomial."""

    @staticmethod
    def assert_slices_match(flm, top):
        for n in range(top + 1):
            for k in range(n + 2):
                assert tuple(b + t for b, t in flm.basis(n, k)) == (
                    gca.slice_basis(flm.generators, n, k)), (n, k)
                assert flm.d_matrix(n, k) == gca.matrix_of_degree_slice(
                    flm.generators, flm.loop_differential, n, k), (n, k)
        # the walk is exact: slices lists every populated (n, k) and no
        # word length above the degree is populated
        assert flm.slices(top) == [
            (n, k) for n in range(top + 1) for k in range(n + 1)
            if gca.slice_basis(flm.generators, n, k)]
        assert not any(gca.slice_basis(flm.generators, n, n + 1)
                       for n in range(top + 1))

    @pytest.mark.parametrize(
        "source", corpus_models() + MODEL_FILES,
        ids=lambda s: s if isinstance(s, str) else s.relative_to(TESTS.parent).as_posix())
    def test_every_slice_matches_the_generic_path(self, source):
        model = (load_corpus_model(source) if isinstance(source, str)
                 else parse_model(source.read_text(encoding="utf-8")))
        flm = build_free_loop_model(model)
        self.assert_slices_match(flm, 10 if model.name == "S2xS2xS2" else 12)

    def test_pairs_hold_the_factor_tuples(self):
        flm = loop("s2xs3")
        nb = len(flm.base.generators)
        base, susp = flm.generators[:nb], flm.generators[nb:]
        factor = {id(m) for n in range(10) for m in gca.basis_of_degree(base, n)}
        factor |= {id(m) for n in range(10)
                   for ms in gca.word_length_slices(susp, n).values() for m in ms}
        assert all(id(b) in factor and id(t) in factor
                   for k in range(10) for b, t in flm.basis(9, k))

    @given(pure_models())
    @settings(max_examples=50, deadline=None)
    def test_random_pure_models_match_the_generic_path(self, model):
        self.assert_slices_match(build_free_loop_model(model), 8)

    def test_caches_are_the_size_of_the_factors(self):
        model = parse_model((TESTS.parent / "perfbench" / "models"
                             / "s2cubed.model").read_text(encoding="utf-8"))
        gca.basis_of_degree.cache_clear()
        gca.word_length_slices.cache_clear()
        gca.slice_basis.cache_clear()
        flm = verify_theorems(model, 11).flm
        nb = len(model.generators)
        base, susp = flm.generators[:nb], flm.generators[nb:]
        assert flm._d_base and flm._d_susp
        assert len(flm._d_base) <= sum(len(gca.basis_of_degree(base, n))
                                       for n in range(13))
        assert len(flm._d_susp) <= sum(len(gca.basis_of_degree(susp, n))
                                       for n in range(13))
        # no degree of the 2r loop generators was ever enumerated: each
        # lookup now is a miss
        for n in range(13):
            before = gca.basis_of_degree.cache_info()
            gca.basis_of_degree(flm.generators, n)
            assert gca.basis_of_degree.cache_info().misses == before.misses + 1, n


class TestIntegerRoots:
    def test_small_values(self):
        assert integer_nth_root(0, 3) == 0
        assert integer_nth_root(1, 5) == 1
        assert integer_nth_root(8, 3) == 2
        assert integer_nth_root(7, 3) == 1
        assert integer_nth_root(10 ** 12, 2) == 10 ** 6

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            integer_nth_root(-1, 2)
        with pytest.raises(ValueError):
            integer_nth_root(4, 0)

    @given(st.integers(min_value=0, max_value=10 ** 18),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_floor_property(self, x, n):
        r = integer_nth_root(x, n)
        assert r ** n <= x < (r + 1) ** n

    def test_root_decimal_truncates(self):
        assert _root_decimal(2, 2) == "1.414213"
        assert _root_decimal(4, 2) == "2.000000"
        assert _root_decimal(3, 3) == "1.442249"


class TestGrowth:
    def synthetic(self, values):
        return RankTable(dict(enumerate(values)), len(values) - 1)

    def test_s3_window_10_inconclusive(self):
        rep = growth_report(loop_betti(loop("s3"), 10))
        assert rep.partial_sums == [1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert rep.ratios == [Q(1), Q(2), Q(3, 2), Q(4, 3), Q(5, 4), Q(6, 5),
                              Q(7, 6), Q(8, 7), Q(9, 8), Q(10, 9)]
        assert [r for _, r in rep.roots] == [
            "1.000000", "1.414213", "1.442249", "1.414213", "1.379729",
            "1.348006", "1.320469", "1.296839", "1.276518", "1.258925"]
        # the tail 8/7, 9/8, 10/9 straddles the 9/8 bar
        assert rep.verdict == "inconclusive"

    def test_s3_wider_window_sub_exponential(self):
        rep = growth_report(loop_betti(loop("s3"), 11))
        assert rep.verdict == "sub-exponential"
        rep = growth_report(loop_betti(loop("s3"), 20))
        assert rep.verdict == "sub-exponential"

    def test_s2xs3_quadratic_sums_straddle_the_bar(self):
        # linear betti growth gives quadratic partial sums; inside a short
        # window the step ratios still exceed 9/8, and the conservative
        # verdict says so ("in-window"), flipping only around degree 19
        rep = growth_report(loop_betti(loop("s2xs3"), 14))
        assert rep.partial_sums[-1] == 106
        assert rep.verdict == "exponential-in-window"
        rep = growth_report(loop_betti(loop("s2xs3"), 19))
        assert rep.verdict == "sub-exponential"

    def test_exponential_synthetic(self):
        rep = growth_report(self.synthetic([1, 2, 4, 8, 16, 32, 64, 128]))
        assert rep.verdict == "exponential-in-window"
        assert rep.partial_sums[-1] == 255

    def test_degenerate(self):
        rep = growth_report(self.synthetic([0] * 9))
        assert rep.verdict == "degenerate"
        assert rep.ratios == [] and rep.roots == []

    def test_short_window_inconclusive(self):
        rep = growth_report(self.synthetic([1, 1, 1, 1, 1]))
        assert rep.verdict == "inconclusive"

    def test_explicit_window_override(self):
        table = loop_betti(loop("s3"), 15)
        rep = growth_report(table, n_max=4)
        assert len(rep.partial_sums) == 5
        assert rep.verdict == "inconclusive"
