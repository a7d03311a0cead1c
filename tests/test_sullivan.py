"""Model file parsing, structural validation, cohomology, duality checks."""

from fractions import Fraction
from pathlib import Path

import pytest

from loopspace import corpus_models, corpus_path, load_corpus_model
from loopspace.errors import (
    DegreeMismatch,
    NotPoincareDuality,
    OddExponent,
    ParseError,
    UnknownGenerator,
)
from loopspace import gca, sullivan
from loopspace.sullivan import (
    check_poincare_duality,
    cohomology_table,
    parse_model,
    validate,
)
from test_exactq import dense, dense_kernel, dense_rref, transpose
from test_families import flag_model_text, grassmannian_model_text

Q = Fraction
FIXTURES = Path(__file__).parent / "fixtures"
BENCH_MODELS = Path(__file__).parent.parent / "perfbench" / "models"
PD_FIXTURES = ("massey", "nonintegral", "s2xs2", "s2xs3_twisted")

S2_TEXT = """\
model S2
dim 2
complete
gen x 2
gen y 3
d y = x^2
"""


def fixture_model(name):
    return parse_model((FIXTURES / (name + ".model")).read_text(), name)


class TestParser:
    def test_round_trip_s2(self):
        m = parse_model(S2_TEXT)
        assert m.name == "S2"
        assert m.formal_dim == 2
        assert m.completeness is None
        assert [(g.name, g.degree) for g in m.generators] == [("x", 2), ("y", 3)]
        # d x = 0, d y = x^2
        assert m.differential.images[0] == {}
        assert m.differential.images[1] == {(2, 0): Q(1)}

    def test_comments_and_blank_lines_ignored(self):
        m = parse_model("# header\n\nmodel A # trailing\ndim 2\ncomplete\ngen x 2\n")
        assert m.name == "A"
        assert m.formal_dim == 2

    def test_generators_sorted_by_degree_then_declaration(self):
        m = parse_model("dim 5\ncomplete\ngen y 3\ngen x 2\ngen z 3\n")
        assert [g.name for g in m.generators] == ["x", "y", "z"]

    def test_rational_coefficients_and_signs(self):
        m = parse_model(
            "dim 6\ncomplete\ngen x 2\ngen u 2\ngen y 5\nd y = 3/2*x^3 - x*u^2\n")
        yi = [g.name for g in m.generators].index("y")
        img = m.differential.images[yi]
        # ties in degree keep declaration order, so generators are (x, u, y)
        assert img == {(3, 0, 0): Q(3, 2), (1, 2, 0): Q(-1)}

    def test_coefficient_merge_to_zero(self):
        m = parse_model("dim 6\ncomplete\ngen x 2\ngen y 5\nd y = x^3 - x^3\n")
        yi = [g.name for g in m.generators].index("y")
        assert m.differential.images[yi] == {}

    def test_explicit_zero_differential(self):
        text = "dim 5\ncomplete\ngen x 2\ngen y 3\ngen z 3\nd y = x^2\n"
        explicit = parse_model(text + "d z = 0\n")
        assert explicit.differential == parse_model(text).differential
        assert validate(explicit).passed
        with pytest.raises(ParseError):
            parse_model(text + "d z = 0 + x^2\n")

    def test_corpus_files_parse(self):
        assert corpus_models() == ["cp2", "cp3", "s2", "s2xs3", "s3", "su3"]
        for name in corpus_models():
            model = load_corpus_model(name)
            assert validate(model).passed
            assert corpus_path(name).name == name + ".model"


class TestParseErrors:
    def check(self, text, exc, fragment, line=None):
        with pytest.raises(exc) as ei:
            parse_model(text)
        msg = str(ei.value)
        assert fragment in msg
        if line is not None:
            assert msg.startswith("line %d: " % line)

    def test_unknown_directive(self):
        self.check("dim 2\ncomplete\ngen x 2\nfoo bar\n", ParseError,
                   "unknown directive", line=4)

    def test_missing_dim(self):
        self.check("complete\ngen x 2\n", ParseError, "missing required 'dim'")

    def test_missing_completeness(self):
        self.check("dim 2\ngen x 2\n", ParseError,
                   "missing required 'complete'")

    def test_no_generators(self):
        self.check("dim 2\ncomplete\n", ParseError, "declares no generators")

    def test_duplicate_generator(self):
        self.check("dim 2\ncomplete\ngen x 2\ngen x 4\n", ParseError,
                   "declared twice", line=4)

    @pytest.mark.parametrize("text, line", [
        ("model A\nmodel B\ndim 2\ncomplete\ngen x 2\n", 2),
        ("dim 2\ncomplete\ngen x 2\ndim 3\n", 4),
        ("dim 2\ncomplete\ncomplete\ngen x 2\n", 3),
        ("dim 2\ncomplete\ngen x 2\ncomplete-to 3\n", 4),
        ("dim 2\ncomplete-to 3\ncomplete\ngen x 2\n", 3),
    ], ids=["model", "dim", "complete", "complete-then-complete-to",
            "complete-to-then-complete"])
    def test_duplicate_header(self, text, line):
        self.check(text, ParseError, "declared twice", line=line)

    def test_duplicate_differential(self):
        self.check("dim 2\ncomplete\ngen x 2\ngen y 3\nd y = x^2\nd y = x^2\n",
                   ParseError, "declared twice", line=6)

    def test_unknown_generator_in_d(self):
        self.check("dim 2\ncomplete\ngen x 2\nd q = x^2\n", UnknownGenerator,
                   "unknown generator", line=4)

    def test_unknown_generator_in_poly(self):
        self.check("dim 2\ncomplete\ngen x 2\ngen y 3\nd y = x*w\n",
                   UnknownGenerator, "unknown generator", line=5)

    def test_degree_mismatch(self):
        self.check("dim 2\ncomplete\ngen x 2\ngen y 3\nd y = x^3\n",
                   DegreeMismatch, "degree 4", line=5)

    def test_odd_exponent(self):
        self.check("dim 8\ncomplete\ngen y 3\ngen z 7\nd z = y^2\n",
                   OddExponent, "squared", line=5)

    def test_bad_exponent(self):
        self.check("dim 2\ncomplete\ngen x 2\ngen y 3\nd y = x^0\n",
                   ParseError, "exponent", line=5)

    def test_bad_dim(self):
        self.check("dim two\ncomplete\ngen x 2\n", ParseError, "dim needs an integer",
                   line=1)
        self.check("dim 0\ncomplete\ngen x 2\n", ParseError, "dim must be positive",
                   line=1)

    def test_gen_line_shape(self):
        self.check("dim 2\ncomplete\ngen x\n", ParseError, "gen needs", line=3)
        self.check("dim 2\ncomplete\ngen x two\n", ParseError,
                   "degree must be an integer", line=3)
        self.check("dim 2\ncomplete\ngen 2x 2\n", ParseError,
                   "bad generator name", line=3)

    def test_stray_character(self):
        self.check("dim 2\ncomplete\ngen x 2\ngen y 3\nd y = x@2\n", ParseError,
                   "unexpected character", line=5)

    def test_empty_polynomial(self):
        self.check("dim 2\ncomplete\ngen x 2\ngen y 3\nd y =\n", ParseError,
                   "empty polynomial", line=5)


class TestValidate:
    def test_degree_one_generator_parses_then_fails_validation(self):
        # d y = x is homogeneous of degree |y| + 1 = 2, so the parser takes
        # it; validation rejects the degree 1 generator and the linear image
        m = parse_model("dim 2\ncomplete\ngen y 1\ngen x 2\nd y = x\n")
        report = validate(m)
        assert not report.passed
        failed = {name for name, ok, _ in report.checks if not ok}
        assert failed == {"simply_connected", "minimal"}

    def test_d_square_nonzero_detected(self):
        m = parse_model(
            "dim 9\ncomplete\ngen x 2\ngen y 3\ngen z 4\nd y = x^2\nd z = x*y\n")
        report = validate(m)
        failed = {name for name, ok, _ in report.checks if not ok}
        assert failed == {"d_squared_zero"}

    def test_corpus_plus_fixture_all_valid(self):
        for name in ("s2xs2", "not_pd"):
            assert validate(fixture_model(name)).passed


class TestCohomology:
    def test_cp2_table(self):
        table = cohomology_table(load_corpus_model("cp2"), 6)
        assert table.as_array(6) == [1, 0, 1, 0, 1, 0, 0]
        assert table.trusted_up_to == 6

    def test_s2xs3_table(self):
        table = cohomology_table(load_corpus_model("s2xs3"), 6)
        # S2 x S3: 1, 0, 1, 1, 0, 1, 0
        assert table.as_array(6) == [1, 0, 1, 1, 0, 1, 0]

    def test_su3_table(self):
        table = cohomology_table(load_corpus_model("su3"), 8)
        # exterior on degrees 3, 5: Poincare polynomial (1+t^3)(1+t^5)
        assert table.as_array(8) == [1, 0, 0, 1, 0, 1, 0, 0, 1]

    def test_declaration_order_does_not_change_results(self):
        a = parse_model("dim 5\ncomplete\ngen x 2\ngen y 3\ngen z 3\nd y = x^2\n")
        b = parse_model("dim 5\ncomplete\ngen z 3\ngen y 3\ngen x 2\nd y = x^2\n")
        ta = cohomology_table(a, 10).as_array(10)
        tb = cohomology_table(b, 10).as_array(10)
        assert ta == tb
        ra = check_poincare_duality(a)
        rb = check_poincare_duality(b)
        assert ra.fundamental_render == rb.fundamental_render

    def test_truncated_model_trust(self):
        m = parse_model("dim 2\ncomplete-to 6\ngen x 2\ngen y 3\nd y = x^2\n")
        table = cohomology_table(m, 9)
        assert table.trusted_up_to == 6
        assert table.as_array(9) == [1, 0, 1, 0, 0, 0, 0, 0, 0, 0]


class TestPoincareDuality:
    def test_s2_report(self):
        rep = check_poincare_duality(load_corpus_model("s2"))
        assert rep.formal_dim == 2
        assert rep.fundamental_render == "x"
        assert rep.pairing_ranks == {0: 1, 1: 0, 2: 1}
        assert rep.betti.as_array(2) == [1, 0, 1]

    def test_s2xs3_fundamental_class(self):
        rep = check_poincare_duality(load_corpus_model("s2xs3"))
        assert rep.fundamental_render == "x*z"
        assert rep.pairing_ranks == {0: 1, 1: 0, 2: 1, 3: 1, 4: 0, 5: 1}

    def test_no_monomial_cocycle_falls_back_to_the_representative(self):
        # d(x*a) = d(x*z) = x^3: omega is the representative of H^5
        rep = check_poincare_duality(fixture_model("s2xs3_twisted"))
        assert rep.fundamental_render == "-x*z + x*a"

    def test_s2xs2_pairing_is_full(self):
        rep = check_poincare_duality(fixture_model("s2xs2"))
        # H^2 is two dimensional, the pairing swaps the two classes
        assert rep.pairing_ranks[2] == 2
        assert rep.fundamental_render == "x*u"

    def test_free_even_generator_fails_above_dim(self):
        with pytest.raises(NotPoincareDuality) as ei:
            check_poincare_duality(fixture_model("not_pd"))
        assert ei.value.degree == 4
        assert "above the formal dimension" in str(ei.value)

    def test_wrong_top_dimension(self):
        m = parse_model("dim 3\ncomplete\ngen x 2\ngen y 3\nd y = x^2\n")
        with pytest.raises(NotPoincareDuality) as ei:
            check_poincare_duality(m)
        assert ei.value.degree == 3

    def test_betti_asymmetry_detected(self):
        # two 3-spheres wedge-like truncation: H^1 = 0 but H^2 asymmetric
        # simplest: formal dim 6 on exterior(3,3) has H^3 rank 2, H^6 = 1: PD holds
        # instead break symmetry with exterior(3) at dim 5: H^5 = 0 fails first
        m = parse_model("dim 5\ncomplete\ngen y 3\n")
        with pytest.raises(NotPoincareDuality) as ei:
            check_poincare_duality(m)
        assert ei.value.degree == 5

    def test_window_extends_to_requested_degree(self):
        rep = check_poincare_duality(load_corpus_model("s3"), n_max=15)
        assert rep.window == 15
        assert rep.betti.as_array(15)[3] == 1


def pd_model(name):
    if name in PD_FIXTURES:
        return fixture_model(name)
    if (BENCH_MODELS / (name + ".model")).exists():
        return parse_model((BENCH_MODELS / (name + ".model")).read_text(), name)
    return load_corpus_model(name)


# the generated models of test_families
GENERATED = {"U(4)/T^4": flag_model_text(4),
             **{"G(%d,%d)" % kn: grassmannian_model_text(*kn)
                for kn in ((2, 4), (2, 5), (3, 6))}}


def dense_rank(vectors, size):
    return dense_rref(vectors, len(vectors), size)[2]


def dense_duality(model):
    """The duality check recomputed by dense Fraction elimination, apart
    from the package's kernels: cocycles completing the boundaries B^k to
    a basis of Z^k represent H^k, their products are written as t omega
    plus a boundary, and the pairing rank in degree k is the rank of the
    coefficients t.  omega is the first monomial cocycle outside B^N, else
    the first vector outside B^N of the RREF kernel basis of d(N).
    Returns (pairing ranks, omega as a vector, a basis of B^N)."""
    N, gens = model.formal_dim, model.generators

    def cocycles(k):
        d = model.d_matrix(k)
        return dense_kernel(dense(d), d.rows, d.cols)

    def boundaries(k):
        return transpose(dense(model.d_matrix(k - 1)))

    def classes(k):
        size, span, reps = len(model.basis(k)), boundaries(k), []
        for z in cocycles(k):
            if dense_rank(span + [z], size) > dense_rank(span, size):
                span.append(z)
                reps.append(z)
        return reps

    size = len(model.basis(N))
    b_rows = boundaries(N)
    red, _, b_rank = dense_rref(b_rows, len(b_rows), size)
    b_basis = red[:b_rank]

    def outside(vec):
        return dense_rank(b_basis + [vec], size) > b_rank

    d_top = dense(model.d_matrix(N))
    units = ([Q(int(i == j)) for i in range(size)] for j in range(size)
             if not any(row[j] for row in d_top))
    omega = next((u for u in units if outside(u)), None)
    if omega is None:
        omega = next(z for z in cocycles(N) if outside(z))

    def top_coefficient(c):
        columns = b_basis + [omega, c]
        red, pivots, _ = dense_rref([[col[r] for col in columns] for r in range(size)],
                                    size, len(columns))
        assert pivots == tuple(range(b_rank + 1))   # c lies in B^N + Q omega
        return red[b_rank][-1]

    def element(k, vec):
        return {m: v for m, v in zip(model.basis(k), vec) if v}

    def as_vector(elem):
        return [elem.get(m, Q(0)) for m in model.basis(N)]

    ranks = {}
    for k in range(N + 1):
        left, right = classes(k), classes(N - k)
        grid = [[top_coefficient(as_vector(gca.elem_mul(
            gens, element(k, u), element(N - k, v)))) for v in right] for u in left]
        ranks[k] = dense_rank(grid, len(right))
    return ranks, omega, b_basis


class TestDenseDualityOracle:
    """check_poincare_duality against `dense_duality`: the pairing ranks,
    omega, and the functional, 1 on omega and 0 on B^N."""

    @pytest.mark.parametrize("name", corpus_models()
                             + sorted(p.stem for p in BENCH_MODELS.glob("*.model"))
                             + list(PD_FIXTURES) + list(GENERATED))
    def test_the_check_matches_the_dense_reference(self, name):
        model = (parse_model(GENERATED[name], name) if name in GENERATED
                 else pd_model(name))
        report = check_poincare_duality(model)
        ranks, omega, b_basis = dense_duality(model)
        basis = model.basis(model.formal_dim)
        assert report.pairing_ranks == ranks
        assert report.fundamental_class == {m: v for m, v in zip(basis, omega) if v}
        lam = report.top_functional

        def at(vec):
            return sum((lam.get(c, 0) * v for c, v in enumerate(vec)), Q(0))

        assert at(omega) == 1
        assert [at(b) for b in b_basis] == [0] * len(b_basis)

    def test_kernel_basis_runs_twice_only_without_a_monomial_cocycle(self, monkeypatch):
        # the annihilator, then d(N) only when no monomial cocycle is omega
        calls, real = [], sullivan.kernel_basis

        def counting(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(sullivan, "kernel_basis", counting)
        check_poincare_duality(fixture_model("s2xs2"))
        assert len(calls) == 1
        check_poincare_duality(fixture_model("s2xs3_twisted"))
        assert len(calls) == 3


ALL_MODELS = (corpus_models() + sorted(p.stem for p in BENCH_MODELS.glob("*.model"))
              + sorted(p.stem for p in FIXTURES.glob("*.model")))


class TestComplementPivots:
    """s_pivots(n) lists the monomials spanning the complement S^n of the
    cocycles, which the quotient and the duality functional are built on:
    the pivot columns of the dense oracle on d(n), on every base slice up
    to N + 1."""

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_pivots_match_the_dense_oracle(self, name):
        model = (fixture_model(name) if (FIXTURES / (name + ".model")).exists()
                 else pd_model(name))
        for n in range(model.formal_dim + 2):
            d = model.d_matrix(n)
            assert model.s_pivots(n) == dense_rref(dense(d), d.rows, d.cols)[1], n
