"""Free graded-commutative algebra layer: signs, bases, derivations.

Basis counts are checked against the Hilbert series
prod 1/(1 - t^d) over even generators times prod (1 + t^d) over odd ones,
computed here by integer polynomial arithmetic.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopspace import gca
from loopspace.errors import InternalCheckFailure, MissingImage
from loopspace.freeloop import build_free_loop_model
from loopspace.gca import (
    DerivationSpec,
    Generator,
    apply_derivation,
    basis_of_degree,
    elem_add_into,
    elem_mul,
    matrix_of_degree_slice,
    monomial_degree,
    monomial_word_length,
    normalize_product,
    render_element,
    render_monomial,
    slice_basis,
    word_length_degrees,
)
from loopspace.sections import DerivationComplex
from loopspace.sullivan import parse_model

Q = Fraction

# the workhorse fixture: one even low, two odd, one even high
GENS = (
    Generator("a", 2),
    Generator("b", 3),
    Generator("c", 3),
    Generator("e", 4),
)

# a degree +1 derivation on GENS (not a differential, just a derivation)
DSPEC = DerivationSpec(1, {
    0: {},
    1: {(2, 0, 0, 0): Q(1)},
    2: {},
    3: {(1, 1, 0, 0): Q(1)},
})


def hilbert_counts(degrees, top):
    poly = [1] + [0] * top
    for dg in degrees:
        if dg % 2:
            new = poly[:]
            for i in range(top - dg + 1):
                new[i + dg] += poly[i]
            poly = new
        else:
            for i in range(dg, top + 1):
                poly[i] += poly[i - dg]
    return poly


@st.composite
def monomials(draw, top=10):
    n = draw(st.integers(min_value=0, max_value=top))
    basis = basis_of_degree(GENS, n)
    assume(basis)
    return draw(st.sampled_from(basis))


@st.composite
def elements(draw):
    pairs = draw(st.lists(
        st.tuples(monomials(), st.integers(min_value=-3, max_value=3)),
        max_size=3))
    out = {}
    for mono, c in pairs:
        elem_add_into(out, {mono: Q(c)})
    return out


class TestNormalizeProduct:
    def test_even_factors_commute_plainly(self):
        assert normalize_product(GENS, (1, 0, 0, 0), (2, 0, 0, 1)) == (1, (3, 0, 0, 1))

    def test_odd_swap_produces_sign(self):
        # c * b = -b * c
        assert normalize_product(GENS, (0, 0, 1, 0), (0, 1, 0, 0)) == (-1, (0, 1, 1, 0))
        assert normalize_product(GENS, (0, 1, 0, 0), (0, 0, 1, 0)) == (1, (0, 1, 1, 0))

    def test_repeated_odd_factor_is_zero(self):
        assert normalize_product(GENS, (0, 1, 0, 0), (0, 1, 0, 0)) is None
        assert normalize_product(GENS, (0, 0, 0, 0), (0, 2, 0, 0)) is None

    def test_unit(self):
        u = (0, 0, 0, 0)
        assert normalize_product(GENS, u, (1, 1, 0, 0)) == (1, (1, 1, 0, 0))

    def test_two_swaps_cancel(self):
        # (b*c) * (b-free odd pair): e is even so no sign; push c past b needs one swap
        # here: m1 = b, m2 = b*c is zero regardless
        assert normalize_product(GENS, (0, 1, 0, 0), (0, 1, 1, 0)) is None

    @given(monomials(), monomials())
    @settings(max_examples=150, deadline=None)
    def test_graded_commutativity(self, m1, m2):
        d1 = monomial_degree(GENS, m1)
        d2 = monomial_degree(GENS, m2)
        sign = -1 if (d1 * d2) % 2 else 1
        lhs = elem_mul(GENS, {m1: Q(1)}, {m2: Q(1)})
        rhs = elem_add_into({}, elem_mul(GENS, {m2: Q(1)}, {m1: Q(1)}), Q(sign))
        assert lhs == rhs

    @given(elements(), elements(), elements())
    @settings(max_examples=80, deadline=None)
    def test_associativity(self, e1, e2, e3):
        lhs = elem_mul(GENS, elem_mul(GENS, e1, e2), e3)
        rhs = elem_mul(GENS, e1, elem_mul(GENS, e2, e3))
        assert lhs == rhs


class TestBasis:
    def test_low_degrees_by_hand(self):
        assert basis_of_degree(GENS, 0) == ((0, 0, 0, 0),)
        assert basis_of_degree(GENS, 1) == ()
        assert basis_of_degree(GENS, 2) == ((1, 0, 0, 0),)
        assert basis_of_degree(GENS, 3) == ((0, 0, 1, 0), (0, 1, 0, 0))
        # degree 6: b*c, a*e is degree 6? no, a*e = 6; a^3, a*? -> a^3, b*c, ... e alone is 4
        assert basis_of_degree(GENS, 6) == ((0, 1, 1, 0), (1, 0, 0, 1), (3, 0, 0, 0))

    def test_negative_degree_empty(self):
        assert basis_of_degree(GENS, -1) == ()

    def test_ascending_lex_no_duplicates(self):
        for n in range(0, 15):
            basis = basis_of_degree(GENS, n)
            assert list(basis) == sorted(basis)
            assert len(set(basis)) == len(basis)
            for mono in basis:
                assert monomial_degree(GENS, mono) == n
                for exp, g in zip(mono, GENS):
                    if g.degree % 2:
                        assert exp <= 1

    @given(st.lists(st.integers(min_value=2, max_value=7), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_counts_match_hilbert_series(self, degrees):
        gens = tuple(Generator("g%d" % i, dg) for i, dg in enumerate(degrees))
        top = 12
        poly = hilbert_counts(degrees, top)
        for n in range(top + 1):
            assert len(basis_of_degree(gens, n)) == poly[n]

    def test_word_length_slices(self):
        # sx has odd degree 1, so its exponent caps at 1; use an even
        # suspension sy (degree 2) to see higher word lengths
        gens = (
            Generator("y", 3),
            Generator("sy", 2, kind="suspended", partner=0),
        )
        assert monomial_word_length(gens, (1, 3)) == 3
        assert slice_basis(gens, 4, 2) == ((0, 2),)
        assert slice_basis(gens, 5, 1) == ((1, 1),)
        assert slice_basis(gens, 5, 0) == ()
        assert set(slice_basis(gens, 7)) == {(1, 2)}
        gens2 = (
            Generator("x", 2),
            Generator("sx", 1, kind="suspended", partner=0),
        )
        assert slice_basis(gens2, 4, 0) == ((2, 0),)
        assert slice_basis(gens2, 3, 1) == ((1, 1),)
        assert slice_basis(gens2, 4, 1) == ()

    def test_slice_basis_is_cached(self):
        gens = (
            Generator("x", 2),
            Generator("sx", 1, kind="suspended", partner=0),
        )
        assert slice_basis(gens, 3, 1) is slice_basis(gens, 3, 1)

    def test_word_length_slices_partition_the_basis(self):
        gens = (
            Generator("x", 2),
            Generator("y", 5),
            Generator("sx", 1, kind="suspended", partner=0),
            Generator("sy", 4, kind="suspended", partner=1),
        )
        for n in range(15):
            basis = basis_of_degree(gens, n)
            slices = [slice_basis(gens, n, k) for k in range(n + 1)]
            assert sorted(m for part in slices for m in part) == list(basis)
            for k, part in enumerate(slices):
                assert part == tuple(m for m in basis
                                     if monomial_word_length(gens, m) == k)


    def test_dual_generators_of_negative_degree(self):
        # the duals v' of the derivation complex, of degree -|v| and of the
        # kind the word length counts: at -n they list the exponent tuples
        # of degree n, and their words of length one are the unit tuples
        duals = tuple(Generator(g.name + "'", -g.degree, "suspended", i)
                      for i, g in enumerate(GENS))
        for n in range(13):
            assert basis_of_degree(duals, -n) == basis_of_degree(GENS, n), n
        assert basis_of_degree(duals, 1) == ()
        units = [tuple(int(i == j) for i in range(len(GENS))) for j in range(len(GENS))]
        degrees = word_length_degrees(duals, 1)
        assert degrees == (-4, -3, -2)
        found = [m for q in degrees for m in slice_basis(duals, q, 1)]
        assert sorted(found) == sorted(units) and len(found) == len(units)
        assert [m for q in range(-12, 1) for m in basis_of_degree(duals, q)
                if monomial_word_length(duals, m) == 1] == found


class TestElements:
    def test_scale_and_add(self):
        e = {(1, 0, 0, 0): Q(2)}
        assert elem_add_into({}, e, Q(0)) == {}
        acc = {(1, 0, 0, 0): Q(1)}
        elem_add_into(acc, e, Q(-1, 2))
        assert acc == {}


class TestDerivations:
    def test_missing_image_raises(self):
        spec = DerivationSpec(1, {0: {}})
        with pytest.raises(MissingImage):
            apply_derivation(GENS, spec, {(0, 1, 0, 0): Q(1)})

    def test_simple_images(self):
        # D(b) = a^2, D(a*b) = a*D(b) = a^3 (prefix a is even, no sign)
        assert apply_derivation(GENS, DSPEC, {(0, 1, 0, 0): Q(1)}) == {(2, 0, 0, 0): Q(1)}
        assert apply_derivation(GENS, DSPEC, {(1, 1, 0, 0): Q(1)}) == {(3, 0, 0, 0): Q(1)}

    def test_odd_prefix_sign(self):
        # D(b*e) = D(b)*e - b*D(e) = a^2*e - b*a*b, and b*a*b = 0 (b squared)
        out = apply_derivation(GENS, DSPEC, {(0, 1, 0, 1): Q(1)})
        assert out == {(2, 0, 0, 1): Q(1)}
        # D(c*e) = -c*(a*b) = -(a*c*b) = +a*b*c: the Koszul minus from the
        # odd prefix cancels against moving c past b
        out = apply_derivation(GENS, DSPEC, {(0, 0, 1, 1): Q(1)})
        assert out == {(1, 1, 1, 0): Q(1)}

    def test_exponent_factor(self):
        # suspension-style: s(x^2) = 2 x sx on the polynomial/suspended pair
        gens = (
            Generator("x", 2),
            Generator("sx", 1, kind="suspended", partner=0),
        )
        s = DerivationSpec(-1, {0: {(0, 1): Q(1)}, 1: {}})
        assert apply_derivation(gens, s, {(2, 0): Q(1)}) == {(1, 1): Q(2)}
        assert apply_derivation(gens, s, {(3, 0): Q(1)}) == {(2, 1): Q(3)}

    @given(monomials(top=8), monomials(top=8))
    @settings(max_examples=100, deadline=None)
    def test_leibniz_rule(self, m1, m2):
        e1 = {m1: Q(1)}
        e2 = {m2: Q(1)}
        lhs = apply_derivation(GENS, DSPEC, elem_mul(GENS, e1, e2))
        sign = -1 if (DSPEC.degree_shift * monomial_degree(GENS, m1)) % 2 else 1
        rhs = elem_mul(GENS, apply_derivation(GENS, DSPEC, e1), e2)
        elem_add_into(rhs, elem_mul(GENS, e1, apply_derivation(GENS, DSPEC, e2)), Q(sign))
        assert lhs == rhs

    def test_matrix_of_degree_slice(self):
        # domain degree 3 = (c, b), codomain degree 4 = (e, a^2); D kills c
        # and sends b to a^2, so the only entry is row a^2, column b
        assert basis_of_degree(GENS, 4) == ((0, 0, 0, 1), (2, 0, 0, 0))
        m = matrix_of_degree_slice(GENS, DSPEC, 3)
        assert m.rows == 2 and m.cols == 2
        assert m.entries == {(1, 1): Q(1)}

    def test_word_length_violation_caught(self):
        gens = (
            Generator("x", 2),
            Generator("sx", 1, kind="suspended", partner=0),
        )
        s = DerivationSpec(-1, {0: {(0, 1): Q(1)}, 1: {}})
        # s raises word length by one, so filtering by length 0 must explode
        with pytest.raises(InternalCheckFailure):
            matrix_of_degree_slice(gens, s, 4, word_length=0)


def reference_apply_derivation(gens, spec, elem):
    """The Leibniz sum term by term: (coeff * left) * image, then * right."""
    n = len(gens)
    out = {}
    for mono, coeff in elem.items():
        prefix_deg = 0
        for i in range(n):
            e = mono[i]
            if not e:
                continue
            left = mono[:i] + (e - 1,) + (0,) * (n - i - 1)
            right = (0,) * (i + 1) + mono[i + 1:]
            sign = -1 if (spec.degree_shift % 2 and prefix_deg % 2) else 1
            term = elem_mul(gens, {left: coeff * e * sign}, spec.images[i])
            elem_add_into(out, elem_mul(gens, term, {right: Q(1)}))
            prefix_deg += e * gens[i].degree
    return out


coefficients = st.sampled_from(sorted({Q(a, b) for a in range(-4, 5) if a for b in (1, 2, 3, 5)}))


@st.composite
def derivations(draw):
    """Homogeneous derivations on GENS: up to three rational terms per image."""
    shift = draw(st.integers(min_value=-2, max_value=3))
    images = {}
    for i, g in enumerate(GENS):
        basis = basis_of_degree(GENS, g.degree + shift)
        monos = draw(st.lists(st.sampled_from(basis), unique=True, min_size=1, max_size=3)) if basis else []
        images[i] = {m: draw(coefficients) for m in monos}
    return DerivationSpec(shift, images)


@st.composite
def rational_elements(draw):
    out = {}
    for mono, c in draw(st.lists(st.tuples(monomials(top=8), coefficients), min_size=1, max_size=3)):
        elem_add_into(out, {mono: c})
    return out


class TestFusedDerivation:
    @given(derivations(), rational_elements())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, spec, elem):
        assert apply_derivation(GENS, spec, elem) == reference_apply_derivation(GENS, spec, elem)

    @given(derivations(), monomials(top=8), monomials(top=8), coefficients, coefficients)
    @settings(max_examples=100, deadline=None)
    def test_leibniz_rule(self, spec, m1, m2, c1, c2):
        e1 = {m1: c1}
        e2 = {m2: c2}
        lhs = apply_derivation(GENS, spec, elem_mul(GENS, e1, e2))
        sign = -1 if (spec.degree_shift * monomial_degree(GENS, m1)) % 2 else 1
        rhs = elem_mul(GENS, apply_derivation(GENS, spec, e1), e2)
        elem_add_into(rhs, elem_mul(GENS, e1, apply_derivation(GENS, spec, e2)), Q(sign))
        assert lhs == rhs


def assert_no_zero(elem):
    assert all(v for v in elem.values()), elem


class TestNoStoredZero:
    """Every element the kernel returns holds only nonzero coefficients, so
    two equal elements compare equal as dicts."""

    @given(elements(), elements())
    @settings(max_examples=100, deadline=None)
    def test_elem_mul(self, e1, e2):
        assert_no_zero(elem_mul(GENS, e1, e2))
        # (a + b)(a - b) cancels the cross terms of even products
        assert_no_zero(elem_mul(GENS, elem_add_into(dict(e1), e2),
                                elem_add_into(dict(e1), e2, Q(-1))))

    @given(rational_elements(), rational_elements(), st.one_of(coefficients, st.just(Q(0))))
    @settings(max_examples=100, deadline=None)
    def test_elem_add_into(self, e1, e2, c):
        assert_no_zero(elem_add_into(dict(e1), e2, c))
        assert elem_add_into(dict(e1), e1, Q(-1)) == {}

    @given(derivations(), rational_elements())
    @settings(max_examples=100, deadline=None)
    def test_apply_derivation(self, spec, elem):
        assert_no_zero(apply_derivation(GENS, spec, elem))


def depth_first_basis(gens, n):
    """The monomials of degree n by a depth-first search over (exponent
    prefix, degree left), exponents pushed largest first so that they pop
    in ascending order: the enumerator that `basis_of_degree` replaced,
    kept as its oracle."""
    out, stack = [], [((), n)]
    while stack:
        prefix, left = stack.pop()
        if len(prefix) < len(gens):
            deg = gens[len(prefix)].degree
            top = min(1, left // deg) if deg % 2 else left // deg
            stack.extend((prefix + (e,), left - e * deg) for e in range(top, -1, -1))
        elif left == 0:
            out.append(prefix)
    return tuple(out)


ROOT = Path(__file__).resolve().parent.parent
MODEL_FILES = sorted([*(ROOT / "src" / "loopspace" / "models").glob("*.model"),
                      *(ROOT / "perfbench" / "models").glob("*.model"),
                      *(ROOT / "tests" / "fixtures").glob("*.model")])
THOUSAND = ("dim 2\ncomplete\ngen x 2\ngen y 3\nd y = x^2\n"
            + "".join("gen z%d 40\n" % i for i in range(1100)))


def renamed(gens):
    """gens with every name marked: equal degrees and kinds, so the same
    monomials, but a tuple no table is kept for yet."""
    return tuple(g._replace(name=g.name + "~") for g in gens)


class TestTablesMatchTheDepthFirstOracle:
    """basis_of_degree reads tables that grow degree by degree; in any
    order of degrees asked, they list what the depth-first search does."""

    @pytest.mark.parametrize("path", MODEL_FILES, ids=lambda p: p.stem)
    def test_every_generator_tuple_of_a_model(self, path):
        model = parse_model(path.read_text(encoding="utf-8"))
        tuples = (model.generators, build_free_loop_model(model).sgens,
                  DerivationComplex(model).sgens)
        degrees = list(range(-24, 25))
        random.Random(path.stem).shuffle(degrees)
        for gens in tuples:
            for fresh in (gens, renamed(gens)):
                for n in degrees:
                    assert basis_of_degree(fresh, n) == depth_first_basis(fresh, n), n

    def test_a_thousand_generators(self):
        gens = renamed(parse_model(THOUSAND).generators)
        degrees = list(range(-12, 13))
        random.Random(1100).shuffle(degrees)
        for n in degrees:
            assert basis_of_degree(gens, n) == depth_first_basis(gens, n), n

    def test_tables_grow_no_further_than_asked(self):
        gens = renamed(GENS)
        basis_of_degree(gens, 9)
        assert [len(table) for table in gca._TABLES[gens]] == [10] * (len(gens) + 1)
        basis_of_degree(gens, 4)
        assert len(gca._TABLES[gens][0]) == 10
        duals = tuple(g._replace(degree=-g.degree) for g in gens)
        basis_of_degree(duals, -6)
        assert len(gca._TABLES[duals][0]) == 7

    def test_generators_of_both_signs_are_refused(self):
        with pytest.raises(ValueError):
            basis_of_degree((Generator("x~", 2), Generator("y~", -3)), 2)


class TestRendering:
    def test_monomials(self):
        assert render_monomial(GENS, (0, 0, 0, 0)) == "1"
        assert render_monomial(GENS, (2, 1, 0, 0)) == "a^2*b"

    def test_elements(self):
        assert render_element(GENS, {}) == "0"
        assert render_element(GENS, {(1, 1, 0, 0): Q(3), (2, 0, 0, 0): Q(1)}) == "3*a*b + a^2"
        assert render_element(GENS, {(1, 0, 0, 0): Q(-1)}) == "-a"
        assert render_element(GENS, {(0, 0, 0, 0): Q(1, 2)}) == "1/2"
        # terms follow ascending lex monomial order, so b (0,1,0,0) leads
        assert render_element(
            GENS, {(0, 1, 0, 0): Q(1), (1, 0, 0, 0): Q(-2)}) == "b - 2*a"
