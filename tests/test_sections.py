"""Extended quotient loop complex, duality map, dual complex, rank tables.

Frozen numbers below were derived by hand before implementation: the
suspension images (-2 x sx for the 2-sphere, -3 x^2 sx and -4 x^3 sx for
the projective spaces), the dual differential values, the rank of the
rational homotopy of the identity self-equivalence component for spheres
and projective spaces, and the derivation homology tables.
"""

from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import loopspace
from loopspace import exactq, freeloop, gca, sections, sullivan
from loopspace.cli import _COMMANDS
from loopspace.errors import (
    ChainMapFailure,
    CompositionNotZero,
    DualMismatch,
    HodgeSumMismatch,
    IdentityViolation,
    InternalCheckFailure,
    MathMismatch,
    QuasiIsoFailure,
    SignIdentityFailure,
    SingularDuality,
    TheoremMismatch,
    TopClassCollapse,
    ValidationFailure,
    exit_code_for,
)
from loopspace.exactq import (SparseMatrix, add_term, cohomology_dim, echelon,
                              matrix_of_map)
from loopspace.freeloop import FreeLoopModel, build_free_loop_model, loop_betti
from loopspace.pdquotient import FiniteCdga, QuotientMap, build_quotient
from loopspace.sections import (
    DerivationComplex,
    DualSectionComplex,
    ExtendedQuotientModel,
    aut_rank_table,
    build_dual_complex,
    derivation_oracle,
    duality_map,
    extend_to_quotient_loop,
    low_degree_section_classes,
    verify_duality_quasi_iso,
    verify_rho_tensor_quasi_iso,
    VERIFY_CHECKS,
    verify_theorems,
)
from loopspace.sullivan import SullivanModel, check_poincare_duality, parse_model
from test_cli import run as run_cli

Q = Fraction
ONE = Q(1)
FIXTURES = Path(__file__).parent / "fixtures"
BENCH = Path(__file__).parent.parent / "perfbench" / "models"
CORPUS = ("s2", "s3", "cp2", "cp3", "s2xs3", "su3")


def model_path(name):
    """The file of a fixture, bench or shipped model."""
    for path in (FIXTURES / (name + ".model"), BENCH / (name + ".model")):
        if path.exists():
            return path
    return loopspace.corpus_path(name)


def get_model(name):
    return parse_model(model_path(name).read_text(encoding="utf-8"), name)


def setup(name):
    model = get_model(name)
    algebra, qmap = build_quotient(model, check_poincare_duality(model))
    eqm = extend_to_quotient_loop(model, algebra, qmap)
    return model, algebra, qmap, eqm


def sv_images(eqm):
    """Dbar(1 (x) sv_j) for each j, as {(class, sv monomial): coeff}."""
    nb = len(eqm.sgens)
    return [eqm.dbar_on_svmono(tuple(int(i == j) for i in range(nb)))
            for j in range(nb)]


def five_complexes(name):
    """(complex, word lengths, degrees) for each complex of a
    model: the model, its loop model, the extended complex, which is the
    quotient at word length 0, the dual complex and the derivations of
    the model."""
    model, _, _, eqm = setup(name)
    dual = build_dual_complex(eqm)
    lo, hi = dual.degree_range()
    graded = [0, 1, 2]
    return [
        (model, [None], range(-1, 9)),
        (eqm.flm, graded, range(-1, 9)),
        (eqm, graded, range(-1, 9)),
        (dual, [None], range(lo - 2, hi + 1)),
        (DerivationComplex(model), [None], range(-9, 1)),
    ]


def bump_first_square(monkeypatch, cx, cls, slices):
    """Of the (n, k) in slices, in order, take the first whose d(n, k) has
    a nonzero row c and whose d(n + 1, k) has a row, and patch cls so that
    d(n + 1, k) carries 1 more at (0, c).  Then d(n + 1, k) * d(n, k)
    gains row c of d(n, k) in its row 0, and no pair before it changes."""
    n, k, c = next((n, k, min(r for r, _ in cx.d_matrix(n, k).entries))
                   for n, k in slices
                   if cx.d_matrix(n, k).entries and cx.d_matrix(n + 1, k).rows)
    real = cls.slice_matrix

    def bumped(self, m, j):
        d = real(self, m, j)
        if (m, j) != (n + 1, k):
            return d
        entries = dict(d.entries)
        add_term(entries, (0, c), ONE)
        return SparseMatrix(d.rows, d.cols, entries)

    monkeypatch.setattr(cls, "slice_matrix", bumped)
    return n, k


class TestCochainComplexes:
    @pytest.mark.parametrize("name", ["cp2", "s2xs3"])
    def test_each_slice_is_built_once(self, name):
        for cx, ks, degrees in five_complexes(name):
            for n in degrees:
                for k in ks:
                    d = cx.d_matrix(n, k)
                    assert cx.d_matrix(n, k) is d, (type(cx).__name__, n, k)
                    assert cx.basis(n, k) is cx.basis(n, k), (type(cx).__name__, n, k)
                    assert (d.rows, d.cols) == (len(cx.basis(n + 1, k)),
                                                len(cx.basis(n, k)))

    @pytest.mark.parametrize("cls, k, method", [
        (FreeLoopModel, 1, "left_image"), (FreeLoopModel, 1, "twist"),
        (ExtendedQuotientModel, 0, "left_image"), (ExtendedQuotientModel, 1, "left_image"),
        (ExtendedQuotientModel, 1, "twist"), (DualSectionComplex, None, "left_image"),
        (DualSectionComplex, None, "twist"), (DerivationComplex, None, "left_image"),
        (DerivationComplex, None, "twist")],
        ids=lambda v: getattr(v, "__name__", str(v)))
    def test_an_image_outside_the_next_slice_is_an_internal_failure(
            self, monkeypatch, cls, k, method):
        """A complex of tensors fails the same way whether the stray term
        comes from its left_image (x) 1 or from its twist."""
        fault = {"left_image": {"outside": 1}, "twist": [("outside", "outside", 1)]}[method]
        cx = next(c for c, _, _ in five_complexes("cp2") if type(c) is cls)
        n = next(n for n in range(-9, 9) if cx.basis(n, k))
        monkeypatch.setattr(cls, method, lambda self, x: fault)
        with pytest.raises(InternalCheckFailure) as err:
            cx.slice_matrix(n, k)
        assert exit_code_for(err.value) == 4
        assert str(err.value) == (
            "%s differential left its slice: degree %d, word length %s"
            % (cls.__name__, n, k))

    @pytest.mark.parametrize("cls, parameters", [
        (SullivanModel, ("name", "generators", "differential", "formal_dim",
                         "completeness")),
        (FiniteCdga, ("name", "degrees", "labels", "products", "diff")),
        (FreeLoopModel, ("base", "generators", "loop_differential", "suspension")),
        (ExtendedQuotientModel, ("algebra", "qmap", "flm")),
        (DualSectionComplex, ("eqm", "word_length")),
        (DerivationComplex, ("model",))],
        ids=lambda v: getattr(v, "__name__", None))
    def test_a_constructor_takes_exactly_its_parameters(self, cls, parameters):
        """In this order, by position or keyword; an unknown keyword or a
        missing argument is a TypeError, and each new complex starts with
        an empty cache of its own, the quotient with no table built."""
        objects = [setup("cp2")[1]] + [c for c, _, _ in five_complexes("cp2")]
        cx = next(c for c in objects if type(c) is cls)
        fields = {p: getattr(cx, p) for p in parameters}
        built = cls(*fields.values())
        assert all(getattr(built, p) is v for p, v in fields.items())
        if isinstance(built, exactq.CochainComplex):
            assert built._cache == {} and built._cache is not cls(**fields)._cache
        else:
            assert set(vars(built)) == set(parameters)
        with pytest.raises(TypeError):
            cls(**fields, degre=1)
        for missing in parameters:
            with pytest.raises(TypeError):
                cls(**{p: v for p, v in fields.items() if p != missing})

    @pytest.mark.parametrize("name", ["cp2", "s2xs3"])
    def test_below_degree_zero_has_no_columns(self, name):
        for cx, ks, _ in five_complexes(name)[:3]:
            for k in ks:
                d = cx.d_matrix(-1, k)
                assert (d.rows, d.cols) == (len(cx.basis(0, k)), 0)
                assert not d.entries

    @pytest.mark.parametrize("name", ["cp2", "s2xs3"])
    def test_betti_is_the_cohomology_of_its_two_slices(self, name):
        for cx, ks, degrees in five_complexes(name):
            for n in degrees:
                for k in ks:
                    assert cx.betti(n, k) == cohomology_dim(
                        cx.d_matrix(n, k), cx.d_matrix(n - 1, k))

    def test_betti_matches_known_tables(self):
        model, _, _, eqm = setup("cp2")
        assert [model.betti(n) for n in range(6)] == [1, 0, 1, 0, 1, 0]
        assert [eqm.betti(n, 0) for n in range(6)] == [1, 0, 1, 0, 1, 0]
        assert [eqm.flm.betti(n, k) for n, k in eqm.flm.slices(5)] == [
            eqm.betti(n, k) for n, k in eqm.flm.slices(5)]


PD_MODELS = CORPUS + ("cp2xs3", "flag", "hp2", "s2cubed", "massey", "nonintegral",
                      "s2xs2", "s2xs3_twisted")


def class_by_class(sgens, degrees, k):
    """(basis, layout) of a slice over the classes of A, enumerated
    directly: class i, in index order, with the monomials of degree
    degrees[i] and word length k in sgens, at the running offset."""
    basis, layout = [], {}
    for i, q in enumerate(degrees):
        ms = gca.slice_basis(sgens, q, k) if q >= 0 else ()
        if ms:
            layout[i] = (len(basis), {m: p for p, m in enumerate(ms)})
            basis.extend((i, m) for m in ms)
    return tuple(basis), layout


def assert_shared_positions(sgens, basis, layout, k):
    """Each class's position table is the one gca shares for its slice."""
    for offset, positions in layout.values():
        m = basis[offset][1]
        assert positions is gca.slice_positions(
            sgens, gca.monomial_degree(sgens, m), k)


class TestTensorLayouts:
    """The extended and the dual complex list their slices class by class,
    each class with its suspended monomials, and lay them out at running
    offsets; every position table is the one `gca.slice_positions` shares,
    as rho (x) 1 and Du (x) 1 are placed by comparing those tables."""

    @pytest.mark.parametrize("name", PD_MODELS)
    def test_layouts_match_a_direct_enumeration(self, name):
        model, algebra, _, eqm = setup(name)
        degs, sgens = algebra.degrees, eqm.sgens
        for k in (0, 1, 2):
            for n in range(-1, model.formal_dim + 4):
                want = class_by_class(sgens, [n - p for p in degs], k)
                assert (eqm.basis(n, k), eqm.layout(n, k)) == want, (n, k)
                assert_shared_positions(sgens, eqm.basis(n, k), eqm.layout(n, k), k)
        for k in (0, 1):
            dual = DualSectionComplex(eqm, k)
            lo, hi = dual.degree_range()
            for m in range(lo - 2, hi + 2):
                want = class_by_class(sgens, [m + p for p in degs], k)
                assert (dual.basis(m), dual.layout(m)) == want, (m, k)
                assert_shared_positions(sgens, dual.basis(m), dual.layout(m), k)

    def test_no_left_factor_is_looked_up_below_degree_zero(self, monkeypatch):
        # the base model has no monomial below degree 0, so the loop model
        # and the derivations list none there without asking gca; the base
        # model's own slice d(-1), the generic path's, is built first
        model = get_model("su3")
        model.d_matrix(-1)
        looked_up, real = [], gca.basis_of_degree

        def counting(gens, n):
            looked_up.append((gens, n))
            return real(gens, n)

        monkeypatch.setattr(gca, "basis_of_degree", counting)
        verify_theorems(model, 26)
        assert [n for gens, n in looked_up if gens == model.generators and n < 0] == []
        assert any(gens == model.generators for gens, _ in looked_up)


class TestExtendedComplex:
    def test_s2_suspension_image(self):
        _, _, _, eqm = setup("s2")
        assert [(g.name, g.degree) for g in eqm.sgens] == [("sx", 1), ("sy", 2)]
        # Dbar(1 (x) sy) = -2 x (x) sx
        assert sv_images(eqm) == [{}, {(1, (1, 0)): Q(-2)}]

    def test_projective_suspension_images(self):
        _, _, _, eqm = setup("cp2")
        assert sv_images(eqm) == [{}, {(2, (1, 0)): Q(-3)}]   # -3 x^2 (x) sx
        _, _, _, eqm = setup("cp3")
        assert sv_images(eqm) == [{}, {(3, (1, 0)): Q(-4)}]   # -4 x^3 (x) sx

    def test_odd_generators_suspend_to_cocycles(self):
        _, _, _, eqm = setup("su3")
        assert sv_images(eqm) == [{}, {}]

    def test_s2xs2_suspension_images(self):
        _, alg, _, eqm = setup("s2xs2")
        # classes are (1, u, x, x*u); sy goes to -2 x sx, sv to -2 u su
        assert sv_images(eqm) == [{}, {}, {(2, (1, 0, 0, 0)): Q(-2)},
                                  {(1, (0, 1, 0, 0)): Q(-2)}]

    def test_slice_basis_ordering(self):
        _, alg, _, eqm = setup("s2")
        # degree 2, word length 1: a_0 (x) sy and a_1=x would need degree 0
        assert eqm.basis(2, 1) == ((0, (0, 1)),)
        assert eqm.basis(3, 1) == ((1, (1, 0)),)
        assert eqm.betti(1, 1) == 1   # the class 1 (x) sx

    def test_extension_checks_pass_on_corpus(self):
        # the walk raises if Dbar^2 != 0 or rho (x) 1 fails to intertwine
        # on a slice; reaching here is the assertion
        for name in CORPUS:
            _, algebra, _, eqm = setup(name)
            assert verify_rho_tensor_quasi_iso(eqm, algebra.top_degree + 2) > 0

    def test_tampered_diff_breaks_the_intertwining(self):
        model = get_model("s2xs3")
        algebra, qmap = build_quotient(model, check_poincare_duality(model))
        algebra.diff[3] = {4: Q(2)}   # d y = 2 x^2 in A only
        with pytest.raises(ChainMapFailure):
            verify_rho_tensor_quasi_iso(extend_to_quotient_loop(model, algebra, qmap),
                                        algebra.top_degree + 2)

    def test_rho_tensor_quasi_iso_slice_counts(self):
        _, _, _, eqm = setup("s2")
        # one populated (degree, word length) slice pair per nonempty basis
        slices = sections._rho_quasi_iso(eqm, 6, 0) + verify_rho_tensor_quasi_iso(eqm, 6)
        recount = sum(
            1 for n in range(7) for k in range(n + 1)
            if eqm.flm.basis(n, k) or eqm.basis(n, k))
        assert slices == len(eqm.flm.slices(6)) == recount == 18

    @pytest.mark.parametrize("name", CORPUS + (
        "cp2xs3", "flag", "hp2", "s2cubed", "massey", "s2xs2", "s2xs3_twisted"))
    def test_extended_slices_are_empty_off_the_walk(self, name):
        # A^p != 0 only where the base has monomials of degree p, so the
        # loop model's populated slices cover the extended complex's
        model, _, _, eqm = setup(name)
        top = 12 if name == "s2cubed" else model.formal_dim + 10
        walk = set(eqm.flm.slices(top))
        off = [(n, k) for n in range(top + 1) for k in range(n + 2)
               if (n, k) not in walk]
        assert off and not any(eqm.basis(n, k) for n, k in off)

    def test_dbar_of_a_suspended_monomial_is_built_once(self, monkeypatch):
        built = []
        real = ExtendedQuotientModel._dbar_on_svmono

        def counting(self, t):
            built.append(t)
            return real(self, t)

        monkeypatch.setattr(ExtendedQuotientModel, "_dbar_on_svmono", counting)
        eqm = verify_theorems(get_model("s2cubed"), 11).eqm
        # one build per distinct t; every later call reads the memo, and
        # no t is read only by a slice above the window
        assert len(built) == len(set(built)) == 364
        assert all(eqm.dbar_on_svmono(t) is eqm.dbar_on_svmono(t) for t in built)
        assert len(built) == 364


    def test_the_walk_builds_nothing_above_the_window(self):
        # each slice's rho (x) 1 square is the one below it, and each
        # d d test is its betti's, so no matrix above the window is built,
        # and no basis above the codomain of the top slice
        rep = verify_theorems(get_model("s2cubed"), 11)
        for cache in (rep.eqm._cache, rep.flm._cache):
            keys = [key for key in cache if key[0] in ("d", "rho", "basis", "layout")]
            assert max(key[1] for key in keys) == 12
            assert [key for key in keys
                    if key[1] > (11 if key[0] in ("d", "rho") else 12)] == []


class TestWordLengthZeroWalk:
    """rho on LV is the word-length zero slice of rho (x) 1, and its walk
    compares A's Betti number with one other, the loop model's at word
    length zero, which is the base model's own."""

    def test_a_wrong_base_betti_number_fails(self, monkeypatch):
        model, _, _, eqm = setup("s2")
        real = model.betti
        monkeypatch.setattr(model, "betti", lambda n, k=None: real(n, k) + (n == 4))
        with pytest.raises(QuasiIsoFailure,
                           match=r"^H\^4: model gives 1, quotient gives 0$"):
            sections._rho_quasi_iso(eqm, 6, 0)

    def test_a_loop_slice_fault_at_word_length_zero_fails(self, monkeypatch):
        # d y = x^2 loses its one term in the loop model's d (x) 1; the
        # slice (3, 0) is LV's own, so the k = 0 walk passes, and the
        # fault shows where y sits beside a suspended factor
        model = get_model("s2")
        y = model.basis(3)[0]
        real = FreeLoopModel.left_image
        monkeypatch.setattr(FreeLoopModel, "left_image",
                            lambda self, b: None if b == y else real(self, b))
        got = []
        with pytest.raises(QuasiIsoFailure) as err:
            verify_theorems(model, verdicts=got)
        assert str(err.value) == "slice (4, 1): induced map has rank 0, expected 1"
        assert exit_code_for(err.value) == 3
        passed = (("simply_connected", "minimal", "d_squared_zero")
                  + VERIFY_CHECKS[:VERIFY_CHECKS.index("loop_extension_quasi_iso")])
        assert got == [(name, True) for name in passed]
        assert passed[-1] == "quotient_quasi_iso"


def reference_dbar_sv(eqm):
    """Dbar(1 (x) sv_j) for each j, from D(sv_j) = sum c b * sv_j2 of the
    loop model: sum c rho(b) (x) sv_j2, as a list over j of {(class, sv_j2
    monomial): coeff}."""
    nb = len(eqm.flm.base.generators)
    out = []
    for j in range(nb):
        acc = {}
        for mono, c in eqm.flm.loop_differential.images[nb + j].items():
            b, s = mono[:nb], mono[nb:]
            for ai, v in eqm.qmap.apply({b: ONE}).items():
                add_term(acc, (ai, s), c * v)
        out.append(acc)
    return out


def leibniz_dbar(eqm, dbar_sv, i, m):
    """Dbar(a_i (x) m) by Leibniz on the suspended factors of m.

    Position j, with exponent e and factors of degree p before it, gives
    e (-1)^p left * Dbar(1 (x) sv_j) * right, left holding those factors
    and e - 1 copies of sv_j; the class a_l of an image term moves to the
    front past left at the cost (-1)^(|left| |a_l|).  Then a_i multiplies
    in with (-1)^|a_i|, beside d(a_i) (x) m.
    """
    algebra, sgens = eqm.algebra, eqm.sgens
    degs, nb = algebra.degrees, len(sgens)
    out = {(r, m): c for r, c in algebra.image(i).items()}
    p = 0
    for j, e in enumerate(m):
        if not e:
            continue
        left = {m[:j] + (e - 1,) + (0,) * (nb - j - 1): ONE}
        right = {(0,) * (j + 1) + m[j + 1:]: ONE}
        left_deg = p + (e - 1) * sgens[j].degree
        for (l, s), c in dbar_sv[j].items():
            words = gca.elem_mul(sgens, gca.elem_mul(sgens, left, {s: ONE}), right)
            k = e * (-1) ** (p + left_deg * degs[l] + degs[i])
            for t, w in words.items():
                for r, a in algebra.product(i, l).items():
                    add_term(out, (r, t), k * c * w * a)
        p += e * sgens[j].degree
    return out


class TestExtendedDifferential:
    """Dbar read off the loop model's D(t) against the Leibniz formula."""

    @pytest.mark.parametrize("name", CORPUS + (
        "cp2xs3", "flag", "hp2", "s2cubed", "massey", "s2xs2", "s2xs3_twisted"))
    def test_every_slice_matches_the_leibniz_formula(self, name):
        model, _, _, eqm = setup(name)
        dbar_sv = reference_dbar_sv(eqm)
        assert sv_images(eqm) == dbar_sv
        top = 10 if name == "s2cubed" else model.formal_dim + 8
        for n in range(-1, top + 2):
            for k in range(n + 3):
                want = matrix_of_map(
                    eqm.basis(n, k), eqm.basis(n + 1, k),
                    lambda pair: leibniz_dbar(eqm, dbar_sv, *pair),
                    "Leibniz image left its slice at degree %d" % n)
                assert eqm.d_matrix(n, k).entries == want.entries, (n, k)

    @pytest.mark.parametrize("cell", [
        (0, 0, 0), (2, 0, 0), (3, 0, 0), (3, 0, 1), (3, 1, 0), (3, 1, 1),
        (4, 0, 0), (5, 0, 0), (5, 0, 1)])
    def test_bumped_projection_breaks_the_intertwining(self, cell):
        model = get_model("s2xs3")
        algebra, qmap = build_quotient(model, check_poincare_duality(model))
        k, row, col = cell
        basis, classes = model.basis(k), algebra.basis(k)
        assert row < len(classes) and col < len(basis)
        add_term(qmap.image.setdefault(basis[col], {}), classes[row], ONE)
        with pytest.raises(ChainMapFailure):
            verify_rho_tensor_quasi_iso(extend_to_quotient_loop(model, algebra, qmap),
                                        model.formal_dim + 4)

    def test_suspension_image_of_word_length_two_is_refused(self):
        model = get_model("s2")
        algebra, qmap = build_quotient(model, check_poincare_duality(model))
        flm = build_free_loop_model(model)
        nb = len(model.generators)
        # D(sy) = sx * sy: the right degree, 3, but two suspended factors
        flm.loop_differential.images[nb + 1] = {(0, 0, 1, 1): ONE}
        with pytest.raises(InternalCheckFailure, match="word length != 1"):
            extend_to_quotient_loop(model, algebra, qmap, flm)


def du_block(dm, k):
    """The degree-k block of Du, from the word-length 0 dual complex dm:
    Du (x) 1 from the slice (k, 0) of A (x) L sV, which is A in degree k,
    to the degree N - k classes of A-dual."""
    return sections._du_tensor_matrix(dm.eqm, dm, k)


def bare_extension(alg):
    """A (x) L sV for a hand-built algebra A, over the loop model of S2
    with an empty projection: its word-length 0 slices are A with d_A."""
    return ExtendedQuotientModel(alg, QuotientMap({}),
                                 build_free_loop_model(get_model("s2")))


class TestDualityMap:
    def test_s2_blocks(self):
        _, _, _, eqm = setup("s2")
        dm = duality_map(eqm)
        assert dm.singular_degrees == ()
        assert du_block(dm, 0).entries == {(0, 0): ONE}
        assert du_block(dm, 2).entries == {(0, 0): ONE}
        assert du_block(dm, 1).entries == {}

    def test_s2xs2_swap_pairing(self):
        _, _, _, eqm = setup("s2xs2")
        dm = duality_map(eqm)
        assert not dm.singular_degrees
        # classes u, x pair against each other, not themselves
        assert du_block(dm, 2).entries == {(1, 0): ONE, (0, 1): ONE}

    def test_s2xs3_is_singular_at_the_cochain_level(self):
        _, _, _, eqm = setup("s2xs3")
        dm = duality_map(eqm)
        assert dm.singular_degrees == (1, 2, 3, 4)
        # Du(y) = 0: x*y died in the quotient, so y pairs with nothing,
        # yet Du still induces isomorphisms on cohomology (no raise here)
        verify_duality_quasi_iso(eqm, dm)
        assert du_block(dm, 3).rows == 1 and du_block(dm, 3).cols == 2
        assert du_block(dm, 3).entries == {(0, 0): ONE}

    def test_su3_blocks_carry_the_koszul_sign(self):
        _, _, _, eqm = setup("su3")
        dm = duality_map(eqm)
        assert du_block(dm, 3).entries == {(0, 0): ONE}    # Du(x3) = x5'
        assert du_block(dm, 5).entries == {(0, 0): Q(-1)}  # Du(x5) = -x3'

    def test_cohomologically_singular_map_rejected(self):
        # a "duality" algebra where the middle class pairs to zero: the
        # chain property holds (d = 0) but H^2 dies under Du
        alg = FiniteCdga(
            name="bad",
            degrees=(0, 2, 4),
            labels=("1", "x", "t"),
            products={
                (0, 0): {0: ONE}, (0, 1): {1: ONE}, (0, 2): {2: ONE},
                (1, 0): {1: ONE}, (2, 0): {2: ONE},
            },
            diff={},
        )
        eqm = bare_extension(alg)
        dm = duality_map(eqm)
        with pytest.raises(SingularDuality):
            verify_duality_quasi_iso(eqm, dm)

    def test_inconsistent_structure_breaks_the_chain_property(self):
        # x with d(x) = y, x*y = top, but x*x = 0: Leibniz fails, and the
        # duality map check sees it as a chain property violation
        alg = FiniteCdga(
            name="bad",
            degrees=(0, 2, 3, 5),
            labels=("1", "x", "y", "t"),
            products={
                (0, 0): {0: ONE}, (0, 1): {1: ONE}, (0, 2): {2: ONE},
                (0, 3): {3: ONE},
                (1, 0): {1: ONE}, (2, 0): {2: ONE}, (3, 0): {3: ONE},
                (1, 2): {3: ONE}, (2, 1): {3: ONE},
            },
            diff={1: {2: ONE}},
        )
        with pytest.raises(ChainMapFailure):
            duality_map(bare_extension(alg))


def delta_of(dual):
    """delta read back from the slices of the dual complex over its degree
    range, as {(class, generator): {(class, generator): Fraction}}, a
    suspended monomial of word length one named by its generator."""
    lo, hi = dual.degree_range()
    out = {}
    for n in range(lo, hi + 1):
        dom, cod = dual.basis(n), dual.basis(n + 1)
        for (r, c), v in dual.d_matrix(n).entries.items():
            (j, m), (l, t) = dom[c], cod[r]
            out.setdefault((j, m.index(1)), {})[(l, t.index(1))] = v
    return out


def silence(dual):
    """Give a built dual complex the zero differential: its left_image and
    twist return nothing, and its slices are dropped."""
    dual.left_image = lambda j: None
    dual.twist = lambda pair: ()
    dual._cache.clear()


class TestDualComplex:
    def test_s2_delta(self):
        _, alg, _, eqm = setup("s2")
        dual = build_dual_complex(eqm)
        # delta(x' (x) sy) = -2 1' (x) sx, nothing else
        assert delta_of(dual) == {(1, 1): {(0, 0): Q(-2)}}
        assert dual.degree_range() == (-1, 2)
        assert dual.lemma_slices == 4

    def test_cp2_delta(self):
        _, alg, _, eqm = setup("cp2")
        dual = build_dual_complex(eqm)
        # delta((x^2)' (x) sy) = -3 1' (x) sx
        assert delta_of(dual) == {(2, 1): {(0, 0): Q(-3)}}

    def test_s2xs3_delta_handles_the_singular_block(self):
        _, alg, _, eqm = setup("s2xs3")
        dual = build_dual_complex(eqm)
        # five nonzero values, all derived by hand from the expansion
        # formula; (4, j) are the (x^2)' rows where Du is not invertible
        assert delta_of(dual) == {
            (1, 1): {(0, 0): Q(-2)},
            (4, 0): {(3, 0): Q(-1)},
            (4, 1): {(1, 0): Q(-2), (3, 1): Q(-1)},
            (4, 2): {(3, 2): Q(-1)},
            (5, 1): {(2, 0): Q(2)},
        }
        assert dual.lemma_slices == 7

    def test_square_identity_verified_on_all_corpus_models(self):
        # build_dual_complex raises SignIdentityFailure when the square
        # identity delta o (Du (x) 1) = (-1)^N (Du (x) 1) o Dbar fails on
        # any slice; it must pass everywhere, including the singular case
        for name in CORPUS + ("s2xs2",):
            _, alg, _, eqm = setup(name)
            dual = build_dual_complex(eqm)
            assert dual.lemma_slices > 0, name

    def test_duality_quasi_iso_on_corpus(self):
        for name in CORPUS:
            _, alg, _, eqm = setup(name)
            dual = build_dual_complex(eqm)
            assert verify_duality_quasi_iso(eqm, dual) > 0, name

    def test_quasi_iso_check_reuses_the_du_tensor_matrices(self):
        # Du (x) 1 is built once per degree, by the square identity check
        _, alg, _, eqm = setup("s2xs3")
        dual = build_dual_complex(eqm)
        built = {key: id(m) for key, m in dual._cache.items() if key[0] == "du"}
        assert len(built) == dual.lemma_slices + 1
        verify_duality_quasi_iso(eqm, dual)
        assert {key: id(m) for key, m in dual._cache.items() if key[0] == "du"} == built

    def test_cleared_delta_is_detected(self):
        _, alg, _, eqm = setup("s2")
        dual = build_dual_complex(eqm)
        silence(dual)
        with pytest.raises(DualMismatch):
            verify_duality_quasi_iso(eqm, dual)


def rho_derivation_differential(model, pd, algebra, qmap):
    """D on Der(LV, A; rho) = Hom(V, A): {(j, i): D theta_{j,i}} with
    theta_{j,i} the rho-derivation sending v_j to a_i and the other
    generators to 0, and D theta = d_A o theta - (-1)^|theta| theta o d,
    each as {(h, l): coefficient of a_l in (D theta)(v_h)}.  A
    rho-derivation theta is rho o theta~ for the derivation theta~ of LV
    sending v_j to a lift of a_i: its own monomial below the top degree,
    the fundamental class in it."""
    gens, d = model.generators, model.differential
    top = algebra.size - 1
    lift = {i: {m: ONE} for m, img in qmap.image.items()
            for i, v in img.items() if i != top and v == ONE}
    lift[top] = pd.fundamental_class
    assert len(lift) == algebra.size
    out = {}
    for j in range(len(gens)):
        for i, deg in enumerate(algebra.degrees):
            deg -= gens[j].degree
            spec = gca.DerivationSpec(deg, {t: lift[i] if t == j else {}
                                            for t in range(len(gens))})
            dtheta = {}
            for h in range(len(gens)):
                img = gca.elem_add_into({}, qmap.apply(gca.apply_derivation(
                    gens, spec, d.images.get(h, {}))), ONE if deg % 2 else -ONE)
                if h == j:
                    gca.elem_add_into(img, algebra.image(i))
                dtheta.update(((h, l), v) for l, v in img.items())
            out[(j, i)] = dtheta
    return out


class TestRhoDerivations:
    @pytest.mark.parametrize("name", CORPUS + (
        "cp2xs3", "flag", "hp2", "s2cubed", "massey", "nonintegral", "s2xs2",
        "s2xs3_twisted"))
    def test_dual_complex_is_the_dual_of_the_rho_derivations(self, name):
        # delta(a_l' (x) sv_h) has coefficient (-1)^(|a_l| + |a_i|) times
        # that of theta_{h,l} in D theta_{j,i} on a_i' (x) sv_j, support
        # and sign, on every model that passes duality
        model = get_model(name)
        pd = check_poincare_duality(model)
        algebra, qmap = build_quotient(model, pd)
        dual = build_dual_complex(extend_to_quotient_loop(model, algebra, qmap))
        D = rho_derivation_differential(model, pd, algebra, qmap)
        degs = algebra.degrees
        transposed = {}
        for (j, i), dtheta in D.items():
            for (h, l), v in dtheta.items():
                transposed.setdefault((l, h), {})[(i, j)] = (
                    -v if (degs[l] + degs[i]) % 2 else v)
        delta = delta_of(dual)
        assert delta == transposed
        assert delta or name in ("s3", "su3")


class TestRankTables:
    def test_aut_ranks(self):
        expected = {
            "s2": {2: 1},
            "s3": {2: 1},
            "cp2": {2: 1, 4: 1},
            "cp3": {2: 1, 4: 1, 6: 1},
            "s2xs3": {2: 2},
            "su3": {1: 1, 2: 1, 4: 1},
            "s2xs2": {2: 2},
        }
        for name, nonzero in expected.items():
            _, alg, _, eqm = setup(name)
            table = aut_rank_table(eqm, 8)
            assert {n: v for n, v in table.entries.items() if v} == nonzero, name
            assert table.trusted_up_to == 8
            dual = build_dual_complex(eqm)
            verify_duality_quasi_iso(eqm, dual)
            assert [dual.betti(n) for n in range(1, 9)] == table.as_array(8)[1:], name

    def test_low_degree_classes_reported_separately(self):
        _, _, _, eqm = setup("s2xs3")
        assert low_degree_section_classes(eqm) == {1: 1, 2: 1, 3: 0, 4: 3, 5: 1}
        _, _, _, eqm = setup("s2")
        assert low_degree_section_classes(eqm) == {1: 1, 2: 0}

    def test_derivation_oracle(self):
        expected = {
            "s2": {3: 1},
            "s3": {3: 1},
            "cp2": {3: 1, 5: 1},
            "cp3": {3: 1, 5: 1, 7: 1},
            "s2xs3": {1: 1, 3: 2},
            "su3": {2: 1, 3: 1, 5: 1},
            "s2xs2": {1: 2, 3: 2},
        }
        for name, nonzero in expected.items():
            model = get_model(name)
            table = derivation_oracle(model, 9)
            assert {n: v for n, v in table.entries.items() if v} == nonzero, name

    def test_oracle_shift_matches_aut_ranks(self):
        # H_{n+1} of the derivation complex equals the section rank at n
        for name in CORPUS + ("s2xs2",):
            model, alg, _, eqm = setup(name)
            aut = aut_rank_table(eqm, 6)
            oracle = derivation_oracle(model, 7)
            for n in range(1, 7):
                assert aut.get(n) == oracle.get(n + 1), (name, n)

    def test_tampered_dual_cross_check_fires(self, monkeypatch):
        # aut-ranks compares the aut ranks with the dual complex through
        # the dual quasi-iso check, on its dual_complex_agreement line
        real = sections.build_dual_complex

        def tampered(eqm):
            dual = real(eqm)
            silence(dual)
            return dual

        monkeypatch.setattr(sections, "build_dual_complex", tampered)
        with pytest.raises(DualMismatch):
            verify_theorems(get_model("s2"), checks=("dual_complex_agreement",))
        code, out = run_cli(["aut-ranks", str(loopspace.corpus_path("s2"))])
        assert code == 3
        assert out.endswith("verdict square_identity: pass\nerror: degree 2: "
                            "section complex gives 0, dual complex gives 1\n"
                            "exit-code: 3\n")
        assert "dual_complex_agreement" not in out

    def test_trust_clamps_for_truncated_models(self):
        text = ("dim 4\ncomplete-to 6\ngen x 2\ngen y 5\nd y = x^3\n")
        model = parse_model(text, "trunc")
        algebra, qmap = build_quotient(model, check_poincare_duality(model, 6))
        eqm = extend_to_quotient_loop(model, algebra, qmap)
        aut = aut_rank_table(eqm, 5)
        assert aut.trusted_up_to == 1    # c - 1 - N = 6 - 1 - 4
        oracle = derivation_oracle(model, 5)
        assert oracle.trusted_up_to == 2  # c - N


def lowered_row_rank(rows, cols):
    """freeloop.rank, which only the row pass of loop_betti calls, one
    lower on the transposed slices of shape rows x cols; on S2xS3 at its
    default window d(4, 2), 2 x 3 and of rank 2, is the only such slice."""
    real = freeloop.rank

    def lowered(m):
        return real(m) - ((m.rows, m.cols) == (rows, cols))
    return lowered


def overcleared_loop_slice(n, k):
    """CochainComplex._betti for the loop model with d(n, k) ranked, before
    the real `_betti` reads it, with every column cleared, as if each were
    a combination of the others: its cleared rank is 0."""
    real = FreeLoopModel._betti

    def overcleared(self, m, j):
        if (m, j) == (n, k):
            d = self.d_matrix(n, k)
            exactq.rank(d, SimpleNamespace(_pivots=b"\x01" * d.cols))
        return real(self, m, j)
    return overcleared


def negated_dual_twist():
    """DualSectionComplex.twist with every term negated: on S2, where d_A
    is 0, delta becomes -delta, which still squares to 0."""
    real = DualSectionComplex.twist

    def negated(self, pair):
        return [(l, t, -v) for l, t, v in real(self, pair)]
    return negated


def zero_du_tensor():
    """sections._du_tensor_matrix with Du (x) 1 at word length one zero,
    of the right shape: both sides of the square identity vanish, and
    only the rank it induces is wrong.  Du on A, word length zero, is
    left as it is."""
    real = sections._du_tensor_matrix

    def zero(eqm, dual, n):
        du = real(eqm, dual, n)
        return SparseMatrix(du.rows, du.cols) if dual.word_length else du
    return zero


def bumped_projection(degree):
    """sections.build_quotient with 1 added to the cell of rho at the
    first monomial and the first class of A of the degree, after A is
    built from the table as it was: A keeps its axioms, and rho no longer
    commutes with d where that monomial is a boundary."""
    real = sections.build_quotient

    def bumped(model, pd_report):
        algebra, qmap = real(model, pd_report)
        add_term(qmap.image.setdefault(model.basis(degree)[0], {}),
                 algebra.basis(degree)[0], ONE)
        return algebra, qmap
    return bumped


def doubled_unit_product():
    """FiniteCdga.product with 1 * a_1 = 2 a_1, every other pair read as
    it is: a table that breaks the unit axiom of A and nothing before."""
    real = FiniteCdga.product

    def doubled(self, i, j):
        return {1: 2} if (i, j) == (0, 1) else real(self, i, j)
    return doubled


def negated_codiff():
    """FiniteCdga.codiff with every coefficient negated: -d' still squares
    to 0, and the chain property d' o Du = +-Du o d_A breaks wherever
    Du o d_A != 0, as on the massey fixture."""
    real = FiniteCdga.codiff

    def negated(self, j):
        return {r: -v for r, v in real(self, j).items()}
    return negated


def negated_extended_twist():
    """ExtendedQuotientModel.twist with every term negated: Dbar is then
    d_A (x) 1 minus the twist, which on S2, where d_A is 0, still squares
    to 0 and keeps every Betti number; the twist is empty at word length
    0, so rho itself is untouched."""
    real = ExtendedQuotientModel.twist

    def negated(self, pair):
        return [(i, t, -v) for i, t, v in real(self, pair)]
    return negated


# One injected fault per row, each made by patching one function: the
# check that must fail first, the command whose checks run, in the order
# of `cli._COMMANDS`, on the model, the patch, and the error's class,
# exit code and message.  Without the patch
# TopClassCollapse cannot fire, as omega is a cocycle outside S^N + B^N;
# the zero functional here is the one way to reach it.  A zero pairing
# makes Du = 0, which keeps the chain property and fails the isomorphism
# on H^0.  On S2 every degree-preserving rho commutes with d, as d_A is 0
# and d lands above the formal dimension, so the quotient's fault is on
# S2xS3, where d y = x^2 stays in A.  A negated d' shows only where
# Du o d_A != 0, which holds on no model but the non-formal massey fixture.
# dual_complex_agreement runs in aut-ranks only, on the object that
# dual_complex_quasi_iso reads in verify.  An empty theta o d leaves
# d o theta, still a differential, with other homology.
FAULTS = [
    ("poincare_duality", "verify", "s2", sullivan, "kernel_basis", lambda m: [{}],
     TopClassCollapse, 4, "functional evaluates to 0 on the fundamental class"),
    ("structure_identities", "verify", "s2", FiniteCdga, "product",
     doubled_unit_product(), IdentityViolation, 3, "unit axiom fails at a_1"),
    ("quotient_quasi_iso", "verify", "s2xs3", sections, "build_quotient",
     bumped_projection(4), ChainMapFailure, 4,
     "projection fails to commute with d on degree 3"),
    ("loop_extension_quasi_iso", "verify", "s2", ExtendedQuotientModel, "twist",
     negated_extended_twist(), ChainMapFailure, 4,
     "rho (x) 1 fails to commute with the differentials on slice (2, 1)"),
    ("duality_chain_property", "verify", "massey", FiniteCdga, "codiff",
     negated_codiff(), ChainMapFailure, 4,
     "duality map fails the chain property at degree 3"),
    ("duality_cohomology_iso", "verify", "s2", FiniteCdga, "pairing",
     lambda self, i: {}, SingularDuality, 3,
     "duality map is not an isomorphism on H^0 (rank 0 of 1)"),
    ("square_identity", "verify", "s2", DualSectionComplex, "twist",
     negated_dual_twist(), SignIdentityFailure, 3,
     "square identity fails on the degree 2 slice"),
    ("dual_complex_quasi_iso", "verify", "s2", sections, "_du_tensor_matrix",
     zero_du_tensor(), DualMismatch, 3,
     "degree 1: induced duality map has rank 0, expected 1"),
    ("dual_complex_agreement", "aut-ranks", "s2", sections, "_du_tensor_matrix",
     zero_du_tensor(), DualMismatch, 3,
     "degree 1: induced duality map has rank 0, expected 1"),
    ("hodge_sum_consistency", "verify", "s2xs3", freeloop, "rank",
     lowered_row_rank(3, 2), HodgeSumMismatch, 4,
     "degree 4: word-length pieces sum to 4, the row pass gives 5"),
    ("rank_triple_agreement", "verify", "s2", DerivationComplex, "twist",
     lambda self, pair: [], TheoremMismatch, 3, "rank disagreement at n=1: "
     "section 0, loop word-length-one 0, derivation 1"),
]


class TestFaultTable:
    @pytest.mark.parametrize(
        "check, command, model, owner, name, fault, cls, code, message",
        FAULTS, ids=[row[0] for row in FAULTS])
    def test_an_injected_fault_fails_its_verdict_first(
            self, monkeypatch, check, command, model, owner, name, fault, cls,
            code, message):
        monkeypatch.setattr(owner, name, fault)
        checks = _COMMANDS[command][1]
        passed = (("simply_connected", "minimal", "d_squared_zero")
                  + checks[:checks.index(check)])
        got = []
        with pytest.raises(cls) as err:
            verify_theorems(get_model(model), checks=checks, verdicts=got)
        assert type(err.value) is cls and str(err.value) == message
        assert exit_code_for(err.value) == code
        assert got == [(p, True) for p in passed]
        status, out = run_cli([command, str(model_path(model))])
        assert status == code
        assert out.endswith("verdict %s: pass\nerror: %s\nexit-code: %d\n"
                            % (passed[-1], message, code))

    def test_the_row_pass_shares_no_clearing_with_the_hodge_table(self, monkeypatch):
        # the Hodge table ranks d(4, 1) of S2 with every column cleared;
        # loop_betti ranks it again over its rows, clearing nothing
        monkeypatch.setattr(FreeLoopModel, "_betti", overcleared_loop_slice(4, 1))
        message = "degree 4: word-length pieces sum to 2, the row pass gives 1"
        with pytest.raises(HodgeSumMismatch, match=message):
            verify_theorems(get_model("s2"), checks=_COMMANDS["hodge"][1])
        status, out = run_cli(["hodge", str(model_path("s2"))])
        assert status == 4
        assert out.endswith("verdict d_squared_zero: pass\nerror: %s\nexit-code: 4\n"
                            % message)


class TestVerifyTheorems:
    def test_corpus_models_pass_end_to_end(self):
        for name in CORPUS:
            model = get_model(name)
            rep = verify_theorems(model)
            assert rep.model_name == model.name
            assert rep.n_max == max(model.formal_dim + 8, model.formal_dim + 2)
            assert rep.dual.lemma_slices > 0
            assert rep.rho_tensor_slices > 0
            assert rep.duality_degrees > 0
            assert len(rep.compared) == 8
            assert rep.cochain_perfect == (name != "s2xs3"), name
            # every compared triple agrees by construction; spot check the
            # values against the frozen rank tables
            for n, a, h1, o in rep.compared:
                assert a == h1 == o

    def test_s2xs3_report_details(self):
        rep = verify_theorems(get_model("s2xs3"))
        assert rep.formal_dim == 5
        assert rep.dmap.singular_degrees == (1, 2, 3, 4)
        assert rep.compared[1] == (2, 2, 2, 2)
        assert rep.low_degree == {1: 1, 2: 1, 3: 0, 4: 3, 5: 1}
        assert rep.identity_counts["commutativity"] == 36
        assert rep.quasi_iso == 3

    def test_no_check_builds_the_quotient_slices(self):
        # A with d_A is the extended complex at word length 0, where the
        # rho walk ranks it; the quotient itself has no slices
        rep = verify_theorems(get_model("s2xs3"))
        assert rep.eqm.betti(3, 0) == 1
        assert ("d", 3, 0) in rep.eqm._cache
        assert not isinstance(rep.algebra, exactq.CochainComplex)

    def test_fixture_product_passes(self):
        rep = verify_theorems(get_model("s2xs2"), n_max=10)
        assert rep.aut.entries[2] == 2
        assert rep.oracle.entries[3] == 2

    def test_invalid_model_rejected_up_front(self):
        bad = parse_model("dim 2\ncomplete\ngen y 1\ngen x 2\nd y = x\n")
        with pytest.raises(ValidationFailure):
            verify_theorems(bad)

    def test_fault_injection_is_caught(self, corrupt_quotient):
        def non_unit(algebra):
            for (i, j) in sorted(algebra.products):
                if i != j and i != 0 and j != 0:
                    return i, j
            raise AssertionError("nothing to corrupt")

        corrupt_quotient(non_unit)
        with pytest.raises(IdentityViolation):
            verify_theorems(get_model("s2xs3"))

    def test_records_the_verify_verdicts(self):
        got = []
        rep = verify_theorems(get_model("s2"), verdicts=got)
        structural = ("simply_connected", "minimal", "d_squared_zero")
        assert got == [(name, True) for name in structural + VERIFY_CHECKS]
        assert len(got) == 13
        assert rep.low_degree == {1: 1, 2: 0}

    def test_unknown_check_is_rejected_before_any_work(self, monkeypatch):
        def no_work(model):
            raise AssertionError("validated a model for an unknown check")

        monkeypatch.setattr(sections, "validate", no_work)
        got = []
        with pytest.raises(ValueError, match="poincare_dualty"):
            verify_theorems(get_model("s2"), 8, ("poincare_dualty",), got)
        assert got == []

    def test_bumped_extended_square_still_raises(self, monkeypatch):
        model, algebra, qmap, eqm = setup("cp2")
        top = algebra.top_degree + 2
        n, k = bump_first_square(
            monkeypatch, eqm, ExtendedQuotientModel,
            [(n, k) for n in range(top + 1) for k in range(n + 2)])
        with pytest.raises(CompositionNotZero, match=(
                r"^ExtendedQuotientModel slice \(%d, %d\): composite of consecutive "
                r"differentials is nonzero$" % (n, k))) as err:
            verify_rho_tensor_quasi_iso(extend_to_quotient_loop(model, algebra, qmap), top)
        assert exit_code_for(err.value) == 4

    def test_bumped_dual_square_still_raises(self, monkeypatch):
        _, algebra, _, eqm = setup("cp2")
        dual = build_dual_complex(eqm)
        lo, hi = dual.degree_range()
        n, _ = bump_first_square(monkeypatch, dual, DualSectionComplex,
                                 [(n, None) for n in range(lo - 1, hi + 1)])
        # the dual complex has one word length, which the message names
        with pytest.raises(CompositionNotZero, match=(
                r"^DualSectionComplex slice \(%d, 1\): composite of consecutive "
                r"differentials is nonzero$" % n)) as err:
            build_dual_complex(eqm)
        assert exit_code_for(err.value) == 4

    def test_bumped_derivation_square_names_its_word_length(self, monkeypatch):
        # the derivations are the word-length one slice over V-dual
        model = get_model("cp2")
        der = DerivationComplex(model)
        n, _ = bump_first_square(monkeypatch, der, DerivationComplex,
                                 [(n, None) for n in range(-6, -1)])
        message = ("DerivationComplex slice (%d, 1): composite of consecutive "
                   "differentials is nonzero" % n)
        with pytest.raises(CompositionNotZero) as err:
            derivation_oracle(model, 5)
        assert str(err.value) == message
        code, out = run_cli(["verify", str(loopspace.corpus_path("cp2"))])
        assert out.endswith("error: %s\nexit-code: 4\n" % message)
        assert code == 4

    def test_window_clamp(self):
        rep = verify_theorems(get_model("s2"), n_max=3)
        assert rep.n_max == 4  # clamped to formal_dim + 2


def fraction_loop_image(flm, bt):
    """D(b*t) = d(b)*t + (-1)^|b| b*D(t) in Fractions, from the model's
    own differentials, as {(b', t'): coeff}: the oracle for the integer
    columns of `FreeLoopModel`."""
    base = flm.base
    nb = len(base.generators)
    b, t = bt
    out = {(b2, t): c for b2, c in gca.apply_derivation(
        base.generators, base.differential, {b: ONE}).items()}
    odd = gca.monomial_degree(base.generators, b) % 2
    for m, c in gca.apply_derivation(
            flm.generators, flm.loop_differential, {(0,) * nb + t: ONE}).items():
        p = gca.normalize_product(base.generators, b, m[:nb])
        if p is not None:
            add_term(out, (p[1], m[nb:]), -c if (p[0] < 0) != odd else c)
    return out


def fraction_derivation_image(der, pair):
    """D theta = d o theta - (-1)^|theta| theta o d in Fractions, for the
    derivation theta of pair (b, t) sending the generator of t to b and
    the others to 0, from the model's parsed d, as {(b', t'): coeff}: the
    oracle for the integer columns of `DerivationComplex`."""
    b, t = pair
    gens, d = der.model.generators, der.model.differential
    gi = t.index(1)
    m = gens[gi].degree - gca.monomial_degree(gens, b)
    spec = gca.DerivationSpec(-m, {h: ({b: ONE} if h == gi else {}) for h in range(len(gens))})
    sgn = ONE if m % 2 else -ONE
    out = {}
    for hi in range(len(gens)):
        img = gca.elem_add_into(
            {}, gca.apply_derivation(gens, spec, d.images.get(hi, {})), sgn)
        if hi == gi:
            gca.elem_add_into(img, gca.apply_derivation(gens, d, {b: ONE}))
        unit = tuple(int(j == hi) for j in range(len(gens)))
        out.update(((b2, unit), v) for b2, v in img.items())
    return out


def fraction_dbar(eqm, pair):
    """Dbar(a_i (x) m) in Fractions, from A's tables, qmap.image and D(m)."""
    i, m = pair
    algebra, flm = eqm.algebra, eqm.flm
    nb = len(flm.base.generators)
    dbar_m = {}
    for mono, c in gca.apply_derivation(
            flm.generators, flm.loop_differential, {(0,) * nb + m: ONE}).items():
        for ai, v in eqm.qmap.image.get(mono[:nb], {}).items():
            add_term(dbar_m, (ai, mono[nb:]), c * v)
    out = {(j, m): c for j, c in algebra.image(i).items()}
    odd = algebra.degrees[i] % 2
    for (ai, m2), c in dbar_m.items():
        for k, a in algebra.product(i, ai).items():
            add_term(out, (k, m2), -c * a if odd else c * a)
    return out


class TestIntegerSlices:
    """The loop, extended and dual slices, rho (x) 1 and Du (x) 1 are built
    in ints over a denominator known in advance; a Fraction path kept here
    is the oracle."""

    TOP = 12

    def slices(self, top):
        return [(n, k) for n in range(-1, top + 1) for k in range(n + 2)]

    def test_nonintegral_fixture_has_denominators(self):
        _, _, _, eqm = setup("nonintegral")
        assert eqm.flm.denominator == 2
        assert eqm.rho_denominator == 4
        assert eqm.dbar_denominator == 8
        assert eqm.denominator == 32

    def test_nonintegral_fixture_passes_every_verdict(self):
        got = []
        verify_theorems(get_model("nonintegral"), 16, verdicts=got)
        assert len(got) == 13 and all(ok for _, ok in got)

    @pytest.mark.parametrize("name", ["nonintegral", "s2xs3_twisted", "cp2"])
    def test_every_slice_equals_the_fraction_path(self, name):
        _, _, qmap, eqm = setup(name)
        flm = eqm.flm
        nonzero = 0
        # cp2 has 18 nonzero rho (x) 1 slices to degree 12, and 21 to 14
        for n, k in self.slices(self.TOP + 2):
            want = matrix_of_map(flm.basis(n, k), flm.basis(n + 1, k),
                                 lambda bt: fraction_loop_image(flm, bt), "loop")
            assert flm.d_matrix(n, k) == want, (n, k)
            want = matrix_of_map(eqm.basis(n, k), eqm.basis(n + 1, k),
                                 lambda pair: fraction_dbar(eqm, pair), "extended")
            assert eqm.d_matrix(n, k) == want, (n, k)
            want = matrix_of_map(
                flm.basis(n, k), eqm.basis(n, k),
                lambda bt: {(ai, bt[1]): v for ai, v in qmap.image.get(bt[0], {}).items()},
                "rho")
            assert eqm.rho_tensor_matrix(n, k) == want, (n, k)
            nonzero += bool(want.entries)
        assert nonzero > 20

    @pytest.mark.parametrize("name", ["nonintegral", "s2xs3_twisted", "cp2", "massey"])
    def test_every_derivation_slice_equals_the_fraction_path(self, name):
        der = DerivationComplex(get_model(name))
        nonzero = 0
        for n in range(-self.TOP, 1):
            want = matrix_of_map(der.basis(n), der.basis(n + 1),
                                 lambda pair: fraction_derivation_image(der, pair),
                                 "derivation")
            assert der.d_matrix(n) == want, n
            nonzero += bool(want.entries)
        assert nonzero >= 2

    def test_slices_form_no_fraction_and_call_no_constructor(self, monkeypatch):
        # the loop slices (n, 0) are the base model's, built through the
        # Fraction path by the duality check of setup to degree 14 >= TOP + 1,
        # so here they are only read
        model, algebra, _, eqm = setup("nonintegral")
        flm = eqm.flm
        dual = DualSectionComplex(eqm, 1)
        der = DerivationComplex(model)
        lo, hi = dual.degree_range()
        N = algebra.top_degree
        formed = []
        real_new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            formed.append(args)
            return real_new(cls, *args, **kwargs)

        def refuse(*args):
            raise AssertionError("a slice went through SparseMatrix.__init__")

        monkeypatch.setattr(Fraction, "__new__", counting)
        monkeypatch.setattr(SparseMatrix, "__init__", refuse)
        built = [m for n, k in self.slices(self.TOP) for m in (
            flm.d_matrix(n, k), eqm.d_matrix(n, k), eqm.rho_tensor_matrix(n, k))]
        dual_built = [m for n in range(lo - 1, hi + 2) for m in (
            dual.d_matrix(n), sections._du_tensor_matrix(eqm, dual, n + N))]
        der_built = [der.d_matrix(n) for n in range(-self.TOP - 1, 1)]
        monkeypatch.undo()
        assert formed == []
        assert sum(len(m.entries) for m in built) > 1000
        assert sum(len(m.entries) for m in dual_built) > 50
        assert sum(len(m.entries) for m in der_built) > 10

    def test_each_composite_is_tested_once(self, monkeypatch):
        # every Dbar*Dbar and delta*delta test is tested_pair's, recorded
        # on its complex, so betti does not test a pair that the dual
        # complex's builder tested, and recording it fetches no slice
        pairs, fetched = [], []
        real_product, real_d = exactq.product_is_zero, ExtendedQuotientModel.d_matrix

        def product_is_zero(a, b):
            pairs.append((a, b))
            return real_product(a, b)

        def d_matrix(self, n, k=None):
            fetched.append((n, k))
            return real_d(self, n, k)

        monkeypatch.setattr(exactq, "product_is_zero", product_is_zero)
        monkeypatch.setattr(ExtendedQuotientModel, "d_matrix", d_matrix)
        verify_theorems(get_model("s2cubed"), 11)
        tested = [(id(a), id(b)) for a, b in pairs]
        # 137: the six pairs of the derivation complex and the seven of Du
        # on A, the dual complex at word length 0, are among them, and no
        # dual slice above the populated degrees is asked for; the loop
        # model's pairs at word length 0 are the base model's, tested once
        # by its betti, and it has no unsplit pairs; no pair above the
        # window is tested
        assert len(set(tested)) == len(tested) == 137
        assert len(fetched) == 203


ALL_MODELS = CORPUS + ("cp2xs3", "flag", "hp2", "s2cubed", "massey",
                       "nonintegral", "not_pd", "s2xs2", "s2xs3_twisted")


class TestWordLengthZeroIsTheBase:
    """Word length 0 of the loop model is (LV, d), the constant loops: its
    slices and Betti numbers there are the base model's own objects, each
    built, tested and ranked once."""

    def test_verify_builds_no_loop_slice_at_word_length_zero(self):
        rep = verify_theorems(get_model("s2cubed"), 11)
        model, flm = rep.model, rep.flm
        assert [key for key in flm._cache
                if key[0] in ("d", "betti") and key[2] == 0] == []
        assert all(flm.d_matrix(n, 0) is model.d_matrix(n) for n in range(-1, 13))

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_the_loop_basis_lists_the_base_basis_in_order(self, name):
        # rho (x) 1 at word length 0 lays out its columns by the loop basis
        # and is multiplied with the base model's slice
        model = get_model(name)
        flm = build_free_loop_model(model)
        for n in range(model.default_window + 1):
            assert [b for b, _ in flm.basis(n, 0)] == list(model.basis(n)), n

    def test_quotient_builds_no_loop_basis_above_word_length_zero(self):
        # the walk lists its slices from the two factors' bases
        rep = verify_theorems(get_model("s2cubed"), checks=_COMMANDS["quotient"][1])
        built = [key for key in rep.flm._cache if key[0] == "basis"]
        assert built and [key for key in built if key[2] != 0] == []


class TestEverySliceHasAWordLength:
    """The loop model and the extended complex build only split slices:
    each (n, k) has its word length, and the loop Betti numbers are
    summed from them."""

    @pytest.mark.parametrize("command", ["verify", "hodge", "betti"])
    def test_no_cache_key_lacks_a_word_length(self, command):
        rep = verify_theorems(get_model("s2cubed"), 11, checks=_COMMANDS[command][1])
        if command == "betti":
            loop_betti(rep.flm, 11)
        built = [cx for cx in vars(rep).values()
                 if isinstance(cx, (FreeLoopModel, ExtendedQuotientModel))]
        assert len(built) == (2 if command == "verify" else 1)
        for cx in built:
            keys = [key for key in cx._cache if len(key) > 2]
            assert keys and [key for key in keys if key[2] is None] == []


def ranked_slices(name, n_max):
    """(complex, key, matrix) of every slice that a verify run to n_max
    ranked by its column pass, with the model, the loop model, the
    extended and the dual complex; the row pass of loop_betti ranks
    transposes that no cache keeps.  A run that stops on a failed check
    keeps what it built."""
    report = sections.TheoremReport(get_model(name), n_max)
    try:
        for _, obj in sections.CHECKS:
            getattr(report, obj)
    except (ValidationFailure, MathMismatch):
        pass
    return [(type(cx).__name__, key, m) for cx in vars(report).values()
            if isinstance(cx, exactq.CochainComplex)
            for key, m in cx._cache.items()
            if key[0] == "d" and m._rank is not None]


def record_slice(monkeypatch, cls, n, k):
    """Patch cls so that every slice (n, k) it builds is appended to the
    returned list."""
    built, real = [], cls.slice_matrix

    def recording(self, m, j):
        d = real(self, m, j)
        if (m, j) == (n, k):
            built.append(d)
        return d

    monkeypatch.setattr(cls, "slice_matrix", recording)
    return built


class TestClearedRanks:
    """A slice is ranked without the columns that the slice below clears,
    once their composite has tested zero; the rank is the uncleared one."""

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_every_ranked_slice_has_its_uncleared_rank(self, name):
        ranked = ranked_slices(name, 14)
        assert ranked
        for cx, key, m in ranked:
            assert m._rank == len(echelon(m)), (cx, key)
            assert (tuple(i for i, f in enumerate(m._pivots) if f)
                    == tuple(echelon(m, b""))), (cx, key)

    def test_four_complexes_rank_cleared_slices(self):
        # the quotient is no complex: A is ranked as the extended complex
        # at word length 0
        ranked = ranked_slices("cp2xs3", 14)
        cleared = {cx for cx, _, m in ranked if m._cleared}
        assert cleared == {"SullivanModel", "FreeLoopModel",
                           "ExtendedQuotientModel", "DualSectionComplex"}

    @pytest.mark.parametrize("command", ["hodge", "betti"])
    def test_bumped_loop_slice_raises_before_its_rank(self, monkeypatch, command):
        # betti tests the squares in loop_betti, before its row pass
        flm = build_free_loop_model(get_model("cp2"))
        n, k = bump_first_square(monkeypatch, flm, FreeLoopModel, flm.slices(9))
        upper = record_slice(monkeypatch, FreeLoopModel, n + 1, k)
        code, out = run_cli([command, str(loopspace.corpus_path("cp2")),
                             "--max-degree", "10"])
        assert out.endswith("error: FreeLoopModel slice (%d, %d): composite of "
                            "consecutive differentials is nonzero\nexit-code: 4\n"
                            % (n, k))
        assert code == 4
        assert len(upper) == 1 and upper[0]._rank is None

    def test_bumped_extended_slice_raises_before_its_rank(self, monkeypatch):
        _, algebra, _, eqm = setup("cp2")
        top = algebra.top_degree + 2
        n, k = bump_first_square(
            monkeypatch, eqm, ExtendedQuotientModel,
            [(n, k) for n in range(top + 1) for k in range(n + 2)])
        upper = record_slice(monkeypatch, ExtendedQuotientModel, n + 1, k)
        code, out = run_cli(["verify", str(loopspace.corpus_path("cp2"))])
        assert out.endswith("error: ExtendedQuotientModel slice (%d, %d): composite "
                            "of consecutive differentials is nonzero\n"
                            "exit-code: 4\n" % (n, k))
        assert code == 4
        assert len(upper) == 1 and upper[0]._rank is None
