"""Finite Poincare duality quotient: structure constants, axioms, quasi-iso.

The expected algebras below were derived by hand: a 2-sphere gives the
truncated polynomial algebra on one class, projective spaces give
truncated polynomial algebras, a product of spheres the tensor product,
SU(3) the full exterior algebra.  The independent oracle for the
quasi-isomorphism claim is the acyclicity of the kernel ideal, computed
here from scratch out of kernel bases and their free columns.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from loopspace import corpus_models, corpus_path, gca, load_corpus_model, sections
from loopspace.cli import _COMMANDS
from loopspace.errors import (
    ChainMapFailure,
    IdentityViolation,
    IncompleteModel,
    InternalCheckFailure,
    QuasiIsoFailure,
    exit_code_for,
)
from loopspace.exactq import cohomology_dim, kernel_basis, matrix_of_map, rref
from loopspace.freeloop import build_free_loop_model
from loopspace.pdquotient import (
    FiniteCdga,
    build_quotient,
    structure_identities,
    verify_quasi_iso,
)
from loopspace.sullivan import check_poincare_duality, parse_model
from test_cli import run as run_cli
from test_exactq import apply, from_columns

Q = Fraction
ONE = Q(1)
FIXTURES = Path(__file__).parent / "fixtures"
BENCH_MODELS = Path(__file__).parent.parent / "perfbench" / "models"
# every shipped, bench and fixture model with Poincare duality
PD_MODELS = (corpus_models() + sorted(p.stem for p in BENCH_MODELS.glob("*.model"))
             + ["massey", "s2xs2", "s2xs3_twisted"])


def quotient(name):
    for folder in (FIXTURES, BENCH_MODELS):
        path = folder / (name + ".model")
        if path.exists():
            model = parse_model(path.read_text(), name)
            break
    else:
        model = load_corpus_model(name)
    algebra, qmap = build_quotient(model, check_poincare_duality(model))
    return model, algebra, qmap


def quasi_iso(model, alg, qmap, n_max):
    """The quotient_quasi_iso check as `TheoremReport.quasi_iso` runs it:
    the word-length-0 walk of rho (x) 1 up to n_max; returns the number
    of slices."""
    eqm = sections.extend_to_quotient_loop(alg, qmap, build_free_loop_model(model))
    return verify_quasi_iso(eqm, n_max)


def rho_matrix(model, alg, qmap, k):
    """rho on degree k, from the monomial basis to the degree-k slice of
    A, read off the projection table."""
    return matrix_of_map(model.basis(k), alg.basis(k),
                         lambda m: qmap.image.get(m, {}),
                         "projection left degree %d" % k)


def nontrivial_products(algebra):
    """Products not forced by the unit a_0, as a plain dict."""
    return {ij: alpha for ij, alpha in algebra.products.items()
            if 0 not in ij}


class TestQuotientStructures:
    def test_s2_truncates_to_one_class(self):
        model, alg, _ = quotient("s2")
        assert alg.labels == ("1", "x")
        assert alg.degrees == (0, 2)
        assert alg.diff == {}
        # x * x = x^2 = d(y) dies in the quotient
        assert nontrivial_products(alg) == {}
        assert {k: model.s_pivots(k) for k in (1, 2)} == {1: (), 2: ()}

    def test_s3_quotient_is_the_whole_model(self):
        model, alg, _ = quotient("s3")
        assert alg.labels == ("1", "x")
        assert alg.degrees == (0, 3)
        assert alg.diff == {}
        # the ideal is zero: every degree of the model survives
        assert sum(len(model.basis(k)) for k in range(4)) == alg.size

    def test_cp2_is_truncated_polynomial(self):
        _, alg, _ = quotient("cp2")
        assert alg.labels == ("1", "x", "x^2")
        assert alg.degrees == (0, 2, 4)
        assert alg.diff == {}
        assert nontrivial_products(alg) == {(1, 1): {2: ONE}}

    def test_cp3_is_truncated_polynomial(self):
        _, alg, _ = quotient("cp3")
        assert alg.labels == ("1", "x", "x^2", "x^3")
        assert alg.degrees == (0, 2, 4, 6)
        assert nontrivial_products(alg) == {
            (1, 1): {2: ONE}, (1, 2): {3: ONE}, (2, 1): {3: ONE}}

    def test_s2xs3_structure(self):
        model, alg, _ = quotient("s2xs3")
        # degree 3 slice orders z before y (ascending exponent tuples)
        assert alg.labels == ("1", "x", "z", "y", "x^2", "x*z")
        assert alg.degrees == (0, 2, 3, 3, 4, 5)
        assert alg.diff == {3: {4: ONE}}          # d y = x^2 survives
        assert nontrivial_products(alg) == {
            (1, 1): {4: ONE},                      # x * x
            (1, 2): {5: ONE}, (2, 1): {5: ONE},    # x * z both ways
        }
        # x*y sits in the monomial complement S^5, hence dies
        assert {k: model.s_pivots(k) for k in (4, 5)} == {4: (), 5: (1,)}

    def test_su3_is_exterior(self):
        _, alg, _ = quotient("su3")
        assert alg.labels == ("1", "x3", "x5", "x3*x5")
        assert alg.degrees == (0, 3, 5, 8)
        assert nontrivial_products(alg) == {
            (1, 2): {3: ONE}, (2, 1): {3: Q(-1)}}  # odd classes anticommute

    def test_s2xs2_quantum_like_collapse(self):
        model, alg, _ = quotient("s2xs2")
        assert alg.labels == ("1", "u", "x", "x*u")
        assert alg.degrees == (0, 2, 2, 4)
        # x^2 = d(y) and u^2 = d(v) both die; the cross product is the top
        assert nontrivial_products(alg) == {
            (1, 2): {3: ONE}, (2, 1): {3: ONE}}
        assert {k: model.s_pivots(k) for k in (3, 4)} == {3: (0, 1), 4: ()}

    def test_top_class_evaluates_to_one(self):
        for name in ("s2", "cp2", "s2xs3", "su3", "s2xs2"):
            model, alg, qmap = quotient(name)
            omega = check_poincare_duality(model).fundamental_class
            out = qmap.apply(omega)
            assert out == {alg.size - 1: ONE}, name

    def test_apply_above_formal_dim_is_zero(self):
        model, alg, qmap = quotient("s2")
        x3 = {(3, 0): ONE}
        assert qmap.apply(x3) == {}

    def test_apply_kills_boundary_monomial(self):
        model, alg, qmap = quotient("s2xs2")
        gens = model.generators  # (x, u, y, v)
        xsq = {(2, 0, 0, 0): ONE}
        usq = {(0, 2, 0, 0): ONE}
        cross = {(1, 1, 0, 0): ONE}
        assert qmap.apply(xsq) == {}
        assert qmap.apply(usq) == {}
        assert qmap.apply(cross) == {alg.size - 1: ONE}


class TestStructureIdentities:
    def test_counts_on_s2(self):
        _, alg, _ = quotient("s2")
        # commutativity visits the pairs of degree <= N = 2, Leibniz those
        # of degree <= 1, and each of the three product terms has its degree
        assert structure_identities(alg) == {
            "unit": 2, "commutativity": 3, "d_squared": 2,
            "associativity": 4, "leibniz": 1, "degree": 3}

    def test_every_family_checked_on_corpus(self):
        for name in ("s3", "cp2", "cp3", "s2xs3", "su3", "s2xs2"):
            _, alg, _ = quotient(name)
            counts = structure_identities(alg)
            assert set(counts) == {"unit", "commutativity", "d_squared",
                                   "associativity", "leibniz", "degree"}
            assert all(v > 0 for v in counts.values()), name

    def test_unit_violation(self):
        _, alg, _ = quotient("s2")
        alg.products[(0, 1)] = {}
        with pytest.raises(IdentityViolation, match="unit"):
            structure_identities(alg)

    def test_commutativity_violation(self):
        _, alg, _ = quotient("s2xs3")
        alg.products[(1, 2)] = {5: Q(-1)}
        with pytest.raises(IdentityViolation, match="commutativity"):
            structure_identities(alg)

    def test_d_squared_violation(self):
        _, alg, _ = quotient("s2xs3")
        # send z to y so that d*d hits d(y) = x^2
        alg.diff[2] = {3: ONE}
        with pytest.raises(IdentityViolation, match="d\\*d"):
            structure_identities(alg)

    def test_leibniz_violation(self):
        _, alg, _ = quotient("s2xs3")
        # d(x) = z keeps d*d zero but breaks Leibniz on x * x
        alg.diff[1] = {2: ONE}
        with pytest.raises(IdentityViolation, match="Leibniz"):
            structure_identities(alg)

    def test_product_above_the_formal_dimension_fails_the_degree_check(self):
        # z * y = x * z = -(y * z): graded commutativity holds, and the
        # product lands in degree 5, not 3 + 3 = 6 > N, where no pair loop
        # looks; only the degree check sees it
        _, alg, _ = quotient("s2xs3")
        alg.products[(2, 3)] = {5: ONE}
        alg.products[(3, 2)] = {5: -ONE}
        with pytest.raises(IdentityViolation,
                           match=r"^degree fails at a_2 \* a_3, term a_5$"):
            structure_identities(alg)

    def test_differential_off_its_degree_fails_the_degree_check(self):
        # d x = x*z squares to zero and keeps the Leibniz rule on the
        # pairs of degree <= N - 1, where every product with x*z is zero
        _, alg, _ = quotient("s2xs3")
        alg.diff[1] = {5: ONE}
        with pytest.raises(IdentityViolation,
                           match=r"^degree fails at d a_1, term a_5$"):
            structure_identities(alg)

    def test_associativity_violation_on_synthetic_algebra(self):
        # two degree 2 classes p, q with p*(q*q) != (p*q)*q and full
        # commutativity, so only the associativity family can catch it
        alg = FiniteCdga(
            name="synthetic",
            degrees=(0, 2, 2, 4, 6),
            labels=("1", "p", "q", "r", "t"),
            products={
                (0, 0): {0: ONE}, (0, 1): {1: ONE}, (0, 2): {2: ONE},
                (0, 3): {3: ONE}, (0, 4): {4: ONE},
                (1, 0): {1: ONE}, (2, 0): {2: ONE}, (3, 0): {3: ONE},
                (4, 0): {4: ONE},
                (1, 1): {3: ONE}, (2, 2): {3: ONE},
                (1, 2): {3: ONE}, (2, 1): {3: ONE},
                (1, 3): {4: ONE}, (3, 1): {4: ONE},
            },
            diff={},
        )
        with pytest.raises(IdentityViolation, match="associativity"):
            structure_identities(alg)


def unsigned_product(gens, m1, m2, real=gca.normalize_product):
    """gca.normalize_product without the Koszul sign of odd factors that
    pass each other, a fault that only graded commutativity sees."""
    p = real(gens, m1, m2)
    return p and (1, p[1])


def commuting_odd_classes(real=sections.build_quotient):
    """sections.build_quotient with the s2xs3 edit of
    test_commutativity_violation, x * z = -x*z beside z * x = x*z."""
    def edited(model, pd_report):
        algebra, qmap = real(model, pd_report)
        algebra.products[(1, 2)] = {5: -ONE}
        return algebra, qmap
    return edited


class TestTheTableCheckStays:
    """structure_identities is the one check that sees a table fault that
    every other check lets through: rho, Du, the dual complex and the
    rank tables read A through its integer tables and agree with a wrong
    sign of a product or one wrong constant."""

    def test_a_product_without_the_koszul_sign_fails_commutativity(self, monkeypatch):
        monkeypatch.setattr(gca, "normalize_product", unsigned_product)
        got = []
        with pytest.raises(IdentityViolation,
                           match=r"^graded commutativity fails at \(a_1, a_2\)$"):
            sections.verify_theorems(load_corpus_model("su3"), verdicts=got)
        assert got == [(name, True) for name in (
            "simply_connected", "minimal", "d_squared_zero", "poincare_duality")]

    def test_without_the_table_check_that_fault_passes_with_the_same_ranks(
            self, monkeypatch):
        checks = tuple(c for c in sections.VERIFY_CHECKS if c != "structure_identities")
        want = sections.verify_theorems(load_corpus_model("su3"), checks=checks)
        monkeypatch.setattr(gca, "normalize_product", unsigned_product)
        got = []
        rep = sections.verify_theorems(load_corpus_model("su3"), checks=checks,
                                       verdicts=got)
        assert all(ok for _, ok in got) and len(got) == 3 + len(checks)
        assert rep.algebra.products[(2, 1)] == rep.algebra.products[(1, 2)]
        assert (rep.aut.entries, rep.compared) == (want.aut.entries, want.compared)

    @pytest.mark.parametrize("command", ["quotient", "aut-ranks", "verify"])
    def test_the_commutativity_edit_passes_every_other_check(self, monkeypatch,
                                                             command):
        monkeypatch.setattr(sections, "build_quotient", commuting_odd_classes())
        checks = _COMMANDS[command][1]
        with pytest.raises(IdentityViolation, match="commutativity"):
            sections.verify_theorems(load_corpus_model("s2xs3"), checks=checks)
        others = tuple(c for c in checks if c != "structure_identities")
        got = []
        sections.verify_theorems(load_corpus_model("s2xs3"), checks=others, verdicts=got)
        assert got[3:] == [(name, True) for name in others]


class TestDifferentialMatrix:
    def test_differential_leaving_its_degree_is_an_internal_failure(self):
        # d sends the degree-2 class x of CP2 to the degree-4 class x^2,
        # not into degree 3: the quotient's slice of d on degree 2, the
        # extended complex at word length 0, has no row for it
        model, alg, qmap = quotient("cp2")
        alg.diff[1] = {2: 1}
        eqm = sections.extend_to_quotient_loop(alg, qmap, build_free_loop_model(model))
        with pytest.raises(InternalCheckFailure, match=(
                "ExtendedQuotientModel differential left its slice: degree 2, "
                "word length 0")) as err:
            eqm.d_matrix(2, 0)
        assert exit_code_for(err.value) == 4


class TestQuasiIso:
    def test_dims_and_slices_on_corpus(self):
        # one slice per degree up to the window where LV is populated
        expected_slices = {"s2": 6, "s3": 2, "cp2": 7, "cp3": 8,
                           "s2xs3": 9, "su3": 4, "s2xs2": 8}
        for name, want in expected_slices.items():
            model, alg, qmap = quotient(name)
            n_max = model.formal_dim + 4
            assert quasi_iso(model, alg, qmap, n_max) == want, name
            assert want == sum(1 for n in range(n_max + 1) if model.basis(n)), name
            eqm = sections.extend_to_quotient_loop(alg, qmap, build_free_loop_model(model))
            for n in range(model.formal_dim + 5):
                dim = model.betti(n)
                assert dim == eqm.betti(n, 0) if n <= model.formal_dim else dim == 0

    def test_cp3_dims(self):
        model, alg, qmap = quotient("cp3")
        quasi_iso(model, alg, qmap, 10)
        assert [model.betti(n) for n in range(11)] == \
            [1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0]

    def test_chain_map_failure_detected(self):
        model, alg, qmap = quotient("s2xs3")
        # rescale the surviving differential: cohomology dimensions are
        # unchanged but rho no longer commutes with d
        alg.diff[3] = {4: Q(2)}
        with pytest.raises(ChainMapFailure):
            quasi_iso(model, alg, qmap, 6)

    def test_dimension_failure_detected(self):
        model, alg, qmap = quotient("s2xs3")
        alg.diff.clear()
        with pytest.raises(QuasiIsoFailure):
            quasi_iso(model, alg, qmap, 6)

    def test_multiplicativity_failure_detected(self, monkeypatch):
        # x * x = 2 x^2 written over the built table keeps the axioms of
        # A, and rho itself, at word length 0, reads no product; the
        # twist of A (x) L sV does, so rho (x) 1 fails first
        real = sections.build_quotient

        def doubled_square(model, pd_report):
            alg, qmap = real(model, pd_report)
            alg.products[(1, 1)] = {4: Q(2)}
            return alg, qmap

        monkeypatch.setattr(sections, "build_quotient", doubled_square)
        message = "rho (x) 1 fails to commute with the differentials on slice (4, 1)"
        got = []
        with pytest.raises(ChainMapFailure) as err:
            sections.verify_theorems(quotient("s2xs3")[0], verdicts=got)
        assert str(err.value) == message and exit_code_for(err.value) == 4
        checks = sections.VERIFY_CHECKS
        passed = (("simply_connected", "minimal", "d_squared_zero")
                  + checks[:checks.index("loop_extension_quasi_iso")])
        assert passed[-1] == "quotient_quasi_iso"
        assert got == [(name, True) for name in passed]
        status, out = run_cli(["verify", str(corpus_path("s2xs3"))])
        assert status == 4
        assert out.endswith("verdict quotient_quasi_iso: pass\nerror: %s\n"
                            "exit-code: 4\n" % message)


class TestIdealAcyclicity:
    """H(ker rho) = 0 is equivalent to rho being a quasi-isomorphism.

    Computed here independently: kernel bases of each rho slice, the
    differential restricted to them, then cohomology.  Kernel vector i is 1
    at the i-th free column of rref(rho) and 0 at the others, so a vector
    of the kernel has its coordinates at the free columns.
    """

    def subcomplex_matrices(self, model, alg, qmap, n_max):
        kernels, free = {}, {}
        for k in range(n_max + 2):
            rho_k = rho_matrix(model, alg, qmap, k)
            kernels[k] = kernel_basis(rho_k)
            pivots = set(rref(rho_k)[1])
            free[k] = [c for c in range(rho_k.cols) if c not in pivots]
        mats = {}
        for k in range(n_max + 1):
            rho_next = rho_matrix(model, alg, qmap, k + 1)
            cols = []
            for vec in kernels[k]:
                img = apply(model.d_matrix(k), vec)
                assert apply(rho_next, img) == {}, "ideal is not d-stable"
                cols.append({i: img[c] for i, c in enumerate(free[k + 1])
                             if c in img})
            mats[k] = from_columns(len(kernels[k + 1]), cols)
        return mats

    @pytest.mark.parametrize("name", ["s2", "cp2", "s2xs3", "su3", "s2xs2"])
    def test_kernel_ideal_has_no_cohomology(self, name):
        model, alg, qmap = quotient(name)
        n_max = model.formal_dim + 3
        mats = self.subcomplex_matrices(model, alg, qmap, n_max)
        for k in range(1, n_max):
            assert cohomology_dim(mats[k], mats[k - 1]) == 0, (name, k)


class TestTopFunctional:
    """The top-class functional lambda of the duality check: 1 on omega,
    0 on the monomial complement S^N and on every boundary, and the
    degree-N row of the projection."""

    @pytest.mark.parametrize("name", PD_MODELS)
    def test_functional_reads_the_top_class(self, name):
        model, alg, qmap = quotient(name)
        report = check_poincare_duality(model)
        lam = report.top_functional
        N = model.formal_dim
        pos = {m: c for c, m in enumerate(model.basis(N))}

        def value(vec):
            return sum((lam.get(c, 0) * v for c, v in vec.items()), Q(0))

        assert value({pos[m]: v for m, v in report.fundamental_class.items()}) == 1
        for p in model.s_pivots(N):
            assert value({p: ONE}) == 0
        for col in model.d_matrix(N - 1).columns():
            assert value(col) == 0
        assert rho_matrix(model, alg, qmap, N).entries == {(0, c): v for c, v in lam.items()}


class TestProjectionTable:
    """rho as build_quotient stores it: one image per monomial that does
    not die, and no entry for one that does."""

    @pytest.mark.parametrize("name", PD_MODELS)
    def test_table_pins_each_monomial(self, name):
        model, alg, qmap = quotient(name)
        gens, N = model.generators, model.formal_dim
        lam = check_poincare_duality(model).top_functional
        by_degree = {}
        for m, img in qmap.image.items():
            by_degree.setdefault(gca.monomial_degree(gens, m), {})[m] = img
        assert max(by_degree) == N

        def own_class(m):
            (i, v), = qmap.image[m].items()
            return v == 1 and alg.labels[i] == gca.render_monomial(gens, m)

        for k in range(N - 1):
            assert set(by_degree.get(k, {})) == set(model.basis(k)), k
            assert all(own_class(m) for m in model.basis(k)), k
        dropped = [c for c, m in enumerate(model.basis(N - 1)) if m not in qmap.image]
        assert dropped == list(model.s_pivots(N - 1))
        assert all(own_class(m) for m in by_degree.get(N - 1, {}))
        basis_N = model.basis(N)
        assert by_degree[N] == {basis_N[c]: {alg.size - 1: v} for c, v in lam.items()}


class TestIncompleteness:
    def test_quotient_requires_generators_past_the_top(self):
        model = parse_model(
            "dim 4\ncomplete-to 4\ngen x 2\ngen u 2\ngen y 3\ngen v 3\n"
            "d y = x^2\nd v = u^2\n")
        rep = check_poincare_duality(model)
        with pytest.raises(IncompleteModel):
            build_quotient(model, rep)

    def test_complete_to_n_plus_one_suffices(self):
        model = parse_model(
            "dim 4\ncomplete-to 5\ngen x 2\ngen u 2\ngen y 3\ngen v 3\n"
            "d y = x^2\nd v = u^2\n")
        algebra, _ = build_quotient(model, check_poincare_duality(model))
        assert algebra.labels == ("1", "u", "x", "x*u")
