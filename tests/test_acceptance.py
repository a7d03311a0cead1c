"""Release gate: nine end-to-end checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines.  Each check prints exactly one ACCEPTANCE line, PASS or FAIL,
and the numeric targets are frozen here rather than recomputed, so a
regression in any module shows up as a hard mismatch.
"""

import contextlib
import io
import json
import time

import loopspace
from loopspace import load_corpus_model
from loopspace.cli import main
from loopspace.errors import NotPoincareDuality, SignIdentityFailure
from loopspace.freeloop import build_free_loop_model, hodge_betti_table, loop_betti
from loopspace.pdquotient import build_quotient, structure_identities, verify_quasi_iso
from loopspace.sections import (
    aut_rank_table,
    build_dual_complex,
    derivation_oracle,
    duality_map,
    extend_to_quotient_loop,
    verify_theorems,
)
from loopspace.sullivan import check_poincare_duality, parse_model


@contextlib.contextmanager
def verdict(number, label):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d: FAIL - %s" % (number, label))
        raise
    print("ACCEPTANCE %d: PASS - %s" % (number, label))


def pipeline(name):
    model = load_corpus_model(name)
    report = check_poincare_duality(model)
    algebra, qmap = build_quotient(model, report)
    eqm = extend_to_quotient_loop(algebra, qmap, build_free_loop_model(model))
    return model, algebra, qmap, eqm


def test_criterion_1_rank_triple_agreement():
    with verdict(1, "three rank computations agree on five models, under 10s each"):
        for name in ("s2", "s3", "cp2", "cp3", "s2xs3"):
            model = load_corpus_model(name)
            started = time.monotonic()
            report = verify_theorems(model)
            elapsed = time.monotonic() - started
            assert elapsed < 10.0, "%s took %.2fs" % (name, elapsed)
            assert report.n_max == model.formal_dim + 8
            assert len(report.compared) == 8
            for n, via_aut, via_hodge, via_oracle in report.compared:
                assert 1 <= n <= 8
                assert via_aut == via_hodge == via_oracle, (
                    "%s disagrees at n=%d: %d %d %d"
                    % (name, n, via_aut, via_hodge, via_oracle)
                )


def test_criterion_2_loop_betti_tables():
    with verdict(2, "free loop Betti numbers for S2, S3, CP2"):
        ls2 = loop_betti(build_free_loop_model(load_corpus_model("s2")), 4)
        assert [ls2.get(n) for n in range(5)] == [1, 1, 1, 1, 1]
        ls3 = loop_betti(build_free_loop_model(load_corpus_model("s3")), 6)
        assert [ls3.get(n) for n in range(7)] == [1, 0, 1, 1, 1, 1, 1]
        lcp2 = loop_betti(build_free_loop_model(load_corpus_model("cp2")), 4)
        assert lcp2.get(1) == 1


def test_criterion_3_hodge_pieces():
    with verdict(3, "word-length pieces of loop cohomology at frozen spots"):
        s2 = hodge_betti_table(build_free_loop_model(load_corpus_model("s2")), 4)
        assert s2.get(1, 1) == 1
        assert s2.get(2, 0) == 1
        assert s2.get(3, 1) == 0
        assert s2.get(3, 2) == 1
        assert s2.get(4, 1) == 1
        cp2 = hodge_betti_table(build_free_loop_model(load_corpus_model("cp2")), 8)
        assert cp2.get(6, 1) == 1
        assert cp2.get(7, 1) == 0
        assert cp2.get(8, 1) == 1
        s3 = hodge_betti_table(build_free_loop_model(load_corpus_model("s3")), 11)
        for k in range(5):
            assert s3.get(2 * k, k) == 1
            assert s3.get(2 * k + 3, k) == 1


def test_criterion_4_aut_ranks_with_oracle():
    with verdict(4, "homotopy ranks of self-equivalences match the derivation oracle"):
        expected = {
            "s2": ({2: 1}, (1, 3, 4)),
            "s3": ({2: 1}, ()),
            "cp2": ({2: 1, 4: 1}, (1, 3, 5, 6)),
        }
        for name, (nonzero, zero_at) in expected.items():
            model, algebra, qmap, eqm = pipeline(name)
            aut = aut_rank_table(eqm, 8)
            for n, rank in nonzero.items():
                assert aut.get(n) == rank, "%s at n=%d" % (name, n)
            for n in zero_at:
                assert aut.get(n) == 0, "%s should vanish at n=%d" % (name, n)
            oracle = derivation_oracle(model, 9)
            for n in range(1, 9):
                assert aut.get(n) == oracle.get(n + 1), (
                    "%s oracle shift fails at n=%d" % (name, n)
                )


def test_criterion_5_quotient_correctness():
    with verdict(5, "duality quotients: CP2 is the truncated polynomial algebra"):
        _, cp2, _, _ = pipeline("cp2")
        assert cp2.labels == ("1", "x", "x^2")
        assert cp2.degrees == (0, 2, 4)
        assert cp2.product(1, 1) == {2: 1}
        assert cp2.product(1, 2) == {}
        assert cp2.product(2, 1) == {}
        assert cp2.product(2, 2) == {}
        for i in range(cp2.size):
            assert cp2.product(0, i) == {i: 1}
            assert cp2.product(i, 0) == {i: 1}
            assert cp2.image(i) == {}

        # the exterior algebra on one generator is already self-dual,
        # so nothing is collapsed
        _, s3, _, s3_eqm = pipeline("s3")
        assert s3.labels == ("1", "x")
        assert s3.degrees == (0, 3)
        assert s3_eqm.rho_tensor_matrix(3, 0).entries == {(0, 0): 1}

        for name in loopspace.corpus_models():
            verify_quasi_iso(pipeline(name)[3], 12)


def test_criterion_6_sign_identities():
    with verdict(6, "duality square identity and algebra axioms, zero sign failures"):
        sign_failures = 0
        for name in loopspace.corpus_models():
            model, algebra, qmap, eqm = pipeline(name)
            counts = structure_identities(algebra)
            for family in (
                "unit",
                "commutativity",
                "d_squared",
                "associativity",
                "leibniz",
                "degree",
            ):
                assert counts[family] > 0, "%s checked nothing for %s" % (name, family)
            duality_map(eqm)
            try:
                dual = build_dual_complex(eqm)
            except SignIdentityFailure:
                sign_failures += 1
                continue
            assert dual.lemma_slices > 0

            # recheck both differentials square to zero by direct
            # matrix composition, independent of the constructors
            top = algebra.top_degree
            for n in range(0, top + 2):
                for k in range(0, n + 1):
                    first = eqm.d_matrix(n, k)
                    second = eqm.d_matrix(n + 1, k)
                    assert not second.mul(first).entries, (
                        "extension differential fails to square to zero"
                    )
            lo, hi = dual.degree_range()
            for q in range(lo, hi):
                first = dual.d_matrix(q)
                second = dual.d_matrix(q + 1)
                assert not second.mul(first).entries, (
                    "dual differential fails to square to zero"
                )
        assert sign_failures == 0


def series_product(first, second, n_max):
    out = [0] * (n_max + 1)
    for i, a in enumerate(first):
        if i > n_max or a == 0:
            continue
        for j, b in enumerate(second):
            if i + j > n_max:
                break
            out[i + j] += a * b
    return out


def hilbert_series(degrees, n_max):
    # graded-commutative free algebra: odd generators contribute
    # (1 + t^d), even ones a geometric series
    series = [1] + [0] * n_max
    for d in degrees:
        if d % 2 == 1:
            factor = [0] * (n_max + 1)
            factor[0] = 1
            if d <= n_max:
                factor[d] = 1
        else:
            factor = [1 if i % d == 0 else 0 for i in range(n_max + 1)]
        series = series_product(series, factor, n_max)
    return series


def test_criterion_7_zero_differential_models():
    with verdict(7, "loop Betti of SU(3) and S3 match Hilbert series through 20"):
        started = time.monotonic()
        for name in ("su3", "s3"):
            model = load_corpus_model(name)
            degrees = [g.degree for g in model.generators]
            base = hilbert_series(degrees, 20)
            based_loops = hilbert_series([d - 1 for d in degrees], 20)
            expected = series_product(base, based_loops, 20)
            table = loop_betti(build_free_loop_model(model), 20)
            assert [table.get(n) for n in range(21)] == expected
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, "took %.2fs" % elapsed


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_criterion_8_negative_controls(tmp_path, corrupt_quotient):
    with verdict(8, "free algebra on x2 rejected, corrupted product detected"):
        bad = tmp_path / "free_even.model"
        bad.write_text("model FreeEven\ndim 2\ncomplete\ngen x 2\n")
        model = parse_model(bad.read_text())
        try:
            check_poincare_duality(model)
        except NotPoincareDuality:
            pass
        else:
            raise AssertionError("free even algebra passed the duality check")
        code, _ = run_cli(["verify", str(bad)])
        assert code == 1
        corrupt_quotient()
        code, out = run_cli(["verify", str(loopspace.corpus_path("s2"))])
        assert code == 3
        assert "error:" in out


def test_criterion_9_deterministic_output():
    with verdict(9, "verify --format json is byte-identical across runs"):
        for name in loopspace.corpus_models():
            path = str(loopspace.corpus_path(name))
            code_a, first = run_cli(["verify", path, "--format", "json"])
            code_b, second = run_cli(["verify", path, "--format", "json"])
            assert code_a == code_b == 0
            assert first == second
            json.loads(first)
