"""Models generated from formulas: the complete flag manifolds U(n)/T^n.

Cartan's model of U(n)/T^n has n generators a_i of degree 2 and, for each
elementary symmetric polynomial e_k, a generator y_k of degree 2k - 1
with d y_k = e_k(a_1, ..., a_n).  The pair (a_n, y_1) is linear, so the
minimal model sets a_n = -(a_1 + ... + a_{n-1}) and keeps y_2, ..., y_n.
Its cohomology is the coinvariant algebra, with Poincare polynomial the
q-factorial [n]_q! in q = t^2 and formal dimension n(n - 1); nothing here
comes from the package but the parser and the checks under test.
"""

from itertools import combinations

import pytest

from loopspace.cli import _COMMANDS
from loopspace.sections import verify_theorems
from loopspace.sullivan import parse_model
from test_sections import get_model


def poly_mul(p, q):
    """The product of two polynomials given as {exponent tuple: int}."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def render(p, names):
    """Model text for a polynomial, terms in descending exponent order."""
    terms = []
    for e, c in sorted(p.items(), reverse=True):
        mono = "*".join(n if x == 1 else "%s^%d" % (n, x)
                        for n, x in zip(names, e) if x)
        coeff = "" if abs(c) == 1 else "%d*" % abs(c)
        terms.append(("- " if c < 0 else "+ ") + coeff + mono)
    return " ".join(terms).lstrip("+ ")


def flag_model_text(n):
    """The minimal model of U(n)/T^n as model text, a_n eliminated."""
    names = ["a%d" % i for i in range(1, n)]
    unit = [tuple(int(i == j) for j in range(n - 1)) for i in range(n - 1)]
    linear = [{u: 1} for u in unit] + [{u: -1 for u in unit}]
    lines = ["model U(%d)/T^%d" % (n, n), "dim %d" % (n * (n - 1)), "complete"]
    lines += ["gen %s 2" % a for a in names]
    lines += ["gen y%d %d" % (k, 2 * k - 1) for k in range(2, n + 1)]
    for k in range(2, n + 1):
        e_k = {}
        for subset in combinations(linear, k):
            term = {(0,) * (n - 1): 1}
            for factor in subset:
                term = poly_mul(term, factor)
            for e, c in term.items():
                e_k[e] = e_k.get(e, 0) + c
        e_k = {e: c for e, c in e_k.items() if c}
        lines.append("d y%d = %s" % (k, render(e_k, names)))
    return "\n".join(lines) + "\n"


def q_factorial(n):
    """Coefficients of [n]_q! = prod_{k=1..n} (1 + q + ... + q^{k-1})."""
    coeffs = [1]
    for k in range(1, n + 1):
        coeffs = [sum(coeffs[j - i] for i in range(k) if 0 <= j - i < len(coeffs))
                  for j in range(len(coeffs) + k - 1)]
    return coeffs


def test_u3_is_the_flag_model_up_to_the_sign_of_its_odd_generators():
    generated = parse_model(flag_model_text(3))
    flag = get_model("flag")
    assert [g.degree for g in generated.generators] == [g.degree for g in flag.generators]
    assert generated.differential.images == {
        i: {m: -c for m, c in img.items()}
        for i, img in flag.differential.images.items()}


@pytest.fixture(scope="module")
def u4():
    return parse_model(flag_model_text(4))


def test_u4_base_betti_numbers_are_the_q_factorial(u4):
    N = u4.formal_dim
    assert N == 12
    assert q_factorial(4) == [1, 3, 5, 6, 5, 3, 1]
    assert [u4.betti(n) for n in range(N + 1)] == [
        q_factorial(4)[n // 2] if n % 2 == 0 else 0 for n in range(N + 1)]


def test_u4_quotient_passes_its_checks(u4):
    checks = _COMMANDS["quotient"][1]
    got = []
    rep = verify_theorems(u4, checks=checks, verdicts=got)
    assert got[3:] == [(name, True) for name in checks]
    assert rep.algebra.size == 100
    counts = rep.identity_counts
    assert (counts["commutativity"], counts["leibniz"], counts["associativity"]) == (
        1677, 1115, 9086)
