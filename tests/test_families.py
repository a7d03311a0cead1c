"""Models generated from formulas: the complete flag manifolds U(n)/T^n
and the complex Grassmannians G(k, n).

Cartan's model of U(n)/T^n has n generators a_i of degree 2 and, for each
elementary symmetric polynomial e_k, a generator y_k of degree 2k - 1
with d y_k = e_k(a_1, ..., a_n).  The pair (a_n, y_1) is linear, so the
minimal model sets a_n = -(a_1 + ... + a_{n-1}) and keeps y_2, ..., y_n.
Its cohomology is the coinvariant algebra, with Poincare polynomial the
q-factorial [n]_q! in q = t^2 and formal dimension n(n - 1).

Cartan's model of G(k, n), for n >= 2k, has the Chern classes c_i of
degree 2i, i = 1..k, and, for j = n-k+1..n, a generator y_j of degree
2j - 1 whose d is the degree-2j part of 1 / (1 + c_1 + ... + c_k): the
classes of the complement bundle above its rank.  Its cohomology has
Poincare polynomial the Gaussian binomial [n choose k]_q in q = t^2 and
formal dimension 2k(n - k).  Nothing here comes from the package but the
parser and the checks under test.
"""

from itertools import combinations

import pytest

from loopspace.cli import _COMMANDS
from loopspace.sections import VERIFY_CHECKS, verify_theorems
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


def test_u4_passes_every_verdict_at_its_least_window(u4):
    got = []
    rep = verify_theorems(u4, 14, verdicts=got)
    assert rep.n_max == 14
    assert got == [(name, True) for name in (
        "simply_connected", "minimal", "d_squared_zero") + VERIFY_CHECKS]


def grassmannian_model_text(k, n):
    """The minimal model of G(k, n) as model text, for n >= 2k, so that
    every d y_j is decomposable."""
    assert n >= 2 * k
    names = ["c%d" % i for i in range(1, k + 1)]
    c = [{tuple(int(i == j) for j in range(k)): 1} for i in range(k)]
    # the parts of 1 / (1 + c_1 + ... + c_k) by degree: h_0 = 1 and
    # h_j = -(c_1 h_{j-1} + ... + c_k h_{j-k})
    h = [{(0,) * k: 1}]
    for j in range(1, n + 1):
        h_j = {}
        for i in range(1, min(j, k) + 1):
            for e, v in poly_mul(c[i - 1], h[j - i]).items():
                h_j[e] = h_j.get(e, 0) - v
        h.append({e: v for e, v in h_j.items() if v})
    lines = ["model G(%d,%d)" % (k, n), "dim %d" % (2 * k * (n - k)), "complete"]
    lines += ["gen %s %d" % (name, 2 * i) for i, name in enumerate(names, 1)]
    lines += ["gen y%d %d" % (j, 2 * j - 1) for j in range(n - k + 1, n + 1)]
    lines += ["d y%d = %s" % (j, render(h[j], names)) for j in range(n - k + 1, n + 1)]
    return "\n".join(lines) + "\n"


def gaussian_binomial(n, k):
    """Coefficients of [n choose k]_q, by [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k == 0 or k == n:
        return [1]
    left, right = gaussian_binomial(n - 1, k - 1), [0] * k + gaussian_binomial(n - 1, k)
    return [(left[i] if i < len(left) else 0) + right[i] for i in range(len(right))]


def test_g24_is_written_out():
    assert grassmannian_model_text(2, 4) == (
        "model G(2,4)\ndim 8\ncomplete\ngen c1 2\ngen c2 4\ngen y3 5\ngen y4 7\n"
        "d y3 = - c1^3 + 2*c1*c2\nd y4 = c1^4 - 3*c1^2*c2 + c2^2\n")
    assert gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 6)])
def test_grassmannian_betti_numbers_dimension_and_verdicts(k, n):
    model = parse_model(grassmannian_model_text(k, n))
    N = model.formal_dim
    assert N == 2 * k * (n - k)
    poincare = gaussian_binomial(n, k)
    assert [model.betti(m) for m in range(N + 1)] == [
        poincare[m // 2] if m % 2 == 0 else 0 for m in range(N + 1)]
    got = []
    verify_theorems(model, N + 2, verdicts=got)
    assert got == [(name, True) for name in (
        "simply_connected", "minimal", "d_squared_zero") + VERIFY_CHECKS]
