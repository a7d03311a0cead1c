"""Finite Poincare duality quotient of a Sullivan model.

Writing Z^k for the cocycles in degree k, pick a complement S^k of Z^k
spanned by monomials (the pivot columns of the reduced differential), and
set, for formal dimension N,

    I = S^{N-1} (+) d S^{N-1} (+) S^N (+) everything above degree N.

I is a differential ideal: d S^{N-1} lands in I by fiat, d S^N in degree
N+1, and any product with I lands above degree N because all generators
have degree at least 2.  The quotient A keeps degrees <= N-2 untouched,
degree N-1 becomes isomorphic to Z^{N-1} with the surviving monomials as
basis, and degree N collapses to one line spanned by the fundamental
class.  The quotient map is a quasi isomorphism whenever H vanishes above
N, which the duality check guarantees.

A is stored by structure constants: a_i a_j = sum_k alpha_ij^k a_k and
d a_i = sum_j beta_i^j a_j, both exact rationals.  The projection rho is
a table of monomial images: each monomial goes to its own class, to
zero, or, in degree N, to lambda times the fundamental class, so rho of
an element is a sum of table rows and no matrix stands behind it.
structure_identities checks the axioms and degrees of the tables, and
verify_quasi_iso that rho is a quasi-isomorphism, on the word-length zero
slices of the rho (x) 1 walk.  rho is multiplicative by construction: the
table holds rho of the products of lifts, which are monomials below
degree N - 1, and both sides vanish above degree N.
"""

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .errors import ChainMapFailure, IncompleteModel, IdentityViolation, QuasiIsoFailure
from .exactq import ONE, induced_rank, is_chain_map
from . import gca


class FiniteCdga:
    """A finite-dimensional cdga by structure constants.

    Basis indices are global, sorted by (degree, slice position); the unit
    is a_0 and the fundamental class a_{size-1}, the last index.  products
    maps (i, j) to {k: alpha_ij^k}, diff maps i to {j: beta_i^j}; absent
    keys mean zero, and `image(i)` is d a_i.  A is no complex of its own:
    with d_A it is the extended complex of sections at word length 0.
    """

    def __init__(self, name, degrees, labels, products, diff):
        self.name = name
        self.degrees = degrees
        self.labels = labels
        self.products = products
        self.diff = diff

    @property
    def size(self):
        return len(self.degrees)

    @property
    def top_degree(self):
        return self.degrees[-1]

    def basis(self, n):
        """The indices of degree n, in order."""
        return range(bisect_left(self.degrees, n), bisect_right(self.degrees, n))

    def upto(self, d):
        """The indices of degree <= d, in order."""
        return range(bisect_right(self.degrees, d))

    def product(self, i, j):
        return self.products.get((i, j), {})

    def image(self, i):
        return self.diff.get(i, {})


class QuotientMap(NamedTuple):
    """The projection rho : LV -> A as a table of monomial images.

    image[m] is rho(m) as {global class index: coeff}, held only where it
    is nonzero: a monomial of degree <= N-2, or of degree N-1 outside the
    complement S^{N-1}, maps to its own class with coefficient 1, and the
    degree-N monomial basis_N[c] maps to lambda_c times the fundamental
    class.  S^{N-1}, the degree-N monomials where lambda vanishes and
    every degree above N map to zero and have no entry.
    """
    image: dict

    def apply(self, elem):
        """Project an element dict of LV to {global class index: coeff}."""
        out = {}
        for m, c in elem.items():
            gca.elem_add_into(out, self.image.get(m, {}), c)
        return out


def build_quotient(model, pd_report):
    """Build the finite quotient cdga and its projection.

    Needs the generator list to be reliable through degree N+1, otherwise
    unseen generators could change the cocycle complements.  The degree-N
    projection is pd_report.top_functional, unique as Q omega + S^N + B^N
    is all of degree N.
    """
    N = model.formal_dim
    if model.completeness is not None and model.completeness < N + 1:
        raise IncompleteModel(
            "quotient needs generators through degree %d, model is only "
            "complete to %d" % (N + 1, model.completeness))

    gens = model.generators
    omega_elem = pd_report.fundamental_class

    # global basis of A with lifts back to LV, and rho on each monomial
    degrees = []
    labels = []
    reps = []
    image = {}
    for k in range(N):
        # degree N-1 drops the monomial complement of its cocycles
        dropped = set(model.s_pivots(k)) if k == N - 1 else ()
        for c, m in enumerate(model.basis(k)):
            if c not in dropped:
                image[m] = {len(degrees): ONE}
                degrees.append(k)
                labels.append(gca.render_monomial(gens, m))
                reps.append({m: ONE})
    basis_N = model.basis(N)
    image.update((basis_N[c], {len(degrees): v})
                 for c, v in pd_report.top_functional.items())
    degrees.append(N)
    labels.append(gca.render_element(gens, omega_elem))
    reps.append(dict(omega_elem))

    algebra = FiniteCdga(name=model.name, degrees=tuple(degrees),
                         labels=tuple(labels), products={}, diff={})
    qmap = QuotientMap(image=image)

    for i, rep_i in enumerate(reps):
        beta = qmap.apply(gca.apply_derivation(gens, model.differential, rep_i))
        if beta:
            algebra.diff[i] = beta
        for j in algebra.upto(N - degrees[i]):
            alpha = qmap.apply(gca.elem_mul(gens, rep_i, reps[j]))
            if alpha:
                algebra.products[(i, j)] = alpha

    return algebra, qmap


def structure_identities(algebra):
    """Check the cdga axioms on the structure constants, exactly.

    Unit, graded commutativity, d * d = 0, associativity and the Leibniz
    rule, then the degrees: each term a_k of a_i a_j has |a_k| = |a_i| +
    |a_j|, and each term a_j of d a_i has |a_j| = |a_i| + 1.  With those
    degrees every product or differential that would land above the
    formal dimension N is zero on both sides, so commutativity visits the
    pairs with |a_i| + |a_j| <= N, Leibniz those with |a_i| + |a_j| <=
    N - 1 and associativity the triples of degree <= N.  The degree check
    runs last, so a table that breaks an axiom inside these bounds names
    that axiom.  No later check reads the axioms: on SU(3) a product
    table without the Koszul sign, and on S2xS3 one with a single
    commutativity constant changed, pass every other check.  Returns the
    number of checks per family; raises IdentityViolation on the first
    that fails.
    """
    n = algebra.size
    deg = algebra.degrees
    N = algebra.top_degree
    upto = algebra.upto
    counts = {"unit": 0, "commutativity": 0, "d_squared": 0,
              "associativity": 0, "leibniz": 0, "degree": 0}

    for j in range(n):
        if algebra.product(0, j) != {j: ONE}:
            raise IdentityViolation("unit axiom fails at a_%d" % j)
        counts["unit"] += 1

    for i in range(n):
        for j in upto(N - deg[i]):
            sign = -1 if (deg[i] % 2 and deg[j] % 2) else 1
            left = algebra.product(i, j)
            right = {k: sign * v for k, v in algebra.product(j, i).items()}
            if left != right:
                raise IdentityViolation(
                    "graded commutativity fails at (a_%d, a_%d)" % (i, j))
            counts["commutativity"] += 1

    for i in range(n):
        acc = {}
        for j, v in algebra.image(i).items():
            gca.elem_add_into(acc, algebra.image(j), v)
        if acc:
            raise IdentityViolation("d*d nonzero on a_%d" % i)
        counts["d_squared"] += 1

    for i in range(n):
        for j in upto(N - deg[i]):
            for k in upto(N - deg[i] - deg[j]):
                left = {}
                for r, v in algebra.product(i, j).items():
                    gca.elem_add_into(left, algebra.product(r, k), v)
                right = {}
                for s_, v in algebra.product(j, k).items():
                    gca.elem_add_into(right, algebra.product(i, s_), v)
                if left != right:
                    raise IdentityViolation(
                        "associativity fails at (a_%d, a_%d, a_%d)" % (i, j, k))
                counts["associativity"] += 1

    for i in range(n):
        for j in upto(N - 1 - deg[i]):
            left = {}
            for r, v in algebra.product(i, j).items():
                gca.elem_add_into(left, algebra.image(r), v)
            right = {}
            for t, v in algebra.image(i).items():
                gca.elem_add_into(right, algebra.product(t, j), v)
            sign = -1 if deg[i] % 2 else 1
            for l, v in algebra.image(j).items():
                gca.elem_add_into(right, algebra.product(i, l), sign * v)
            if left != right:
                raise IdentityViolation(
                    "Leibniz rule fails at (a_%d, a_%d)" % (i, j))
            counts["leibniz"] += 1

    for (i, j), coeffs in algebra.products.items():
        for k in coeffs:
            if deg[k] != deg[i] + deg[j]:
                raise IdentityViolation(
                    "degree fails at a_%d * a_%d, term a_%d" % (i, j, k))
            counts["degree"] += 1
    for i, coeffs in algebra.diff.items():
        for j in coeffs:
            if deg[j] != deg[i] + 1:
                raise IdentityViolation(
                    "degree fails at d a_%d, term a_%d" % (i, j))
            counts["degree"] += 1

    return counts


# A failed rho (x) 1 check by word length, 0 or any k >= 1: the messages
# of the square (ChainMapFailure), then of Betti numbers and of an
# induced rank that differ (QuasiIsoFailure).
_RHO_FAILURES = {
    0: ("projection fails to commute with d on degree %(n)d",
        "H^%(n)d: model gives %(h)d, quotient gives %(h_ext)d",
        "induced map on H^%(n)d has rank %(got)d, expected %(h)d"),
    1: ("rho (x) 1 fails to commute with the differentials on slice "
        "(%(n)d, %(k)d)",
        "slice (%(n)d, %(k)d): loop model gives %(h)d, quotient gives %(h_ext)d",
        "slice (%(n)d, %(k)d): induced map has rank %(got)d, expected %(h)d"),
}


def _rho_quasi_iso(eqm, n_max, word_length):
    """The walk over the populated (n, k) up to n_max with k = 0, rho
    itself, for word_length 0, and k >= 1 for 1.  On each, in order: the
    rho (x) 1 square from n - 1 to n commutes, which the induced rank
    needs; the Betti numbers of A (x) L sV and the loop model agree (at
    k = 0 the loop model's is LV's), each `betti` testing its d d first;
    and the induced map has that rank.  No slice matrix above n_max is
    built.  Returns the slice count."""
    flm = eqm.flm
    chain, betti, induced = _RHO_FAILURES[word_length]
    slices = [(n, k) for n, k in flm.slices(n_max) if min(k, 1) == word_length]
    for n, k in slices:
        rho, d_ext = eqm.rho_tensor_matrix(n, k), eqm.d_matrix(n - 1, k)
        if not is_chain_map(rho, flm.d_matrix(n - 1, k), d_ext,
                            eqm.rho_tensor_matrix(n - 1, k)):
            raise ChainMapFailure(chain % {"n": n - 1, "k": k})
        h, h_ext = flm.betti(n, k), eqm.betti(n, k)
        if h != h_ext:
            raise QuasiIsoFailure(n, betti % {"n": n, "k": k, "h": h, "h_ext": h_ext})
        got = induced_rank(rho, flm.d_matrix(n, k), d_ext)
        if got != h:
            raise QuasiIsoFailure(n, induced % {"n": n, "k": k, "h": h, "got": got})
    return len(slices)


def verify_quasi_iso(eqm, n_max):
    """Check rho : LV -> A through n_max on the word-length zero slices of
    the extended complex eqm, A with d_A.  Returns the slice count."""
    return _rho_quasi_iso(eqm, n_max, 0)
