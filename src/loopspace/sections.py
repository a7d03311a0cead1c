"""Loop cohomology through the finite quotient, duality, and aut ranks.

Two chain-level objects are built on top of the quotient algebra A:

  * the extended complex A (x) L sV with differential Dbar, the image of
    the loop differential under the projection rho (x) 1; its word-length
    zero slice is A with d_A, and its word-length one slice A (x) sV
    carries the degrees that matter here;
  * the dual complex A-dual (x) sV, at word length 0 or 1, with

      delta(a_j' (x) sv) = (-1)^{|a_j|} [ sum_{i,l} alpha_il^j a_l' (x) t_i(v)
                                          - sum_r beta_r^j a_r' (x) sv ]

    where Dbar(1 (x) sv) = sum_i a_i (x) t_i(v) and a' denotes the dual
    basis vector.  This formula is forced by asking the evaluation pairing
    to be compatible with Dbar, and it makes Du (x) 1 a chain map up to
    (-1)^N whether or not Du is invertible, for the duality map Du : A ->
    A-dual, Du(a)(b) = coefficient of the fundamental class in a*b, of
    degree -N; that square identity is verified on every degree slice,
    exactly.  It is assembled as a complex of tensors over the extended
    complex's integer tables: the beta part is d' (x) 1, the alpha part
    the twist, and Du (x) 1 is placed by blocks as rho (x) 1 is.

Word length 0 is Du on A: the only suspended monomial is the unit,
Dbar(1 (x) 1) = 0 leaves the twist empty, the dual complex is A-dual with
d', and the square identity is the chain property of Du.  Likewise rho
(x) 1 at word length 0 is rho : LV -> A, so one walker of `pdquotient`
certifies both quasi-isomorphisms, rho in `verify_quasi_iso` and rho (x)
1 in `verify_rho_tensor_quasi_iso`, each slice once.  The loop model at
word length 0 is LV itself, its slices and Betti numbers the base
model's, so there the walk compares A's Betti number with the one the
base model ranked, once.

The ranks of interest are dim H^{n+N}(A (x) sV).  verify_duality_quasi_iso
checks them against the dual complex, with the rank Du (x) 1 induces, in
every degree where either complex is populated.  TheoremReport.compared
checks them against the word-length one loop cohomology and against the
homology of `DerivationComplex`, the derivations of the base model (the
classical description of the rational homotopy of the identity component
of the self-equivalences, Haefliger 1982), a complex of tensors laid out
like the loop side, with a twist of its own.
"""

from functools import cached_property
from math import lcm

from .errors import (ValidationFailure, SignIdentityFailure, DualMismatch,
                     TheoremMismatch, SingularDuality, InternalCheckFailure,
                     ChainMapFailure)
from .exactq import (TensorComplex, add_term, common_denominator, induced_rank,
                     is_chain_map, rank, scaled, tensor_one_matrix)
from . import gca
from .gca import DerivationSpec, Generator
from .sullivan import RankTable, validate, check_poincare_duality
from .freeloop import build_free_loop_model, hodge_betti_table, loop_betti
from .pdquotient import (build_quotient, structure_identities, verify_quasi_iso,
                         _rho_quasi_iso)


class ExtendedQuotientModel(TensorComplex):
    """A (x) L sV with the projected loop differential.

    A basis element is a pair (i, m), class a_i of `algebra` (x) a
    monomial m in the loop model's suspended generators `sgens`, in the
    order of (i, m).  Dbar is (rho (x) 1) o D:
    Dbar(1 (x) t) reads D(t) from the loop model and projects its base
    factors by rho, and

        Dbar(a_i (x) t) = d_A(a_i) (x) t + (-1)^|a_i| a_i * Dbar(1 (x) t),

    given to `TensorComplex` as `left_image(i)`, d_A(a_i), placed as
    d_A (x) 1 by blocks, and the twist as `right_image(t)`, Dbar(1 (x)
    t), and `times(i, l)`, (-1)^|a_i| a_i a_l.  Dbar(1 (x) t) is memoised
    once per suspended monomial t, in `_cache`.
    Building it tests no slice: `betti` tests each Dbar Dbar = 0 before it
    ranks a slice, and the rho (x) 1 walk and the square identity check
    the chain squares below the degrees that they compare.

    Its coefficients are ints over a denominator known in advance, from
    tables made integral once, here.  rho(b) of a base monomial is read
    from qmap.image times `rho_denominator`, R, the lcm of its
    denominators, so Dbar(1 (x) t) is an int over `dbar_denominator`,
    L R, with L the loop model's.  A structure constant lies in (1/P)Z,
    so a product term of Dbar lies in (1/LRP)Z, and `denominator` is the
    lcm of the denominators of d_A and L R P.
    """

    def __init__(self, algebra, qmap, flm):
        self.algebra = algebra
        self.qmap = qmap
        self.flm = flm
        self.sgens = flm.sgens
        self._cache = {}
        self.rho_denominator = common_denominator(
            c for img in qmap.image.values() for c in img.values())
        self._rho = {b: scaled(img, self.rho_denominator)
                     for b, img in qmap.image.items()}
        self.dbar_denominator = flm.denominator * self.rho_denominator
        self.denominator = lcm(
            common_denominator(c for img in algebra.diff.values() for c in img.values()),
            self.dbar_denominator * common_denominator(
                c for img in algebra.products.values() for c in img.values()))
        self._diff = {i: scaled(img, self.denominator)
                      for i, img in algebra.diff.items()}
        times = self.denominator // self.dbar_denominator
        self._products = {ij: scaled(img, times) for ij, img in algebra.products.items()}

    def left_basis(self, p):
        """The classes of A of degree p."""
        return self.algebra.basis(p)

    def right_image(self, t):
        """Dbar(1 (x) t) = sum c rho(b') (x) t' over the terms b' t' of D(t),
        as {(class, sv monomial): int} over `dbar_denominator`, built once
        per t."""
        return self.memo(("dbar", t), self._right_image, t)

    def _right_image(self, t):
        out = {}
        rho = self._rho
        for (b, t2), c in self.flm.right_image(t).items():
            for ai, v in rho.get(b, {}).items():
                add_term(out, (ai, t2), c * v)
        return out

    def left_image(self, i):
        """d_A(a_i), as {class: int} over `denominator`."""
        return self._diff.get(i)

    def times(self, i, l):
        """(-1)^|a_i| a_i a_l, as ((class, int), ...) over `denominator` /
        `dbar_denominator`."""
        prod = self._products.get((i, l), {})
        if self.algebra.degrees[i] % 2:
            return tuple((k, -a) for k, a in prod.items())
        return tuple(prod.items())

    def rho_tensor_matrix(self, n, k):
        """Matrix of rho (x) 1 from the loop slice (n, k) to this one, the
        block sum over j of rho_{n-j} (x) 1: rho(b) of each base monomial
        b, as ints over R, placed at the offsets of the two layouts."""
        return self.memo(("rho", n, k), self._rho_tensor_matrix, n, k)

    def _rho_tensor_matrix(self, n, k):
        return tensor_one_matrix(
            self.size(n, k), self.flm.size(n, k), self._rho.get,
            self.flm.layout(n, k), self.layout(n, k), self.rho_denominator,
            "projection left the slice at degree %d" % n)


def extend_to_quotient_loop(algebra, qmap, flm):
    """Push the loop differential of flm through the quotient of its base:
    check that each D(sv) has word length one and build A (x) L sV.  No
    slice is built or tested here; the rho (x) 1 walk does, at either word
    length."""
    nb = len(flm.base.generators)
    if any(sum(t) != 1 for j in range(nb)
           for _, t in flm.right_image(
               tuple(int(i == j) for i in range(nb)))):
        raise InternalCheckFailure(
            "loop differential of a suspension has word length != 1")
    return ExtendedQuotientModel(algebra=algebra, qmap=qmap, flm=flm)


def verify_rho_tensor_quasi_iso(eqm, n_max):
    """Check rho (x) 1 on every populated (n, k) with k >= 1 up to n_max,
    the slices that pdquotient.verify_quasi_iso leaves.  Returns the
    slice count."""
    return _rho_quasi_iso(eqm, n_max, 1)


class DualSectionComplex(TensorComplex):
    """A-dual (x) sV at word length 0 or 1 with the forced differential
    delta, a complex of tensors over the integer tables of the extended
    complex `eqm`, in ints over its `denominator`.

    Basis pairs (j, m) stand for a_j' (x) m in degree |m| - |a_j|, m a
    suspended monomial of `word_length` whatever word length is asked
    for, in the order of (j, m).  delta is `left_image` (x) 1 plus the
    twist, `times(j, i)` for each term a_i (x) t of `right_image(m)`.  A
    is read in one pass over each of eqm's tables: d' from `_diff`, and
    from `_products` one index {(i, j): {l: alpha_il^j}} of the products
    by their factor a_i and term a_j, as ints over `denominator` /
    `dbar_denominator`.  `times` reads that index, and Du (x) 1 its
    entries at the fundamental class j = top, times `dbar_denominator`.
    lemma_slices counts the degrees that the quasi-iso compares, each
    square identity below them.
    """

    def __init__(self, eqm, word_length):
        self.eqm = eqm
        self.sgens = eqm.sgens
        self.word_length = word_length
        self._cache = {}
        self.lemma_slices = 0
        self.denominator = eqm.denominator
        degs = eqm.algebra.degrees
        self._codiff = {}
        for r, img in eqm._diff.items():
            for j, v in img.items():
                self._codiff.setdefault(j, {})[r] = v if degs[j] % 2 else -v
        self._index = {}
        for (i, l), img in eqm._products.items():
            for j, v in img.items():
                self._index.setdefault((i, j), {})[l] = v
        top, dbar = len(degs) - 1, eqm.dbar_denominator
        self._du = {i: {l: v * dbar for l, v in img.items()}
                    for (i, j), img in self._index.items() if j == top}

    def degree_range(self):
        svs = gca.word_length_degrees(self.sgens, self.word_length)
        degs = self.eqm.algebra.degrees
        return svs[0] - max(degs), svs[-1] - min(degs)

    def left_basis(self, p):
        """The classes j of A with a_j' of degree p, |a_j| = -p."""
        return self.eqm.algebra.basis(-p)

    def left_image(self, j):
        """d'(a_j') = -(-1)^{|a_j|} sum_r beta_r^j a_r' for d'(f) = -(-1)^{|f|}
        f o d, as {class: int} over `denominator`."""
        return self._codiff.get(j)

    def right_image(self, m):
        """Dbar(1 (x) m), read from eqm."""
        return self.eqm.right_image(m)

    def times(self, j, i):
        """(-1)^{|a_j|} sum_l alpha_il^j a_l', as ((class, int), ...) over
        `denominator` / `dbar_denominator`: for each term c a_i (x) t of
        Dbar(1 (x) m), delta(a_j' (x) m) has c times it (x) t."""
        img = self._index.get((i, j), {})
        if self.eqm.algebra.degrees[j] % 2:
            return tuple((l, -a) for l, a in img.items())
        return tuple(img.items())

    @property
    def singular_degrees(self):
        """The degrees n where the block of Du (x) 1 from eqm's slice is not
        square or not of full rank, though it may induce an isomorphism."""
        N = self.eqm.algebra.top_degree
        lo, hi = self.degree_range()
        return tuple(n for n in range(lo + N, hi + N + 1)
                     if (du := _du_tensor_matrix(self.eqm, self, n)).rows != du.cols
                     or rank(du) < du.cols)


def _du_tensor_matrix(eqm, dual, n):
    """Matrix of Du (x) 1 from the slice of A (x) L sV at degree n and the
    dual's word length to degree n - N of the dual complex, the block sum
    of Du(a_i) = sum_l alpha_il^top a_l' placed by the two layouts as rho
    (x) 1 is; built once per n and kept in the dual's memo."""
    m, k = n - eqm.algebra.top_degree, dual.word_length
    return dual.memo(("du", n), lambda: tensor_one_matrix(
        dual.size(m), eqm.size(n, k), dual._du.get,
        eqm.layout(n, k), dual.layout(m), dual.denominator,
        "Du (x) 1 left its degree slice at %d" % n))


# A failed duality check by word length: the error and message of the
# square identity, then the quasi-iso's error and its messages for a
# Betti number and for an induced rank that differ.
_SINGULAR = "duality map is not an isomorphism on H^%(n)d (rank %(got)d of %(h)d)"
_DUALITY_FAILURES = {
    0: (ChainMapFailure, "duality map fails the chain property at degree %(n)d",
        SingularDuality, _SINGULAR, _SINGULAR),
    1: (SignIdentityFailure, "square identity fails on the degree %(n)d slice",
        DualMismatch,
        "degree %(n)d: section complex gives %(h)d, dual complex gives %(h_dual)d",
        "degree %(n)d: induced duality map has rank %(got)d, expected %(h)d"),
}


def _dual_complex(eqm, word_length):
    """The dual complex at word_length on eqm's tables, verified exactly:
    delta o delta = 0 in every degree (`tested_pair`), then the square
    identity below each degree n that `verify_duality_quasi_iso` compares

        delta o (Du (x) 1) = (-1)^N (Du (x) 1) o Dbar

    from degree n - 1 to n of eqm at that word length."""
    dual = DualSectionComplex(eqm, word_length)
    lo, hi = dual.degree_range()
    for m in range(lo, hi + 1):
        dual.tested_pair(m)

    N = eqm.algebra.top_degree
    sgn_n = -1 if N % 2 else 1
    error, message = _DUALITY_FAILURES[word_length][:2]
    du = _du_tensor_matrix(eqm, dual, lo + N - 1)
    for n in range(lo + N, hi + N + 1):
        du_below, du = du, _du_tensor_matrix(eqm, dual, n)
        if not is_chain_map(du, eqm.d_matrix(n - 1, word_length),
                            dual.d_matrix(n - 1 - N), du_below, sgn_n):
            raise error(message % {"n": n - 1})
    dual.lemma_slices = hi - lo + 1
    return dual


def duality_map(eqm):
    """Du on A, the dual complex at word length 0, with its chain property
    verified; its blocks may be singular at the cochain level."""
    return _dual_complex(eqm, 0)


def build_dual_complex(eqm):
    """(A-dual (x) sV, delta), with its square identity verified."""
    return _dual_complex(eqm, 1)


def verify_duality_quasi_iso(eqm, dual):
    """Check Du (x) 1 induces isomorphisms H^n -> H^{n-N}(dual) from eqm
    at the dual's word length, in every degree where either complex is
    populated.  Returns the number of degrees compared."""
    N, k = eqm.algebra.top_degree, dual.word_length
    error, betti_message, rank_message = _DUALITY_FAILURES[k][2:]
    lo, hi = dual.degree_range()
    for n in range(lo + N, hi + N + 1):
        h, h_dual = eqm.betti(n, k), dual.betti(n - N)
        got = induced_rank(_du_tensor_matrix(eqm, dual, n),
                           eqm.d_matrix(n, k), dual.d_matrix(n - N - 1))
        if h_dual != h or got != h:
            raise error((betti_message if h_dual != h else rank_message)
                        % {"n": n, "h": h, "h_dual": h_dual, "got": got})
    return hi - lo + 1


def aut_rank_table(eqm, n_aut_max):
    """dim H^{n+N}(A (x) sV) for n = 1..n_aut_max."""
    model = eqm.flm.base
    N = model.formal_dim
    entries = {n: eqm.betti(n + N, 1) for n in range(1, n_aut_max + 1)}
    return RankTable(entries, model.trusted(n_aut_max, 1 + N))


def low_degree_section_classes(eqm):
    """dim H^n(A (x) sV) for 1 <= n <= N, kept apart from the aut ranks."""
    N = eqm.algebra.top_degree
    return {n: eqm.betti(n, 1) for n in range(1, N + 1)}


class DerivationComplex(TensorComplex):
    """Der(LV) = LV (x) V-dual: level m, the derivations of degree -m, at
    cochain degree -m.  The pair (b, t) is theta, sending the generator v
    of t, a unit tuple over `sgens`, the duals v' of degree -|v|, to b and
    the others to 0.  D theta = d o theta - (-1)^|theta| theta o d is d
    (x) 1 plus the twist of `right_image` and `times`, in ints over
    `denominator`, both from the parsed d through `gca.apply_derivation`,
    never from the loop model's twist."""

    word_length = 1

    def __init__(self, model):
        self.model = model
        self._cache = {}
        gens, images = model.generators, model.differential.images.items()
        self.sgens = tuple(Generator(g.name + "'", -g.degree, "suspended", i)
                           for i, g in enumerate(gens))
        self._units = [tuple(int(g == h) for h in gens) for g in gens]
        den = self.denominator = common_denominator(c for _, e in images for c in e.values())
        self._d = DerivationSpec(1, {i: scaled(img, den) for i, img in images})

    def left_basis(self, p):
        """The base monomials of degree p, none below degree 0."""
        return self.model.basis(p) if p >= 0 else ()

    def left_image(self, b):
        """d(b), as {b': int} over `denominator`."""
        return gca.apply_derivation(self.model.generators, self._d, {b: 1})

    def right_image(self, t):
        """For the generator v of t, {((v, m), w'): c} over the generators w
        and the terms c m of d(w) with a factor v, c over `denominator`."""
        return self.memo(("right", t), self._right_image, t)

    def _right_image(self, t):
        v = t.index(1)
        return {((v, m), unit): c for w, unit in enumerate(self._units)
                for m, c in self._d.images.get(w, {}).items() if m[v]}

    def times(self, b, x):
        """-(-1)^|theta| theta(m), for x = (v, m) and theta the derivation
        sending v to b and the other generators to 0, as ((b', int), ...):
        theta of pair (b, t) sends d(w) to the sum of c theta(m) over the
        terms of right_image(t), and D theta has that term at w'."""
        v, m = x
        gens = self.model.generators
        degree = gca.monomial_degree(gens, b) - gens[v].degree
        theta = DerivationSpec(degree, {w: {b: 1} if w == v else {} for w in range(len(gens))})
        sign = 1 if degree % 2 else -1
        return tuple((b2, sign * c)
                     for b2, c in gca.apply_derivation(gens, theta, {m: 1}).items())


def derivation_oracle(model, m_max):
    """Homology H_m of Der(LV) for 1 <= m <= m_max, the cohomology of
    `DerivationComplex` in degree -m, level 0 included as the target of
    level 1.  H_{n+1} here must match the rank table at n, for n >= 1;
    that shift is what the theorem checks exploit.
    """
    der = DerivationComplex(model)
    entries = {m: der.betti(-m) for m in range(1, m_max + 1)}
    return RankTable(entries, model.trusted(m_max, model.formal_dim))


class TheoremReport:
    """The objects a run of checks on one model shares and the results it
    verifies, each built once, on first use.

    Building an object verifies it: every constructor below raises on the
    first identity that fails.  The quotient and eqm are the exceptions:
    structure_identities certifies the quotient, and the rho (x) 1 walk,
    its slices (n, 0) in quasi_iso and the others in rho_tensor_slices,
    tests the squares of eqm through its `betti` (see ExtendedQuotientModel).
    So are the rank tables aut, low_degree and oracle: duality_degrees
    compares the slices that aut reads with the dual complex, and
    `compared` checks aut and oracle against the loop side.  dmap and dual
    are the dual complex at word lengths 0 and 1, dmap_degrees and
    duality_degrees their quasi-isos.
    """

    def __init__(self, model, n_max):
        self.model = model
        self.formal_dim = model.formal_dim
        self.n_max = n_max

    @cached_property
    def pd_report(self):
        return check_poincare_duality(self.model, self.n_max)

    @cached_property
    def quotient(self):
        return build_quotient(self.model, self.pd_report)

    @property
    def algebra(self):
        return self.quotient[0]

    @cached_property
    def identity_counts(self):
        return structure_identities(self.algebra)

    @cached_property
    def quasi_iso(self):
        return verify_quasi_iso(self.eqm, self.n_max)

    @cached_property
    def flm(self):
        return build_free_loop_model(self.model)

    @cached_property
    def eqm(self):
        return extend_to_quotient_loop(*self.quotient, self.flm)

    @cached_property
    def rho_tensor_slices(self):
        return verify_rho_tensor_quasi_iso(self.eqm, self.n_max)

    @cached_property
    def dmap(self):
        return duality_map(self.eqm)

    @cached_property
    def dmap_degrees(self):
        return verify_duality_quasi_iso(self.eqm, self.dmap)

    @property
    def cochain_perfect(self):
        return not self.dmap.singular_degrees

    @cached_property
    def dual(self):
        self.dmap_degrees  # Du's chain property and cohomology iso come first
        return build_dual_complex(self.eqm)

    @cached_property
    def duality_degrees(self):
        return verify_duality_quasi_iso(self.eqm, self.dual)

    @cached_property
    def aut(self):
        return aut_rank_table(self.eqm, self.n_max - self.formal_dim)

    @cached_property
    def low_degree(self):
        return low_degree_section_classes(self.eqm)

    @cached_property
    def hodge(self):
        return hodge_betti_table(self.flm, self.n_max)

    @cached_property
    def loop(self):
        return loop_betti(self.flm, self.n_max, hodge=self.hodge)

    @cached_property
    def oracle(self):
        return derivation_oracle(self.model, self.n_max - self.formal_dim + 1)

    @cached_property
    def compared(self):
        """(n, section, word-length one loop, derivation) rank rows, the
        derivation homology shifted by one; raises unless all three agree."""
        N = self.formal_dim
        aut, hodge, oracle = self.aut, self.hodge, self.oracle
        compared = []
        for n in range(1, min(self.n_max - N, aut.trusted_up_to) + 1):
            a, h1, o = aut.get(n), hodge.get(n + N, 1), oracle.get(n + 1)
            if not (a == h1 == o):
                raise TheoremMismatch(
                    "rank disagreement at n=%d: section %d, loop word-length-one %d, "
                    "derivation %d" % (n, a, h1, o))
            compared.append((n, a, h1, o))
        return compared


# The checks in the order they run, each with the TheoremReport object
# whose construction carries it out.  quasi_iso and rho_tensor_slices
# walk the slices of rho (x) 1 at word length 0 and the others, each
# once.  verify_duality_quasi_iso compares
# the section and dual complexes in every populated degree, the aut
# ranks' included, and takes the rank Du (x) 1 induces, so
# duality_degrees alone serves two checks.
CHECKS = (
    ("poincare_duality", "pd_report"),
    ("structure_identities", "identity_counts"),
    ("quotient_quasi_iso", "quasi_iso"),
    ("loop_extension_quasi_iso", "rho_tensor_slices"),
    ("duality_chain_property", "dmap"),
    ("duality_cohomology_iso", "dmap_degrees"),
    ("square_identity", "dual"),
    ("dual_complex_quasi_iso", "duality_degrees"),
    ("dual_complex_agreement", "duality_degrees"),
    ("hodge_sum_consistency", "loop"),
    ("rank_triple_agreement", "compared"),
)

# verify reports the comparison with the dual complex once, on its
# dual_complex_quasi_iso line; aut-ranks names it dual_complex_agreement.
VERIFY_CHECKS = tuple(name for name, _ in CHECKS
                      if name != "dual_complex_agreement")


def window(model, n_max, checks):
    """Top degree computed: n_max, by default `model.default_window`.

    Checks that use the quotient certify its structure identities first,
    and the quotient needs the window to reach formal dimension + 2.
    """
    if n_max is None:
        n_max = model.default_window
    if "structure_identities" in checks:
        n_max = max(n_max, model.formal_dim + 2)
    return n_max


def verify_theorems(model, n_max=None, checks=VERIFY_CHECKS, verdicts=None):
    """Validate the model, then run the named checks in CHECKS order.

    The window is window(model, n_max, checks).  Each verdict is appended
    to `verdicts`, when a list is given, as (check, passed).  The three
    structural checks of validate() are all recorded, passing or not, and
    an invalid model stops the run; every later check is recorded only
    after it returns, and the first one that fails raises.  A name that is
    not in CHECKS raises ValueError before any work.  Returns the
    TheoremReport holding what the checks built.
    """
    unknown = set(checks).difference(name for name, _ in CHECKS)
    if unknown:
        raise ValueError("unknown check: %s" % ", ".join(sorted(unknown)))
    if verdicts is None:
        verdicts = []
    vrep = validate(model)
    verdicts.extend((name, ok) for name, ok, _ in vrep.checks)
    if not vrep.passed:
        bad = "; ".join(d for _, ok, d in vrep.checks if not ok)
        raise ValidationFailure("model is not a valid input: %s" % bad)
    report = TheoremReport(model, window(model, n_max, checks))
    for name, obj in CHECKS:
        if name in checks:
            getattr(report, obj)
            verdicts.append((name, True))
    return report
