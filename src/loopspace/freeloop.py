"""Free loop space model and the word-length (Hodge) decomposition.

From a base model (LV, d) build (LV (x) L sV, D) where sV has a degree
shifted generator sv for each v, |sv| = |v| - 1, and

    D(v)  = d(v),
    D(sv) = -s(d(v)),

with s the degree -1 derivation sending v to sv and sv to 0.  D preserves
the number of suspended factors in a monomial, so each cohomology group
splits by that word length; the pieces are computed slice by slice, and
their sum is cross-checked against a second elimination of the same
slices, over their rows.  Word length 0 is (LV, d) itself,
the constant loops, so its slices and ranks are the base model's own.

The model is the tensor product of its factors LV and L sV, and its slices
are built from them.  A loop monomial b*t, b over the base generators and
t over the suspended ones, is the pair (b, t) of exponent tuples, and

    D(b*t) = d(b)*t + (-1)^|b| b*D(t),

so a slice is d (x) 1 on the base factor, placed in blocks, plus a
twist: one base-length product b*b' for each term b'*t' of D(t).  Slice
(n, k) is the union over j of the degree n - j base monomials times the
degree j suspended monomials of word length k, its pairs in ascending
order, that of b + t, laid out block by block by `exactq.TensorComplex`,
which builds the slice from that layout; sections reads D(t).
"""

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import DifferentialSquareNonzero, HodgeSumMismatch
from .exactq import ONE, TensorComplex, common_denominator, rank, scaled
from . import gca
from .gca import Generator, DerivationSpec
from .sullivan import RankTable


class FreeLoopModel(TensorComplex):
    """(LV (x) L sV, D), a complex of tensors: the left factors are the
    monomials of base, the SullivanModel, and the right factor is L sV
    on `sgens`, shared with the extended complex, so a pair (b, t) holds
    the tuples of `gca.basis_of_degree` and `gca.word_length_slices`.
    generators are base's then the suspended ones, and suspension the
    degree -1 derivation s with s(v) = sv, s(sv) = 0.

    D(b*t) = d(b)*t + (-1)^|b| b*D(t) is given to `TensorComplex` in
    parts: `left_image(b)`, d(b), which the slice places as d (x) 1 by
    blocks, and the twist (-1)^|b| b*D(t) as `right_image(t)`, D(t), and
    `times(b, b')`, (-1)^|b| b*b', from one base-length
    `normalize_product`, which the slice asks once per b and b'.  The
    coefficients are ints over `denominator`, L, the lcm of the
    denominators in D: a coefficient of D(b*t) is one of d times an
    integer from the exponents and the signs.  `_d_base` keeps, for each
    base monomial b, the parity of |b| and d(b) * L; `_d_susp` keeps D(t)
    * L for each suspended monomial t as {(b', t'): c} with c an int,
    filled by `right_image`, which the extended complex of sections reads
    too.  Both come from `gca.apply_derivation` on d and D times L, and
    both live as long as the model: caches the size of the two factors,
    not one entry per loop monomial.  Every slice has its word length k,
    and each of word length k >= 1 is built from its own layout; at word
    length 0, LV, the `d_matrix` and `betti` are the base model's, built
    and ranked once, and the layout stays for rho (x) 1.  `slices(n_max)`
    lists the populated (n, k), read from the bases of the two factors:
    every complex over this one, the extended complex included, is empty
    outside them.
    """

    def __init__(self, base, generators, loop_differential, suspension):
        self.base = base
        self.generators = generators
        self.loop_differential = loop_differential
        self.suspension = suspension
        self.sgens = generators[len(base.generators):]
        self._cache, self._d_base, self._d_susp = {}, {}, {}

    @cached_property
    def denominator(self):
        """L, the lcm of the coefficient denominators of D, read on first use."""
        return common_denominator(c for img in self.loop_differential.images.values()
                                  for c in img.values())

    @cached_property
    def _integral_differentials(self):
        """d on the base generators and D on all of them, times L, as ints."""
        L = self.denominator
        return tuple(
            DerivationSpec(1, {i: scaled(img, L) for i, img in spec.images.items()})
            for spec in (self.base.differential, self.loop_differential))

    def left_basis(self, p):
        """The base monomials of degree p, none below degree 0."""
        return gca.basis_of_degree(self.base.generators, p) if p >= 0 else ()

    def slices(self, n_max):
        """The (n, k), k <= n <= n_max, whose slice basis is not empty, in
        order: n = j + d for a degree j with suspended monomials of word
        length k and a degree d with base monomials, read from the two
        factors' cached bases, so no loop basis is built."""
        base = [d for d in range(n_max + 1) if gca.basis_of_degree(self.base.generators, d)]
        return sorted({(j + d, k) for j in range(n_max + 1)
                       for k in gca.word_length_slices(self.sgens, j)
                       for d in base if j + d <= n_max})

    def d_matrix(self, n, k):
        """The slice matrix; at word length 0, LV, the base model's own."""
        return self.base.d_matrix(n) if k == 0 else super().d_matrix(n, k)

    def betti(self, n, k):
        """dim H^n of the slice; at word length 0, LV, the base model's."""
        return self.base.betti(n) if k == 0 else super().betti(n, k)

    def tested_pair(self, n, k):
        """d(n, k) and d(n - 1, k), their composite tested; at word length
        0, LV, the base model's pair, tested once."""
        return self.base.tested_pair(n) if k == 0 else super().tested_pair(n, k)

    def _factor(self, b):
        """(parity of |b|, d(b) * L) of a base monomial b, kept in
        `_d_base`."""
        base_gens = self.base.generators
        got = self._d_base[b] = (
            gca.monomial_degree(base_gens, b) % 2,
            gca.apply_derivation(base_gens, self._integral_differentials[0], {b: 1}))
        return got

    def left_image(self, b):
        """d(b), as {b': int} over L."""
        return (self._d_base.get(b) or self._factor(b))[1]

    def times(self, b, b1):
        """(-1)^|b| b*b1, as ((b*b1, 1 or -1),), or () when it is 0."""
        p = gca.normalize_product(self.base.generators, b, b1)
        if not p:
            return ()
        odd = (self._d_base.get(b) or self._factor(b))[0]
        return ((p[1], -p[0] if odd else p[0]),)

    def right_image(self, t):
        """D(t) for a suspended monomial t, as {(b', t'): int} over L, kept
        in `_d_susp`."""
        dt = self._d_susp.get(t)
        if dt is None:
            nb = len(self.base.generators)
            full = gca.apply_derivation(
                self.generators, self._integral_differentials[1], {(0,) * nb + t: 1})
            dt = self._d_susp[t] = {(m[:nb], m[nb:]): c for m, c in full.items()}
        return dt


def build_free_loop_model(model):
    """Construct the free loop model and verify D * D = 0 exactly."""
    base_gens = model.generators
    nb = len(base_gens)
    gens = tuple(base_gens) + tuple(
        Generator("s" + g.name, g.degree - 1, "suspended", i)
        for i, g in enumerate(base_gens))

    lifted = {}
    for i in range(nb):
        img = model.differential.images.get(i, {})
        lifted[i] = {m + (0,) * nb: c for m, c in img.items()}

    susp_images = {}
    for i in range(nb):
        sv = tuple(1 if j == nb + i else 0 for j in range(2 * nb))
        susp_images[i] = {sv: ONE}
        susp_images[nb + i] = {}
    suspension = DerivationSpec(-1, susp_images)

    d_images = {}
    for i in range(nb):
        d_images[i] = dict(lifted[i])
        s_dv = gca.apply_derivation(gens, suspension, lifted[i])
        d_images[nb + i] = gca.elem_add_into({}, s_dv, -ONE)
    loop_d = DerivationSpec(1, d_images)

    for i in range(2 * nb):
        dd = gca.apply_derivation(gens, loop_d, d_images[i])
        if dd:
            raise DifferentialSquareNonzero(
                "D*D nonzero on %s: %s" % (gens[i].name, gca.render_element(gens, dd)))

    return FreeLoopModel(base=model, generators=gens,
                         loop_differential=loop_d, suspension=suspension)


class HodgeTable(NamedTuple):
    """dim H^n restricted to word length k, for every populated slice."""
    entries: dict      # (n, k) -> int
    n_max: int
    trusted_up_to: int

    def get(self, n, k):
        return self.entries.get((n, k), 0)

    def row(self, n):
        return {k: v for (m, k), v in self.entries.items() if m == n}

    def row_sum(self, n):
        return sum(self.row(n).values())


def hodge_betti_table(flm, n_max, jobs=1):
    """dim H^n of every populated (degree n, word length k) slice.

    `jobs` is accepted for compatibility and ignored: every slice is
    computed in this process.
    """
    entries = {(n, k): flm.betti(n, k) for n, k in flm.slices(n_max)}
    return HodgeTable(entries=entries, n_max=n_max,
                      trusted_up_to=flm.base.trusted(n_max, 1))


def loop_betti(flm, n_max, hodge=None):
    """dim H^n of the whole loop model, the sum over k of dim C^{n,k} -
    rank d(n, k) - rank d(n - 1, k); given the `hodge` table, checks that
    its word-length pieces add up to it.  Each populated slice d, its
    square tested by `tested_pair`, is ranked by `rank(d.transpose())`:
    a pass over its rows with nothing cleared, the other direction from
    the cleared pass over its columns that `betti` takes."""
    ranks = {nk: rank(flm.tested_pair(*nk)[0].transpose()) for nk in flm.slices(n_max)}
    entries = dict.fromkeys(range(n_max + 1), 0)
    for (n, k), r in ranks.items():
        entries[n] += flm.d_matrix(n, k).cols - r - ranks.get((n - 1, k), 0)
    if hodge is not None:
        top = min(n_max, hodge.n_max)
        for n in range(top + 1):
            if hodge.row_sum(n) != entries[n]:
                raise HodgeSumMismatch(
                    "degree %d: word-length pieces sum to %d, the row pass gives %d"
                    % (n, hodge.row_sum(n), entries[n]))
    return RankTable(entries, flm.base.trusted(n_max, 1))


def integer_nth_root(x, n):
    """floor(x ** (1/n)) by pure integer bisection."""
    if x < 0 or n < 1:
        raise ValueError("integer_nth_root needs x >= 0, n >= 1")
    if x in (0, 1) or n == 1:
        return x
    hi = 1
    while hi ** n <= x:
        hi <<= 1
    lo = hi >> 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** n <= x:
            lo = mid
        else:
            hi = mid
    return lo


def _root_decimal(s, n, places=6):
    """s ** (1/n) truncated to `places` decimals, as a string."""
    scaled = integer_nth_root(s * 10 ** (places * n), n)
    return "%d.%0*d" % (scaled // 10 ** places, places, scaled % 10 ** places)


class GrowthReport(NamedTuple):
    partial_sums: list   # s_n for n = 0..T
    ratios: list         # Fraction s_{n+1}/s_n for each n with s_n > 0
    roots: list          # (n, "d.dddddd") for s_n^(1/n), n >= 1, s_n > 0
    verdict: str


_RATIO_BAR = Fraction(9, 8)


def growth_report(betti_table, n_max=None):
    """Partial-sum growth of loop space cohomology, judged conservatively.

    The verdict looks only at the last three ratios of consecutive partial
    sums: all at most 9/8 reads as sub-exponential, all at least 9/8 as
    exponential within the window, anything else (or a window shorter than
    degree 6) is inconclusive.
    """
    T = n_max if n_max is not None else max(betti_table.entries, default=0)
    sums = []
    acc = 0
    for n in range(T + 1):
        acc += betti_table.get(n)
        sums.append(acc)
    ratios = [Fraction(sums[n + 1], sums[n]) for n in range(T) if sums[n] > 0]
    roots = [(n, _root_decimal(sums[n], n)) for n in range(1, T + 1) if sums[n] > 0]

    if sums and sums[-1] == 0:
        verdict = "degenerate"
    elif T < 6 or len(ratios) < 3:
        verdict = "inconclusive"
    else:
        tail = ratios[-3:]
        if all(r <= _RATIO_BAR for r in tail):
            verdict = "sub-exponential"
        elif all(r >= _RATIO_BAR for r in tail):
            verdict = "exponential-in-window"
        else:
            verdict = "inconclusive"
    return GrowthReport(partial_sums=sums, ratios=ratios, roots=roots,
                        verdict=verdict)
