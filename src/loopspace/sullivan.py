"""Sullivan minimal models: file format, validation, cohomology, duality.

A model file is line oriented UTF-8; '#' starts a comment, blank lines are
skipped:

    model NAME            display name (optional)
    dim N                 formal dimension, required
    complete              all generators are present, or
    complete-to C         generators complete through degree C, required
    gen NAME DEGREE       one generator per line, degree >= 2 for validity
    d NAME = POLY         differential; omitted means zero

POLY is a sum of terms [RAT*]NAME[^INT][*NAME[^INT]]..., RAT like -3/2.

The trust rule: with generators complete through degree c the base
cohomology is reliable for n <= c (a degree c+1 generator could change
H^{c+1} and H^{c+2}); loop space quantities built downstream are reliable
for n <= c - 1 because suspensions drop degree by one.
"""

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import (ParseError, UnknownGenerator, DegreeMismatch, OddExponent,
                     NotPoincareDuality, InternalCheckFailure)
from .exactq import (CochainComplex, SparseMatrix, ZERO, ONE, add_term, echelon,
                     induced_rank, is_chain_map, kernel_basis)
from . import gca
from .gca import Generator, DerivationSpec


class RankTable(NamedTuple):
    """Integer table indexed by degree, with an honesty marker.

    Entries above trusted_up_to were computed from a truncated model and
    may change if more generators exist; reports flag them with '?'.
    """
    entries: dict
    trusted_up_to: int

    def get(self, n):
        return self.entries.get(n, 0)

    def as_array(self, n_max):
        return [self.entries.get(n, 0) for n in range(n_max + 1)]


class SullivanModel(CochainComplex):
    """(LV, d): the base Generators in canonical order, d as a degree +1
    DerivationSpec over them, the formal dimension N, and completeness,
    the degree the generator list is complete to, None if complete."""

    def __init__(self, name, generators, differential, formal_dim, completeness):
        self.name = name
        self.generators = generators
        self.differential = differential
        self.formal_dim = formal_dim
        self.completeness = completeness
        self._cache = {}

    def _basis(self, n, k):
        return gca.basis_of_degree(self.generators, n)

    def slice_matrix(self, n, k):
        """Matrix of d from degree n to degree n+1."""
        return gca.matrix_of_degree_slice(self.generators, self.differential, n)

    def s_pivots(self, n):
        """Pivot columns of the degree-n differential, from the forward pass
        over the rows of d(n): the monomials spanning a complement S^n of
        the degree-n cocycles."""
        return self.memo(("pivots", n),
                         lambda: tuple(echelon(self.d_matrix(n).transpose())))

    @property
    def default_window(self):
        """Top degree computed when none is asked for: formal dimension + 8."""
        return self.formal_dim + 8

    def trusted(self, n_max, lag=0):
        """The trust rule: a table computed to n_max is reliable through
        min(n_max, c - lag) for generators complete through degree c,
        and through n_max for a complete model.  lag is 0 for the base
        cohomology, 1 for the loop side, 1 + N for the aut table, whose
        entry n is read at degree n + N, and N for the derivation table,
        whose entry n + 1 matches aut entry n."""
        c = self.completeness
        return n_max if c is None else min(n_max, c - lag)


_GEN_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_TOKEN_RE = re.compile(r"\s*(?:(\d+/\d+|\d+)|([A-Za-z_][A-Za-z0-9_]*)|([*^+\-])|(\S))")

# header directives a file states at most once; complete and complete-to
# are two spellings of one
_HEADERS = {"model": "'model'", "dim": "'dim'",
            "complete": "'complete' or 'complete-to'",
            "complete-to": "'complete' or 'complete-to'"}


def _tokenize(text, lineno):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            break
        num, name, op, bad = m.groups()
        if bad is not None:
            raise ParseError("unexpected character %r" % bad, lineno)
        if num is not None:
            tokens.append(("num", num))
        elif name is not None:
            tokens.append(("name", name))
        else:
            tokens.append(("op", op))
        pos = m.end()
    return tokens


def _parse_poly(tokens, gens, index_of, lineno):
    """Parse a token list into an element dict over `gens`."""
    n = len(gens)
    result = {}
    i = 0
    if not tokens:
        raise ParseError("empty polynomial", lineno)
    if tokens == [("num", "0")]:
        return result           # an explicit zero differential
    first = True
    while i < len(tokens):
        sign = ONE
        kind, val = tokens[i]
        if kind == "op" and val in "+-":
            sign = ONE if val == "+" else -ONE
            i += 1
        elif not first:
            raise ParseError("expected '+' or '-' between terms", lineno)
        first = False
        coeff = sign
        if i < len(tokens) and tokens[i][0] == "num":
            try:
                coeff *= Fraction(tokens[i][1])
            except ZeroDivisionError:
                raise ParseError("coefficient %s has a zero denominator"
                                 % tokens[i][1], lineno)
            i += 1
            if i >= len(tokens) or tokens[i] != ("op", "*"):
                raise ParseError("coefficient must be followed by '*' and a generator", lineno)
            i += 1
        expo = [0] * n
        saw_factor = False
        while True:
            if i >= len(tokens) or tokens[i][0] != "name":
                if saw_factor:
                    break
                raise ParseError("expected a generator name", lineno)
            name = tokens[i][1]
            gi = index_of.get(name)
            if gi is None:
                raise UnknownGenerator("unknown generator %r" % name, lineno)
            i += 1
            e = 1
            if i < len(tokens) and tokens[i] == ("op", "^"):
                i += 1
                if i >= len(tokens) or tokens[i][0] != "num" or "/" in tokens[i][1]:
                    raise ParseError("exponent must be a positive integer", lineno)
                e = int(tokens[i][1])
                if e < 1:
                    raise ParseError("exponent must be a positive integer", lineno)
                i += 1
            expo[gi] += e
            if gens[gi].degree % 2 == 1 and expo[gi] > 1:
                raise OddExponent(
                    "odd generator %r squared" % name, lineno)
            saw_factor = True
            if i < len(tokens) and tokens[i] == ("op", "*"):
                i += 1
                continue
            break
        add_term(result, tuple(expo), coeff)
    return result


def parse_model(text, name_hint="(unnamed)"):
    """Parse a model file into a SullivanModel.

    The parser checks the purely syntactic contract plus degree coherence
    of each differential line: every term of d NAME must be homogeneous of
    degree |NAME| + 1.  Structural requirements (simple connectivity,
    minimality, d^2 = 0) are left to validate().
    """
    name = name_hint
    dim = None
    completeness = "missing"
    raw_gens = []          # (name, degree, lineno) in declaration order
    d_lines = []           # (target name, tokens, lineno)
    seen_names = set()
    seen_headers = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split(None, 1)
        head = words[0]
        rest = words[1] if len(words) > 1 else ""
        header = _HEADERS.get(head)
        if header is not None:
            if header in seen_headers:
                raise ParseError("%s line declared twice" % header, lineno)
            seen_headers.add(header)
        if head == "model":
            if not rest:
                raise ParseError("model line needs a name", lineno)
            name = rest.strip()
        elif head == "dim":
            try:
                dim = int(rest)
            except ValueError:
                raise ParseError("dim needs an integer", lineno)
            if dim < 1:
                raise ParseError("dim must be positive", lineno)
        elif head == "complete":
            if rest:
                raise ParseError("complete takes no argument", lineno)
            completeness = None
        elif head == "complete-to":
            try:
                completeness = int(rest)
            except ValueError:
                raise ParseError("complete-to needs an integer", lineno)
            if completeness < 1:
                raise ParseError("complete-to must be positive", lineno)
        elif head == "gen":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError("gen needs: gen NAME DEGREE", lineno)
            gname, gdeg = parts
            if not _GEN_RE.match(gname):
                raise ParseError("bad generator name %r" % gname, lineno)
            try:
                gdeg = int(gdeg)
            except ValueError:
                raise ParseError("generator degree must be an integer", lineno)
            if gdeg < 1:
                raise ParseError("generator degree must be positive", lineno)
            if gname in seen_names:
                raise ParseError("generator %r declared twice" % gname, lineno)
            seen_names.add(gname)
            raw_gens.append((gname, gdeg, lineno))
        elif head == "d":
            m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)$", rest)
            if not m:
                raise ParseError("differential line needs: d NAME = POLY", lineno)
            d_lines.append((m.group(1), m.group(2), lineno))
        else:
            raise ParseError("unknown directive %r" % head, lineno)

    if dim is None:
        raise ParseError("missing required 'dim' line")
    if completeness == "missing":
        raise ParseError("missing required 'complete' or 'complete-to' line")
    if not raw_gens:
        raise ParseError("model declares no generators")

    # canonical order: (degree, declaration order)
    order = sorted(range(len(raw_gens)), key=lambda i: (raw_gens[i][1], i))
    gens = tuple(Generator(raw_gens[i][0], raw_gens[i][1], "base", None)
                 for i in order)
    index_of = {g.name: i for i, g in enumerate(gens)}

    images = {i: {} for i in range(len(gens))}
    targets_seen = set()
    for tname, polytext, lineno in d_lines:
        ti = index_of.get(tname)
        if ti is None:
            raise UnknownGenerator("differential of unknown generator %r" % tname, lineno)
        if ti in targets_seen:
            raise ParseError("differential of %r declared twice" % tname, lineno)
        targets_seen.add(ti)
        try:
            poly = _parse_poly(_tokenize(polytext, lineno), gens, index_of, lineno)
        except ValueError:  # a literal past Python's int-string digit limit
            raise ParseError("number has too many digits", lineno)
        want = gens[ti].degree + 1
        for mono in poly:
            got = gca.monomial_degree(gens, mono)
            if got != want:
                raise DegreeMismatch(
                    "d %s must be homogeneous of degree %d, found a degree %d term"
                    % (tname, want, got), lineno)
        images[ti] = poly

    model = SullivanModel(name=name, generators=gens,
                          differential=DerivationSpec(1, images),
                          formal_dim=dim, completeness=completeness)
    return model


class ValidationReport(NamedTuple):
    checks: list  # of (name, passed, detail)

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)


def validate(model):
    """Structural checks: simple connectivity, minimality, d squared zero."""
    gens = model.generators
    checks = []

    bad = [g.name for g in gens if g.degree < 2]
    checks.append(("simply_connected", not bad,
                   "all generators in degree >= 2" if not bad
                   else "degree <= 1 generators: %s" % ", ".join(bad)))

    non_min = []
    for i, g in enumerate(gens):
        img = model.differential.images.get(i, {})
        for mono in img:
            if sum(mono) < 2:
                non_min.append(g.name)
                break
    checks.append(("minimal", not non_min,
                   "all differentials decomposable" if not non_min
                   else "linear part in d of: %s" % ", ".join(non_min)))

    not_square_zero = []
    for i, g in enumerate(gens):
        img = model.differential.images.get(i, {})
        dd = gca.apply_derivation(gens, model.differential, img)
        if dd:
            not_square_zero.append(g.name)
    checks.append(("d_squared_zero", not not_square_zero,
                   "d*d vanishes on every generator" if not not_square_zero
                   else "d*d nonzero on: %s" % ", ".join(not_square_zero)))

    return ValidationReport(checks)


def cohomology_table(model, n_max):
    """dim H^n for 0 <= n <= n_max, exact."""
    entries = {n: model.betti(n) for n in range(n_max + 1)}
    return RankTable(entries, model.trusted(n_max))


class PoincareReport(NamedTuple):
    formal_dim: int
    window: int
    fundamental_class: dict    # element dict of degree N
    fundamental_render: str
    pairing_ranks: dict        # k -> rank of P_k on Z^k x Z^{N-k}, that of
                               # the cup pairing H^k x H^{N-k}
    top_functional: dict       # degree-N position -> coeff: lambda, giving the
                               # omega coefficient modulo S^N + boundaries
    betti: RankTable


def check_poincare_duality(model, n_max=None):
    """Verify the rational Poincare duality profile of H(model).

    Checks, in order and failing with the first offending degree:
    dim H^N = 1; H^n = 0 for N < n <= window; dim H^k = dim H^{N-k} and
    the cup product pairing into H^N has full rank, for every 0 <= k <= N.
    Returns a report carrying the top-class functional lambda, which reads
    off the omega coefficient modulo S^N + B^N, and omega: the first
    monomial cocycle on which lambda is nonzero, else the first vector of
    the kernel of d(N) on which it is.

    The pairing is ranked as a chain map, as the duality map Du is: P_k
    sends a monomial u of degree k to v -> lambda(u v) on the monomials
    of degree N - k, a map from C^k to the dual of C^{N-k}, whose
    differential there is d(N-k) transposed.  Each product u v is formed
    once: for k > N - k, P_k is (-1)^(k(N-k)) times the transpose of
    P_{N-k}, as u v = (-1)^(k(N-k)) v u.  As lambda kills B^N, the
    Leibniz rule gives P_k d(k-1) = (-1)^k d(N-k)^T P_{k-1}, checked for
    each k >= 1 (at k = 1 it says that lambda kills B^N); that square lets
    `induced_rank` take the rank of P_k on Z^k x Z^{N-k}, which is the rank
    of the cup pairing H^k x H^{N-k}, as lambda vanishes on a product with
    a boundary factor.
    """
    N = model.formal_dim
    window = n_max if n_max is not None else model.default_window
    window = max(window, N + 1)
    betti = cohomology_table(model, window)

    if betti.get(N) != 1:
        raise NotPoincareDuality(N, "dim H^%d = %d, expected 1" % (N, betti.get(N)))
    for n in range(N + 1, window + 1):
        if betti.get(n) != 0:
            raise NotPoincareDuality(
                n, "H^%d has dimension %d above the formal dimension" % (n, betti.get(n)))

    gens = model.generators
    basis_N = model.basis(N)

    # the top-class functional spans the annihilator of S^N + B^N
    kill = ([{p: ONE} for p in model.s_pivots(N)]
            + model.d_matrix(N - 1).columns())
    ann = kernel_basis(SparseMatrix(len(kill), len(basis_N), {
        (i, r): v for i, col in enumerate(kill) for r, v in col.items()}))
    if len(ann) != 1:
        raise InternalCheckFailure(
            "degree-%d monomial escaped omega + S + boundaries" % N)

    # fundamental class: Z^N = Q omega + B^N and the functional vanishes
    # exactly on B^N there, so omega is the first monomial cocycle on which
    # it is nonzero, else the first such vector of the kernel of d(N)
    def at(vec):
        return sum((ann[0].get(c, ZERO) * x for c, x in vec.items()), ZERO)

    d_N = model.d_matrix(N)
    columns = d_N.columns()
    omega = next(({j: ONE} for j in range(len(basis_N))
                  if not columns[j] and ann[0].get(j)), None)
    if omega is None:
        omega = next(z for z in kernel_basis(d_N) if at(z))
    at_omega = at(omega)
    lam = {c: v / at_omega for c, v in ann[0].items()}
    lam_at = {basis_N[c]: v for c, v in lam.items()}

    pairing_ranks, pairings = {}, {}
    for k in range(N + 1):
        hk, hnk = betti.get(k), betti.get(N - k)
        if hk != hnk:
            raise NotPoincareDuality(
                k, "dim H^%d = %d but dim H^%d = %d" % (k, hk, N - k, hnk))
        if N - k < k:
            # lambda(u v) = (-1)^(k (N - k)) lambda(v u): each product
            # was formed once, for P_(N-k)
            p_k = pairings[N - k].transpose((-1) ** (k * (N - k)))
        else:
            left, right = model.basis(k), model.basis(N - k)
            p_k = SparseMatrix(len(right), len(left), {
                (j, i): sum((lam_at.get(m, ZERO) * x for m, x in gca.elem_mul(
                    gens, {u: ONE}, {v: ONE}).items()), ZERO)
                for i, u in enumerate(left) for j, v in enumerate(right)})
        pairings[k] = p_k
        dual_d = model.d_matrix(N - k).transpose()
        if k and not is_chain_map(p_k, model.d_matrix(k - 1), dual_d,
                                  pairings[k - 1], (-1) ** k):
            raise InternalCheckFailure(
                "cup pairing fails the chain property at degree %d" % k)
        pr = induced_rank(p_k, model.d_matrix(k), dual_d)
        pairing_ranks[k] = pr
        if pr != hk:
            raise NotPoincareDuality(
                k, "cup pairing H^%d x H^%d has rank %d, expected %d"
                % (k, N - k, pr, hk))

    omega_elem = {basis_N[c]: x for c, x in omega.items()}
    return PoincareReport(
        formal_dim=N, window=window, fundamental_class=omega_elem,
        fundamental_render=gca.render_element(gens, omega_elem),
        pairing_ranks=pairing_ranks, top_functional=lam, betti=betti)
