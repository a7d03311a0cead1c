"""Free graded-commutative algebra kernel over Q.

Generators are ordered canonically: base generators sorted by (degree,
declaration order), then suspended generators in the same induced order.
A monomial is an exponent tuple over that order; odd-degree generators
carry exponent at most 1.  An element is a plain dict from exponent tuple
to nonzero Fraction.

Sign conventions, fixed once here and used everywhere downstream:

  * products are normalized by merging exponent vectors; the Koszul sign
    counts inversions between odd-degree factors only, since even factors
    commute freely;
  * a derivation theta of degree s satisfies
        theta(a*b) = theta(a)*b + (-1)^(s*|a|) a*theta(b),
    so applying theta to an ordered monomial walks its factors left to
    right and picks up (-1)^(s*|prefix|) at each position.  That walk is
    apply_derivation, the one Leibniz walker; the extended complex of
    sections reads its differential off the loop model's D(t) and projects
    it, so it has no walk of its own.

Monomial order: total degree first, then ascending lexicographic order on
exponent tuples.  basis_of_degree enumerates in exactly that order.

A generator may have negative degree, as the duals v' of the derivation
complex, of degree -|v| and of kind "suspended", whose factors the word
length counts: basis_of_degree at -n lists what it lists at n over the
degrees |v|, and the words of length one are the unit tuples.
"""

from functools import lru_cache
from typing import NamedTuple

from .errors import MissingImage
from .exactq import ONE, add_term, matrix_of_map


class Generator(NamedTuple):
    """A named tuple, so caches keyed on generator tuples hash it in C."""
    name: str
    degree: int
    kind: str = "base"          # "base" or "suspended"
    partner: int | None = None  # for suspended: index of the base generator


class DerivationSpec(NamedTuple):
    """A derivation given by its degree shift and generator images.

    images maps generator index -> element dict.  An absent index means the
    image was never declared, which is an error on use; an empty dict is an
    explicit zero image.
    """
    degree_shift: int
    images: dict


def monomial_degree(gens, mono):
    return sum(e * g.degree for e, g in zip(mono, gens))


def monomial_word_length(gens, mono):
    """Number of suspended factors, counted with multiplicity."""
    return sum(e for e, g in zip(mono, gens) if g.kind == "suspended")


def normalize_product(gens, m1, m2):
    """Merge two monomials; return (sign, monomial) or None when zero.

    The sign is (-1)^k where k counts pairs of odd factors that swap past
    each other when the factors of m2 are merged into m1 position by
    position.  A repeated odd factor kills the product.
    """
    out = list(m1)
    swaps = 0
    suffix_odd = 0  # odd factors of m1 strictly above the current index
    for j in range(len(gens) - 1, -1, -1):
        b = m2[j]
        odd = gens[j].degree % 2
        if b:
            if odd:
                if m1[j] or b > 1:
                    return None
                swaps += suffix_odd
            out[j] = m1[j] + b
        if odd and m1[j]:
            suffix_odd += m1[j]
    return (-1 if swaps % 2 else 1), tuple(out)


# gens -> tables: tables[i][d] holds the exponent tuples over gens[i:] of
# degree d, or of degree -d where the degrees are negative, ascending
_TABLES = {}


def _monomial_tables(gens, top):
    """The tables of gens, extended degree by degree to |degree| top, no
    further: tables[i][d] lists, for each exponent e of gens[i] in
    ascending order, e followed by each tuple of tables[i + 1] of the
    degree left, so every degree reads the lower ones and no search
    starts over.  An odd generator takes exponent 0 or 1."""
    tables = _TABLES.get(gens)
    if tables is None:
        tables = _TABLES[gens] = [[] for _ in range(len(gens) + 1)]
    if len(tables[0]) > top:
        return tables
    steps = [(tables[i], tables[i + 1], abs(g.degree), g.degree % 2)
             for i, g in enumerate(gens)][::-1]
    last = tables[-1]
    for d in range(len(tables[0]), top + 1):
        last.append(() if d else ((),))
        for table, rest, deg, odd in steps:
            top_e = d // deg
            if odd and top_e > 1:
                top_e = 1
            table.append(tuple([(e,) + m for e in range(top_e + 1)
                                for m in rest[d - e * deg]]))
    return tables


@lru_cache(maxsize=None)
def basis_of_degree(gens, n):
    """All monomials of total degree n, ascending lexicographic order, read
    from the tables of gens (`_monomial_tables`), which grow to |n| on
    first need.  The degrees of gens share one sign, so the monomials of
    degree n are those of degree -n over the degrees negated."""
    sign = -1 if gens and gens[0].degree < 0 else 1
    if any((g.degree > 0) - (g.degree < 0) != sign for g in gens):
        raise ValueError("generator degrees must be nonzero and of one sign")
    d = sign * n
    if d < 0:
        return ()
    return _monomial_tables(gens, d)[0][d]


@lru_cache(maxsize=None)
def word_length_slices(gens, n):
    """basis_of_degree(gens, n) split by word length, each part in order."""
    parts = {}
    for m in basis_of_degree(gens, n):
        parts.setdefault(monomial_word_length(gens, m), []).append(m)
    return {k: tuple(ms) for k, ms in parts.items()}


@lru_cache(maxsize=None)
def slice_basis(gens, n, word_length=None):
    """Monomials of degree n, optionally restricted to a word length."""
    if word_length is None:
        return basis_of_degree(gens, n)
    return word_length_slices(gens, n).get(word_length, ())


@lru_cache(maxsize=None)
def slice_positions(gens, n, word_length=None):
    """{monomial: its index in slice_basis(gens, n, word_length)}, one
    table per slice, shared by every layout that lists the slice."""
    return {m: i for i, m in enumerate(slice_basis(gens, n, word_length))}


@lru_cache(maxsize=None)
def word_length_degrees(gens, k):
    """The degrees, ascending, of the monomials of k factors in gens, an odd
    generator at most once: where slice_basis(gens, n, k) is not empty for
    suspended gens, found without enumerating a slice."""
    reach = {(0, 0)}                # (factors, degree) of the monomials so far
    for g in gens:
        reach = {(c + e, n + e * g.degree) for c, n in reach
                 for e in range(min(k - c, 1 if g.degree % 2 else k) + 1)}
    return tuple(sorted(n for c, n in reach if c == k))


def elem_add_into(acc, e, c=ONE):
    """acc += c * e, in place; elem_add_into({}, e, c) is c * e."""
    for m, v in e.items():
        add_term(acc, m, c * v)
    return acc


def elem_mul(gens, e1, e2):
    out = {}
    for m1, c1 in e1.items():
        for m2, c2 in e2.items():
            p = normalize_product(gens, m1, m2)
            if p is None:
                continue
            sign, m = p
            add_term(out, m, sign * c1 * c2)
    return out


def apply_derivation(gens, spec, elem):
    """Apply a derivation to an element dict, exactly, in one pass.

    Write each monomial as left * g_i * right, left holding the factors
    before i and e - 1 copies of g_i.  Each image term im of g_i adds
    e * (-1)^(s * |factors before i|) times the signs of both products to
    the coefficient of left * im * right, one Fraction multiply per term;
    a missing image raises MissingImage.  Two image monomials never merge
    under left * im, so no intermediate element is needed.
    """
    odd_shift = spec.degree_shift % 2
    n = len(gens)
    out = {}
    for mono, coeff in elem.items():
        scale = None if coeff == 1 else coeff
        prefix_deg = 0
        for i in range(n):
            e = mono[i]
            if not e:
                continue
            img = spec.images.get(i)
            if img is None:
                raise MissingImage("no image declared for generator %s" % gens[i].name)
            if img:
                left = mono[:i] + (e - 1,) + (0,) * (n - i - 1)
                right = mono[i + 1:]
                right = (0,) * (i + 1) + right if any(right) else None
                k0 = -e if odd_shift and prefix_deg % 2 else e
                for im, c in img.items():
                    p = normalize_product(gens, left, im)
                    if p is None:
                        continue
                    k, full = p
                    if right is not None:
                        p = normalize_product(gens, full, right)
                        if p is None:
                            continue
                        k *= p[0]
                        full = p[1]
                    k *= k0
                    if scale is not None:
                        c = scale * c
                    add_term(out, full, c if k == 1 else c * k)
            prefix_deg += e * gens[i].degree
    return out


def matrix_of_degree_slice(gens, spec, n, word_length=None):
    """Matrix of a derivation from the degree-n slice to degree n + shift.

    Columns follow the canonical monomial order of the domain slice, rows
    that of the codomain.  With a word_length filter the derivation must
    preserve word length; a stray image monomial raises, by design.
    """
    return matrix_of_map(
        slice_basis(gens, n, word_length),
        slice_basis(gens, n + spec.degree_shift, word_length),
        lambda mono: apply_derivation(gens, spec, {mono: ONE}),
        "derivation image left the degree/word-length slice")


def render_monomial(gens, mono):
    parts = []
    for e, g in zip(mono, gens):
        if e == 1:
            parts.append(g.name)
        elif e > 1:
            parts.append("%s^%d" % (g.name, e))
    return "*".join(parts) if parts else "1"


def render_element(gens, e):
    if not e:
        return "0"
    out = []
    for mono in sorted(e):
        c = e[mono]
        body = render_monomial(gens, mono)
        if body == "1":
            out.append(str(c))
        elif c == 1:
            out.append(body)
        elif c == -1:
            out.append("-" + body)
        else:
            out.append("%s*%s" % (c, body))
    rendered = " + ".join(out)
    return rendered.replace("+ -", "- ")
