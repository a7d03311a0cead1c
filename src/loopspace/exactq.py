"""Exact rational sparse linear algebra.

Every scalar at an interface is a `fractions.Fraction`, and no floating
point value ever enters a computation.  Matrices are sparse maps (row,
col) -> nonzero Fraction, immutable once built.  Inside, the forward
elimination `echelon` and `product_is_zero` scale each row to exact
integers by the lcm of its denominators; `echelon` clears with r <-
(p/g)*r - (f/g)*pivot row, g = gcd(p, f), and divides out the content of
a scaled row.  Scaling moves no zero, so the pivots are those of Fraction
elimination.  `rank` and the pivot columns come from that forward pass
alone and form no Fraction; only `kernel_basis` asks `rref` for the back-
substitution and the unique RREF.  Every exact coefficient sum, here and
in the modules above, goes through one accumulate step, `add_term`, which
drops a key whose sum is zero.  The five complexes subclass
`CochainComplex`, whose `memo` caches their slices and their `betti`,
kept per (n, k); slices are built with `matrix_of_map`, commuting squares
checked with `is_chain_map` and ranks on cohomology taken with
`induced_rank`, one rank identity that needs the square below to commute.
Every choice a routine makes, such as the pivot rows of `echelon`, is a
function of the input alone, so identical inputs give bit-identical
outputs.
"""

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

from .errors import CompositionNotZero, InternalCheckFailure

ZERO = Fraction(0)
ONE = Fraction(1)


def add_term(acc, key, v):
    """acc[key] += v for a Fraction v, dropping the key when the sum is
    zero, so an accumulated dict never holds a zero coefficient."""
    old = acc.get(key)
    if old is not None:
        v = old + v
    if v:
        acc[key] = v
    elif old is not None:
        del acc[key]


def _require_fit(a, b):
    """ValueError unless the product a * b is defined."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch %dx%d * %dx%d"
                         % (a.rows, a.cols, b.rows, b.cols))


class SparseMatrix:
    """Sparse matrix over the rationals.

    `entries` maps (row, col) to a nonzero Fraction; explicit zeros are
    stripped at construction.  An entry that is already a Fraction is kept
    as it is; any other exact rational (an int, say) is converted; any
    other value, a float included, raises TypeError, since it would enter
    as a binary approximation.  Row/column indices are 0-based and must lie
    inside the declared shape.  `_rank` is None until rank() first computes
    it; only the integer is kept, never the reduced form.
    """

    __slots__ = ("rows", "cols", "entries", "_rank")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError("entry (%d,%d) outside %dx%d" % (r, c, rows, cols))
                if type(v) is not Fraction:
                    if not isinstance(v, Rational):
                        raise TypeError("matrix entry %r is not an exact rational" % (v,))
                    v = Fraction(v)
                if v:
                    clean[(r, c)] = v
        self.entries = clean
        self._rank = None

    @classmethod
    def from_columns(cls, rows, columns):
        """Build from a list of sparse column vectors ({row: value})."""
        entries = {}
        for c, col in enumerate(columns):
            for r, v in col.items():
                entries[(r, c)] = v
        return cls(rows, len(columns), entries)

    def entry(self, r, c):
        return self.entries.get((r, c), ZERO)

    def columns(self):
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def is_zero(self):
        return not self.entries

    def mul(self, other):
        """Matrix product self * other, exact in Fractions.

        `is_chain_map` compares its two sides with it, and the tests check
        `product_is_zero` against it.
        """
        _require_fit(self, other)
        rows_of_other = {}
        for (r, c), v in other.entries.items():
            rows_of_other.setdefault(r, []).append((c, v))
        acc = {}
        for (r, k), v in self.entries.items():
            for c, w in rows_of_other.get(k, ()):
                add_term(acc, (r, c), v * w)
        return SparseMatrix(self.rows, other.cols, acc)

    def apply(self, vec):
        """Apply to a sparse column vector {col: value} -> {row: value}."""
        out = {}
        for (r, c), v in self.entries.items():
            x = vec.get(c)
            if x:
                add_term(out, r, v * x)
        return out

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return "SparseMatrix(%d, %d, %d nonzero)" % (self.rows, self.cols, len(self.entries))


def matrix_of_map(dom, cod, image, failure):
    """Matrix of a linear map between two ordered bases.

    image(x) gives the image of the basis element x as {codomain element:
    coeff}.  Columns follow dom and rows follow cod; an image term outside
    cod raises InternalCheckFailure(failure).
    """
    index = {y: r for r, y in enumerate(cod)}
    entries = {}
    for c, x in enumerate(dom):
        for y, v in image(x).items():
            r = index.get(y)
            if r is None:
                raise InternalCheckFailure(failure)
            entries[(r, c)] = v
    return SparseMatrix(len(cod), len(dom), entries)


def _integer_rows(entries, indexed=True):
    """Rows {row: {col: int}} from ((row, col), Fraction) pairs, and an index
    {col: set of rows with a nonzero there}, or None unless indexed.  A row
    with a denominator other than 1 is scaled by the lcm of its
    denominators."""
    rows = {}
    index = {} if indexed else None
    fractional = set()
    for (r, c), v in entries:
        row = rows.setdefault(r, {})
        if indexed:
            index.setdefault(c, set()).add(r)
        if v.denominator == 1:
            row[c] = v.numerator
        else:
            row[c] = v
            fractional.add(r)
    for r in fractional:
        row = rows[r]
        scale = lcm(*[v.denominator for v in row.values()])
        for c, v in row.items():
            row[c] = v.numerator * (scale // v.denominator)
    return rows, index


def echelon(m, rows=None):
    """Forward elimination of m: {pivot column: its integer row, pivot
    entry p > 0 included}, in pivot order.  No Fraction is formed.

    rows are m's `_integer_rows` if the caller has them; they are consumed.
    The columns are visited left to right; of the not-yet-pivot rows with
    a nonzero there the shortest is the pivot, lowest index on ties, to
    keep fill-in down (Markowitz 1957).  A row with entry f there becomes
    (p/g)*row - (f/g)*pivot row, g = gcd(p, f), then, if p/g is not 1, is
    divided by the gcd of its entries (Bareiss 1968).  A nonzero scaling
    keeps each row's support, so the pivots are those of Fraction
    elimination.
    """
    rowdata, colrows = rows if rows is not None else _integer_rows(m.entries.items())
    pivot_rows = {}
    for col in range(m.cols):
        live = colrows.pop(col, None)
        if not live:
            continue
        pr = min(live, key=lambda r: (len(rowdata[r]), r))
        live.discard(pr)
        prow = rowdata.pop(pr)
        pv = prow.pop(col)
        for c in prow:
            colrows[c].discard(pr)
        if pv < 0:
            pv, prow = -pv, {c: -v for c, v in prow.items()}
        for r in live:
            row = rowdata[r]
            f = row.pop(col)
            g = gcd(pv, f)
            s, f = pv // g, f // g
            if s != 1:
                rowdata[r] = row = {c2: v2 * s for c2, v2 in row.items()}
            for c2, v2 in prow.items():
                old = row.get(c2)
                if old is None:
                    row[c2] = -f * v2
                    colrows[c2].add(r)
                else:
                    nv = old - f * v2
                    if nv:
                        row[c2] = nv
                    else:
                        del row[c2]
                        colrows[c2].discard(r)
            if s != 1 and (g := gcd(*row.values())) > 1:
                rowdata[r] = {c2: v2 // g for c2, v2 in row.items()}
        prow[col] = pv
        pivot_rows[col] = prow
    return pivot_rows


def rref(m):
    """Reduced row echelon form.

    Returns (reduced matrix, pivot column tuple, rank); row i of the
    reduced matrix, listed row by row, is the pivot row of the i-th pivot
    column, and rows past the rank are zero.

    The forward pass is `echelon`, the one that `rank` runs too.
    Back-substitution, last pivot row first, clears the pivot columns of
    each row by the same integer rule, the content leaving the row and its
    pivot entry together.  Output entries are Fraction(v, pivot entry),
    the only Fractions formed.  The RREF is unique, so the output is that
    of Fraction elimination; only the time differs.
    """
    pivot_rows = echelon(m)
    # A later pivot row is reduced before it clears an earlier one, and
    # adds entries only in non-pivot columns.
    for own, row in reversed(pivot_rows.items()):
        for p in [c for c in row if c in pivot_rows and c != own]:
            prow = pivot_rows[p]
            g = gcd(prow[p], row[p])
            s, f = prow[p] // g, row[p] // g
            if s != 1:
                pivot_rows[own] = row = {c2: v2 * s for c2, v2 in row.items()}
            for c2, v2 in prow.items():
                nv = row.get(c2, 0) - f * v2
                if nv:
                    row[c2] = nv
                else:
                    del row[c2]
            if s != 1 and (g := gcd(*row.values())) > 1:
                pivot_rows[own] = row = {c2: v2 // g for c2, v2 in row.items()}
    entries = {}
    for i, (p, row) in enumerate(pivot_rows.items()):
        pv = row.pop(p)
        for c, v in row.items():
            entries[(i, c)] = Fraction(v, pv)
        entries[(i, p)] = ONE
    return SparseMatrix(m.rows, m.cols, entries), tuple(pivot_rows), len(pivot_rows)


def rank(m, rows=None):
    """Rank of m, from the forward pass alone (on rows, m's
    `_integer_rows`, if the caller has them), taken once per matrix object
    and then remembered; a matrix with no entries has rank 0 without one.
    No Fraction and no matrix is formed."""
    if m._rank is None:
        m._rank = len(echelon(m, rows)) if m.entries else 0
    return m._rank


def kernel_basis(m):
    """Basis of the right kernel, one sparse vector per free column.

    Vector i has entry 1 at its defining free column and is supported on
    that column plus pivot columns.  Ordered by free column index.
    """
    red, pivots, _ = rref(m)
    pivot_set = set(pivots)
    basis = {f: {f: ONE} for f in range(m.cols) if f not in pivot_set}
    for (r, c), v in red.entries.items():
        vec = basis.get(c)
        if vec is not None:
            vec[pivots[r]] = -v
    return list(basis.values())


def representative_cocycles(d_out, d_in):
    """Kernel vectors of d_out that complete im(d_in) to a basis of ker.

    The result represents a basis of ker(d_out)/im(d_in), picked
    deterministically: pivot columns of [boundaries | kernel basis]
    restricted to the kernel block.
    """
    z = kernel_basis(d_out)
    b = d_in.columns()
    nb = len(b)
    pivots = echelon(SparseMatrix.from_columns(d_out.cols, b + z))
    return [z[p - nb] for p in pivots if p >= nb]


def cohomology_dim(d_out, d_in):
    """dim ker(d_out) - rank(d_in) for consecutive maps of a cochain complex.

    d_in : C^{n-1} -> C^n and d_out : C^n -> C^{n+1}; ValueError unless
    d_out.cols == d_in.rows, the dimension of the shared space C^n.
    Raises CompositionNotZero unless d_out * d_in == 0; the test and the
    forward pass for an unknown rank(d_out) read d_out's integer rows,
    formed once.
    """
    rows = _integer_rows(d_out.entries.items())
    if not product_is_zero(d_out, d_in, rows):
        raise CompositionNotZero(
            "composite of consecutive differentials is nonzero")
    dim = (d_out.cols - rank(d_out, rows)) - rank(d_in)
    if dim < 0:
        raise CompositionNotZero("negative cohomology dimension, rank bookkeeping broke")
    return dim


def product_is_zero(a, b, a_rows=None):
    """Whether a * b == 0, decided in integers: rows of a (a_rows if the
    caller has them, only read here) and columns of b are scaled as in
    `echelon`, which moves no zero of the product, and the test stops at
    the first nonzero column of the product."""
    _require_fit(a, b)
    rows, index = a_rows if a_rows is not None else _integer_rows(a.entries.items())
    b_cols, _ = _integer_rows((((c, r), v) for (r, c), v in b.entries.items()),
                              indexed=False)
    for col in b_cols.values():
        acc = {}
        for k, w in col.items():
            for r in index.get(k, ()):
                acc[r] = acc.get(r, 0) + rows[r][k] * w
        if any(acc.values()):
            return False
    return True


def is_chain_map(f_next, d_src, d_tgt, f, sign=1):
    """Whether f_next * d_src == sign * d_tgt * f, for sign 1 or -1.

    f and f_next map the degree n and n+1 slices of the source complex to
    the target; sides that do not fit raise ValueError.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be 1 or -1, not %r" % (sign,))
    left = f_next.mul(d_src)
    right = d_tgt.mul(f)
    if (left.rows, left.cols) != (right.rows, right.cols):
        raise ValueError("sides of the square differ: %r, %r" % (left, right))
    return left.entries == (right.entries if sign == 1 else
                            {rc: sign * v for rc, v in right.entries.items()})


class CochainComplex:
    """A cochain complex built slice by slice.

    A subclass holds a dict `_cache` and builds, in `slice_matrix(n, k)`,
    the differential from degree n to n+1, restricted to word length k
    where it has one.  An empty degree-n slice, as below degree 0 of a
    model, gives a matrix with no columns, so it needs no special case.
    """

    def memo(self, key, build, *args):
        """`_cache[key]`, from build(*args) the first time it is asked for;
        a bound method with its arguments makes a hit build no closure."""
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = build(*args)
        return got

    def d_matrix(self, n, k=None):
        """The slice matrix, built once and then kept in `_cache`."""
        return self.memo(("d", n, k), self.slice_matrix, n, k)

    def betti(self, n, k=None):
        """dim H^n of the slice, from the two differentials around it,
        taken once per (n, k) and then kept in `_cache`."""
        return self.memo(("betti", n, k), self._betti, n, k)

    def _betti(self, n, k):
        return cohomology_dim(self.d_matrix(n, k), self.d_matrix(n - 1, k))


def induced_rank(f, d_out, target_d_in):
    """Rank of the map on cohomology induced by the chain-level matrix f.

    f maps C^n, the domain of d_out, to D^n, the codomain of target_d_in.
    With Z = ker d_out, dim(f(Z) + im target_d_in) = rank(block) -
    rank(d_out) for block = [[d_out, 0], [f, target_d_in]], so
    rank(block) - rank(d_out) - rank(target_d_in) is the rank of Z ->
    H^n(D), one elimination beside two memoised ranks.  It is the rank on
    H^n(C) when f sends boundaries into im target_d_in, that is when the
    chain square one degree down commutes; every caller checks it first.
    ValueError unless f has d_out's columns and target_d_in's rows.
    """
    if f.cols != d_out.cols or f.rows != target_d_in.rows:
        raise ValueError("f is %dx%d, expected %dx%d" % (
            f.rows, f.cols, target_d_in.rows, d_out.cols))
    top = d_out.rows
    entries = dict(d_out.entries)
    entries.update(((top + r, c), v) for (r, c), v in f.entries.items())
    entries.update(((top + r, d_out.cols + c), v)
                   for (r, c), v in target_d_in.entries.items())
    block = SparseMatrix(top + f.rows, d_out.cols + target_d_in.cols, entries)
    return rank(block) - rank(d_out) - rank(target_d_in)
