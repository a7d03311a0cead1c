"""Exact rational sparse linear algebra.

Every scalar in this package is a `fractions.Fraction`; no floating point
value ever enters a computation.  Matrices are sparse maps (row, col) ->
nonzero Fraction, treated as immutable once built.  All routines are
deterministic: the pivot order is a function of the entry positions only,
so identical inputs give identical outputs, bit for bit.
"""

from fractions import Fraction

from .errors import CompositionNotZero

ZERO = Fraction(0)
ONE = Fraction(1)


class SparseMatrix:
    """Sparse matrix over the rationals.

    `entries` maps (row, col) to a nonzero Fraction; explicit zeros are
    stripped at construction.  Row/column indices are 0-based and must lie
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
                if v:
                    entries[(r, c)] = Fraction(v)
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
        """Matrix product self * other."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d * %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        rows_of_other = {}
        for (r, c), v in other.entries.items():
            rows_of_other.setdefault(r, []).append((c, v))
        acc = {}
        for (r, k), v in self.entries.items():
            for c, w in rows_of_other.get(k, ()):
                key = (r, c)
                s = acc.get(key, ZERO) + v * w
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return SparseMatrix(self.rows, other.cols, acc)

    def apply(self, vec):
        """Apply to a sparse column vector {col: value} -> {row: value}."""
        out = {}
        for (r, c), v in self.entries.items():
            x = vec.get(c)
            if x:
                s = out.get(r, ZERO) + v * x
                if s:
                    out[r] = s
                else:
                    out.pop(r, None)
        return out

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return "SparseMatrix(%d, %d, %d nonzero)" % (self.rows, self.cols, len(self.entries))


def rref(m):
    """Reduced row echelon form.

    Returns (reduced matrix, pivot column tuple, rank).  Pivot choice is
    deterministic: scan columns left to right, take the lowest-index
    unused row with a nonzero entry.  Elimination uses exact division, so
    the result is the unique RREF of the input with pivot rows first.
    """
    rowdata = [dict() for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rowdata[r][c] = v
    used = [False] * m.rows
    pivots = []
    pivot_rows = []
    for col in range(m.cols):
        pr = None
        for r in range(m.rows):
            if not used[r] and rowdata[r].get(col):
                pr = r
                break
        if pr is None:
            continue
        used[pr] = True
        pivots.append(col)
        pivot_rows.append(pr)
        pv = rowdata[pr][col]
        if pv != ONE:
            rowdata[pr] = {c: v / pv for c, v in rowdata[pr].items()}
        prow = rowdata[pr]
        for r in range(m.rows):
            if r == pr:
                continue
            f = rowdata[r].get(col)
            if not f:
                continue
            row = rowdata[r]
            for c2, v2 in prow.items():
                nv = row.get(c2, ZERO) - f * v2
                if nv:
                    row[c2] = nv
                else:
                    row.pop(c2, None)
    entries = {}
    for new_r, pr in enumerate(pivot_rows):
        for c, v in rowdata[pr].items():
            entries[(new_r, c)] = v
    return SparseMatrix(m.rows, m.cols, entries), tuple(pivots), len(pivots)


def rank(m):
    """Rank of m, reduced once per matrix object and then remembered."""
    if m._rank is None:
        m._rank = rref(m)[2]
    return m._rank


def kernel_basis(m):
    """Basis of the right kernel, one sparse vector per free column.

    Vector i has entry 1 at its defining free column and is supported on
    that column plus pivot columns.  Ordered by free column index.
    """
    red, pivots, _ = rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        vec = {f: ONE}
        for r, pc in enumerate(pivots):
            v = red.entry(r, f)
            if v:
                vec[pc] = -v
        basis.append(vec)
    return basis


def representative_cocycles(d_out, d_in):
    """Kernel vectors of d_out that complete im(d_in) to a basis of ker.

    The result represents a basis of ker(d_out)/im(d_in), picked
    deterministically: pivot columns of rref([boundaries | kernel basis])
    restricted to the kernel block.
    """
    z = kernel_basis(d_out)
    b = d_in.columns()
    combined = SparseMatrix.from_columns(d_out.cols, b + z)
    _, pivots, _ = rref(combined)
    nb = len(b)
    return [z[p - nb] for p in pivots if p >= nb]


def cohomology_dim(d_out, d_in):
    """dim ker(d_out) - rank(d_in) for consecutive maps of a cochain complex.

    d_in : C^{n-1} -> C^n and d_out : C^n -> C^{n+1}; the shared space C^n
    gives d_out.cols == d_in.rows.  Raises CompositionNotZero unless
    d_out * d_in == 0.
    """
    if d_out.cols != d_in.rows:
        raise ValueError("maps do not share a middle space: %d vs %d"
                         % (d_out.cols, d_in.rows))
    if not d_out.mul(d_in).is_zero():
        raise CompositionNotZero(
            "composite of consecutive differentials is nonzero")
    dim = (d_out.cols - rank(d_out)) - rank(d_in)
    if dim < 0:
        raise CompositionNotZero("negative cohomology dimension, rank bookkeeping broke")
    return dim


def span_rank(columns, rows):
    """Rank of the span of sparse column vectors."""
    return rank(SparseMatrix.from_columns(rows, columns))


def solve_in_span(columns, target, rows):
    """Express `target` as a combination of `columns`, or None.

    Returns a coefficient list aligned with `columns` when target lies in
    their span.  When the columns are independent the solution is unique;
    otherwise the free coefficients are set to zero, deterministically.
    """
    aug = SparseMatrix.from_columns(rows, list(columns) + [target])
    red, pivots, _ = rref(aug)
    k = len(columns)
    if k in pivots:
        return None
    coeffs = [ZERO] * k
    for r, pc in enumerate(pivots):
        coeffs[pc] = red.entry(r, k)
    return coeffs


def induced_quotient_rank(images, denominator_columns, rows):
    """Rank of a family of vectors in the quotient by a span.

    rank([images | denom]) - rank(denom): the number of independent classes
    the images hit modulo the denominator span.  Used for induced maps on
    cohomology.
    """
    base = span_rank(denominator_columns, rows)
    total = span_rank(list(images) + list(denominator_columns), rows)
    return total - base
