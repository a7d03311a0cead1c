"""Exact rational sparse linear algebra.

No floating point value ever enters a computation.  A matrix is stored
once, immutable and in lowest terms, as nonzero integers over one positive
denominator: the form every kernel reads.  Every rank and pivot set
comes from one fraction-free forward pass, `echelon`, over the transpose
of the matrix it is given; only `kernel_basis` asks `rref` for the
back-substitution and the unique RREF.  `rank` keeps the pivot columns
of its pass, one byte per row, beside the rank; once `tested_pair` has
tested d(n) d(n-1) == 0, d(n) is ranked without the columns that those
of d(n-1) make redundant (clearing), and `induced_rank` leaves the same
columns out of its block.  One integer product, row by row, serves
`SparseMatrix.mul`, `product_is_zero` and `is_chain_map`.  Every exact
coefficient sum, here and in the modules above, goes through one
accumulate step, `add_term`, which drops a key whose sum is zero.

Fractions live at the interfaces: `SparseMatrix(rows, cols, entries)`
takes exact rationals, and `entries`, the kernel vectors and the tables
of a model or a quotient hold Fractions.  Ints live in the matrices and
the kernels, and in the slices of every complex of tensors, whose
coefficients have a `denominator` known before any column is built:
those slices and the rho (x) 1 and Du (x) 1 matrices between them
(`tensor_one_matrix`) form no Fraction.  `CochainComplex` keeps slices
and `betti` per (n, k) in its `memo`, and two classes build slices: the
model on the generic path of `gca`, the reference, over its monomial
bases, and `TensorComplex` for the loop model, the extended and the
dual complex (A-dual, the target of Du, at word length 0) and the
derivations, from the layouts of its slices, never their bases of
pairs: `left_image` (x) 1, placed block by block as rho (x) 1 is, plus
the twist, walked one left factor at a time.  The quotient is no
complex: it is the extended complex at word length 0.
Commuting squares are checked with `is_chain_map` and ranks on
cohomology taken with `induced_rank`, one rank identity that needs the
square below to commute.
Every choice a routine makes, such as the pivot rows of `echelon`, is a
function of the input alone, so identical inputs give bit-identical
outputs.
"""

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import itemgetter
from numbers import Rational

from .errors import CompositionNotZero, InternalCheckFailure

ZERO = Fraction(0)
ONE = Fraction(1)


def add_term(acc, key, v):
    """acc[key] += v for a Fraction or an int v, dropping the key when the
    sum is zero, so an accumulated dict never holds a zero coefficient."""
    old = acc.get(key)
    if old is not None:
        v = old + v
    if v:
        acc[key] = v
    elif old is not None:
        del acc[key]


class SparseMatrix:
    """Sparse matrix over the rationals.

    `entries` maps (row, col), 0-based and inside the shape, to an exact
    rational; zeros are dropped, and any other value, a float included,
    raises TypeError, since it would enter as a binary approximation.
    The matrix is stored in lowest terms: entry (r, c) is ints[(r, c)] /
    den, with nonzero ints and den the lcm of the entry denominators, so
    equal matrices have equal `ints` and `den`.  `entries` and `columns`
    form Fractions on demand.  `_rank` is None until rank() first
    computes it.  Beside it rank() keeps `_pivots`, one byte per row of
    m, 1 on the pivot columns of its pass over the transpose: the rows on
    which im m projects isomorphically.  `_cleared` is the `_pivots` of
    the matrix below whose columns that pass left out, or None.  No pivot
    row is kept.
    """

    __slots__ = ("rows", "cols", "ints", "den", "_rank", "_pivots", "_cleared")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        ints = {}
        den = 1
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError("entry (%d,%d) outside %dx%d" % (r, c, rows, cols))
                if type(v) is not int:
                    if type(v) is not Fraction:
                        if not isinstance(v, Rational):
                            raise TypeError("matrix entry %r is not an exact rational" % (v,))
                        v = Fraction(v)
                    if v.denominator == 1:
                        v = v.numerator
                    elif den % v.denominator:
                        den = lcm(den, v.denominator)
                if v:
                    ints[(r, c)] = v
            if den != 1:
                for rc, v in ints.items():
                    ints[rc] = v.numerator * (den // v.denominator)
        self.rows, self.cols, self.ints, self.den = rows, cols, ints, den
        self._rank = self._pivots = self._cleared = None

    @classmethod
    def _of_ints(cls, rows, cols, ints, den):
        """The matrix ints / den, for nonzero ints already in lowest terms
        and inside the shape; nothing is checked or converted."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.ints, m.den = rows, cols, ints, den
        m._rank = m._pivots = m._cleared = None
        return m

    @property
    def entries(self):
        """{(row, col): nonzero Fraction}, a new dict on each read."""
        return {rc: Fraction(v, self.den) for rc, v in self.ints.items()}

    def transpose(self, sign=1):
        """The transpose times sign, 1 or -1, its ints in the order of this
        matrix's."""
        return SparseMatrix._of_ints(self.cols, self.rows, {
            (c, r): sign * v for (r, c), v in self.ints.items()}, self.den)

    def columns(self):
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def mul(self, other):
        """Matrix product self * other: `_product` over the product of the
        denominators, brought to lowest terms."""
        return _lowest_terms(self.rows, other.cols, dict(_product(self, other)),
                             self.den * other.den)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.ints == other.ints)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, tuple(sorted(self.ints.items()))))

    def __repr__(self):
        return "SparseMatrix(%d, %d, %d nonzero)" % (self.rows, self.cols, len(self.ints))


_INDEX = []


def _indices(n):
    """A list whose item i is i, for every i < n.  The row and column
    numbers of the matrices built from it share one int object each, not
    one per matrix, which keeps the slice caches smaller.  It only grows
    and item i never changes, so sharing it changes no result."""
    if len(_INDEX) < n:
        _INDEX.extend(range(len(_INDEX), n))
    return _INDEX


def _lowest_terms(rows, cols, ints, den):
    """The matrix ints / den, for nonzero ints inside the shape and den > 0,
    with the common factor of den and the ints divided out."""
    if den > 1 and (g := gcd(den, *ints.values())) > 1:
        den //= g
        ints = {rc: v // g for rc, v in ints.items()}
    return SparseMatrix._of_ints(rows, cols, ints, den)


def common_denominator(coefficients):
    """The lcm of the denominators of exact rationals, 1 for none; reads
    each denominator and forms no Fraction."""
    return lcm(1, *(c.denominator for c in coefficients))


def scaled(elem, den):
    """{key: c * den} as ints, for an element {key: exact rational c} whose
    denominators divide den; forms no Fraction."""
    return {key: c.numerator * (den // c.denominator) for key, c in elem.items()}


def _product(a, b):
    """The integer product a.ints * b.ints as ((row, col), nonzero int)
    pairs, row by row; a * b is it over a.den * b.den.  The rows of b are
    dicts, and the sum of each row of the product starts as a copy of the
    first row of b that it meets, scaled only when its factor is not 1.
    Every sum is formed before the first pair is yielded, so
    `product_is_zero` stops reading at the first nonzero row but not
    summing.  ValueError unless the product is defined."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch %dx%d * %dx%d"
                         % (a.rows, a.cols, b.rows, b.cols))
    b_rows = {}
    for (k, c), w in b.ints.items():
        row = b_rows.get(k)
        if row is None:
            b_rows[k] = {c: w}
        else:
            row[c] = w
    sums = {}
    for (r, k), v in a.ints.items():
        b_row = b_rows.get(k)
        if b_row is None:
            continue
        acc = sums.get(r)
        if acc is None:
            sums[r] = dict(b_row) if v == 1 else {c: v * w for c, w in b_row.items()}
        else:
            for c, w in b_row.items():
                acc[c] = acc.get(c, 0) + v * w
    for r, acc in sums.items():
        for c, x in acc.items():
            if x:
                yield (r, c), x


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


def echelon(m, cleared=b""):
    """Forward elimination of the transpose of m: {pivot column, a row of
    m: its integer row, pivot entry p > 0 included}, in pivot order.  No
    Fraction is formed.

    The rows of the pass are the columns of m times its denominator,
    which moves no pivot.  `cleared`, one byte per column of m, nonzero
    on the columns to leave out, or empty for none, drops rows: the rank
    is still that of m whenever each column left out is a combination
    of the others.

    The columns are visited left to right, each with the set of its
    not-yet-pivot rows with a nonzero there, held in a list by column;
    an empty column costs one test.  Of those rows the shortest is the
    pivot, lowest index on ties, to keep fill-in down (Markowitz 1957),
    and a lone such row is the pivot without a search.  A row with entry
    f there becomes (p/g)*row - (f/g)*pivot row, g = gcd(p, f), then, if
    p/g is not 1, is divided by the gcd of its entries (Bareiss 1968).
    A pivot row with no other entry clears nothing else, so the other
    rows just drop that column, unscaled.  A nonzero scaling keeps each
    row's support, so the pivots are those of Fraction elimination: the
    columns at which the rank of the columns so far rises, a function of
    the row space alone.
    """
    if not cleared:
        cleared = bytes(m.cols)
    rowdata, colrows = {}, [None] * m.rows
    for (c, r), v in m.ints.items():
        if cleared[r]:
            continue
        rowdata.setdefault(r, {})[c] = v
        live = colrows[c]
        if live is None:
            colrows[c] = {r}
        else:
            live.add(r)
    pivot_rows = {}
    for col, live in enumerate(colrows):
        if not live:
            continue
        colrows[col] = None
        if len(live) == 1:
            pr = live.pop()
        else:
            pr = min(live, key=lambda r: (len(rowdata[r]), r))
            live.discard(pr)
        prow = rowdata.pop(pr)
        pv = prow.pop(col)
        if not prow:
            for r in live:
                del rowdata[r][col]
            pivot_rows[col] = {col: abs(pv)}
            continue
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

    The forward pass is `echelon` of m.transpose(), over the rows of m.
    Back-substitution, last pivot row first, clears the pivot columns of
    each row by the same integer rule, the content leaving the row and its
    pivot entry together.  Row i is its integer row over its pivot entry;
    the rows are put over the lcm of the pivot entries and brought to
    lowest terms, and no Fraction is formed.  The RREF is unique, so the
    output is that of Fraction elimination; only the time differs.
    """
    pivot_rows = echelon(m.transpose())
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
    den = lcm(*(row[p] for p, row in pivot_rows.items()))
    ints = {}
    for i, (p, row) in enumerate(pivot_rows.items()):
        scale = den // row.pop(p)
        for c, v in row.items():
            ints[(i, c)] = v * scale
        ints[(i, p)] = den
    return _lowest_terms(m.rows, m.cols, ints, den), tuple(pivot_rows), len(pivot_rows)


def rank(m, lower=None):
    """Rank of m, from one forward pass over its transpose, taken once per
    matrix object and then remembered with the pivot columns of that pass;
    a matrix with no entries has rank 0 without one.  No Fraction and no
    matrix is formed.

    `lower` is a matrix already ranked, with m * lower == 0 already
    tested; only `_cohomology_dim_of_zero_composite` passes one.  Its
    pivot columns P are coordinates of the space between the two on which
    im lower projects isomorphically, so for p in P some vector e_p + sum
    over q not in P of c_q e_q lies in im lower, and m sends it to 0:
    column p of m is a combination of the columns outside P.  The pass
    then leaves the rows P of the transpose out (clearing, Chen & Kerber
    2011), which changes neither the rank nor the pivot columns, as the
    rows left still span im m."""
    if m._rank is None:
        if not m.ints:
            m._rank, m._pivots = 0, b""
            return 0
        cleared = b"" if lower is None else lower._pivots
        pivot_rows = echelon(m, cleared)
        pivots = bytearray(m.rows)
        for p in pivot_rows:
            pivots[p] = 1
        m._rank, m._pivots = len(pivot_rows), bytes(pivots)
        if cleared:
            m._cleared = cleared
    return m._rank


def kernel_basis(m):
    """Basis of the right kernel, one sparse vector per free column.

    Vector i has entry 1 at its defining free column and is supported on
    that column plus pivot columns.  Ordered by free column index.
    """
    red, pivots, _ = rref(m)
    pivot_set = set(pivots)
    basis = {f: {f: ONE} for f in range(m.cols) if f not in pivot_set}
    for (r, c), v in red.ints.items():
        vec = basis.get(c)
        if vec is not None:
            vec[pivots[r]] = Fraction(-v, red.den)
    return list(basis.values())


def cohomology_dim(d_out, d_in):
    """dim ker(d_out) - rank(d_in) for consecutive maps of a cochain complex.

    d_in : C^{n-1} -> C^n and d_out : C^n -> C^{n+1}; ValueError unless
    d_out.cols == d_in.rows, the dimension of the shared space C^n.
    Raises CompositionNotZero unless d_out * d_in == 0.
    """
    if not product_is_zero(d_out, d_in):
        raise CompositionNotZero(
            "composite of consecutive differentials is nonzero")
    return _cohomology_dim_of_zero_composite(d_out, d_in)


def _cohomology_dim_of_zero_composite(d_out, d_in):
    """cohomology_dim for a pair whose composite is already known to be 0:
    d_in is ranked first, and d_out then without the columns that the
    pivots of d_in clear (see `rank`)."""
    r_in = rank(d_in)
    dim = (d_out.cols - rank(d_out, d_in)) - r_in
    if dim < 0:
        raise CompositionNotZero("negative cohomology dimension, rank bookkeeping broke")
    return dim


def product_is_zero(a, b):
    """Whether a * b == 0, from the integer product, which stops at the
    first nonzero row."""
    return next(_product(a, b), None) is None


def is_chain_map(f_next, d_src, d_tgt, f, sign=1):
    """Whether f_next * d_src == sign * d_tgt * f, for sign 1 or -1.

    f and f_next map the degree n and n+1 slices of the source complex to
    the target; sides that do not fit raise ValueError.  The integer
    products of the two sides are compared, each scaled by the other
    side's denominator.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be 1 or -1, not %r" % (sign,))
    if (f_next.rows, d_src.cols) != (d_tgt.rows, f.cols):
        raise ValueError("sides of the square differ: %dx%d, %dx%d" % (
            f_next.rows, d_src.cols, d_tgt.rows, f.cols))
    ls, rs = d_tgt.den * f.den, sign * f_next.den * d_src.den
    left = {rc: v * ls for rc, v in _product(f_next, d_src)}
    return left == {rc: v * rs for rc, v in _product(d_tgt, f)}


class CochainComplex:
    """A cochain complex built slice by slice from its bases and its
    differential.

    A subclass holds a dict `_cache` and defines `_basis(n, k)`, the
    ordered basis of degree n restricted to word length k where it has
    one, and `slice_matrix(n, k)`, the differential from degree n to n+1:
    the model builds it on the generic path of `gca` over its bases, a
    complex of tensors in ints from its layouts (`TensorComplex`), which
    unpacks a basis only for a reader that asks for one.  An empty
    degree-n slice, as below degree 0 of a model, gives a matrix with no
    columns, so it needs no special case.
    """

    word_length = None

    def memo(self, key, build, *args):
        """`_cache[key]`, from build(*args) the first time it is asked for;
        a bound method with its arguments makes a hit build no closure."""
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = build(*args)
        return got

    def basis(self, n, k=None):
        """The slice basis, built once and then kept in `_cache`."""
        return self.memo(("basis", n, k), self._basis, n, k)

    def d_matrix(self, n, k=None):
        """The slice matrix, built once and then kept in `_cache`."""
        return self.memo(("d", n, k), self.slice_matrix, n, k)

    def betti(self, n, k=None):
        """dim H^n of the slice, from the two differentials around it,
        taken once per (n, k) and then kept in `_cache`."""
        return self.memo(("betti", n, k), self._betti, n, k)

    def tested_pair(self, n, k=None):
        """(d(n), d(n - 1)) of the slice once their composite, multiplied
        out once per (n, k), has tested zero: every complex's one d d test.
        A nonzero one raises, naming the complex and the slice (n - 1, k),
        or (n - 1, word_length) of a complex that fixes one.  For the loop
        model that test is redundant mathematically, as D is a derivation
        and D D = 0 is checked on the generators, but it guards the slice
        assembly from left_image (x) 1 and the twist at every degree a run
        reaches, beyond the degrees that the tests compare with the generic
        path."""
        d_out, d_in = self.d_matrix(n, k), self.d_matrix(n - 1, k)
        key = ("d*d", n, k)
        if not (key in self._cache or product_is_zero(d_out, d_in)):
            w = k if self.word_length is None else self.word_length
            raise CompositionNotZero(
                "%s slice (%d, %s): composite of consecutive differentials is "
                "nonzero" % (type(self).__name__, n - 1, w))
        self._cache[key] = True
        return d_out, d_in

    def _betti(self, n, k):
        """Only once `tested_pair` passes is d(n) ranked without the
        columns that the pivots of d(n - 1) clear (see `rank`); a slice
        that an earlier reader ranked keeps its rank."""
        return _cohomology_dim_of_zero_composite(*self.tested_pair(n, k))


class TensorComplex(CochainComplex):
    """A complex of tensors left (x) right, laid out and built here for
    every subclass: the loop model, the extended and the dual complex and
    the derivations.  A subclass gives `left_basis(p)`, the left factors
    of degree p in their own order; `sgens`, whose slices
    `gca.slice_basis(sgens, q, k)` make the right factor, at the slice's
    k or at `word_length` where that is set: the suspended generators, or
    the duals v' of the derivations; and `left_image`, `right_image`,
    `times` and `denominator` for `slice_matrix`.

    Slice (n, k) lists, left factor by left factor, the pairs (left, t)
    with t in the right slice T of a degree q populated at the word
    length and left of degree n - q.  Its layout, kept in the memo, is
    what `slice_matrix` and the f (x) 1 placer read: `layout(n, k)` maps
    left to (offset, positions), positions the table that
    `gca.slice_positions` shares for T, whose keys list T in order, so
    the row of (left, t) is offset + positions[t], and `size(n, k)` is
    the offset past the last block.
    `basis(n, k)`, the tuple of pairs, is unpacked from the layout for a
    reader that asks for it; no slice or map is built from it.  Every
    slice has a word length, its k or `word_length`: no slice merges
    word lengths.

    The differential of left (x) t is left_image(left) (x) t plus the
    twist, the sum over the terms c x (x) t' of right_image(t) of c
    times(left, x) (x) t'.  `slice_matrix` asks times(left, x) once per
    left and x and keeps it in `_cache`, by left factor.
    """

    def layout(self, n, k=None):
        """{left: (offset, {right: position})}, built once and then kept in
        `_cache`."""
        return self.memo(("layout", n, k), self._layout, n, k)

    def size(self, n, k=None):
        """The number of pairs in slice (n, k), read off its layout."""
        layout = self.layout(n, k)
        if not layout:
            return 0
        offset, positions = next(reversed(layout.values()))
        return offset + len(positions)

    def slice_matrix(self, n, k):
        """d from degree n to n+1: `left_image` (x) 1, placed by blocks with
        the placer of rho (x) 1, then the twist, walked one left factor at
        a time over its block of columns: for each term c x (x) t' of
        right_image(t) of a column, c times(left, x) (x) t' is summed into
        its entries, dropping a sum that cancels.  In ints over
        `denominator`, from the two layouts: no pair basis and no dict
        over the codomain."""
        dom, cod = self.layout(n, k), self.layout(n + 1, k)
        rows, cols = self.size(n + 1, k), self.size(n, k)
        failure = ("%s differential left its slice: degree %d, word length %s"
                   % (type(self).__name__, n, k))
        index = _indices(max(rows, cols))
        ints = _tensor_one(self.left_image, dom, cod, index, failure)
        right_image, times, cache, get = self.right_image, self.times, self._cache, ints.get
        # the (position, terms) of the right factors with a nonzero image,
        # by position table: the tables are shared, and the layouts keep
        # each one alive, so its id names it for the length of this call
        columns = {}
        try:
            for left, (col, positions) in dom.items():
                terms = columns.get(id(positions))
                if terms is None:
                    terms = columns[id(positions)] = [
                        (j, img.items()) for t, j in positions.items()
                        if (img := right_image(t))]
                if not terms:
                    continue
                products = cache.get(("times", left))
                if products is None:
                    products = cache[("times", left)] = {}
                for j, img in terms:
                    c = index[col + j]
                    for (x, t2), v in img:
                        product = products.get(x)
                        if product is None:
                            product = products[x] = times(left, x)
                        for target, a in product:
                            offset, block = cod[target]
                            key = (index[offset + block[t2]], c)
                            w, old = a * v, get(key)
                            if old is not None:
                                w += old
                            if w:
                                ints[key] = w
                            elif old is not None:
                                del ints[key]
        except (KeyError, TypeError, ValueError):
            raise InternalCheckFailure(failure) from None
        return _lowest_terms(rows, cols, ints, self.denominator)

    def _layout(self, n, k):
        from . import gca       # gca builds on this module
        w = k if self.word_length is None else self.word_length
        sgens, parts = self.sgens, []
        for q in gca.word_length_degrees(sgens, w):
            lefts = self.left_basis(n - q)
            if lefts and (positions := gca.slice_positions(sgens, q, w)):
                parts.extend(zip(lefts, repeat(positions)))
        parts.sort(key=itemgetter(0))
        layout, offset = {}, 0
        for left, positions in parts:
            layout[left] = (offset, positions)
            offset += len(positions)
        return layout

    def _basis(self, n, k):
        return tuple((left, t) for left, (_, positions) in self.layout(n, k).items()
                     for t in positions)


def _tensor_one(image, dom, cod, index, failure):
    """The entries of f (x) 1 as {(row, col): int}, for dom and cod the
    `TensorComplex.layout` of two slices of a complex of tensors,
    image(left) f of one left factor, {left': nonzero int} or None for
    zero, and index `_indices` of at least both slice sizes.

    f (x) 1 is the block sum over the left factors of dom: each term c
    left' of f(left) puts c on the diagonal of the block at (offset of
    left', offset of left), as both blocks list the same right factors,
    the one position table that both layouts share.  Distinct terms
    fill distinct blocks, so no entry is summed.  The blocks of one left
    factor are looked up once and written column by column: most hold
    one to ten right factors, too few for a bulk update to pay for
    itself.  A left' outside cod, or whose block lists other right
    factors, raises InternalCheckFailure(failure).
    """
    ints = {}
    for left, (col, positions) in dom.items():
        img = image(left)
        if not img:
            continue
        blocks = []
        for target, v in img.items():
            row, same = cod.get(target, (0, None))
            if same is not positions:
                raise InternalCheckFailure(failure)
            blocks.append((row, v))
        for j in range(len(positions)):
            c = index[col + j]
            for row, v in blocks:
                ints[(index[row + j], c)] = v
    return ints


def tensor_one_matrix(rows, cols, image, dom, cod, den, failure):
    """Matrix of f (x) 1 from one slice of a complex of tensors to another,
    rows x cols, for dom and cod their layouts and image(left) f of one
    left factor as ints over den > 0, placed by `_tensor_one`.  No
    Fraction is formed."""
    return _lowest_terms(rows, cols, _tensor_one(
        image, dom, cod, _indices(max(rows, cols)), failure), den)


def induced_rank(f, d_out, target_d_in):
    """Rank of the map on cohomology induced by the chain-level matrix f.

    f maps C^n, the domain of d_out, to D^n, the codomain of target_d_in.
    With Z = ker d_out, dim(f(Z) + im target_d_in) = rank(block) -
    rank(d_out) for block = [[d_out, 0], [f, target_d_in]], so
    rank(block) - rank(d_out) - rank(target_d_in) is the rank of Z ->
    H^n(D), one elimination beside two memoised ranks.  It is the rank on
    H^n(C) when f sends boundaries into im target_d_in, that is when the
    chain square one degree down commutes; every caller checks it first:
    the rho (x) 1 walk of `pdquotient` on the same slice, at either word
    length, `sections.verify_duality_quasi_iso` through the square
    identity of the dual complex's builder, and the cup pairing square of
    `sullivan.check_poincare_duality`.  ValueError unless f has
    d_out's columns and target_d_in's rows.

    The block is assembled from the three integer forms as they are:
    scaling d_out, f or target_d_in by a nonzero factor is a scaling of
    rows and columns of the block, as its upper right corner is zero, and
    leaves its rank unchanged.  Its pass leaves out the columns that
    ranking d_out and target_d_in cleared (see `rank`).  For p cleared
    from d_out, some v_p = e_p + (columns outside the cleared set) is a
    boundary of the slice below, the one that `betti` ranked d_out
    against, and [d_out; f] v_p = [0; f(v_p)] lies in im target_d_in by
    the square below; a column cleared from target_d_in is a combination
    of its other columns.  Either way the column is a combination of the
    columns kept, so the rank is that of the whole block.
    """
    if f.cols != d_out.cols or f.rows != target_d_in.rows:
        raise ValueError("f is %dx%d, expected %dx%d" % (
            f.rows, f.cols, target_d_in.rows, d_out.cols))
    top, left = d_out.rows, d_out.cols
    ints = dict(d_out.ints)
    ints.update(((top + r, c), v) for (r, c), v in f.ints.items())
    ints.update(((top + r, left + c), v) for (r, c), v in target_d_in.ints.items())
    out, below = d_out._cleared, target_d_in._cleared
    cleared = b""
    if out or below:
        cleared = (out or bytes(left)) + (below or bytes(target_d_in.cols))
    block = SparseMatrix._of_ints(top + f.rows, left + target_d_in.cols, ints, 1)
    return ((len(echelon(block, cleared)) if ints else 0)
            - rank(d_out) - rank(target_d_in))
