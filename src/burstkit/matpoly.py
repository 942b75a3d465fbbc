"""Dense matrices and univariate polynomials over a FieldCtx.

Polynomials are tuples of element indices, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple and its degree is
the distinguished NEG_INF marker. A matrix is its list of rows, the one
form every kernel reads; matrices are small (nothing in scope exceeds a
few hundred rows). One forward elimination gives the determinant (the
signed pivot product) and the rank (the pivot count); one
back-substitution pass on top of it gives the reduced forms: RREF, null
spaces and affine solves; a null space is [] straight after the forward
pass when every column pivots. The first left-kernel vector alone needs
no RREF: the forward pass stops at the first free column, and a
triangular solve finishes it. Every multiply-add over a row runs on
the field's row kernel ctx.axpy(f, xs, ys) = [x + f*y]: the row updates
of both passes, poly_add, poly_mul, poly_divmod, mat_mul, mat_vec (a
sum of scaled columns), span_members and poly_from_roots, where
(x - r) * P = shift(P) + (-r) * P.
"""

from __future__ import annotations

from itertools import islice

from .gf import Fe, FieldCtx

Poly = tuple[Fe, ...]

NEG_INF = float("-inf")


# -- polynomials ------------------------------------------------------

def poly_trim(coeffs) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(a: Poly):
    return len(a) - 1 if a else NEG_INF


def poly_add(ctx: FieldCtx, a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    return poly_trim(ctx.axpy(1, a, b) + list(a[len(b) :]))


def poly_mul(ctx: FieldCtx, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    axpy = ctx.axpy
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + len(b)] = axpy(x, out[i : i + len(b)], b)
    return poly_trim(out)


def poly_eval(ctx: FieldCtx, a: Poly, x: Fe) -> Fe:
    """Horner evaluation."""
    add, mul = ctx.add, ctx.mul
    acc = 0
    for c in reversed(a):
        acc = add(mul(acc, x), c)
    return acc


def poly_divmod(ctx: FieldCtx, a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg(remainder) < deg(b)."""
    if not b:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    axpy, neg, mul = ctx.axpy, ctx.neg, ctx.mul
    rem = list(a)
    db = len(b) - 1
    lead_inv = ctx.inv(b[-1])
    if len(rem) <= db:
        return (), poly_trim(rem)
    quot = [0] * (len(rem) - db)
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top]
        if c == 0:
            continue
        f = mul(c, lead_inv)
        quot[top - db] = f
        rem[top - db : top + 1] = axpy(neg(f), rem[top - db : top + 1], b)
    return poly_trim(quot), poly_trim(rem)


def poly_from_roots(ctx: FieldCtx, roots) -> Poly:
    """Monic polynomial with the given root multiset."""
    axpy, neg = ctx.axpy, ctx.neg
    out = [1]
    for r in roots:
        out = axpy(neg(r), [0, *out], [*out, 0])
    return tuple(out)


# -- matrices ---------------------------------------------------------

class Mat:
    """A matrix over a fixed field, held as its list of rows: the form
    the elimination and the row kernel read. Nothing mutates a Mat, so
    the methods that hand rows out copy them."""

    __slots__ = ("ctx", "rows", "cols", "_rows")

    def __init__(self, ctx: FieldCtx, rows: int, cols: int, data=None):
        """rows x cols from a flat row-major sequence, or zeros."""
        flat = [0] * (rows * cols) if data is None else list(data)
        if len(flat) != rows * cols:
            raise ValueError("data length does not match dimensions")
        entries = iter(flat)
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        self._rows = [list(islice(entries, cols)) for _ in range(rows)]

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows, cols: int | None = None) -> "Mat":
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cannot infer column count from an empty row list")
            cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return _wrap(ctx, rows, cols)

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Mat":
        return _wrap(ctx, [[int(i == j) for j in range(n)] for i in range(n)], n)

    def at(self, i: int, j: int) -> Fe:
        return self._rows[i][j]

    def row(self, i: int) -> list[Fe]:
        return list(self._rows[i])

    def to_rows(self) -> list[list[Fe]]:
        return [list(r) for r in self._rows]

    def transpose(self) -> "Mat":
        # zip(*rows) has no columns to yield when there are no rows
        cols = [list(c) for c in zip(*self._rows)] or [[] for _ in range(self.cols)]
        return _wrap(self.ctx, cols, self.rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mat)
            and self.ctx == other.ctx
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols} over {self.ctx!r})"


def _wrap(ctx: FieldCtx, rows: list[list[Fe]], cols: int) -> Mat:
    """A Mat that takes over freshly built rows, with no copy."""
    m = Mat(ctx, 0, cols)
    m.rows, m._rows = len(rows), rows
    return m


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a.ctx != b.ctx:
        raise ValueError("matrices live over different fields")
    if a.cols != b.rows:
        raise ValueError("inner dimensions do not match")
    axpy = a.ctx.axpy
    out = []
    for arow in a._rows:
        orow = [0] * b.cols
        for av, brow in zip(arow, b._rows):
            if av:
                orow = axpy(av, orow, brow)
        out.append(orow)
    return _wrap(a.ctx, out, b.cols)


def mat_vec(a: Mat, v) -> list[Fe]:
    """a v, as the sum of v_j times column j of a."""
    if a.cols != len(v):
        raise ValueError("vector length does not match column count")
    axpy = a.ctx.axpy
    out = [0] * a.rows
    for x, col in zip(v, zip(*a._rows)):
        if x:
            out = axpy(x, out, col)
    return out


def _echelon(ctx: FieldCtx, rows: list[list[Fe]], cols: int) -> tuple[list[int], Fe]:
    """Forward elimination of rows in place: each column pivots on its
    first nonzero entry at or below the next pivot row, and the rows below
    add multiples of the pivot row, skipping zero entries. One pass per
    column picks the pivot and clears the rows after it; the rows between
    the next pivot row and the pivot are 0 there already. Returns the
    pivot columns and the signed pivot product (0 if a column has none).
    """
    mul, axpy, neg = ctx.mul, ctx.axpy, ctx.neg
    pivots: list[int] = []
    det = 1
    for c in range(cols):
        pr, sel = len(pivots), None
        for i in range(pr, len(rows)):
            if rows[i][c]:
                if sel is None:
                    sel, prow = i, rows[i]
                    neg_inv = neg(ctx.inv(prow[c]))
                else:
                    rows[i] = axpy(mul(rows[i][c], neg_inv), rows[i], prow)
        if sel is None:
            det = 0
            continue
        if sel != pr:
            rows[pr], rows[sel] = prow, rows[pr]
            det = neg(det)
        det = mul(det, prow[c])
        pivots.append(c)
    return pivots, det


def _back_substitute(ctx: FieldCtx, rows: list[list[Fe]], pivots: list[int]) -> None:
    """Turn echelon rows into reduced ones in place: scale each pivot row
    to 1 (an axpy onto a zero row) and clear the entries above it."""
    axpy = ctx.axpy
    for k, c in reversed(list(enumerate(pivots))):
        rows[k] = prow = axpy(ctx.inv(rows[k][c]), [0] * len(rows[k]), rows[k])
        for i in range(k):
            if rows[i][c]:
                rows[i] = axpy(ctx.neg(rows[i][c]), rows[i], prow)


def _rref_rows(ctx: FieldCtx, rows: list[list[Fe]], cols: int) -> tuple[int, ...]:
    """Reduce rows in place to reduced row-echelon form and return the
    pivot columns: the forward elimination, then the back-substitution."""
    pivots, _ = _echelon(ctx, rows, cols)
    _back_substitute(ctx, rows, pivots)
    return tuple(pivots)


def determinant(m: Mat) -> Fe:
    """Exact determinant: the signed pivot product of the forward elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    return _echelon(m.ctx, m.to_rows(), m.cols)[1]


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row-echelon form and the tuple of pivot columns."""
    rows = m.to_rows()
    pivots = _rref_rows(m.ctx, rows, m.cols)
    return _wrap(m.ctx, rows, m.cols), pivots


def rank(m: Mat) -> int:
    return len(_echelon(m.ctx, m.to_rows(), m.cols)[0])


def _null_basis_from_rref(ctx: FieldCtx, rows, pivots: tuple[int, ...], cols: int) -> list[list[Fe]]:
    """One basis vector per free column f < cols: 1 at f, minus column f at the pivots."""
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = ctx.neg(rows[i][f])
        basis.append(v)
    return basis


def null_space(m: Mat) -> list[list[Fe]]:
    """Canonical reduced-echelon basis of {x : m x = 0}; [] straight
    after the forward elimination when every column pivots."""
    rows = m.to_rows()
    pivots, _ = _echelon(m.ctx, rows, m.cols)
    if len(pivots) == m.cols:
        return []
    _back_substitute(m.ctx, rows, pivots)
    return _null_basis_from_rref(m.ctx, rows, pivots, m.cols)


def left_null_space(m: Mat) -> list[list[Fe]]:
    """Canonical basis of {u : u m = 0}."""
    return null_space(m.transpose())


def _first_left_null(m: Mat) -> list[Fe] | None:
    """left_null_space(m)[0], or None when that basis is empty, with no RREF.

    The forward elimination of m's transpose stops at its first free
    column f. Columns 0..f-1 have pivoted on rows 0..f-1 in order, so
    those rows hold an upper triangular f x f block U, and column f is 0
    below row f-1. The canonical basis vector of f is 1 at f and 0 past
    it (every later pivot row of the RREF is 0 in column f), so its first
    f entries v solve U v = -(column f), one back substitution.
    """
    ctx = m.ctx
    mul, axpy, neg = ctx.mul, ctx.axpy, ctx.neg
    rows = m.transpose()._rows
    for f in range(m.rows):
        sel = None  # one pass: the first row nonzero in column f pivots, and clears the rest
        for i in range(f, len(rows)):
            if rows[i][f]:
                if sel is None:
                    sel, prow = i, rows[i]
                    neg_inv = neg(ctx.inv(prow[f]))
                else:
                    rows[i] = axpy(mul(rows[i][f], neg_inv), rows[i], prow)
        if sel is None:
            break
        rows[f], rows[sel] = prow, rows[f]
    else:
        return None
    v = [0] * m.rows
    v[f] = 1
    b = [row[f] for row in rows[:f]]  # U v + b = 0, solved from the last entry up
    for j in reversed(range(f)):
        v[j] = x = neg(ctx.div(b[j], rows[j][j]))
        if x:
            b[:j] = axpy(x, b[:j], [row[j] for row in rows[:j]])
    return v


def solve_affine(a: Mat, b) -> tuple[list[Fe], list[list[Fe]]] | None:
    """Solve a x = b; None iff inconsistent.

    Returns a particular solution (free variables set to zero) together
    with the canonical reduced-echelon null-space basis, so the full
    solution set has exactly q^len(basis) members.
    """
    if a.rows != len(b):
        raise ValueError("right-hand side length does not match row count")
    rows = [[*row, x] for row, x in zip(a._rows, b)]
    pivots = _rref_rows(a.ctx, rows, a.cols + 1)
    if a.cols in pivots:
        return None
    particular = [0] * a.cols
    for i, c in enumerate(pivots):
        particular[c] = rows[i][a.cols]
    return particular, _null_basis_from_rref(a.ctx, rows, pivots, a.cols)


def span_members(ctx: FieldCtx, origin, basis) -> list[tuple[Fe, ...]]:
    """Every member of origin + span(basis), in lex order of the
    coefficient vector (element indices, the last basis vector fastest)."""
    axpy = ctx.axpy
    words = [tuple(origin)]
    for b in basis:
        nxt = []
        for w in words:
            nxt.append(w)
            nxt.extend(tuple(axpy(a, w, b)) for a in range(1, ctx.q))
        words = nxt
    return words


def vandermonde(ctx: FieldCtx, xs) -> Mat:
    """Square matrix with entry (s, t) = xs[t]^s."""
    xs = list(xs)
    return _wrap(ctx, [[ctx.pow(x, s) for x in xs] for s in range(len(xs))], len(xs))
