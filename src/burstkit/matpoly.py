"""Dense matrices and univariate polynomials over a FieldCtx.

Polynomials are tuples of element indices, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple and its degree is
the distinguished NEG_INF marker. Matrices are dense and small (nothing
in scope exceeds a few hundred rows). One forward elimination gives the
determinant (the signed pivot product) and the rank (the pivot count);
one back-substitution pass on top of it gives the reduced forms: RREF,
null spaces and affine solves; a null space is [] straight after the
forward pass when every column pivots. Every multiply-add over a row runs
on the field's row kernel ctx.axpy(f, xs, ys) = [x + f*y]: the row
updates of both passes, poly_mul, poly_divmod, mat_mul and
poly_from_roots, where (x - r) * P = shift(P) + (-r) * P.
"""

from __future__ import annotations

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
    out = list(a)
    for i, c in enumerate(b):
        out[i] = ctx.add(out[i], c)
    return poly_trim(out)


def poly_mul(ctx: FieldCtx, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + len(b)] = ctx.axpy(x, out[i : i + len(b)], b)
    return poly_trim(out)


def poly_eval(ctx: FieldCtx, a: Poly, x: Fe) -> Fe:
    """Horner evaluation."""
    acc = 0
    for c in reversed(a):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def poly_divmod(ctx: FieldCtx, a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg(remainder) < deg(b)."""
    if not b:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
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
        f = ctx.mul(c, lead_inv)
        quot[top - db] = f
        rem[top - db : top + 1] = ctx.axpy(ctx.neg(f), rem[top - db : top + 1], b)
    return poly_trim(quot), poly_trim(rem)


def poly_from_roots(ctx: FieldCtx, roots) -> Poly:
    """Monic polynomial with the given root multiset."""
    out = [1]
    for r in roots:
        out = ctx.axpy(ctx.neg(r), [0, *out], [*out, 0])
    return tuple(out)


# -- matrices ---------------------------------------------------------

class Mat:
    """Dense row-major matrix over a fixed field."""

    __slots__ = ("ctx", "rows", "cols", "data")

    def __init__(self, ctx: FieldCtx, rows: int, cols: int, data=None):
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [0] * (rows * cols)
        else:
            self.data = list(data)
            if len(self.data) != rows * cols:
                raise ValueError("data length does not match dimensions")

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows, cols: int | None = None) -> "Mat":
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cannot infer column count from an empty row list")
            cols = len(rows[0])
        flat = []
        for r in rows:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(ctx, len(rows), cols, flat)

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Mat":
        m = cls(ctx, n, n)
        for i in range(n):
            m.data[i * n + i] = 1
        return m

    def at(self, i: int, j: int) -> Fe:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> list[Fe]:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fe]]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "Mat":
        out = Mat(self.ctx, self.cols, self.rows)
        for i in range(self.rows):
            base = i * self.cols
            for j in range(self.cols):
                out.data[j * self.rows + i] = self.data[base + j]
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mat)
            and self.ctx == other.ctx
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols} over {self.ctx!r})"


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a.ctx != b.ctx:
        raise ValueError("matrices live over different fields")
    if a.cols != b.rows:
        raise ValueError("inner dimensions do not match")
    ctx = a.ctx
    brows = b.to_rows()
    flat = []
    for i in range(a.rows):
        orow = [0] * b.cols
        for av, brow in zip(a.row(i), brows):
            if av:
                orow = ctx.axpy(av, orow, brow)
        flat.extend(orow)
    return Mat(ctx, a.rows, b.cols, flat)


def mat_vec(a: Mat, v) -> list[Fe]:
    if a.cols != len(v):
        raise ValueError("vector length does not match column count")
    ctx = a.ctx
    out = []
    for i in range(a.rows):
        acc = 0
        base = i * a.cols
        for j, x in enumerate(v):
            if x:
                h = a.data[base + j]
                if h:
                    acc = ctx.add(acc, ctx.mul(h, x))
        out.append(acc)
    return out


def vstack(mats: list[Mat]) -> Mat:
    if not mats:
        raise ValueError("nothing to stack")
    cols = mats[0].cols
    ctx = mats[0].ctx
    flat = []
    rows = 0
    for m in mats:
        if m.cols != cols or m.ctx != ctx:
            raise ValueError("stacked matrices must agree on field and width")
        flat.extend(m.data)
        rows += m.rows
    return Mat(ctx, rows, cols, flat)


def _echelon(ctx: FieldCtx, rows: list[list[Fe]], cols: int) -> tuple[list[int], Fe]:
    """Forward elimination of rows in place: each column pivots on its
    first nonzero entry at or below the next pivot row, and the rows below
    add multiples of the pivot row, skipping zero entries. Returns the
    pivot columns and the signed pivot product (0 if a column has none).
    """
    mul, axpy = ctx.mul, ctx.axpy
    pivots: list[int] = []
    det = 1
    for c in range(cols):
        pr = len(pivots)
        sel = next((i for i in range(pr, len(rows)) if rows[i][c]), None)
        if sel is None:
            det = 0
            continue
        if sel != pr:
            rows[pr], rows[sel] = rows[sel], rows[pr]
            det = ctx.neg(det)
        prow = rows[pr]
        det = mul(det, prow[c])
        neg_inv = ctx.neg(ctx.inv(prow[c]))
        for i in range(pr + 1, len(rows)):
            if rows[i][c]:
                rows[i] = axpy(mul(rows[i][c], neg_inv), rows[i], prow)
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
    return Mat.from_rows(m.ctx, rows, cols=m.cols), pivots


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


def solve_affine(a: Mat, b) -> tuple[list[Fe], list[list[Fe]]] | None:
    """Solve a x = b; None iff inconsistent.

    Returns a particular solution (free variables set to zero) together
    with the canonical reduced-echelon null-space basis, so the full
    solution set has exactly q^len(basis) members.
    """
    if a.rows != len(b):
        raise ValueError("right-hand side length does not match row count")
    rows = [a.row(i) + [b[i]] for i in range(a.rows)]
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
    words = [tuple(origin)]
    for b in basis:
        scaled = [tuple(ctx.mul(a, x) for x in b) for a in range(1, ctx.q)]
        nxt = []
        for w in words:
            nxt.append(w)
            for sc in scaled:
                nxt.append(tuple(map(ctx.add, w, sc)))
        words = nxt
    return words


def vandermonde(ctx: FieldCtx, xs) -> Mat:
    """Square matrix with entry (s, t) = xs[t]^s."""
    xs = list(xs)
    m = len(xs)
    rows = [[ctx.pow(x, s) for x in xs] for s in range(m)]
    return Mat.from_rows(ctx, rows, cols=m)
