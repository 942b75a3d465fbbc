"""Code constructions and representations.

LinearCode keeps a full-row-rank parity-check matrix (plus an optional
generator); ExplicitCode is a sorted, deduplicated codeword list and is
the common denominator: linear codes expose a guarded expansion so one
certification path serves both. Constructions: Reed-Solomon from powers
of an order-n element, the two length-4 nonlinear reference codes, and
the length-8 redundancy-4 code with six free entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import _caps
from .burst import Word
from .gf import Fe, FieldCtx, field_from_dict
from .matpoly import Mat, mat_vec, null_space, rank, span_members


@dataclass(frozen=True)
class LinearCode:
    ctx: FieldCtx
    n: int
    H: Mat
    G: Mat | None = None
    _window_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.H.cols != self.n:
            raise ValueError("parity-check width does not match the length")
        if rank(self.H) != self.H.rows:
            raise ValueError("parity-check matrix does not have full row rank")
        if self.G is not None:
            if self.G.cols != self.n:
                raise ValueError("generator width does not match the length")
            if rank(self.G) != self.G.rows:
                raise ValueError("generator matrix does not have full row rank")
            if self.G.rows != self.n - self.H.rows:
                raise ValueError("generator and parity-check ranks disagree")
            if any(x for g in self.G.to_rows() for x in mat_vec(self.H, g)):
                raise ValueError("G H^T != 0")

    @property
    def r(self) -> int:
        return self.H.rows

    @property
    def k(self) -> int:
        return self.n - self.H.rows

    @property
    def size(self) -> int:
        return self.ctx.q**self.k

    def syndrome(self, w) -> tuple[Fe, ...]:
        return tuple(mat_vec(self.H, list(w)))

    def contains(self, w) -> bool:
        return all(x == 0 for x in self.syndrome(w))

    def generator_matrix(self) -> Mat:
        """The generator, deriving the canonical null-space basis of H
        on demand when none was supplied."""
        if self.G is not None:
            return self.G
        return Mat.from_rows(self.ctx, null_space(self.H), cols=self.n)

    def codewords(self, cap: int | None = None):
        """Iterate all q^k codewords (guarded by the codeword cap)."""
        _caps.check("codeword expansion q^k", self.size, "CODEWORDS", cap)
        return iter(span_members(self.ctx, (0,) * self.n, self.generator_matrix().to_rows()))


@dataclass(frozen=True)
class ExplicitCode:
    ctx: FieldCtx
    n: int
    codewords: tuple[Word, ...]
    _window_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.codewords:
            raise ValueError("a code must contain at least one word")
        if any(len(w) != self.n for w in self.codewords):
            raise ValueError("codeword length mismatch")
        canon = tuple(sorted(set(self.codewords)))
        object.__setattr__(self, "codewords", canon)

    @property
    def size(self) -> int:
        return len(self.codewords)

    @cached_property
    def _members(self) -> frozenset[Word]:
        return frozenset(self.codewords)

    def contains(self, w) -> bool:
        return tuple(w) in self._members

    def redundancy_exact(self) -> tuple[int, int]:
        """(size, q^n): the exact pair behind r = n - log_q(size)."""
        return self.size, self.ctx.q**self.n


@dataclass(frozen=True)
class CodeHandle:
    """A code plus construction metadata, for serialization and reports."""

    code: LinearCode | ExplicitCode
    name: str = ""
    params: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return "linear" if isinstance(self.code, LinearCode) else "explicit"

    @property
    def ctx(self) -> FieldCtx:
        return self.code.ctx

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def size(self) -> int:
        return self.code.size


def expand(code, cap: int | None = None) -> ExplicitCode:
    """The explicit form of any code (identity on ExplicitCode)."""
    if isinstance(code, CodeHandle):
        code = code.code
    if isinstance(code, ExplicitCode):
        return code
    return ExplicitCode(code.ctx, code.n, tuple(code.codewords(cap)))


def is_group_code(code: ExplicitCode, cap: int | None = None) -> bool:
    """True iff the codeword set is closed under subtraction."""
    _caps.check("pairwise closure scan |C|^2", code.size**2, "ENUM", cap)
    ctx = code.ctx
    words = set(code.codewords)
    for c1 in code.codewords:
        for c2 in code.codewords:
            if tuple(ctx.sub(a, b) for a, b in zip(c1, c2)) not in words:
                return False
    return True


# -- constructions ----------------------------------------------------

def rs_code(ctx: FieldCtx, n: int, r: int) -> LinearCode:
    """Reed-Solomon code with parity checks at the powers of an order-n
    element: H[s][j] = alpha^(s j) with alpha = generator^((q-1)/n)."""
    alpha = rs_alpha(ctx, n)
    if not 0 <= r < n:
        raise ValueError(f"redundancy must satisfy 0 <= r < n, got {r}")
    rows = [[ctx.pow(alpha, s * j) for j in range(n)] for s in range(r)]
    return LinearCode(ctx, n, Mat.from_rows(ctx, rows, cols=n))


def rs_alpha(ctx: FieldCtx, n: int) -> Fe:
    """The order-n element the Reed-Solomon construction evaluates at."""
    if n < 1 or (ctx.q - 1) % n != 0:
        raise ValueError(f"n = {n} must divide q - 1 = {ctx.q - 1}")
    return ctx.pow(ctx.generator, (ctx.q - 1) // n)


def example_code_1(ctx: FieldCtx) -> ExplicitCode:
    """Length-4 code of size 2q-2: words (a a a 0) and (0 a a a), a != 0.

    Nonlinear for every q (the zero word is absent)."""
    words = []
    for a in ctx.nonzero_elements():
        words.append((a, a, a, 0))
        words.append((0, a, a, a))
    return ExplicitCode(ctx, 4, tuple(words))


def example_code_2(ctx: FieldCtx, delta: Fe) -> ExplicitCode:
    """Length-4 code of size 2q: words (a 0 0 a) and (a d d a), a in F."""
    if not 0 < delta < ctx.q:
        raise ValueError(f"delta must be a nonzero element of GF({ctx.q}), got {delta}")
    words = []
    for a in ctx.elements():
        words.append((a, 0, 0, a))
        words.append((a, delta, delta, a))
    return ExplicitCode(ctx, 4, tuple(words))


def appendix_a_code(ctx: FieldCtx, stars) -> LinearCode:
    """Length-8 redundancy-4 linear code whose generator rows form a
    diagonal band of 5-bursts; the six star slots take arbitrary field
    elements (filled in reading order of the displayed matrix)."""
    stars = tuple(stars)
    if len(stars) != 6:
        raise ValueError("exactly 6 star values are required")
    if any(not 0 <= s < ctx.q for s in stars):
        raise ValueError("star values must be canonical element indices")
    s0, s1, s2, s3, s4, s5 = stars
    g_rows = [
        [1, s0, s1, 0, 1, 0, 0, 0],
        [0, 1, s2, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, s3, 1, 0],
        [0, 0, 0, 1, 0, s4, s5, 1],
    ]
    g = Mat.from_rows(ctx, g_rows, cols=8)
    h = Mat.from_rows(ctx, null_space(g), cols=8)
    return LinearCode(ctx, 8, h, g)


# -- serialization ----------------------------------------------------

CODE_SCHEMA = "burstkit-code/1"


def code_to_dict(code, name: str = "", params: dict | None = None) -> dict:
    if isinstance(code, CodeHandle):
        name = name or code.name
        params = params if params is not None else code.params
        code = code.code
    out = {
        "schema": CODE_SCHEMA,
        "field": code.ctx.to_dict(),
        "n": code.n,
        "meta": {"name": name, "params": params or {}},
    }
    if isinstance(code, LinearCode):
        out["kind"] = "linear"
        out["H"] = code.H.to_rows()
        if code.G is not None:
            out["G"] = code.G.to_rows()
    else:
        out["kind"] = "explicit"
        out["codewords"] = [list(w) for w in code.codewords]
    return out


def code_from_dict(d: dict) -> CodeHandle:
    if not isinstance(d, dict):
        raise ValueError(f"a code file must hold a JSON object, not a {type(d).__name__}")
    if d.get("schema") != CODE_SCHEMA:
        raise ValueError(f"unsupported code schema: {d.get('schema')!r}")
    ctx = field_from_dict(_key(d, "field"))
    n, meta = _key(d, "n"), d.get("meta", {})
    if type(n) is not int or not isinstance(meta, dict):
        raise ValueError("code file 'n' must be an integer and 'meta' an object")
    kind = _key(d, "kind")
    if kind == "linear":
        h = Mat.from_rows(ctx, _elements(ctx, "H", _key(d, "H")), cols=n)
        g = Mat.from_rows(ctx, _elements(ctx, "G", d["G"]), cols=n) if "G" in d else None
        code: LinearCode | ExplicitCode = LinearCode(ctx, n, h, g)
    elif kind == "explicit":
        code = ExplicitCode(ctx, n, tuple(map(tuple, _elements(ctx, "codeword", _key(d, "codewords")))))
    else:
        raise ValueError(f"unknown code kind {kind!r}")
    return CodeHandle(code, name=meta.get("name", ""), params=meta.get("params", {}))


def _key(d: dict, key: str):
    if key not in d:
        raise ValueError(f"code file has no {key!r} key")
    return d[key]


def _elements(ctx: FieldCtx, what: str, rows) -> list[list[Fe]]:
    """The rows of a code file, each entry checked to be an element index."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise ValueError(f"{what} entries must be given as a list of rows")
    for x in (x for row in rows for x in row):
        if type(x) is not int or not 0 <= x < ctx.q:  # JSON true is no element
            raise ValueError(f"{what} entry {x!r} is not an element of GF({ctx.q})")
    return [list(row) for row in rows]
