"""The complete burst list decoder, detection predicate, and exhaustive
list-size certification.

decode(y) returns exactly the codewords within a single tau-burst of y
(the set-valued complete decoder; words near no codeword decode to the
empty set). For linear codes each candidate window costs one affine
solve against the syndrome. Certification never scans received words:
the linear path buckets every tau-burst by syndrome and reads the
largest bucket, the explicit path buckets codeword+burst sums; the two
paths compute the same maximum and are cross-checked in the tests.

The syndrome scan emits one integer key per burst, in enumeration
order, and counts the keys. It runs as one numpy kernel when numpy is
importable; the pure-Python key stream, span by span in the same order
with the same keys, is its fallback and the reference the tests compare
it against. The scan only counts: the refutation witness comes from
decode, run on the worst word y (a word whose syndrome is the smallest
key of the largest bucket, or the smallest word of the largest sum
bucket).

Detection is tested window by window: a nonzero tau-burst difference of
two codewords lies inside some window of tau consecutive positions.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass

from . import _caps
from .burst import (
    BurstPattern,
    BurstSpace,
    Word,
    anchored_spans,
    count_bursts,
    count_bursts_phased,
    enumerate_bursts,
    is_burst,
)
from .codes import CodeHandle, ExplicitCode, LinearCode
from .matpoly import Mat, rank, solve_affine, span_members


@dataclass
class ListDecodeResult:
    """Complete candidate list plus per-window bookkeeping.

    candidates holds (codeword, burst) pairs sorted by codeword with one
    entry per codeword; window_stats[start] counts the candidates whose
    burst support fits the window starting there.
    """

    candidates: list[tuple[Word, BurstPattern]]
    window_stats: dict[int, int]

    @property
    def list_size(self) -> int:
        return len(self.candidates)


@dataclass
class CertReport:
    detects: bool
    max_list: int
    witness: tuple[tuple[Word, BurstPattern], ...] | None
    work: dict[str, int]
    ell: int | None = None

    @property
    def decodable(self) -> bool | None:
        return None if self.ell is None else self.max_list <= self.ell


def _as_code(code):
    return code.code if isinstance(code, CodeHandle) else code


def _word_sub(ctx, a, b) -> Word:
    return tuple(ctx.sub(x, y) for x, y in zip(a, b))


def _word_add(ctx, a, b) -> Word:
    return tuple(ctx.add(x, y) for x, y in zip(a, b))


def _support_in(word, win: range) -> bool:
    return all(x == 0 for i, x in enumerate(word) if i not in win)


# -- decoding ----------------------------------------------------------

def decode(code, y, tau: int, phased: bool = False, cap: int | None = None) -> ListDecodeResult:
    """All codewords c such that y - c is a tau-burst (support inside an
    aligned window for the phased variant), each with its burst."""
    code = _as_code(code)
    y = tuple(y)
    if len(y) != code.n:
        raise ValueError(f"received word has length {len(y)}, expected {code.n}")
    if any(not 0 <= x < code.ctx.q for x in y):
        raise ValueError(f"received word {list(y)} has an entry outside GF({code.ctx.q})")
    space = BurstSpace(code.n, tau, phased)
    if isinstance(code, LinearCode):
        return _decode_linear(code, y, tau, space, cap)
    return _decode_explicit(code, y, tau, space, cap)


def _decode_linear(code: LinearCode, y: Word, tau: int, space: BurstSpace, cap) -> ListDecodeResult:
    ctx = code.ctx
    limit = _caps.solutions_cap(cap)
    syn = list(code.syndrome(y))
    found: dict[Word, BurstPattern] = {}
    stats: dict[int, int] = {}
    for win in space.windows:
        sol = solve_affine(_window_matrix(code, win), syn)
        if sol is None:
            stats[win.start] = 0
            continue
        particular, basis = sol
        _caps.check("window solution set q^b", ctx.q ** len(basis), limit)
        kept = 0
        for ew in span_members(ctx, particular, basis):
            e = [0] * code.n
            for j, v in zip(win, ew):
                e[j] = v
            e = tuple(e)
            kept += 1
            c = _word_sub(ctx, y, e)
            if c not in found:
                found[c] = BurstPattern.from_word(e, tau)
        stats[win.start] = kept
    candidates = sorted(found.items())
    return ListDecodeResult(candidates, stats)


def _window_matrix(code: LinearCode, win: range) -> Mat:
    """The columns of H inside the window."""
    rows = [[code.H.at(i, j) for j in win] for i in range(code.r)]
    return Mat.from_rows(code.ctx, rows, cols=len(win))


def _decode_explicit(code: ExplicitCode, y: Word, tau: int, space: BurstSpace, cap) -> ListDecodeResult:
    ctx = code.ctx
    _caps.check("explicit codeword scan", code.size, _caps.codewords_cap(cap))
    windows = space.windows
    found: dict[Word, BurstPattern] = {}
    stats: dict[int, int] = {win.start: 0 for win in windows}
    for c in code.codewords:
        e = _word_sub(ctx, y, c)
        if not is_burst(e, tau):
            continue
        hit = False
        for win in windows:
            if _support_in(e, win):
                stats[win.start] += 1
                hit = True
        if hit:
            found[c] = BurstPattern.from_word(e, tau)
    candidates = sorted(found.items())
    return ListDecodeResult(candidates, stats)


# -- detection ----------------------------------------------------------

def detects_single_burst(code, tau: int, cap: int | None = None) -> bool:
    """True iff no difference of two distinct codewords is a tau-burst.

    Such a difference is supported inside some window of tau consecutive
    positions, so this is a test window by window. For a linear code
    every window of parity-check columns must be linearly independent (a
    dependent window is exactly a nonzero tau-burst codeword); for an
    explicit code the codewords must stay distinct once the window's
    positions are deleted.
    """
    code = _as_code(code)
    windows = BurstSpace(code.n, tau).windows
    if isinstance(code, LinearCode):
        return all(rank(_window_matrix(code, win)) == len(win) for win in windows)
    _caps.check("window deletion scan |C| * windows", code.size * len(windows), _caps.enum_cap(cap))
    words = code.codewords
    return all(len({c[: w.start] + c[w.stop :] for c in words}) == code.size for w in windows)


# -- certification -------------------------------------------------------

def _syndrome_ops(code: LinearCode):
    """Per-field encoding of syndrome vectors for the pure-Python scan.

    Returns (zero, scaled, combine, key): scaled[j][d] is d times column
    j of H, combine adds two encoded syndromes and key(a, b) is the
    integer key sum(s_i * q^i) of their sum s. Characteristic-2 fields
    pack the whole vector into one int, which is already its key, so
    both are XOR; every odd field keeps a tuple of elements.
    """
    ctx = code.ctx
    r, n, q = code.r, code.n, ctx.q
    cols = [[[ctx.mul(d, code.H.at(i, j)) for i in range(r)] for d in range(q)] for j in range(n)]
    if ctx.p == 2:
        scaled = [[sum(x << (ctx.m * i) for i, x in enumerate(v)) for v in col] for col in cols]
        return 0, scaled, operator.xor, operator.xor
    add = ctx.add
    place = [q**i for i in range(r)]
    return (
        (0,) * r,
        [[tuple(v) for v in col] for col in cols],
        lambda a, b: tuple(map(add, a, b)),
        lambda a, b: sum(map(operator.mul, map(add, a, b), place)),
    )


def _pure_keys(code: LinearCode, spans):
    """The syndrome key of every burst, in enumeration order: the zero
    burst first, then one list per anchored span.

    A span's list is the outer sum of its column tables, built from the
    last column back as in _syndrome_keys; the first column takes
    nonzero digits only.
    """
    zero, scaled, combine, key = _syndrome_ops(code)
    yield [0]  # the zero syndrome has key 0 in both encodings
    for start, width in spans:
        acc = [zero]
        for tab in reversed(scaled[start + 1 : start + width]):
            acc = [combine(t, a) for t in tab for a in acc]
        yield [key(t, a) for t in scaled[start][1:] for a in acc]


def _scan_pure(code: LinearCode, spans):
    """The pure-Python scan: (bursts, buckets, max bucket, its smallest key)."""
    buckets: Counter[int] = Counter()
    for keys in _pure_keys(code, spans):
        buckets.update(keys)
    max_count = max(buckets.values())
    key = min(k for k, v in buckets.items() if v == max_count)
    return sum(buckets.values()), len(buckets), max_count, key


# Payload-grid rows per numpy block: a block holds CHUNK_ROWS * r * m
# syndrome digits, which bounds the working memory of one step.
CHUNK_ROWS = 1 << 16


def _scan_numpy(code: LinearCode, spans):
    """The same result as _scan_pure from one vectorized pass; None when
    numpy is missing or a key would not fit in int64."""
    if code.ctx.q**code.r >= 1 << 63:
        return None
    try:
        import numpy as np
    except ImportError:
        return None
    keys = _syndrome_keys(np, code, spans)
    uniq, counts = np.unique(keys, return_counts=True)
    best = np.argmax(counts)  # uniq is sorted: the smallest key of the largest bucket
    return keys.size, uniq.size, int(counts[best]), int(uniq[best])


def _syndrome_keys(np, code: LinearCode, spans):
    """The syndrome key of every burst, in enumeration order.

    A syndrome is stored as r*m base-p digits (lane m*i + k is digit k
    of row i), so field addition is lane-wise addition mod p in every
    field. The payload grid of a span, in lex order, is the outer sum of
    head rows (gathered from the per-column tables of d*h_j) and a tail
    grid over the last columns, built once per span. The key
    sum(digit * p^lane) is the integer _pure_keys gives.
    """
    ctx = code.ctx
    p, m, q, r = ctx.p, ctx.m, ctx.q, code.r
    lanes = r * m
    dt = np.min_scalar_type(2 * (p - 1))
    place = p ** np.arange(m)
    tabs = []  # tabs[j][lane, d]: the digits of d * h_j
    for j in range(code.n):
        prods = np.array(
            [[ctx.mul(d, code.H.at(i, j)) for d in range(q)] for i in range(r)], dtype=np.int64
        ).reshape(r, q)
        tabs.append((prods[:, None, :] // place[:, None] % p).reshape(lanes, q).astype(dt))

    keys = np.empty(1 + sum((q - 1) * q ** (w - 1) for _, w in spans), dtype=np.int64)
    keys[0] = 0  # the zero burst
    at = 1
    for start, width in spans:
        cut = start + width
        while cut - 1 > start and q ** (start + width - cut + 1) <= CHUNK_ROWS:
            cut -= 1
        tail = np.zeros((lanes, 1), dtype=dt)
        for j in range(cut, start + width):
            tail = ((tail[:, :, None] + tabs[j][:, None, :]) % p).reshape(lanes, tail.shape[1] * q)
        heads = (q - 1) * q ** (cut - start - 1)
        step = max(1, CHUNK_ROWS // tail.shape[1])
        for lo in range(0, heads, step):
            idx = np.arange(lo, min(lo + step, heads))
            head = np.zeros((lanes, idx.size), dtype=dt)
            for j in range(cut - 1, start, -1):
                idx, d = np.divmod(idx, q)
                head += tabs[j][:, d]
                head %= p
            head += tabs[start][:, idx + 1]
            head %= p
            grid = (head[:, :, None] + tail[:, None, :]).reshape(lanes, idx.size * tail.shape[1])
            grid %= p
            block = np.zeros(grid.shape[1], dtype=np.int64)
            for lane in reversed(range(lanes)):
                block *= p
                block += grid[lane]
            keys[at : at + block.size] = block
            at += block.size
    if at != keys.size:
        raise AssertionError("the span grids left syndrome keys unfilled")
    return keys


def _count(q: int, space: BurstSpace) -> int:
    """The closed-form number of bursts in the space."""
    if space.phased:
        return count_bursts_phased(q, space.n, space.tau)
    return count_bursts(q, space.n, space.tau)


def max_list_size(
    code,
    tau: int,
    phased: bool = False,
    ell: int | None = None,
    cap: int | None = None,
) -> CertReport:
    """The definitional maximum of |decode(y)| over all received words.

    When ell is given and the maximum exceeds it, the report carries an
    (ell+1)-tuple witness of distinct (codeword, burst) pairs summing to
    one common word: the first candidates that decode returns for the
    worst word y, by codeword for an explicit code and by burst in
    enumeration order for a linear code.
    """
    code = _as_code(code)
    ctx = code.ctx
    space = BurstSpace(code.n, tau, phased)
    limit = _caps.enum_cap(cap)
    n_bursts = _count(ctx.q, space)
    linear = isinstance(code, LinearCode)
    if linear:
        _caps.check("burst bucketing q^tau * n", ctx.q**tau * code.n, limit)
        spans = list(anchored_spans(space))
        bursts, n_buckets, max_count, key = _scan_numpy(code, spans) or _scan_pure(code, spans)
        if bursts != n_bursts:
            raise AssertionError("bucketed burst count disagrees with the closed form")
        # y is any word whose syndrome has the key's base-q digits
        y = solve_affine(code.H, [key // ctx.q**i % ctx.q for i in range(code.r)])[0]
        work = {"bursts": bursts, "buckets": n_buckets, "windows": len(space.windows)}
    else:
        _caps.check("sum bucketing |C| * V", code.size * n_bursts, limit)
        buckets = Counter(
            _word_add(ctx, c, e) for e in enumerate_bursts(ctx, space, cap) for c in code.codewords
        )
        max_count = max(buckets.values())
        y = min(k for k, v in buckets.items() if v == max_count)
        work = {"bursts": n_bursts, "pairs": code.size * n_bursts, "buckets": len(buckets)}
    witness = None
    if ell is not None and max_count > ell:
        # limit covered the scan, so it also covers each window's q^tau
        # solutions and the |C| codewords that decode checks against it
        found = decode(code, y, tau, phased, cap=limit).candidates
        if linear:
            # re-anchored at the first burst, the witness is the bucket's
            # first ell+1 bursts in the order the scan enumerates them
            pats = sorted(
                (p for _, p in found), key=lambda p: (-1 if p.is_zero() else p.start, p.payload)
            )
            y = pats[0].expand(code.n)
            found = [(_word_sub(ctx, y, p.expand(code.n)), p) for p in pats[: ell + 1]]
        witness = tuple(found[: ell + 1])
    return CertReport(detects_single_burst(code, tau, cap), max_count, witness, work, ell)


def certify(code, tau: int, ell: int, cap: int | None = None) -> CertReport:
    """Detection plus list-decodability at list size ell; when the code
    is not decodable the witness replays the refutation."""
    if ell < 1:
        raise ValueError("the list size bound must be at least 1")
    return max_list_size(code, tau, phased=False, ell=ell, cap=cap)


def replay_witness(code, witness, tau: int, phased: bool = False) -> bool:
    """Re-validate a refutation witness through independent arithmetic:
    pairs distinct, bursts valid, codewords in the code, sums equal."""
    code = _as_code(code)
    ctx = code.ctx
    if witness is None or len(witness) < 2:
        return False
    space = BurstSpace(code.n, tau, phased)
    seen_pairs = set()
    common = None
    for c, pat in witness:
        e = pat.expand(code.n)
        if not is_burst(e, tau):
            return False
        if phased and not any(_support_in(e, w) for w in space.windows):
            return False
        if not code.contains(c):
            return False
        y = _word_add(ctx, c, e)
        if common is None:
            common = y
        elif y != common:
            return False
        if (c, e) in seen_pairs:
            return False
        seen_pairs.add((c, e))
    return True
