"""The complete burst list decoder, detection predicate, and exhaustive
list-size certification.

decode(y) returns exactly the codewords within a single tau-burst of y
(the set-valued complete decoder; words near no codeword decode to the
empty set). It reads one decoder per (tau, phased), built on first use
and cached on the code object. For a linear code each window has an
RREF transform E, and E*H*y gives the window's payloads with no
elimination per word. Each window's E goes into the stack E_all as the
window is reduced, and only H and E_all are kept, as packed-lane tables:
a decode adds one table entry per chunk of each element of y to get H*y
as packed lanes, one per byte of those lanes (for a prime field with
p <= 128, per the whole lanes that fit in a byte) to get E_all*H*y, then
tests each window's annihilator lanes for zero and reads each pivot's
lanes, with no field operation before the candidates are formed. For
an explicit code the codewords are grouped by what is left once the
window's positions are deleted, so y is looked up rather than compared
with every codeword.
Certification never scans received words. One scan keys every sum
c + e of a codeword and a tau-burst by check*c + check*e and reads the
largest bucket. A linear code's check is H, so every offset check*c is
0; an explicit code's is the invertible n x n exchange matrix J, so a
bucket holds the pairs summing to one word, one offset per codeword.

The scan packs a syndrome's rows*m base-p digit lanes (lane m*i + k
holds digit k of row i) into integers, adds them lane-wise mod p with
the lane add the field build uses (gf._packing), and counts the keys.
A key is sum(digit * p^lane): its base-q digits are the rows' element
indices, and keys compare the top row first. The pure-Python scan holds
each syndrome in one int, counts it in a Counter, and is the fallback
and the reference the tests compare against. When numpy is importable
the same recursion runs on int64 words, and its keys are sorted in
place and counted 2^14 at a time, so the scan holds 4 or 8 bytes per
key and no copy of them.

The numpy scan reads one number, the class size f. For a linear code a
nonzero burst is d*e1, with d its anchor digit and e1 the same burst
with anchor digit 1, and H(d*e1) = d*H*e1; so a nonzero syndrome S has
mult(S) = #{e1 : H*e1 in F*S} bursts, the same for each of the q - 1
members of its class F*S, and f = q - 1. An explicit code's offsets J*c
do not scale, and f = 1. Each span's anchor column takes the digits
1 .. (q-1)/f, the zero burst's grid is the offsets, and when f > 1 each
key is its class's smallest member: the syndrome scaled so that its top
nonzero row is 1. With z zero keys and C distinct nonzero keys among K,
the multiset is rebuilt exactly: 1 + f*(K-1) pairs, (z > 0) + f*C
buckets, and a largest bucket of max(1 + f*(z-1), longest nonzero run),
the zero bucket counting 0 when z = 0, whose smallest key is 0 when the
zero bucket is among the largest and else the smallest key of the
longest run. (A linear code's zero burst is one of its z zero keys and
stands for itself alone.) A word holds whole rows, and keys are read a
chunk of g rows at a time: two tables built once per scan give each
chunk value's top nonzero row's scale and its dense key times each of
the f scales, so a block of keys costs one gather and one where per
chunk for the scale and one gather per chunk for the key. g is the
largest whose (f + 1) * 2^(g*m*w) table entries are no more than the
scan's keys; where even one row's are more (a linear code over
GF(1009) or GF(2^16), ...), each row is read from its lanes and scaled
by log and exp tables of O(q) entries.

The scan also answers detection: a pair (c', e) with e != 0 lands in
the bucket of a codeword's own key check*c exactly when c - c' = e is a
burst, so the code detects the scan's bursts iff each offset's key
occurs once (for a linear code, z == 1). The numpy scan counts the zero
burst's stored keys in the sorted keys by two searchsorted calls; the
pure scan reads them from its Counter. A phased scan misses the bursts
that straddle two aligned windows, so only a phased certification asks
detects_single_burst, which tests window by window: every window of tau
columns of H must have rank tau, or an explicit code's codewords must
stay distinct with the window's positions deleted.

The worst word's syndrome is the smallest key of the largest bucket. A
refuted linear code's witness is solved from it span by span, one
solve_affine of H's columns per anchored span, so certification builds
no decoder; an explicit code's comes from decode, run on the worst word
y (J puts position 0 in the top row, so y is the smallest word of the
largest sum bucket).
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import _caps
from .burst import (
    BurstPattern,
    BurstSpace,
    Word,
    anchored_spans,
    is_burst,
)
from .codes import CodeHandle, ExplicitCode, LinearCode
from .gf import _outer_table, _packing, _spread, _times, _width
from .matpoly import Mat, _echelon, _null_basis_from_rref, _rref_rows, solve_affine, span_members


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
    add, neg = ctx.add, ctx.neg
    return tuple(add(x, neg(y)) for x, y in zip(a, b))


def _word_add(ctx, a, b) -> Word:
    add = ctx.add
    return tuple(add(x, y) for x, y in zip(a, b))


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
    limit = _caps.limit("SOLUTIONS", cap)
    radix, cols, rows, row_radix, add_s, add, lane, index, windows = _linear_decoder(code, tau, space.phased)
    s = _apply(cols, radix, add_s, y)  # H*y as packed lanes
    z = _apply([rows], row_radix, add, [s])  # E_all*H*y, a chunk of H*y per table
    found: dict[Word, BurstPattern] = {}
    stats: dict[int, int] = {}
    for win, pivots, basis, offsets, mask in windows:
        if z & mask:
            stats[win.start] = 0
            continue
        particular = [0] * len(win)
        for c, at in zip(pivots, offsets):
            particular[c] = index(z >> at & lane)
        _caps.check("window solution set q^b", ctx.q ** len(basis), "SOLUTIONS", limit)
        members = span_members(ctx, particular, basis)
        for ew in members:
            c = y[: win.start] + tuple(map(ctx.sub, y[win.start : win.stop], ew)) + y[win.stop :]
            if c not in found:
                e = (0,) * win.start + ew + (0,) * (code.n - win.stop)
                found[c] = BurstPattern.from_word(e, tau)
        stats[win.start] = len(members)
    return ListDecodeResult(sorted(found.items()), stats)


def _decode_explicit(code: ExplicitCode, y: Word, tau: int, space: BurstSpace, cap) -> ListDecodeResult:
    ctx = code.ctx
    _caps.check("explicit codeword scan", code.size, "CODEWORDS", cap)
    found: dict[Word, BurstPattern] = {}
    stats: dict[int, int] = {}
    for win, by_rest in _explicit_windows(code, tau, space.phased):
        hits = by_rest.get(y[: win.start] + y[win.stop :], ())
        for c in hits:
            if c not in found:
                found[c] = BurstPattern.from_word(_word_sub(ctx, y, c), tau)
        stats[win.start] = len(hits)
    return ListDecodeResult(sorted(found.items()), stats)


# -- decoder tables -------------------------------------------------------

class _LinearDecoder(NamedTuple):
    """A linear code's decoder for one (tau, phased), from one
    rref([H_W | I_r]) = [R | E] per window W.

    E is invertible and E*H_W = R = rref(H_W), so with z = E*H*y the RREF
    of the system H_W*u = H*y is [R | z]: it is consistent iff z is zero
    past the rank (the annihilator rows of E, which span the left null
    space of H_W), and its particular solution holds z[i] at pivot i
    (the solve rows, the first rank rows of E). cols holds H's tables,
    per column one per base-radix chunk of an element of y (_tables over
    its base-p digits for m > 1, over its bits for m = 1). rows holds
    E_all's, every window's E stacked, one per row_radix chunk of H*y.
    For m = 1 and p <= 128 a chunk is the c = 8 // w whole lanes that
    fit in a byte, and its table is indexed by their digits
    (gf._outer_table with stride 2^w, so 2^(w*c) <= 256 entries; p
    entries when c = 1), with no entry for a carry bit, which a stored
    lane never sets (GF(13): five tables of 13 entries, not four of
    256); for wider lanes, and for m > 1, a chunk is a byte of H*y,
    where bit b of lane k of row i stands for 2^b * p^k at row i. A
    decode adds one entry per chunk of y for H*y (r*m lanes of w bits,
    add_s), then one per chunk of H*y for E_all*H*y (add). Going through
    H*y keeps the tables linear in n: n position tables of E_all*H, each
    entry as wide as E_all, would grow as n^2 (103 MiB against 5 MiB for
    an RS code over GF(256) with n = 255, r = 6, tau = 4). lane masks
    one row's m lanes, and index maps them to the element: the identity
    for p = 2 or m = 1, else the byte tables of the integers 2^b * p^k.
    windows holds (window, pivots, canonical null basis of H_W, offsets,
    mask): window t's rows take m lanes each from bit t*r*m*w of
    E_all*H*y, offsets are its solve rows' and mask covers its
    annihilator rows.
    """

    radix: int
    cols: list
    rows: list
    row_radix: int
    add_s: Callable
    add: Callable
    lane: int
    index: Callable
    windows: list


def _linear_decoder(code: LinearCode, tau: int, phased: bool) -> _LinearDecoder:
    """The decoder for (tau, phased), built on first use and cached on
    the code under that key."""
    dec = code._window_tables.get((tau, phased))
    if dec is None:
        ctx, r, p, m = code.ctx, code.r, code.ctx.p, code.ctx.m
        w = _width(p)
        lane = w * m
        h = code.H.to_rows()
        windows, e_all = [], []
        for t, win in enumerate(BurstSpace(code.n, tau, phased).windows):
            width = len(win)
            aug = [row[win.start : win.stop] + [int(i == k) for k in range(r)] for i, row in enumerate(h)]
            pivots = tuple(c for c in _rref_rows(ctx, aug, width + r) if c < width)
            e_all.extend(row[width:] for row in aug)
            first, solved = t * r * lane, (t * r + len(pivots)) * lane  # the first annihilator row's bit
            offsets, mask = tuple(range(first, solved, lane)), (1 << first + r * lane) - (1 << solved)
            windows.append((win, pivots, _null_basis_from_rref(ctx, aug, pivots, width), offsets, mask))
        add_s, add = _packing(p, r * m)[1], _packing(p, len(e_all) * m)[1]
        base = p if m > 1 else 2
        cols = [_tables(add_s, images, base) for images in _images(ctx, h, code.n, base)]
        # E_all's image of p^k at each row of H*y, lane by lane
        units = [x for col in _images(ctx, e_all, r, p) for x in col]
        if m == 1 and w <= 8:  # c whole lanes per table, read by their digits
            c = 8 // w
            stride = 1 << w if c > 1 else p  # one lane reads digits below p only
            rows = [_outer_table(add, units[k : k + c], p, stride) for k in range(0, len(units), c)], 1 << w * c
        else:  # a byte per table; bit b of a lane counts 2^b of it
            rows = _tables(add, [_times(add, x, 1 << b) for x in units for b in range(w)], 2)
        digits = _tables(operator.add, [p**k << b for k in range(m) for b in range(w)], 2)[0]
        index = int if p == 2 or m == 1 else lambda v: _apply([digits], 256, operator.add, [v])
        dec = _LinearDecoder(cols[0][1], [t for t, _ in cols], *rows, add_s, add, (1 << lane) - 1, index, windows)
        code._window_tables[(tau, phased)] = dec
    return dec


def _explicit_windows(code: ExplicitCode, tau: int, phased: bool) -> list[tuple[range, dict[Word, list[Word]]]]:
    """Per window of the (tau, phased) burst space, a dict from each
    codeword with the window's positions deleted to the codewords that
    share it; built on first use and cached on the code under that key."""
    table = code._window_tables.get((tau, phased))
    if table is None:
        table = []
        for win in BurstSpace(code.n, tau, phased).windows:
            by_rest: dict[Word, list[Word]] = {}
            for c in code.codewords:
                by_rest.setdefault(c[: win.start] + c[win.stop :], []).append(c)
            table.append((win, by_rest))
        code._window_tables[(tau, phased)] = table
    return table


def _images(ctx, rows, cols: int, base: int) -> list[list[int]]:
    """Per column of the matrix with these rows (cols columns, also with
    no rows), the image of each digit unit base^k < q as packed lanes, row
    i in lanes m*i .. m*i + m - 1 (gf._spread); zero entries add nothing.
    The decoder's tables on them read y by chunks and H*y by bytes."""
    p, m, mul = ctx.p, ctx.m, ctx.mul
    spread = int if p == 2 or m == 1 else lambda x: _spread(x, p, m)
    shift = _width(p) * m
    units = [u for k in range((ctx.q - 1).bit_length()) if (u := base**k) < ctx.q]
    return [
        [sum(spread(mul(x, u)) << shift * i for i, x in enumerate(col) if x) for u in units]
        for col in list(zip(*rows)) or [()] * cols
    ]


def _tables(add, images: list[int], base: int) -> tuple[list[list[int]], int]:
    """(tables, radix) of a GF(p)-linear map given on the units of a
    base-base number by images: one gf._outer_table per chunk of c
    digits, c the most with radix = base^c <= 256 (1 when base > 256),
    so that tables[k][d] is the image of d * radix^k."""
    c = next((c for c in range(8, 1, -1) if base**c <= 256), 1)
    return [_outer_table(add, images[k : k + c], base) for k in range(0, len(images), c)], base**c


def _apply(tabs, radix: int, add, word) -> int:
    """sum_j f_j(word[j]), from the chunk tables of each map f_j."""
    z = 0
    for chunks, x in zip(tabs, word):
        for tab in chunks:
            x, d = divmod(x, radix)
            z = add(z, tab[d])
    return z


# -- detection ----------------------------------------------------------

def detects_single_burst(code, tau: int, cap: int | None = None) -> bool:
    """True iff no difference of two distinct codewords is a tau-burst.

    Such a difference is supported inside some window of tau consecutive
    positions, so this is a test window by window. For a linear code
    every window of tau parity-check columns must have rank tau (a
    dependent window is exactly a nonzero tau-burst codeword), which
    builds no decoder table; for an explicit code the codewords must
    stay distinct once the window's positions are deleted, read from
    the decoder's windows.
    """
    code = _as_code(code)
    windows = BurstSpace(code.n, tau).windows
    if isinstance(code, LinearCode):
        h = code.H.to_rows()
        return all(len(_echelon(code.ctx, [row[w.start : w.stop] for row in h], tau)[0]) == tau for w in windows)
    _caps.check("window deletion scan |C| * windows", code.size * len(windows), "ENUM", cap)
    return all(len(by_rest) == code.size for _, by_rest in _explicit_windows(code, tau, False))


# -- certification -------------------------------------------------------

def _column_tables(code):
    """(offsets, tabs, lanes, add, key, f), built once per scan: tabs[j][d]
    is the syndrome of digit d at position j under the scan's check, in
    lanes = rows*m base-p digit lanes (lane m*i + k holds digit k of row
    i) of gf._width(p) bits, which add and key (gf._packing) read; tabs[j]
    is gf._outer_table of _images of the check's column j. A linear code's
    check is H, offsets is [0] and f, the class size, is q - 1: each
    nonzero key stands for its q - 1 multiples. An explicit code's check
    is J, which moves position j to row n-1-j, offsets holds J*c for each
    codeword, which do not scale, and f is 1."""
    ctx, n = code.ctx, code.n
    linear = isinstance(code, LinearCode)
    lanes = (code.r if linear else n) * ctx.m
    _, add, key = _packing(ctx.p, lanes)
    check = code.H.to_rows() if linear else [[int(i + j == n - 1) for j in range(n)] for i in range(n)]
    tabs = [_outer_table(add, images, ctx.p) for images in _images(ctx, check, n, ctx.p)]
    offsets = [0] if linear else [sum(tab[x] for tab, x in zip(tabs, c)) for c in code.codewords]
    return offsets, tabs, lanes, add, key, ctx.q - 1 if linear else 1


def _scan_pure(tables, spans):
    """(pairs, buckets, max bucket, its smallest key, alone), counting the
    packed key of every (codeword, burst) pair in enumeration order: the
    offsets for the zero burst, then per anchored span the outer sum of its
    column tables (the anchor's nonzero digits only) and the offsets, from
    the last column back. Only the winner is converted, with key. alone
    tells whether each offset's key occurs once: whether the code detects
    the spans' bursts."""
    offsets, tabs, _, add, key, _ = tables
    buckets: Counter[int] = Counter()
    for start, width in [(0, 0), *spans]:  # the zero burst spans no column: its keys are the offsets
        acc = offsets
        for j in reversed(range(start, start + width)):  # the anchor column takes d != 0 only
            acc = [add(t, a) for t in tabs[j][int(j == start) :] for a in acc]
        buckets.update(acc)
    max_count = max(buckets.values())
    best = min(s for s, v in buckets.items() if v == max_count)
    alone = all(buckets[s] == 1 for s in offsets)
    return sum(buckets.values()), len(buckets), max_count, key(best), alone


def _runs(np, keys, block=1 << 14):
    """(distinct keys, longest run, its key) of a sorted array, read a
    block at a time so that no temporary is longer than one block. A
    block's first run continues the run the block before ended with when
    their keys are equal; a run replaces the best only when it is
    strictly longer, so the smallest key of the longest run wins."""
    distinct, best, best_key, last, run = 0, 0, None, None, 0
    for lo in range(0, keys.size, block):
        blk = keys[lo : lo + block]
        ends = np.append(np.flatnonzero(blk[1:] != blk[:-1]), blk.size - 1)  # each run's last index
        lengths = np.diff(ends, prepend=-1)
        if blk[0] == last:
            lengths[0] += run
            distinct -= 1
        distinct += lengths.size
        i = int(np.argmax(lengths))
        if lengths[i] > best:
            best, best_key = int(lengths[i]), int(blk[ends[i]])
        last, run = blk[-1], int(lengths[-1])
    return distinct, best, best_key


def _blocks(np, grids, block=1 << 12):
    """The grids' keys (k word arrays per grid) in runs of at most block
    keys: small grids are joined, so that numpy's per-call cost is paid
    once a run, and large ones are cut, so that a run's temporaries stay
    in cache."""
    batch, size = [], 0
    for acc in grids:
        batch.append(acc)
        size += acc[0].size
        if size >= block:
            words = [np.concatenate(ws) if len(ws) > 1 else ws[0] for ws in zip(*batch)]
            yield from ([w[lo : lo + block] for w in words] for lo in range(0, size, block))
            batch, size = [], 0
    if batch:
        yield [np.concatenate(ws) for ws in zip(*batch)]


def _log_exp(np, ctx):
    """(log, exp) as int64 arrays for scaling rows by generator powers:
    log[0] is 2(q-1), and exp is ctx._exp twice and then q zeros, so
    exp[log[x] + s] is x * generator^s for 0 <= s <= q - 1, 0 for x = 0."""
    top = ctx.q - 1
    log = np.array(ctx._log, np.int64)
    log[0] = 2 * top
    return log, np.array(ctx._exp * 2 + [0] * (top + 1), np.int64)


def _row_keys(np, ctx, rows, per, scale):
    """The map from a grid (its k int64 words) to dense keys
    sum(row_i * q^i), each row's element index read from its m lanes.
    With scale, each nonzero syndrome S is first scaled by the inverse of
    its top nonzero row, which gives the smallest key of its class F*S,
    as keys compare the top row first; 0 stays 0. The scaling adds logs,
    from _log_exp's tables of O(q) entries. This read makes about nine
    numpy passes per row; _chunk_keys makes about four per chunk of rows
    but needs tables of 2^(m*w) entries or more per scale."""
    p, q, m, w = ctx.p, ctx.q, ctx.m, _width(ctx.p)
    top = q - 1
    if scale:
        log, exp = _log_exp(np, ctx)

    def lane(acc, j, count=1):  # lanes j .. j + count - 1, read as one field
        return acc[j // per] >> w * (j % per) & (1 << w * count) - 1

    def element(acc, i):
        if p == 2:  # the row's m one-bit lanes are its index
            return lane(acc, m * i, m)
        x = 0
        for j in reversed(range(m * i, m * i + m)):
            x = x * p + lane(acc, j)
        return x

    def convert(acc):
        row = [element(acc, i) for i in range(rows)]
        if scale:
            logs = [log[x] for x in row]
            lead = np.zeros_like(acc[0])
            for lg in logs:  # the top nonzero row's log is the last one written
                lead = np.where(lg < top, lg, lead)
            shift = top - lead
            row = [exp[lg + shift] for lg in logs]
        key = np.zeros_like(acc[0])
        for x in reversed(row):
            key = key * q + x
        return key

    return convert


def _chunk_keys(np, ctx, rows, per, f, g):
    """_row_keys' map for rows >= 1, read a chunk of g rows at a time from
    two tables built once. A chunk is g rows of one word (a word's top
    chunk may hold fewer), so its value v is below 2^(g*m*w). Row s of
    table, s < f, holds each chunk's dense key with every row times
    generator^s, and lead[v] is s << g*m*w for the s that scales v's top
    nonzero row to 1 (0 for v = 0), so table[lead[v] + v'] is chunk v'
    scaled by what scales v to its class's smallest member. A block reads
    its scale from its top nonzero chunk, one gather and one where per
    chunk, and then each chunk's key with one gather; with f = 1 the scale
    is 0 and table is the unscaled keys. The tables hold (f + 1) *
    2^(g*m*w) entries, and their build makes two more arrays at most as
    large as table."""
    p, q, m, w = ctx.p, ctx.q, ctx.m, _width(ctx.p)
    top, bits, words = q - 1, g * m * w, per // m  # words: rows per int64 word
    log, exp = _log_exp(np, ctx)
    v = np.arange(1 << bits, dtype=np.int64)
    lead, table, s = np.zeros_like(v), 0, np.arange(f)[:, None]
    for j in range(g):
        x = 0  # row j of each chunk value; no stored lane holds p or more, so reading lanes mod p changes none
        for k in reversed(range(m * j, m * j + m)):
            x = x * p + (v >> w * k & (1 << w) - 1) % p
        lg = log[x]
        lead = np.where(lg < top, -lg % top << bits, lead)  # the top nonzero row's is the last one written
        table += exp[lg + s] * q**j
    table = table.ravel()
    # each chunk's first row, word by word, so that no chunk straddles two words
    starts = [lo + c for lo in range(0, rows, words) for c in range(0, min(words, rows - lo), g)]
    mask = (1 << bits) - 1

    def chunk(acc, i):  # a word's first chunk needs no shift, and its top one no mask
        word, c = divmod(i, words)
        x = acc[word] >> m * w * c if c else acc[word]
        return x & mask if c + g < min(words, rows - word * words) else x

    def convert(acc):
        chunks = [chunk(acc, i) for i in starts]
        scale = 0
        if f > 1:
            scale = lead[chunks[0]]
            for x in chunks[1:]:
                scale = np.where(x != 0, lead[x], scale)
        key = table[scale + chunks[0]]
        for i, x in zip(starts[1:], chunks[1:]):
            key += table[scale + x] * q**i
        return key

    return convert


def _key_reader(np, ctx, rows, per, f, size):
    """The map from a block of grids to their dense keys, scaled to their
    class's smallest when f > 1: the table read (_chunk_keys) with the
    most rows g per chunk, at most one word's, whose tables of
    (f + 1) * 2^(g*m*w) entries are no more than the scan's size keys;
    else the per-row read (_row_keys)."""
    g, bits = min(rows, per // ctx.m), _width(ctx.p) * ctx.m
    while g and (f + 1) << g * bits > size:
        g -= 1
    return _chunk_keys(np, ctx, rows, per, f, g) if g else _row_keys(np, ctx, rows, per, f > 1)


def _scan_numpy(ctx, tables, spans):
    """_scan_pure's result by the same recursion on int64 arrays; None
    when numpy is missing or a key would not fit in int64 (q^rows >= 2^63).

    The packed lanes are split into k words of whole rows, 63 // (w*m)
    rows each, and the grids are mapped to keys a block at a time
    (_blocks). With class size f, a span's anchor column takes the digits
    1 .. (q-1)/f, and the zero burst's grid is the offsets. A k = 1 word
    with f = 1 sorts as its dense key does and is stored raw, and only the
    winner is converted; every other grid is read into dense keys by the
    read _key_reader picks for the scan's key count (the table read, or
    the per-row read when its tables would outnumber the keys), which
    scales each to its class's smallest member when f > 1. Keys are
    stored as uint32 when they fit in 32 bits (2^(w*lanes) raw, q^rows
    dense), else as int64, sorted in place and counted by _runs a block
    at a time; the result is rebuilt from the zero and nonzero keys with
    f (see the module notes), and alone from the zero burst's grid, kept
    before the sort and counted by two searchsorted calls.
    """
    offsets, tabs, lanes, _, key, f = tables
    p, q, w = ctx.p, ctx.q, _width(ctx.p)
    if p**lanes >= 1 << 63:
        return None
    try:
        import numpy as np
    except ImportError:
        return None
    per = 63 // (w * ctx.m) * ctx.m  # lanes per word: whole rows only
    add = _packing(p, per)[1]
    k, rows, digits = max(1, -(-lanes // per)), lanes // ctx.m, (q - 1) // f
    anchor = slice(1, 1 + digits)  # the digits of a span's first column
    raw = k == 1 and f == 1
    dtype = np.uint32 if (1 << w * lanes if raw else q**rows) <= 1 << 32 else np.int64
    size = len(offsets) * (1 + sum(digits * q ** (width - 1) for _, width in spans))

    def split(packed, mask=(1 << w * per) - 1):
        return [np.array([t >> (w * per * i) & mask for t in packed], dtype=np.int64) for i in range(k)]

    offsets, tabs = split(offsets), [split(tab) for tab in tabs]

    def grids():
        for start, width in [(0, 0), *spans]:  # the zero burst spans no column: its grid is the offsets
            acc = offsets
            for j in reversed(range(start, start + width)):
                acc = [add(t[anchor if j == start else slice(None), None], a).ravel() for t, a in zip(tabs[j], acc)]
            yield acc

    stored = (acc[0] for acc in grids()) if raw else map(_key_reader(np, ctx, rows, per, f, size), _blocks(np, grids()))
    keys = np.empty(size, dtype=dtype)
    at = 0
    for grid in stored:
        keys[at : at + grid.size] = grid
        at += grid.size
    if at != keys.size:
        raise AssertionError("the span grids left syndrome keys unfilled")
    own = keys[: offsets[0].size].copy()  # the zero burst's grid: each codeword's own key
    keys.sort()
    alone = bool(np.all(np.searchsorted(keys, own, "right") - np.searchsorted(keys, own) == 1))
    z = int(np.searchsorted(keys, 1))
    classes, largest, best = _runs(np, keys[z:])
    zero = 1 + f * (z - 1) if z else 0
    best = 0 if zero >= largest else key(best) if raw else best
    return 1 + f * (keys.size - 1), (z > 0) + f * classes, max(zero, largest), best, alone


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

    The unphased scan answers detection; a phased one does not cover it,
    and detects_single_burst answers instead. An unphased explicit code
    thus skips detects_single_burst's "window deletion scan" cap check,
    which changes no exit code: the scan's |C| * V check already passed,
    and V is at least the number of windows. A linear code's witness is
    solved span by span (_syndrome_bursts), so no decoder is built or
    cached.
    """
    code = _as_code(code)
    ctx = code.ctx
    space = BurstSpace(code.n, tau, phased)
    limit = _caps.limit("ENUM", cap)
    n_bursts = space.count(ctx.q)
    linear = isinstance(code, LinearCode)
    if linear:
        _caps.check("burst bucketing q^tau * n", ctx.q**tau * code.n, "ENUM", limit)
        work = {"bursts": n_bursts, "windows": len(space.windows)}
    else:
        _caps.check("sum bucketing |C| * V", code.size * n_bursts, "ENUM", limit)
        _caps.check("burst enumeration q^tau * n", ctx.q**tau * code.n, "ENUM", limit)
        work = {"bursts": n_bursts, "pairs": code.size * n_bursts}
    spans = list(anchored_spans(space))
    tables = _column_tables(code)
    pairs, work["buckets"], max_count, key, detects = _scan_numpy(ctx, tables, spans) or _scan_pure(tables, spans)
    if pairs != n_bursts * len(tables[0]):
        raise AssertionError("bucketed burst count disagrees with the closed form")
    witness = None
    if ell is not None and max_count > ell:
        # the key's base-q digits are the worst word's syndrome under the
        # check; limit covered the scan, so it also covers each span's q^tau
        # solutions and the |C| codewords that decode checks against it
        digits = [key // ctx.q**i % ctx.q for i in range(code.r if linear else code.n)]
        if linear:
            # re-anchored at the first burst, the witness is the bucket's
            # first ell+1 bursts in the order the scan enumerates them
            pats = _syndrome_bursts(code, digits, tau, spans, limit)[: ell + 1]
            y = pats[0].expand(code.n)
            witness = tuple((_word_sub(ctx, y, p.expand(code.n)), p) for p in pats)
        else:  # J*y is y reversed
            witness = tuple(decode(code, digits[::-1], tau, phased, cap=limit).candidates[: ell + 1])
    if phased:
        detects = detects_single_burst(code, tau, cap)
    return CertReport(detects, max_count, witness, work, ell)


def _syndrome_bursts(code: LinearCode, syndrome, tau: int, spans, limit) -> list[BurstPattern]:
    """Every burst of the spans' space whose syndrome under H is this one,
    in the scan's enumeration order: the zero burst when the syndrome is 0,
    then per anchored span (start, width) the solutions u of H_span*u =
    syndrome whose anchor entry u[0] is nonzero, by payload, each padded
    with zeros to BurstPattern's width min(tau, n - start)."""
    ctx, n = code.ctx, code.n
    h = code.H.to_rows()
    pats = [] if any(syndrome) else [BurstPattern.zero()]
    for start, width in spans:
        sol = solve_affine(Mat.from_rows(ctx, [row[start : start + width] for row in h], cols=width), syndrome)
        if sol is None:
            continue
        particular, basis = sol
        _caps.check("window solution set q^b", ctx.q ** len(basis), "SOLUTIONS", limit)
        pad = (0,) * (min(tau, n - start) - width)
        pats.extend(BurstPattern(start, u + pad) for u in sorted(span_members(ctx, particular, basis)) if u[0])
    return pats


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
