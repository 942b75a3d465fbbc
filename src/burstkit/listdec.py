"""The complete burst list decoder, detection predicate, and exhaustive
list-size certification.

decode(y) returns exactly the codewords within a single tau-burst of y
(the set-valued complete decoder; words near no codeword decode to the
empty set). It reads one table per window, built on first use for each
(tau, phased) and cached on the code object: for a linear code the
window's RREF transform, which maps the syndrome to the window's
payloads with no elimination per word; for an explicit code the
codewords grouped by what is left once the window's positions are
deleted, so y is looked up rather than compared with every codeword.
Certification never scans received words. One scan keys every sum
c + e of a codeword and a tau-burst by check*c + check*e and reads the
largest bucket. A linear code's check is H, so every offset check*c is
0; an explicit code's is the invertible n x n exchange matrix J, so a
bucket holds the pairs summing to one word, one offset per codeword.

The scan packs a syndrome's rows*m base-p digit lanes (lane m*i + k
holds digit k of row i) into integers, adds them lane-wise mod p with
the lane add the field build uses (gf._packing), and counts the keys in
enumeration order. The pure-Python scan holds each syndrome in one int
and is the fallback and the reference the tests compare against; when
numpy is importable the same recursion runs on int64 words. The scan
only counts: the refutation witness comes from decode, run on the worst
word y, whose syndrome is the smallest key of the largest bucket (J
puts position 0 in the top row, so for an explicit code y is the
smallest word of the largest sum bucket).

Detection is tested window by window, from the same tables: a nonzero
tau-burst difference of two codewords lies inside some window of tau
consecutive positions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from . import _caps
from .burst import (
    BurstPattern,
    BurstSpace,
    Word,
    anchored_spans,
    is_burst,
)
from .codes import CodeHandle, ExplicitCode, LinearCode
from .gf import Fe, _packing, _spread
from .matpoly import Mat, _null_basis_from_rref, mat_vec, rref, solve_affine, span_members


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
    syn = code.syndrome(y)
    found: dict[Word, BurstPattern] = {}
    stats: dict[int, int] = {}
    for win, pivots, solve, annihilator, basis in _window_table(code, tau, space.phased):
        if any(mat_vec(annihilator, syn)):
            stats[win.start] = 0
            continue
        particular = [0] * len(win)
        for c, z in zip(pivots, mat_vec(solve, syn)):
            particular[c] = z
        _caps.check("window solution set q^b", ctx.q ** len(basis), limit)
        members = span_members(ctx, particular, basis)
        for ew in members:
            c = y[: win.start] + tuple(map(ctx.sub, y[win.start : win.stop], ew)) + y[win.stop :]
            if c not in found:
                e = (0,) * win.start + ew + (0,) * (code.n - win.stop)
                found[c] = BurstPattern.from_word(e, tau)
        stats[win.start] = len(members)
    candidates = sorted(found.items())
    return ListDecodeResult(candidates, stats)


def _decode_explicit(code: ExplicitCode, y: Word, tau: int, space: BurstSpace, cap) -> ListDecodeResult:
    ctx = code.ctx
    _caps.check("explicit codeword scan", code.size, _caps.codewords_cap(cap))
    found: dict[Word, BurstPattern] = {}
    stats: dict[int, int] = {}
    for win, by_rest in _window_table(code, tau, space.phased):
        hits = by_rest.get(y[: win.start] + y[win.stop :], ())
        for c in hits:
            if c not in found:
                found[c] = BurstPattern.from_word(_word_sub(ctx, y, c), tau)
        stats[win.start] = len(hits)
    candidates = sorted(found.items())
    return ListDecodeResult(candidates, stats)


# -- window tables --------------------------------------------------------

class _LinearWindow(NamedTuple):
    """One window W of a linear code, from rref([H_W | I_r]) = [R | E].

    E is invertible and E*H_W = R = rref(H_W), so for a syndrome S and
    z = E*S the RREF of the system H_W*u = S is [R | z]: it is consistent
    iff z is zero past the rank (the annihilator rows of E, which span
    the left null space of H_W), its particular solution holds z[i] at
    pivot i (the solve rows, the first rank rows of E), and basis is the
    canonical null basis of H_W.
    """

    win: range
    pivots: tuple[int, ...]
    solve: Mat
    annihilator: Mat
    basis: list[list[Fe]]


def _linear_window(code: LinearCode, win: range) -> _LinearWindow:
    ctx, r, width = code.ctx, code.r, len(win)
    rows = [[code.H.at(i, j) for j in win] + [int(i == k) for k in range(r)] for i in range(r)]
    red, pivots = rref(Mat.from_rows(ctx, rows, cols=width + r))
    pivots = tuple(c for c in pivots if c < width)
    e = [red.row(i)[width:] for i in range(r)]
    solve, annihilator = (Mat.from_rows(ctx, part, cols=r) for part in (e[: len(pivots)], e[len(pivots) :]))
    return _LinearWindow(win, pivots, solve, annihilator, _null_basis_from_rref(red, pivots, width))


def _window_table(code, tau: int, phased: bool) -> list:
    """One entry per window of the (tau, phased) burst space, built on
    first use and cached on the code: a _LinearWindow for a linear code;
    for an explicit code (window, dict from each codeword with the
    window's positions deleted to the codewords that share it)."""
    table = code._window_tables.get((tau, phased))
    if table is None:
        windows = BurstSpace(code.n, tau, phased).windows
        if isinstance(code, LinearCode):
            table = [_linear_window(code, win) for win in windows]
        else:
            table = []
            for win in windows:
                by_rest: dict[Word, list[Word]] = {}
                for c in code.codewords:
                    by_rest.setdefault(c[: win.start] + c[win.stop :], []).append(c)
                table.append((win, by_rest))
        code._window_tables[(tau, phased)] = table
    return table


# -- detection ----------------------------------------------------------

def detects_single_burst(code, tau: int, cap: int | None = None) -> bool:
    """True iff no difference of two distinct codewords is a tau-burst.

    Such a difference is supported inside some window of tau consecutive
    positions, so this is a test window by window. For a linear code
    every window of parity-check columns must be linearly independent (a
    dependent window is exactly a nonzero tau-burst codeword); for an
    explicit code the codewords must stay distinct once the window's
    positions are deleted. Both read the decoder's window table.
    """
    code = _as_code(code)
    if isinstance(code, LinearCode):
        return all(len(w.pivots) == len(w.win) for w in _window_table(code, tau, False))
    windows = BurstSpace(code.n, tau).windows
    _caps.check("window deletion scan |C| * windows", code.size * len(windows), _caps.enum_cap(cap))
    return all(len(by_rest) == code.size for _, by_rest in _window_table(code, tau, False))


# -- certification -------------------------------------------------------

def _check(code) -> Mat:
    """The scan's check: H, or for an explicit code the exchange matrix J."""
    if isinstance(code, LinearCode):
        return code.H
    return Mat.from_rows(code.ctx, [[int(i + j == code.n - 1) for j in range(code.n)] for i in range(code.n)])


def _column_tables(code, w: int):
    """(offsets, tabs): tabs[j][d] is the syndrome of digit d at position
    j, as rows*m base-p digit lanes (lane m*i + k holds digit k of row i)
    at w bits each; offsets holds check*c, [0] for a linear code, else one
    per codeword (J gives each position its own lanes, so a sum packs)."""
    ctx, h = code.ctx, _check(code)
    p, m = ctx.p, ctx.m
    spread = [_spread(x, p, m) for x in ctx.elements()]
    tabs = [
        [sum(spread[ctx.mul(d, h.at(i, j))] << (w * m * i) for i in range(h.rows)) for d in range(ctx.q)]
        for j in range(code.n)
    ]
    if isinstance(code, LinearCode):
        return [0], tabs
    return [sum(tab[x] for tab, x in zip(tabs, c)) for c in code.codewords], tabs


def _pure_syndromes(code, spans):
    """The packed key of every (codeword, burst) pair in enumeration
    order: the offsets for the zero burst, then per anchored span the
    outer sum of its column tables and the offsets, from the last column
    back; the first column takes nonzero digits only."""
    w, add, _ = _packing(code.ctx.p, _check(code).rows * code.ctx.m)
    offsets, tabs = _column_tables(code, w)
    yield offsets
    for start, width in spans:
        acc = offsets
        for tab in reversed(tabs[start + 1 : start + width]):
            acc = [add(t, a) for t in tab for a in acc]
        yield [add(t, a) for t in tabs[start][1:] for a in acc]


def _scan_pure(code, spans):
    """The pure-Python scan: (pairs, buckets, max bucket, its smallest
    key). It counts packed syndromes and converts only the winner."""
    buckets: Counter[int] = Counter()
    for syndromes in _pure_syndromes(code, spans):
        buckets.update(syndromes)
    max_count = max(buckets.values())
    best = min(s for s, v in buckets.items() if v == max_count)
    key = _packing(code.ctx.p, _check(code).rows * code.ctx.m)[2]
    return sum(buckets.values()), len(buckets), max_count, key(best)


def _scan_numpy(code, spans):
    """The same result as _scan_pure from _pure_syndromes' recursion on
    int64 arrays; None when numpy is missing or a key would not fit in
    int64 (q^rows >= 2^63).

    The packed lanes are split into k words of 63 // w lanes. For k = 1
    the word sorts as the key does and only the winner is converted; for
    k > 1 each span's grid is turned into the key sum(digit * p^lane)
    before it is stored.
    """
    p, lanes = code.ctx.p, _check(code).rows * code.ctx.m
    if p**lanes >= 1 << 63:
        return None
    try:
        import numpy as np
    except ImportError:
        return None
    w, _, key = _packing(p, lanes)
    per = 63 // w
    add = _packing(p, per)[1]
    k = max(1, -(-lanes // per))

    def split(packed, mask=(1 << w * per) - 1):
        return [np.array([t >> (w * per * i) & mask for t in packed], dtype=np.int64) for i in range(k)]

    def keys_of(words):
        if k == 1:
            return words[0]
        grid = np.zeros_like(words[0])
        for lane in reversed(range(lanes)):
            grid = grid * p + (words[lane // per] >> (w * (lane % per)) & (1 << w) - 1)
        return grid

    offsets, tabs = _column_tables(code, w)
    offsets, tabs = split(offsets), [split(tab) for tab in tabs]
    q, size = code.ctx.q, offsets[0].size
    keys = np.empty(size * (1 + sum((q - 1) * q ** (width - 1) for _, width in spans)), dtype=np.int64)
    keys[:size] = keys_of(offsets)  # the zero burst
    at = size
    for start, width in spans:
        acc = offsets
        for j in reversed(range(start, start + width)):  # the anchor column takes d != 0 only
            acc = [add(t[int(j == start) :, None], a).ravel() for t, a in zip(tabs[j], acc)]
        grid = keys_of(acc)
        keys[at : at + grid.size] = grid
        at += grid.size
    if at != keys.size:
        raise AssertionError("the span grids left syndrome keys unfilled")
    uniq, counts = np.unique(keys, return_counts=True)
    best = np.argmax(counts)  # uniq is sorted: the smallest key of the largest bucket
    return keys.size, uniq.size, int(counts[best]), key(int(uniq[best])) if k == 1 else int(uniq[best])


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
    n_bursts = space.count(ctx.q)
    linear = isinstance(code, LinearCode)
    if linear:
        _caps.check("burst bucketing q^tau * n", ctx.q**tau * code.n, limit)
        work = {"bursts": n_bursts, "windows": len(space.windows)}
    else:
        _caps.check("sum bucketing |C| * V", code.size * n_bursts, limit)
        _caps.check("burst enumeration q^tau * n", ctx.q**tau * code.n, limit)
        work = {"bursts": n_bursts, "pairs": code.size * n_bursts}
    spans = list(anchored_spans(space))
    pairs, work["buckets"], max_count, key = _scan_numpy(code, spans) or _scan_pure(code, spans)
    if pairs != n_bursts * (1 if linear else code.size):
        raise AssertionError("bucketed burst count disagrees with the closed form")
    # y is any word whose syndrome under the check has the key's base-q digits
    check = _check(code)
    y = solve_affine(check, [key // ctx.q**i % ctx.q for i in range(check.rows)])[0]
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
