import inspect
import itertools
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import burstkit
from burstkit import (
    BurstPattern,
    BurstSpace,
    CapExceeded,
    ExplicitCode,
    ListDecodeResult,
    Mat,
    LinearCode,
    _caps,
    appendix_a_code,
    certify,
    count_bursts,
    decode,
    detects_single_burst,
    example_code_1,
    example_code_2,
    expand,
    field_from_order,
    field_new,
    gf,
    is_burst,
    listdec,
    mat_mul,
    max_list_size,
    replay_witness,
    rank,
    rs_code,
    solve_affine,
)
from burstkit.burst import anchored_spans, enumerate_bursts
from burstkit.listdec import _word_add, _word_sub
from burstkit.matpoly import span_members

SMALL_FIELDS = {q: field_from_order(q) for q in (2, 3, 4, 5, 8, 9)}


def definitional_decode(code, y, tau, phased=False):
    """The decoder contract, evaluated by direct codeword scan."""
    explicit = expand(code)
    ctx = explicit.ctx
    windows = BurstSpace(explicit.n, tau, phased).windows
    out = []
    for c in explicit.codewords:
        e = _word_sub(ctx, y, c)
        if not is_burst(e, tau):
            continue
        support = [i for i, x in enumerate(e) if x]
        if phased and not any(all(i in w for i in support) for w in windows):
            continue
        if not phased and support and support[-1] - support[0] >= tau:
            continue
        out.append(c)
    return sorted(out)


def pairwise_detects(code, tau):
    """The detection contract, evaluated over every pair of codewords."""
    ctx = code.ctx
    pairs = itertools.combinations(code.codewords, 2)
    return not any(is_burst(_word_sub(ctx, c1, c2), tau) for c1, c2 in pairs)


def test_decode_codeword_gets_zero_burst(fields):
    code = example_code_2(fields[3], 1)
    y = (2, 0, 0, 2)
    res = decode(code, y, 2)
    cands = dict(res.candidates)
    assert y in cands and cands[y].is_zero()


def test_decode_frozen_example(fields):
    """Example-2 code over GF(3): y = (1,1,0,1) has exactly two candidates."""
    code = example_code_2(fields[3], 1)
    res = decode(code, (1, 1, 0, 1), 2)
    assert res.list_size == 2
    assert res.candidates == [
        ((1, 0, 0, 1), BurstPattern(1, (1, 0))),
        ((1, 1, 1, 1), BurstPattern(2, (2, 0))),
    ]


def test_decode_linear_replay_random_bursts(fields):
    """Transmit + corrupt: the list always contains the codeword."""
    rng = random.Random(9)
    ctx = fields[7]
    code = rs_code(ctx, 6, 3)
    g = code.generator_matrix()
    for _ in range(25):
        msg = [rng.randrange(7) for _ in range(code.k)]
        c = [0] * 6
        for i, a in enumerate(msg):
            for j in range(6):
                c[j] = ctx.add(c[j], ctx.mul(a, g.at(i, j)))
        start = rng.randrange(5)
        e = [0] * 6
        for j in range(start, start + 2):
            e[j] = rng.randrange(7)
        y = _word_add(ctx, c, e)
        res = decode(code, y, 2)
        assert tuple(c) in dict(res.candidates)


def test_decode_linear_equals_definitional_scan(fields):
    rng = random.Random(23)
    for q, n, r, tau in ((2, 5, 2, 2), (3, 4, 2, 2), (2, 6, 3, 3)):
        ctx = fields[q]
        while True:
            h = Mat(ctx, r, n, [rng.randrange(q) for _ in range(r * n)])
            try:
                code = LinearCode(ctx, n, h)
                break
            except ValueError:
                continue
        for y in itertools.product(range(q), repeat=n):
            res = decode(code, y, tau)
            assert [c for c, _ in res.candidates] == definitional_decode(code, y, tau)
            for c, pat in res.candidates:
                assert _word_add(ctx, c, pat.expand(n)) == y


def test_decode_phased_subset(fields):
    ctx = fields[2]
    code = appendix_a_code(ctx, (0, 1, 0, 1, 0, 1))
    rng = random.Random(1)
    for _ in range(20):
        y = tuple(rng.randrange(2) for _ in range(8))
        full = decode(code, y, 2)
        phased = decode(code, y, 2, phased=True)
        assert set(c for c, _ in phased.candidates) <= set(c for c, _ in full.candidates)
        assert [c for c, _ in phased.candidates] == definitional_decode(
            code, y, 2, phased=True
        )


def test_decode_errors(fields):
    code = example_code_1(fields[3])
    with pytest.raises(ValueError):
        decode(code, (0, 0, 0), 2)  # length mismatch
    with pytest.raises(ValueError):
        decode(code, (0, 0, 0, 0), 9)  # tau out of range


def test_detects_examples(fields):
    for q in (2, 3, 4, 5):
        assert detects_single_burst(example_code_1(fields[q]), 2)
        assert not detects_single_burst(example_code_2(fields[q], 1), 2)
    # min distance r+1 > tau certifies detection for the RS family
    assert detects_single_burst(rs_code(fields[7], 6, 3), 2)
    assert detects_single_burst(rs_code(fields[16], 15, 6), 4)
    assert not detects_single_burst(rs_code(fields[7], 6, 1), 2)


def test_detects_linear_agrees_with_pairwise_scan(fields):
    rng = random.Random(17)
    for q in (2, 3):
        ctx = fields[q]
        for _ in range(20):
            n = rng.randint(3, 6)
            r = rng.randint(1, 3)
            data = [rng.randrange(q) for _ in range(r * n)]
            h = Mat(ctx, r, n, data)
            try:
                code = LinearCode(ctx, n, h)
            except ValueError:
                continue
            tau = rng.randint(1, n)
            verdict = detects_single_burst(code, tau)
            assert verdict == detects_single_burst(expand(code), tau)
            assert verdict == pairwise_detects(expand(code), tau)


@st.composite
def small_explicit_codes(draw):
    """Random codeword subsets (nonlinear in general) with any tau."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(1, 5))
    tau = draw(st.integers(1, n))
    word = st.tuples(*[st.integers(0, q - 1)] * n)
    words = draw(st.lists(word, min_size=1, max_size=min(q**n, 40)))
    return ExplicitCode(SMALL_FIELDS[q], n, tuple(words)), tau


def test_explicit_detection_matches_pairwise_oracle():
    verdicts = set()

    @settings(max_examples=200, deadline=None)
    @given(small_explicit_codes())
    def check(case):
        code, tau = case
        verdict = detects_single_burst(code, tau)
        assert verdict == pairwise_detects(code, tau)
        verdicts.add(verdict)

    check()
    assert verdicts == {True, False}


def test_max_list_singleton(fields):
    code = ExplicitCode(fields[3], 3, ((0, 0, 0),))
    assert max_list_size(code, 1).max_list == 1


def test_max_list_example_1_exact(fields):
    rep = max_list_size(example_code_1(fields[3]), 2)
    assert rep.max_list == 2
    assert rep.detects


def test_max_list_linear_vs_explicit(fields):
    for q, n, r, tau in ((7, 6, 3, 2), (2, 5, 2, 2), (3, 4, 2, 1)):
        ctx = fields[q]
        if (ctx.q - 1) % n != 0:
            continue
        code = rs_code(ctx, n, r)
        lin = max_list_size(code, tau)
        exp = max_list_size(expand(code), tau)
        assert lin.max_list == exp.max_list
        assert lin.detects == exp.detects


def test_max_list_phased_at_most_unrestricted(fields):
    for q, n, r, tau in ((7, 6, 3, 2), (7, 6, 2, 3)):
        code = rs_code(fields[q], n, r)
        assert (
            max_list_size(code, tau, phased=True).max_list
            <= max_list_size(code, tau).max_list
        )


def test_certify_examples(fields):
    # the no-detection reference code still list-decodes at ell = 2
    rep = certify(example_code_2(fields[3], 1), 2, 2)
    assert rep.decodable and not rep.detects and rep.witness is None
    # a few star assignments of the length-8 code
    for stars in ((0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1), (1, 0, 1, 0, 1, 0)):
        rep = certify(appendix_a_code(fields[2], stars), 3, 2)
        assert rep.detects and rep.decodable
    # list size can never exceed the code size
    code = example_code_1(fields[3])
    assert certify(code, 2, code.size).decodable


def test_certify_refutation_with_witness(fields):
    """One redundancy below the attainment threshold the bucket scan
    must exhibit ell+1 colliding bursts, and the witness must replay."""
    ctx = fields[7]
    code = rs_code(ctx, 6, 3)  # threshold for (ell=1, tau=2) is r = 4
    rep = certify(code, 2, 1)
    assert not rep.decodable and rep.max_list >= 2
    assert rep.witness is not None and len(rep.witness) == 2
    assert replay_witness(code, rep.witness, 2)
    # tampering breaks the replay
    (c0, p0), (c1, p1) = rep.witness
    bad = ((c0, p0), (c0, p0))
    assert not replay_witness(code, bad, 2)
    bad2 = ((c0, p1), (c1, p1))
    assert not replay_witness(code, bad2, 2)


@pytest.fixture(scope="module")
def rs7_witness(fields):
    """A replayed refutation of RS GF(7), n=6, r=3 at tau = 2, ell = 1;
    its first burst covers positions 1 and 2, across two aligned windows."""
    code = rs_code(fields[7], 6, 3)
    witness = certify(code, 2, 1).witness
    assert replay_witness(code, witness, 2)
    assert witness[0][1] == BurstPattern(1, (5, 3))
    return code, witness


@pytest.mark.parametrize(
    "tamper",
    [
        lambda code, w: (None, 2, False),
        lambda code, w: (w[:1], 2, False),
        lambda code, w: (w, 1, False),  # each burst covers two positions
        lambda code, w: (w, 2, True),
        # the same non-codeword added to every codeword keeps the sums equal
        lambda code, w: (tuple((_word_add(code.ctx, c, (1, 0, 0, 0, 0, 0)), p) for c, p in w), 2, False),
    ],
    ids=["none", "one-pair", "not-a-tau-burst", "phased-unaligned", "not-a-codeword"],
)
def test_replay_rejects_a_tampered_witness(rs7_witness, tamper):
    code, witness = rs7_witness
    bad, tau, phased = tamper(code, witness)
    assert replay_witness(code, bad, tau, phased) is False


def test_explicit_witness_replay(fields):
    code = example_code_1(fields[3])
    rep = certify(code, 2, 1)  # max list is exactly 2, so ell = 1 fails
    assert rep.max_list == 2 and rep.witness is not None
    assert replay_witness(code, rep.witness, 2)


def test_phased_witnesses_frozen():
    """Phased refutations, two with a last burst in a window clipped at
    the end of the word; decode must return these exact witnesses."""
    rep = max_list_size(rs_code(field_from_order(9), 8, 3), 3, phased=True, ell=2)
    assert (rep.max_list, rep.work) == (3, {"bursts": 1537, "buckets": 729, "windows": 3})
    assert rep.witness == (
        ((0, 0, 0, 0, 0, 0, 0, 0), BurstPattern(0, (5, 7, 1))),
        ((5, 7, 1, 8, 1, 5, 0, 0), BurstPattern(3, (4, 2, 7))),
        ((5, 7, 1, 0, 0, 0, 4, 7), BurstPattern(6, (8, 5))),
    )
    code = rs_code(field_from_order(8), 7, 3)
    rep = max_list_size(code, 3, phased=True, ell=2)
    assert (rep.max_list, rep.work) == (3, {"bursts": 1030, "buckets": 512, "windows": 3})
    assert rep.witness == (
        ((0, 0, 0, 0, 0, 0, 0), BurstPattern(0, (7, 6, 5))),
        ((7, 6, 5, 7, 2, 1, 0), BurstPattern(3, (7, 2, 1))),
        ((7, 6, 5, 0, 0, 0, 4), BurstPattern(6, (4,))),
    )
    # a worst word the affine solve returns as (5, 3, 0, 0, 0, 0); the
    # witness is re-anchored at its first burst
    rep7 = max_list_size(rs_code(field_from_order(7), 6, 2), 3, phased=True, ell=1)
    assert rep7.witness == (
        ((0, 0, 0, 0, 0, 0), BurstPattern(0, (1, 6, 1))),
        ((6, 6, 2, 0, 0, 0), BurstPattern(0, (2, 0, 6))),
    )
    # the scan's own cap at exactly q^tau * n also covers the witness decode
    assert max_list_size(code, 3, phased=True, ell=2, cap=8**3 * 7) == rep


def test_work_counters_present(fields):
    from burstkit import count_bursts

    rep = max_list_size(rs_code(fields[7], 6, 2), 2)
    assert rep.work["bursts"] == count_bursts(7, 6, 2)
    assert rep.work["buckets"] > 0 and rep.work["windows"] == 5


class _Untouchable:
    """Stands in for numpy: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


def test_caps_are_hard_errors(fields, monkeypatch):
    code = rs_code(fields[16], 15, 6)
    with pytest.raises(CapExceeded):
        max_list_size(code, 4, cap=1000)
    with pytest.raises(CapExceeded):
        expand(code)
    # each scan cap fires before the numpy kernel touches numpy at all
    monkeypatch.setitem(sys.modules, "numpy", _Untouchable())
    with pytest.raises(CapExceeded, match=r"^burst bucketing q\^tau \* n needs 983040 > cap 1000$"):
        max_list_size(code, 4, cap=1000)
    # an explicit code checks |C| * V first, then q^tau * n: one word and
    # 65 bursts pass the first at cap 80 and fail the second
    one_word = ExplicitCode(fields[5], 4, ((0, 0, 0, 0),))
    with pytest.raises(CapExceeded, match=r"^burst enumeration q\^tau \* n needs 100 > cap 80$"):
        max_list_size(one_word, 2, cap=80)
    # ex1 over GF(5) fails |C| * V alone at cap 500, and both at cap 99
    for cap in (500, 99):
        with pytest.raises(CapExceeded, match=rf"^sum bucketing \|C\| \* V needs 520 > cap {cap}$"):
            max_list_size(example_code_1(fields[5]), 2, cap=cap)


# -- the window-table decoder against per-word solves and codeword scans ----

DECODE_FIELDS = {**SMALL_FIELDS, 7: field_from_order(7)}


def window_matrix(code, win):
    return Mat.from_rows(code.ctx, [[code.H.at(i, j) for j in win] for i in range(code.r)], cols=len(win))


def solve_affine_decode(code, y, tau, phased=False, cap=None):
    """The linear decoder without window tables: one solve_affine of the
    window's columns of H against the syndrome, per window and word."""
    ctx = code.ctx
    limit = _caps.limit("SOLUTIONS", cap)
    syn = list(code.syndrome(y))
    found, stats = {}, {}
    for win in BurstSpace(code.n, tau, phased).windows:
        sol = solve_affine(window_matrix(code, win), syn)
        if sol is None:
            stats[win.start] = 0
            continue
        particular, basis = sol
        _caps.check("window solution set q^b", ctx.q ** len(basis), "SOLUTIONS", limit)
        members = span_members(ctx, particular, basis)
        for ew in members:
            e = (0,) * win.start + ew + (0,) * (code.n - win.stop)
            c = _word_sub(ctx, y, e)
            if c not in found:
                found[c] = BurstPattern.from_word(e, tau)
        stats[win.start] = len(members)
    return ListDecodeResult(sorted(found.items()), stats)


def codeword_scan_decode(code, y, tau, phased=False, cap=None):
    """The explicit decoder without window tables: y minus every codeword,
    kept when the difference fits a window."""
    ctx = code.ctx
    _caps.check("explicit codeword scan", code.size, "CODEWORDS", cap)
    windows = BurstSpace(code.n, tau, phased).windows
    found, stats = {}, {win.start: 0 for win in windows}
    for c in code.codewords:
        e = _word_sub(ctx, y, c)
        if not is_burst(e, tau):
            continue
        hit = False
        for win in windows:
            if all(x == 0 for i, x in enumerate(e) if i not in win):
                stats[win.start] += 1
                hit = True
        if hit:
            found[c] = BurstPattern.from_word(e, tau)
    return ListDecodeResult(sorted(found.items()), stats)


def decode_outcome(fn, *args):
    """(candidates, window_stats), or the CapExceeded message."""
    try:
        res = fn(*args)
    except CapExceeded as exc:
        return str(exc)
    return res.candidates, res.window_stats


@st.composite
def near_words(draw, ctx, n, tau, codeword):
    """A uniform word, or codeword plus a random payload in one window."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(st.integers(0, ctx.q - 1), min_size=n, max_size=n)))
    y = list(codeword)
    start = draw(st.integers(0, n - 1))
    for j in range(start, min(start + tau, n)):
        y[j] = ctx.add(y[j], draw(st.integers(0, ctx.q - 1)))
    return tuple(y)


@st.composite
def linear_decode_cases(draw, ctxs=DECODE_FIELDS, by_rank=False):
    """A random full-rank H over one of ctxs (GF(2, 3, 4, 5, 7, 8, 9) by
    default), r = 0 included, with tau up to n (windows wider than r are
    rank-deficient) while q^tau <= 729, or q^(tau - r) <= 729 when by_rank
    is set, a word near a codeword, either window kind and a cap that may
    fire."""
    q = draw(st.sampled_from(sorted(ctxs)))
    ctx = ctxs[q]
    n = draw(st.integers(1, 7))
    r = draw(st.integers(0, min(4, n)))
    tau = draw(st.integers(1, max(t for t in range(1, n + 1) if q ** (t - by_rank * min(t, r)) <= 729)))
    data = draw(st.lists(st.integers(0, q - 1), min_size=r * n, max_size=r * n))
    try:
        code = LinearCode(ctx, n, Mat(ctx, r, n, data))
    except ValueError:  # rank-deficient draw
        assume(False)
    gen = code.generator_matrix()
    c = [0] * n
    for i in range(gen.rows):
        a = draw(st.integers(0, q - 1))
        c = [ctx.add(x, ctx.mul(a, g)) for x, g in zip(c, gen.row(i))]
    y = draw(near_words(ctx, n, tau, c))
    return code, y, tau, draw(st.booleans()), draw(st.one_of(st.none(), st.integers(0, 30)))


def linear_decode_coverage(cases, examples: int) -> set:
    """Decode every case and the solve_affine oracle agree; returns the
    kinds of case seen."""
    seen = set()

    @settings(max_examples=examples, deadline=None)
    @given(cases)
    def check(case):
        code, y, tau, phased, cap = case
        got = decode_outcome(decode, code, y, tau, phased, cap)
        assert got == decode_outcome(solve_affine_decode, code, y, tau, phased, cap)
        windows = BurstSpace(code.n, tau, phased).windows
        ranks = [rank(window_matrix(code, win)) for win in windows]
        full = [rank(window_matrix(code, win)) == tau for win in BurstSpace(code.n, tau).windows]
        assert detects_single_burst(code, tau) == all(full)
        seen.add("cap" if isinstance(got, str) else "decoded")
        if any(rk < len(win) for rk, win in zip(ranks, windows)):
            seen.add("rank-deficient")
        if code.r == 0:
            seen.add("r=0")
        if phased and len(windows[-1]) < tau:
            seen.add("clipped")
        if not isinstance(got, str) and len(got[0]) > 1:
            seen.add("list")

    check()
    return seen


def test_linear_decode_matches_solve_affine_oracle():
    seen = linear_decode_coverage(linear_decode_cases(), 400)
    assert seen == {"cap", "decoded", "rank-deficient", "r=0", "clipped", "list"}


def test_multi_chunk_decode_matches_solve_affine_oracle(fields):
    """GF(2^9), GF(3^6) and GF(257) split each element into two chunks
    (radix 256, 243 and 256), so every decode adds two table entries
    per position to get H*y and, for GF(3^6), reads each pivot's lanes
    back to an index by byte tables."""
    big = {q: fields[q] for q in (512, 729, 257)}
    for ctx in big.values():
        code = LinearCode(ctx, 2, Mat(ctx, 1, 2, [1, 2]))
        dec = listdec._linear_decoder(code, 1, False)
        radix, tabs = dec.radix, dec.cols
        assert radix < ctx.q <= radix**2 and all(len(chunks) == 2 for chunks in tabs)
    seen = linear_decode_coverage(linear_decode_cases(big, by_rank=True), 100)
    # clipped windows are rare under q^(tau - r) <= 729; the phased planted
    # words over GF(2^16) and GF(2^20) below end in one
    assert seen >= {"cap", "decoded", "rank-deficient", "r=0", "list"}


@pytest.mark.parametrize("q", [3**4, 5**3, 257**2])
def test_pivot_readout_inverts_spread(fields, q):
    """The decoder's index reads an odd p^m element's packed digit lanes
    back to the element, for every element of the field."""
    ctx = fields[q]
    index = listdec._linear_decoder(rs_code(ctx, 4, 2), 2, False).index
    assert all(index(gf._spread(x, ctx.p, ctx.m)) == x for x in range(q))


@pytest.mark.parametrize(
    "q,n,r,tau",
    [(1 << 16, 17, 6, 4), (3**8, 20, 5, 4), (65521, 12, 4, 3), (1 << 20, 11, 4, 3), (257**2, 8, 3, 2)],
)
def test_planted_word_over_a_large_field(fields, q, n, r, tau):
    """A codeword plus a burst in an aligned window decodes to a list
    that holds the codeword and equals the oracle's, both window kinds;
    GF(257^2) takes one chunk of radix p per coefficient."""
    ctx = fields[q]
    code = rs_code(ctx, n, r)
    rng = random.Random(q)
    gen = code.generator_matrix()
    c = [0] * n
    for i in range(gen.rows):
        a = rng.randrange(q)
        c = [ctx.add(x, ctx.mul(a, g)) for x, g in zip(c, gen.row(i))]
    y = list(c)
    start = tau * rng.randrange(n // tau)
    for j in range(start, start + tau):
        y[j] = ctx.add(y[j], rng.randrange(1, q))
    for phased in (False, True):
        got = decode(code, y, tau, phased)
        assert got == solve_affine_decode(code, y, tau, phased)
        assert tuple(c) in dict(got.candidates)


@st.composite
def explicit_decode_cases(draw):
    code, tau = draw(small_explicit_codes())
    y = draw(near_words(code.ctx, code.n, tau, draw(st.sampled_from(code.codewords))))
    return code, y, tau, draw(st.booleans()), draw(st.one_of(st.none(), st.integers(0, 45)))


def test_explicit_decode_matches_codeword_scan_oracle():
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(explicit_decode_cases())
    def check(case):
        code, y, tau, phased, cap = case
        got = decode_outcome(decode, code, y, tau, phased, cap)
        assert got == decode_outcome(codeword_scan_decode, code, y, tau, phased, cap)
        seen.add("cap" if isinstance(got, str) else len(got[0]) > 1)

    check()
    assert seen == {"cap", True, False}


def test_window_tables_are_keyed_by_tau_and_phase():
    """One code object decoded at tau = 2, then 3, then 2 phased, with
    detection in between, answers as a fresh object does each time."""
    ctx = field_from_order(5)
    rng = random.Random(5)
    words = [tuple(rng.randrange(5) for _ in range(4)) for _ in range(6)] + [(0, 0, 0, 0), (1, 2, 0, 0)]
    for make in (lambda: rs_code(ctx, 4, 2), lambda: expand(rs_code(ctx, 4, 2))):
        code = make()
        for tau, phased in ((2, False), (3, False), (2, True), (3, True), (2, False)):
            for y in words:
                assert decode(code, y, tau, phased) == decode(make(), y, tau, phased)
            for t in (2, 3):
                assert detects_single_burst(code, t) == detects_single_burst(make(), t)


def test_linear_certify_caches_no_decoder(fields):
    """A linear certify reads detection off its scan and solves a refuted
    code's witness span by span, so it caches nothing on the code, whether
    the code is decodable or refuted, plain or phased."""
    ctx, tau = fields[7], 2
    good = rs_code(ctx, 6, 4)
    assert certify(good, tau, 1).decodable and good._window_tables == {}
    bad = rs_code(ctx, 6, 2)
    assert certify(bad, tau, 1).decodable is False and bad._window_tables == {}
    assert max_list_size(bad, tau, phased=True, ell=1).witness is not None and bad._window_tables == {}


# -- the numpy scan kernel against the pure-Python scan ---------------------


@st.composite
def small_linear_codes(draw):
    """Random full-rank parity checks over prime, 2^m and odd p^m fields,
    small enough for explicit sum bucketing."""
    q = draw(st.sampled_from(sorted(SMALL_FIELDS)))
    ctx = SMALL_FIELDS[q]
    n = draw(st.integers(2, 6))
    r = draw(st.integers(0, min(3, n)))
    tau = draw(st.integers(1, n))
    assume(q ** (n - r) <= 81 and q ** (n - r) * count_bursts(q, n, tau) <= 20000)
    data = draw(st.lists(st.integers(0, q - 1), min_size=r * n, max_size=r * n))
    try:
        code = LinearCode(ctx, n, Mat(ctx, r, n, data))
    except ValueError:  # rank-deficient draw
        assume(False)
    return code, tau


def sum_bucketing(code, tau, phased, ell):
    """Explicit certification with no syndromes: every codeword + burst
    sum built as a word tuple and counted in a Counter. (max_list, work,
    witness), the witness being the first ell+1 codewords, in order, of
    the smallest word of the largest bucket, each with its burst."""
    ctx = code.ctx
    space = BurstSpace(code.n, tau, phased)
    buckets = Counter(_word_add(ctx, c, e) for e in enumerate_bursts(ctx, space) for c in code.codewords)
    most = max(buckets.values())
    y = min(k for k, v in buckets.items() if v == most)
    bursts = space.count(ctx.q)
    work = {"bursts": bursts, "pairs": code.size * bursts, "buckets": len(buckets)}
    if most <= ell:
        return most, work, None
    pairs = sorted((_word_sub(ctx, y, e), e) for e in enumerate_bursts(ctx, space))
    pairs = [(c, e) for c, e in pairs if code.contains(c)]
    return most, work, tuple((c, BurstPattern.from_word(e, tau)) for c, e in pairs[: ell + 1])


@st.composite
def nonlinear_codes(draw):
    """Random codeword sets over GF(2, 3, 4, 5, 7, 8, 9), from one word
    up, with tau, either window kind and at most 20000 pairs."""
    q = draw(st.sampled_from(sorted(DECODE_FIELDS)))
    n = draw(st.integers(1, 5))
    tau = draw(st.integers(1, n))
    phased = draw(st.booleans())
    bursts = BurstSpace(n, tau, phased).count(q)
    assume(bursts <= 20000)
    word = st.tuples(*[st.integers(0, q - 1)] * n)
    words = draw(st.lists(word, min_size=1, max_size=max(1, min(q**n, 40, 20000 // bursts))))
    return ExplicitCode(DECODE_FIELDS[q], n, tuple(words)), tau, phased


def test_one_scan_matches_sum_bucketing_on_nonlinear_codes():
    """The scan keyed by the exchange check, with numpy and with numpy
    blocked, against the tuple Counter; every witness replays."""
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(nonlinear_codes(), st.integers(1, 3))
    def check(case, ell):
        code, tau, phased = case
        want = sum_bucketing(code, tau, phased, ell)
        fast = max_list_size(code, tau, phased=phased, ell=ell)
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(sys.modules, "numpy", None)
            pure = max_list_size(code, tau, phased=phased, ell=ell)
        for rep in (fast, pure):
            assert (rep.max_list, rep.work, rep.witness) == want
            if rep.witness is not None:
                assert replay_witness(code, rep.witness, tau, phased)
        words = set(code.codewords)
        seen.add("refuted" if want[2] else "certified")
        seen.add("one word" if code.size == 1 else "many words")
        if any(_word_add(code.ctx, a, b) not in words for a in words for b in words):
            seen.add("nonlinear")

    check()
    assert seen == {"refuted", "certified", "one word", "many words", "nonlinear"}


def enumeration_witness(code, tau, phased, ell):
    """The first ell+1 bursts, in enumeration order, whose syndrome key is
    the smallest of the largest bucket, each paired with the codeword that
    sums with it to the first of them; None when no bucket exceeds ell."""
    ctx = code.ctx
    by_key = {}
    for e in enumerate_bursts(ctx, BurstSpace(code.n, tau, phased)):
        key = sum(s * ctx.q**i for i, s in enumerate(code.syndrome(e)))
        by_key.setdefault(key, []).append(e)
    most = max(map(len, by_key.values()))
    if most <= ell:
        return None
    bursts = by_key[min(k for k, v in by_key.items() if len(v) == most)][: ell + 1]
    return tuple((_word_sub(ctx, bursts[0], e), BurstPattern.from_word(e, tau)) for e in bursts)


@settings(max_examples=80, deadline=None)
@given(small_linear_codes(), st.booleans(), st.integers(1, 3))
def test_scan_kernels_agree_with_sum_bucketing(case, phased, ell):
    code, tau = case
    fast = max_list_size(code, tau, phased=phased, ell=ell)
    assert fast.witness == enumeration_witness(code, tau, phased, ell)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "numpy", None)
        pure = max_list_size(code, tau, phased=phased, ell=ell)
    explicit = max_list_size(expand(code), tau, phased=phased, ell=ell)
    assert (explicit.max_list, explicit.work, explicit.witness) == sum_bucketing(expand(code), tau, phased, ell)
    assert fast.max_list == pure.max_list == explicit.max_list
    assert fast.work == pure.work
    assert fast.work["bursts"] == explicit.work["bursts"]
    assert fast.witness == pure.witness
    for rep in (pure, explicit):
        assert (rep.witness is None) == (rep.max_list <= ell)
        if rep.witness is not None:
            assert replay_witness(code, rep.witness, tau, phased)


@pytest.mark.parametrize("q,n,r,tau,ell", [(7, 6, 3, 2, 1), (8, 7, 2, 2, 2), (9, 8, 3, 2, 1)])
def test_certify_without_numpy_is_identical(monkeypatch, q, n, r, tau, ell):
    code = rs_code(field_from_order(q), n, r)
    fast = certify(code, tau, ell)
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert certify(code, tau, ell) == fast


def test_keys_beyond_int64_take_the_pure_path():
    code = rs_code(field_new(2, 11), 23, 6)  # q^r = 2^66
    spans = list(anchored_spans(BurstSpace(23, 1)))
    assert listdec._scan_numpy(code.ctx, listdec._column_tables(code), spans) is None
    rep = certify(code, 1, 1)
    assert rep.decodable and rep.work["bursts"] == count_bursts(2048, 23, 1)


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(burstkit.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, burstkit, burstkit.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=120).returncode == 0


def paired_words_code(ctx, n):
    """Twelve random words and, for each, a copy with position 2 redrawn:
    the largest 1-burst bucket holds two pairs."""
    rng = random.Random(ctx.q)
    words = [tuple(rng.randrange(ctx.q) for _ in range(n)) for _ in range(12)]
    return ExplicitCode(ctx, n, tuple(words + [c[:2] + (rng.randrange(ctx.q),) + c[3:] for c in words]))


SCAN_CASES = {
    "gf8-phased": (8, 7, 3, 3, True, "rs", 1, "uint32"),
    "gf7": (7, 6, 3, 3, False, "rs", 1, "uint32"),
    "gf9": (9, 8, 3, 2, False, "rs", 1, "uint32"),
    "gf11-r5-tau4": (11, 10, 5, 4, False, "rs", 1, "uint32"),
    "gf25-r5-tau3": (25, 24, 5, 3, False, "rs", 1, "uint32"),
    "gf81-r6": (81, 10, 6, 2, False, "rs", 2, "int64"),
    "gf27-r8-phased": (27, 13, 8, 3, True, "rs", 2, "int64"),
    "gf1009-r6": (1009, 8, 6, 1, False, "rs", 2, "int64"),
    "gf81-repeated-columns": (81, 12, 6, 2, False, "twice", 2, "int64"),
    "gf5-r27": (5, 28, 27, 1, False, "twice", 2, "int64"),
    "ex1-gf5": (5, 4, None, 2, False, "ex1", 1, "uint32"),
    "expanded-rs7-phased": (7, 6, 3, 2, True, "expanded", 1, "uint32"),
    "random-gf1009-n6": (1009, 6, None, 1, False, "random", 2, "int64"),
    "gf1009-repeated-columns": (1009, 12, 6, 1, False, "twice", 2, "int64"),
    "gf3-twice-tau9": (3, 24, 12, 9, False, "twice", 1, "uint32"),
    "gf25-r8": (25, 24, 8, 2, False, "rs", 2, "int64"),
}


def scan_case_code(ctx, n, r, h):
    """The code of a scan case; "twice" is H = [I | I], whose buckets hold
    the bursts at j and j + r together."""
    return {
        "rs": lambda: rs_code(ctx, n, r),
        "twice": lambda: LinearCode(
            ctx, n, Mat.from_rows(ctx, [[int(i == j % r) for j in range(n)] for i in range(r)])
        ),
        "ex1": lambda: example_code_1(ctx),
        "expanded": lambda: expand(rs_code(ctx, n, r)),
        "random": lambda: paired_words_code(ctx, n),
    }[h]()


def rows_per_word(ctx):
    """The scan's whole rows of m lanes of gf._width(p) bits per int64 word."""
    return 63 // (gf._packing(ctx.p, 1)[0] * ctx.m)


@pytest.mark.parametrize("q,n,r,tau,phased,h,k,dtype", list(SCAN_CASES.values()), ids=list(SCAN_CASES))
def test_numpy_scan_matches_pure(monkeypatch, q, n, r, tau, phased, h, k, dtype):
    """The kernel on one int64 word (k = 1) and on k > 1 words. A word
    holds whole rows only. Every grid but a one-word grid of class size 1
    is read into dense keys; a linear code's are its scaling classes'
    keys. Over GF(1009) its six 11-bit rows take two words of five, and
    its largest buckets have nonzero keys, which gf1009-r6's one-burst
    buckets lack. GF(25) at r = 8 has eight rows of two four-bit lanes at
    seven rows per word, so its top word holds one row. The explicit
    codes key by the n x n exchange check, so GF(1009) at n = 6 has six
    rows, one more than an int64 word holds. Keys are stored as uint32
    when they fit in 32 bits: dense keys when q^rows <= 2^32, so GF(25)
    at r = 5 and GF(3) at r = 12, whose packed words take 40 and 36 bits,
    count uint32 keys; raw keys (one word, class size 1) when the packed
    word fits. GF(3) at tau = 9 counts 108,256 class keys, more than one
    counting block."""
    pytest.importorskip("numpy", exc_type=ImportError)
    stored = []
    runs = listdec._runs
    monkeypatch.setattr(listdec, "_runs", lambda np, keys: stored.append(keys.dtype.name) or runs(np, keys))
    ctx = field_from_order(q)
    code = scan_case_code(ctx, n, r, h)
    rows = code.r if isinstance(code, LinearCode) else code.n
    assert max(1, -(-rows // rows_per_word(ctx))) == k
    spans = list(anchored_spans(BurstSpace(n, tau, phased)))
    tables = listdec._column_tables(code)
    fast = listdec._scan_numpy(ctx, tables, spans)
    assert stored == [dtype]
    assert fast == listdec._scan_pure(tables, spans)
    assert h != "random" or fast[2] == 2


# the read each case's size rule picks: "table" when (f + 1) * 2^(m*w) entries
# are no more than the scan's keys, "raw" for one word of class size 1
KEY_READS = {
    "gf8-phased": "table", "gf7": "table", "gf9": "row", "gf11-r5-tau4": "table", "gf25-r5-tau3": "table",
    "gf81-r6": "row", "gf27-r8-phased": "row", "gf1009-r6": "row", "gf81-repeated-columns": "row",
    "gf5-r27": "row", "ex1-gf5": "raw", "expanded-rs7-phased": "raw", "random-gf1009-n6": "table",
    "gf1009-repeated-columns": "row", "gf3-twice-tau9": "table", "gf25-r8": "row",
    "gf2": "raw", "gf7-r0": "row",
}
KEY_READ_CASES = {
    **SCAN_CASES,
    "gf2": (2, 12, 4, 3, False, "twice", 1, "uint32"),
    "gf7-r0": (7, 6, 0, 2, False, "rs", 1, "uint32"),
}


@pytest.mark.parametrize("q,n,r,tau,phased,h,k,dtype", list(KEY_READ_CASES.values()), ids=list(KEY_READ_CASES))
def test_key_reads_agree_block_by_block(monkeypatch, request, q, n, r, tau, phased, h, k, dtype):
    """The table read (_chunk_keys) against the per-row read (_row_keys) on
    each block the scan converts, at the g the size rule picks and at
    every other g up to a word's rows whose tables hold at most 2^22
    entries: a word's top chunk is narrower than the others whenever g
    does not divide its rows, as at g = 5 over GF(3) at r = 12 or at g = 2
    over GF(25) at r = 8 (seven rows per word). A one-word grid of class
    size 1 is stored raw, so there both reads of class size 1 must give
    gf._packing's key of each stored word: over GF(2) scaling is the
    identity. At r = 0 every syndrome is empty and the per-row read makes
    each key 0."""
    np = pytest.importorskip("numpy", exc_type=ImportError)
    ctx = field_from_order(q)
    code = scan_case_code(ctx, n, r, h)
    tables = listdec._column_tables(code)
    rows, per, f = tables[2] // ctx.m, rows_per_word(ctx) * ctx.m, tables[5]
    bits = gf._packing(ctx.p, 1)[0] * ctx.m
    reads = [listdec._row_keys(np, ctx, rows, per, f > 1)] + [
        listdec._chunk_keys(np, ctx, rows, per, f, g)
        for g in range(1, min(rows, per // ctx.m) + 1)
        if (f + 1) << g * bits <= 1 << 22
    ]
    picked, blocks, stored = [], [], []
    pick, runs = listdec._key_reader, listdec._runs

    def checked(np, ctx, rows, per, f, size):
        convert = pick(np, ctx, rows, per, f, size)
        picked.append(convert.__qualname__.split(".")[0])

        def both(acc):
            key = convert(acc)
            for read in reads:
                assert read(acc).tolist() == key.tolist()
            blocks.append(key.size)
            return key

        return both

    monkeypatch.setattr(listdec, "_key_reader", checked)
    monkeypatch.setattr(listdec, "_runs", lambda np, keys: stored.append(keys) or runs(np, keys))  # the nonzero keys
    spans = list(anchored_spans(BurstSpace(n, tau, phased)))
    fast = listdec._scan_numpy(ctx, tables, spans)
    assert fast == listdec._scan_pure(tables, spans)
    want = KEY_READS[request.node.callspec.id]
    assert picked == {"table": ["_chunk_keys"], "row": ["_row_keys"], "raw": []}[want]
    if want == "raw":
        words = [stored[0].astype(np.int64)]
        assert f == 1 and all(read(words).tolist() == list(map(tables[4], stored[0].tolist())) for read in reads)
    else:
        assert sum(blocks) == 1 + (fast[0] - 1) // f  # every key went through every read
    assert len(reads) > 1 or rows == 0


@pytest.mark.parametrize(
    "q,columns,words,want",
    [
        # the largest class {(2, 1), (4, 2), (1, 3), (3, 4)} (rows low to high)
        # holds columns 0 and 1; its smallest key, 2 + 1*5 = 7, has top row 1,
        # while scaling its lowest row to 1 gives (1, 3), key 16
        (5, [(2, 1), (2, 1), (1, 0), (0, 1)], None, (17, 13, 2, 7, True)),
        # column 0 is zero, so the zero bucket holds 1 + 2 * 1 = 3 bursts, as
        # many as the class of (1, 0), which holds columns 1, 2 and 3
        (3, [(0, 0), (1, 0), (1, 0), (2, 0), (0, 1)], None, (11, 5, 3, 0, False)),
        # an explicit code, f = 1: the zero word is 00 + 00, 10 + 20 and
        # 01 + 02, and no other sum is reached three times
        (3, None, [(0, 0), (1, 0), (0, 1)], (15, 8, 3, 0, False)),
    ],
    ids=["orbit-minimum", "zero-bucket-ties", "explicit-zero-bucket-largest"],
)
def test_scan_rebuilds_the_buckets(q, columns, words, want):
    """The numpy scan counts a linear code's anchor-1 bursts by scaling
    class and an explicit code's pairs one by one, and rebuilds (pairs,
    buckets, max bucket, its smallest key) from its zero and nonzero keys
    with the class size f. Its last field tells whether each codeword's
    own key occurs once: a zero column, or two codewords a 1-burst apart,
    makes it False."""
    pytest.importorskip("numpy", exc_type=ImportError)
    ctx = field_from_order(q)
    if words is None:
        code = LinearCode(ctx, len(columns), Mat.from_rows(ctx, [list(row) for row in zip(*columns)]))
    else:
        code = ExplicitCode(ctx, len(words[0]), tuple(words))
    spans = list(anchored_spans(BurstSpace(code.n, 1)))
    tables = listdec._column_tables(code)
    assert listdec._scan_numpy(ctx, tables, spans) == want == listdec._scan_pure(tables, spans)


SCAN_FIELDS = {**DECODE_FIELDS, 16: field_from_order(16), 25: field_from_order(25)}


@st.composite
def scan_linear_codes(draw):
    """H = M * [I | C] with its columns shuffled, M invertible (unit lower
    times upper triangular) and each column of C random, zero or a
    multiple of an earlier column, so that the zero bucket can win or tie.
    For odd q the rows may overflow one int64 word of whole rows (k = 2),
    so that the top word holds one row."""
    ctx = SCAN_FIELDS[draw(st.sampled_from(sorted(SCAN_FIELDS)))]
    q = ctx.q
    r = rows_per_word(ctx) + 1 if ctx.p > 2 and draw(st.booleans()) else draw(st.integers(1, 4))
    extra = draw(st.integers(0, 4))
    tau = draw(st.integers(1, min(3, r + extra)))
    assume(count_bursts(q, r + extra, tau) <= 20000)
    rng = random.Random(draw(st.integers(0, 2**32)))
    cols = [[int(i == j) for i in range(r)] for j in range(r)]
    for kind in draw(st.lists(st.sampled_from(["random", "zero", "multiple"]), min_size=extra, max_size=extra)):
        c = rng.randrange(1, q)
        cols.append(
            [rng.randrange(q) for _ in range(r)] if kind == "random"
            else [0] * r if kind == "zero"
            else [ctx.mul(c, x) for x in rng.choice(cols)]
        )
    rng.shuffle(cols)
    low = [[rng.randrange(q) if j < i else int(i == j) for j in range(r)] for i in range(r)]
    up = [[rng.randrange(1, q) if i == j else rng.randrange(q) if j > i else 0 for j in range(r)] for i in range(r)]
    h = mat_mul(mat_mul(Mat.from_rows(ctx, low), Mat.from_rows(ctx, up)), Mat.from_rows(ctx, [list(x) for x in zip(*cols)]))
    return LinearCode(ctx, len(cols), h), tau, draw(st.booleans())


def test_linear_scan_matches_pure_on_random_codes():
    """The numpy scan's whole tuple against the pure scan's on random
    linear codes over prime, 2^m and odd p^m fields, GF(2) among them,
    where scaling is the identity, read by both key reads."""
    pytest.importorskip("numpy", exc_type=ImportError)
    seen = set()
    pick = listdec._key_reader

    def reader(*args):
        convert = pick(*args)
        seen.add({"_chunk_keys": "table read", "_row_keys": "per-row read"}[convert.__qualname__.split(".")[0]])
        return convert

    @settings(max_examples=300, deadline=None)
    @given(scan_linear_codes())
    def check(case):
        code, tau, phased = case
        spans = list(anchored_spans(BurstSpace(code.n, tau, phased)))
        tables = listdec._column_tables(code)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(listdec, "_key_reader", reader)
            fast = listdec._scan_numpy(code.ctx, tables, spans)
        assert fast == listdec._scan_pure(tables, spans)
        seen.add("zero bucket largest" if fast[3] == 0 else "class largest")  # only the zero syndrome has key 0
        seen.add("two words" if code.r > rows_per_word(code.ctx) else "one word")

    check()
    assert seen == {"zero bucket largest", "class largest", "two words", "one word", "table read", "per-row read"}


def test_scan_detection_matches_detects_single_burst():
    """The unphased scan answers detection, with numpy and with numpy
    blocked, and never asks detects_single_burst: on random linear codes
    with zero and repeated columns and on random explicit codes, its
    answer equals detects_single_burst's."""
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(scan_linear_codes(), nonlinear_codes()))
    def check(case):
        code, tau, _ = case
        want = detects_single_burst(code, tau)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(listdec, "detects_single_burst", None)
            fast = max_list_size(code, tau)
            mp.setitem(sys.modules, "numpy", None)
            pure = max_list_size(code, tau)
        assert fast.detects == pure.detects == want
        seen.add((type(code).__name__, want))

    check()
    assert seen == {(kind, verdict) for kind in ("LinearCode", "ExplicitCode") for verdict in (True, False)}


def test_phased_scan_does_not_answer_detection(fields):
    """Over GF(2) with H rows 1000, 0110 and 0001, columns 1 and 2 are
    equal, so 0110 is a 2-burst codeword; but it crosses the aligned
    windows [0, 2) and [2, 4), so the phased scan's zero bucket holds only
    the zero burst. A phased certify must still report no detection."""
    ctx = fields[2]
    code = LinearCode(ctx, 4, Mat.from_rows(ctx, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]))
    tables = listdec._column_tables(code)
    phased = list(anchored_spans(BurstSpace(4, 2, True)))
    assert listdec._scan_pure(tables, phased)[4] and not detects_single_burst(code, 2)
    assert listdec._scan_numpy(ctx, tables, phased) in (None, listdec._scan_pure(tables, phased))
    for blocked in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if blocked:
                mp.setitem(sys.modules, "numpy", None)
            assert max_list_size(code, 2, phased=True).detects is False
            assert max_list_size(code, 2).detects is False


def decode_witness(code, tau, phased, ell):
    """A linear code's refutation witness by decode, as certification
    built it with a decoder: the pure scan's winning key read as a
    syndrome, a word y with that syndrome from solve_affine, every burst
    that decode(y) returns sorted by (start, payload) with the zero burst
    first, re-anchored at the first; None when no bucket exceeds ell."""
    ctx = code.ctx
    spans = list(anchored_spans(BurstSpace(code.n, tau, phased)))
    _, _, most, key, _ = listdec._scan_pure(listdec._column_tables(code), spans)
    if most <= ell:
        return None
    y = solve_affine(code.H, [key // ctx.q**i % ctx.q for i in range(code.r)])[0]
    pats = sorted(
        (p for _, p in decode(code, y, tau, phased).candidates), key=lambda p: (-1 if p.is_zero() else p.start, p.payload)
    )
    y = pats[0].expand(code.n)
    return tuple((_word_sub(ctx, y, p.expand(code.n)), p) for p in pats[: ell + 1])


def test_span_witness_matches_decode_witness():
    """A refuted linear code's witness, solved span by span, equals the
    decode-based one on random codes, plain and phased: full-rank H with r
    = 0 included and codes with zero and repeated columns, where windows
    wider than their rank give spans with a null basis."""
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(small_linear_codes().flatmap(lambda c: st.tuples(*map(st.just, c), st.booleans())), scan_linear_codes()),
        st.integers(1, 3),
    )
    def check(case, ell):
        code, tau, phased = case
        rep = max_list_size(code, tau, phased=phased, ell=ell)
        assert rep.witness == decode_witness(code, tau, phased, ell)
        if rep.witness is None:
            return
        assert replay_witness(code, rep.witness, tau, phased)
        seen.update({("refuted", ell), "phased" if phased else "plain"})
        if code.r == 0:
            seen.add("r=0")
        if rep.witness[0][1].is_zero():
            seen.add("key 0")
        if not detects_single_burst(code, tau):
            seen.add("non-detecting")

    check()
    assert seen == {("refuted", 1), ("refuted", 2), ("refuted", 3), "phased", "plain", "r=0", "key 0", "non-detecting"}


def _runs_by_counter(values):
    buckets = Counter(values)
    best = max(buckets.values())
    return len(buckets), best, min(v for v, c in buckets.items() if c == best)


@pytest.mark.parametrize("dtype", ["uint32", "int64"])
@pytest.mark.parametrize("block", [1, 2, 3, 7, None], ids=["1", "2", "3", "7", "default"])
def test_runs_match_counter(dtype, block):
    """_runs against a Counter on sorted arrays, with the block size
    passed in (None: the default)."""
    np = pytest.importorskip("numpy", exc_type=ImportError)
    b = block or inspect.signature(listdec._runs).parameters["block"].default
    top = (1 << 32) - 1 if dtype == "uint32" else 1 << 62
    rng = random.Random(b)

    def runs(keys, lengths):
        return [v for v, c in zip(keys, lengths) for _ in range(c)]

    cases = [
        [top],  # a single key
        list(range(0, 40, 3)),  # all keys distinct
        runs([1, 4, top], [3, 2 * b + 5, 2]),  # the longest run spans three blocks or more
        runs([2, 5, top], [b, b + 1, 1]),  # the longest run starts at a block boundary
        runs([3, 8, 9], [b + 1, 1, b + 1]),  # a tie, runs in different blocks: 3 wins
        runs([3, 8], [2, 2]),  # a tie, both runs in one block when b >= 4
    ] + [sorted(rng.randrange(rng.choice([2, 10, 1000])) for _ in range(rng.randrange(1, 80))) for _ in range(30)]
    for values in cases:
        arr = np.array(values, dtype=dtype)
        got = listdec._runs(np, arr) if block is None else listdec._runs(np, arr, block)
        assert got == _runs_by_counter(values), values[:3]


def test_gf32_tau4_certify_memory():
    """The GF(32) tau = 4 certify (28.5M bursts) peaks under 400 MiB: its
    918,561 class keys take 4 B each, sorted in place and counted a block
    at a time.
    The child reports the peak of its own address space (VmHWM): its
    ru_maxrss would also count the pages of this process, which it
    shares until it execs."""
    pytest.importorskip("numpy", exc_type=ImportError)
    src = os.path.dirname(os.path.dirname(os.path.abspath(burstkit.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "from burstkit import cli\n"
        "code = cli.main(['certify', '--construct', 'rs', '--q', '32', '--n', '31', '--r', '6', '--tau', '4', '--ell', '2'])\n"
        "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
        "sys.exit(code)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert int(run.stdout.split()[-1]) < 400 * 1024  # VmHWM is in KiB


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 1009])
def test_packed_add_fills_an_int64_word(p):
    """add on int64 arrays of 63 // w lanes: every lane at (p-1) + (p-1),
    which needs the top lane's headroom, then random lanes."""
    np = pytest.importorskip("numpy", exc_type=ImportError)
    w = gf._packing(p, 1)[0]
    lanes = 63 // w
    add = gf._packing(p, lanes)[1]
    rng = random.Random(p)
    a, b = ([[p - 1] * lanes] + [[rng.randrange(p) for _ in range(lanes)] for _ in range(500)] for _ in "ab")

    def pack(digits):
        return sum(d << (w * lane) for lane, d in enumerate(digits))

    words = add(np.array(list(map(pack, a)), dtype=np.int64), np.array(list(map(pack, b)), dtype=np.int64))
    assert words.tolist() == [pack([(x + y) % p for x, y in zip(u, v)]) for u, v in zip(a, b)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1009])
def test_packed_add_is_digitwise_addition_mod_p(p):
    """Every pair of two-lane digit vectors for small p, 2000 random pairs
    of six-lane vectors for p = 1009, and lanes exactly as wide as the
    carry flag needs; _spread inverts key."""
    lanes = 2 if p < 100 else 6
    w, add, key = gf._packing(p, lanes)
    if p == 2:
        assert w == 1
    else:
        assert 2 ** (w - 2) < p <= 2 ** (w - 1)
    if p < 100:
        pairs = itertools.product(itertools.product(range(p), repeat=lanes), repeat=2)
    else:
        rng = random.Random(p)
        draw = lambda: [rng.choice((0, 1, p // 2, p - 1, rng.randrange(p))) for _ in range(lanes)]
        pairs = [(draw(), draw()) for _ in range(2000)]

    def pack(digits):
        return sum(d << (w * lane) for lane, d in enumerate(digits))

    for a, b in pairs:
        total = [(x + y) % p for x, y in zip(a, b)]
        assert add(pack(a), pack(b)) == pack(total)
        assert key(pack(total)) == sum(d * p**lane for lane, d in enumerate(total))
        assert gf._spread(key(pack(total)), p, lanes) == pack(total)
