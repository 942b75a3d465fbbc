import itertools

import pytest

from burstkit import (
    BurstPattern,
    BurstSpace,
    CapExceeded,
    count_bursts,
    count_bursts_phased,
    enumerate_bursts,
    is_burst,
)


def brute_force_bursts(q, n, tau, phased=False):
    """Definitional oracle: scan all q^n words for the burst predicate."""
    if phased:
        windows = BurstSpace(n, tau, phased=True).windows
    out = []
    for w in itertools.product(range(q), repeat=n):
        nz = [i for i, x in enumerate(w) if x]
        if not nz:
            out.append(w)
            continue
        if phased:
            if any(all(i in win for i in nz) for win in windows):
                out.append(w)
        elif nz[-1] - nz[0] < tau:
            out.append(w)
    return out


def test_is_burst_examples():
    assert is_burst((0, 0, 0, 0, 0), 2)
    assert not is_burst((0, 1, 0, 1, 0), 2)
    assert is_burst((0, 1, 0, 1, 0), 3)
    assert is_burst((0, 0, 1, 0), 1)
    with pytest.raises(ValueError):
        is_burst((0, 1), 3)
    with pytest.raises(ValueError):
        is_burst((0, 1), 0)


def test_count_examples():
    assert count_bursts(2, 5, 2) == 10
    assert count_bursts(2, 4, 2) == 8
    for q, n in ((2, 4), (3, 5), (5, 7)):
        assert count_bursts(q, n, 1) == 1 + (q - 1) * n
    with pytest.raises(ValueError):
        count_bursts(2, 4, 5)


def test_count_tau_equals_n_covers_everything():
    for q in (2, 3):
        for n in range(1, 7):
            assert count_bursts(q, n, n) == q**n


def test_enumeration_matches_closed_form_small_grid(fields):
    for q in (2, 3, 4):
        ctx = fields[q]
        for n in range(1, 7):
            for tau in range(1, n + 1):
                words = list(enumerate_bursts(ctx, BurstSpace(n, tau)))
                assert len(words) == count_bursts(q, n, tau)
                assert len(set(words)) == len(words)
                assert words == sorted(
                    set(words),
                    key=lambda w: (
                        (0,)
                        if not any(w)
                        else (1, next(i for i, x in enumerate(w) if x), w)
                    ),
                )
                assert set(words) == set(brute_force_bursts(q, n, tau))
                assert all(is_burst(w, tau) for w in words)


def test_enumeration_examples(fields):
    f2 = fields[2]
    assert len(list(enumerate_bursts(f2, BurstSpace(4, 2)))) == 8
    assert len(list(enumerate_bursts(f2, BurstSpace(4, 2, phased=True)))) == 7
    for q in (2, 3):
        ctx = fields[q]
        n = 5
        assert len(list(enumerate_bursts(ctx, BurstSpace(n, 1)))) == 1 + (q - 1) * n


def test_phased_enumeration_matches_brute_force(fields):
    for q in (2, 3):
        ctx = fields[q]
        for n in range(1, 7):
            for tau in range(1, n + 1):
                words = list(enumerate_bursts(ctx, BurstSpace(n, tau, phased=True)))
                assert len(words) == count_bursts_phased(q, n, tau)
                assert set(words) == set(brute_force_bursts(q, n, tau, phased=True))


def test_phased_subset_of_unrestricted(fields):
    for q in (2, 3):
        ctx = fields[q]
        for n in range(2, 7):
            for tau in range(1, n + 1):
                phased = set(enumerate_bursts(ctx, BurstSpace(n, tau, phased=True)))
                full = set(enumerate_bursts(ctx, BurstSpace(n, tau)))
                if n % tau == 0:
                    assert phased <= full


def test_count_monotone():
    for q in (2, 3, 4):
        for n in range(1, 9):
            for tau in range(1, n):
                assert count_bursts(q, n, tau) <= count_bursts(q, n, tau + 1)
        for tau in range(1, 5):
            for n in range(tau, 9):
                assert count_bursts(q, n, tau) <= count_bursts(q, n + 1, tau)


def test_zero_word_first_and_once(fields):
    words = list(enumerate_bursts(fields[3], BurstSpace(4, 2)))
    assert words[0] == (0, 0, 0, 0)
    assert words.count((0, 0, 0, 0)) == 1


def test_enumeration_cap(fields):
    with pytest.raises(CapExceeded):
        list(enumerate_bursts(fields[4], BurstSpace(8, 8), cap=100))


def test_windows_shape():
    s = BurstSpace(6, 2, phased=True)
    assert [list(w) for w in s.windows] == [[0, 1], [2, 3], [4, 5]]
    s2 = BurstSpace(5, 2, phased=True)  # last window clipped
    assert [list(w) for w in s2.windows] == [[0, 1], [2, 3], [4]]
    s3 = BurstSpace(5, 2)
    assert [w.start for w in s3.windows] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        BurstSpace(3, 4)


def test_burst_pattern_round_trip():
    w = (0, 2, 0, 1, 0)
    pat = BurstPattern.from_word(w, 3)
    assert pat.start == 1 and pat.payload == (2, 0, 1)
    assert pat.expand(5) == w
    with pytest.raises(ValueError, match="^pattern does not fit in a word of this length$"):
        pat.expand(3)
    tail = BurstPattern.from_word((0, 0, 0, 1), 2)
    assert tail.start == 3 and tail.payload == (1,)  # clipped at the end
    z = BurstPattern.from_word((0, 0), 1)
    assert z.is_zero() and z.expand(2) == (0, 0)
    with pytest.raises(ValueError):
        BurstPattern.from_word((1, 0, 0, 1), 2)


def test_count_tau_zero_formula_truncation():
    # the closed form truncates to 1 + (q-1)n below tau = 2
    assert count_bursts(3, 4, 0) == count_bursts(3, 4, 1) == 1 + 2 * 4


@pytest.mark.parametrize("q", [-3, 0, 1])
def test_counts_refuse_an_alphabet_below_two(q):
    for count in (count_bursts, count_bursts_phased, lambda q, n, tau: BurstSpace(n, tau).count(q)):
        with pytest.raises(ValueError, match=f"^the alphabet size q must be at least 2, got {q}$"):
            count(q, 4, 2)
