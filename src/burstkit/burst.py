"""Burst-error model: the tau-burst predicate, exhaustive enumeration,
the closed-form count, and phased windows.

A word is a tau-burst when it is zero or its nonzero entries span fewer
than tau consecutive positions (last nonzero index minus first nonzero
index < tau). Bursts never wrap around the end of the word. Counting is
big-integer exact; no floating point appears anywhere in this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import _caps
from .gf import Fe, FieldCtx

Word = tuple[Fe, ...]


def check_alphabet(q: int) -> None:
    """Refuse an alphabet of fewer than two symbols."""
    if q < 2:
        raise ValueError(f"the alphabet size q must be at least 2, got {q}")


def is_burst(w, tau: int) -> bool:
    """True iff w is zero or its nonzero span is shorter than tau."""
    n = len(w)
    if not 1 <= tau <= n:
        raise ValueError(f"tau must satisfy 1 <= tau <= {n}, got {tau}")
    first = next((i for i, x in enumerate(w) if x), None)
    if first is None:
        return True
    last = next(i for i in reversed(range(n)) if w[i])
    return last - first < tau


@dataclass(frozen=True)
class BurstSpace:
    """Block length, burst length, and optionally the aligned windows.

    Phased windows are the aligned blocks [i*tau, (i+1)*tau) clipped to
    the word length; non-phased windows are every span of tau
    consecutive positions.
    """

    n: int
    tau: int
    phased: bool = False

    def __post_init__(self):
        if not 1 <= self.tau <= self.n:
            raise ValueError(f"tau must satisfy 1 <= tau <= {self.n}, got {self.tau}")

    @property
    def windows(self) -> list[range]:
        if self.phased:
            count = -(-self.n // self.tau)
            return [
                range(i * self.tau, min((i + 1) * self.tau, self.n))
                for i in range(count)
            ]
        return [range(s, s + self.tau) for s in range(self.n - self.tau + 1)]

    def count(self, q: int) -> int:
        """The exact number of bursts in the space over an alphabet of size q."""
        if not self.phased:
            return count_bursts(q, self.n, self.tau)
        check_alphabet(q)
        return 1 + sum(q ** len(win) - 1 for win in self.windows)


@dataclass(frozen=True)
class BurstPattern:
    """A burst given by its first-nonzero position and window payload.

    The zero burst is (start=None, payload=()). A nonzero pattern is
    anchored at its first nonzero entry, so payload[0] != 0; the payload
    covers min(tau, n - start) positions, i.e. patterns near the end of
    the word carry a clipped payload. Anchoring makes the pattern for a
    given word unique.
    """

    start: int | None
    payload: tuple[Fe, ...]

    @classmethod
    def zero(cls) -> "BurstPattern":
        return cls(None, ())

    @classmethod
    def from_word(cls, w, tau: int) -> "BurstPattern":
        if not is_burst(w, tau):
            raise ValueError(f"{w} is not a {tau}-burst")
        first = next((i for i, x in enumerate(w) if x), None)
        if first is None:
            return cls.zero()
        width = min(tau, len(w) - first)
        return cls(first, tuple(w[first : first + width]))

    def is_zero(self) -> bool:
        return self.start is None

    def expand(self, n: int) -> Word:
        if self.start is None:
            return (0,) * n
        if self.start + len(self.payload) > n:
            raise ValueError("pattern does not fit in a word of this length")
        w = [0] * n
        w[self.start : self.start + len(self.payload)] = self.payload
        return tuple(w)


def anchored_spans(space: BurstSpace):
    """(start, width) pairs indexing the canonical burst payloads.

    Every burst in the space appears exactly once as a payload with a
    nonzero first entry placed at `start`; spans are emitted in
    ascending start order, which yields the deterministic enumeration
    order (first-nonzero index, then payload lex).
    """
    if space.phased:
        for win in space.windows:
            for s in win:
                yield s, win.stop - s
    else:
        for s in range(space.n):
            yield s, min(space.tau, space.n - s)


def enumerate_bursts(ctx: FieldCtx, space: BurstSpace, cap: int | None = None):
    """Yield every burst word exactly once: zero first, then by
    (first-nonzero index, payload lex)."""
    _caps.check("burst enumeration q^tau * n", ctx.q ** space.tau * space.n, "ENUM", cap)
    n = space.n
    q = ctx.q
    yield (0,) * n
    for start, width in anchored_spans(space):
        prefix = (0,) * start
        suffix = (0,) * (n - start - width)
        for first in range(1, q):
            if width == 1:
                yield prefix + (first,) + suffix
                continue
            for rest in itertools.product(range(q), repeat=width - 1):
                yield prefix + (first,) + rest + suffix


def count_bursts(q: int, n: int, tau: int):
    """Exact number of tau-bursts in F^n for an alphabet of size q.

    Evaluates 1 + (q-1)n + (q-1)^2 * sum_{i=0}^{tau-2} (n-i-1) q^i in
    exact integer arithmetic. For tau >= 1 this equals the size of the
    exhaustive enumeration.
    """
    check_alphabet(q)
    if tau < 0 or tau > n:
        raise ValueError(f"tau must satisfy 0 <= tau <= {n}, got {tau}")
    total = 1 + (q - 1) * n
    total += (q - 1) ** 2 * sum((n - i - 1) * q**i for i in range(tau - 1))
    return total


def count_bursts_phased(q: int, n: int, tau: int):
    """Exact number of bursts whose support fits one aligned window."""
    return BurstSpace(n, tau, phased=True).count(q)
