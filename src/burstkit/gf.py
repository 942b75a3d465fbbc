"""Exact arithmetic in finite fields GF(p^m), q = p^m <= 2^20.

Elements are canonical indices in [0, q): index 0 is the additive zero
and, for m > 1, an index packs the polynomial-basis coefficients of the
element in base p, constant term in the least significant digit.
Multiplication, inversion and powering run on log/antilog tables built
from a fixed primitive element, so arithmetic is O(1) after construction.

The field family is picked once, at construction, by _family, which
returns the three operations that differ by family: add, neg and the
row kernel axpy(f, xs, ys) = [x + f*y]. For p = 2, add is XOR, neg is
the identity and axpy is x ^ exp[lf + log y] with lf = log f - (q - 1),
whose negative index wraps (no modulo, no doubled exp table). For an
odd prime field all three are integer arithmetic mod p. For odd p^m, add
and axpy run on a Zech logarithm table and neg multiplies by
-1 = alpha^((q-1)/2). FieldCtx installs them as attributes, so no
operation tests the family again.

The modulus and the generator are deterministic so that two builds of
the same field agree element by element:

* modulus: the monic irreducible polynomial of degree m over GF(p)
  whose coefficient vector (constant term first) packs to the smallest
  integer in base p. The search, and the check of a modulus the caller
  gives, are one trial division on packed digit lanes (below);
* generator: the element of smallest canonical index whose
  multiplicative order is exactly q - 1.

The tables are built on packed digit lanes (_packing, shared with the
bucket scan in listdec): an element's m base-p digits sit in one int at
w bits each, and two elements add lane-wise mod p with one XOR (p = 2)
or one carry-trick add (odd p). Multiplication by x is a shift plus one
add of the reduced top lane, and a general product is Horner's rule over
that step; the primitivity test powers candidates with it.

The exp table is a doubling walk, exp[i + L] = gen^L * exp[i]: each
round doubles the table by multiplying all of it by g = gen^L, and the
next round's g is g^2. Multiplying by g is GF(p)-linear, so a round
splits the lanes into chunks of c and makes one table per chunk of
g * (the chunk's lanes), and then one list comprehension per chunk
(the first two share one) adds an entry from each table per element.
A chunk table reads each digit mod p: its p^c entries are gathered into
2^(w*c) slots, one per value the chunk's lanes can hold. So the chunk
sums add as plain integers (XOR for p = 2) and are never reduced, for
odd p in lanes wide enough for one digit from each chunk; a final pass
of the same kind maps those lanes to canonical indices. For p = 2 the
lanes are the index. c is chosen so that there are at least two chunks
and the fewest whose tables hold at most q / log2(q) entries: about
q * m / c lookups and adds in all (twice that for odd p), and log2(q)
tables per chunk. A prime field has one lane, and a round is one integer
product mod p per element. log is one scatter of exp, and the check that
the generator has full order counts the slots of log that the scatter
left at 0.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from functools import partial
from itertools import accumulate, chain, cycle, islice, product, repeat

Fe = int  # canonical element index in [0, q)

MAX_FIELD_SIZE = 1 << 20


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# -- packed digit lanes ----------------------------------------------------

def _width(p: int) -> int:
    """Bits per packed digit lane: 1 for p = 2, else the least w with
    p <= 2^(w-1)."""
    return 1 if p == 2 else (p - 1).bit_length() + 1


def _packing(p: int, lanes: int, w: int = 0):
    """(w, add, key) for vectors whose base-p digit lanes are packed at
    w >= _width(p) bits per lane (by default _width(p)). For p = 2, add is
    XOR; otherwise adding 2^(w-1) - p to a lane sum (at most 2p - 2) sets
    its bit w-1, without spilling into the next lane, iff the sum reached
    p. Bits above the top lane add as plain integers (XOR for p = 2). add
    takes Python ints, and int64 arrays when lanes <= 63 // w. key(s) is
    sum(digit * p^lane), and packed order is key order: both compare the
    top lane first."""
    w = w or _width(p)
    ones = sum(1 << (w * lane) for lane in range(lanes))
    carry = ones * ((1 << (w - 1)) - p)

    def add(a, b):
        s = a + b
        return s - ((s + carry) >> (w - 1) & ones) * p

    def key(s: int) -> int:
        return sum((s >> (w * lane) & (1 << w) - 1) * p**lane for lane in range(lanes))

    return w, operator.xor if p == 2 else add, key


def _spread(x: int, p: int, lanes: int, w: int = 0) -> int:
    """key's inverse: the base-p digits of x, one per packed lane."""
    w = w or _width(p)
    s = 0
    for k in range(lanes):
        x, d = divmod(x, p)
        s |= d << w * k
    return s


def _times(add, a: int, d: int) -> int:
    """d * a under add, by doubling."""
    r = a if d & 1 else 0
    while d := d >> 1:
        a = add(a, a)
        if d & 1:
            r = add(r, a)
    return r


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division of the monic poly (constant term first) by every monic
    polynomial of degree 1..deg/2, on packed lanes: a quotient term clears
    the remainder's top lane c by adding p - c times the shifted divisor."""
    m = len(poly) - 1
    w, add, _ = _packing(p, m + 1)
    f = sum(c << w * k for k, c in enumerate(poly))
    lows = [0]  # the packed polynomials of degree < d
    for d in range(1, m // 2 + 1):
        lows = [x + (c << w * (d - 1)) for c in range(p) for x in lows]
        for div in map((1 << w * d).__add__, lows):
            r = f
            while (s := (r.bit_length() - 1) // w - d) >= 0:  # r's top lane is s + d
                r = add(r, _times(add, div << w * s, p - (r >> w * (s + d))))
            if not r:
                return False
    return True


def _find_modulus(p: int, m: int) -> tuple[int, ...]:
    # product varies its last entry fastest, so reversed it walks in packed order
    return next(c for top in product(range(p), repeat=m) if _is_irreducible(c := (*reversed(top), 1), p))


def _outer_table(add, images: list[int], base: int, stride: int = 0) -> list[int]:
    """The combinations sum((d_k mod base) * images[k]) under add, for
    digits d_k in [0, stride), as a list indexed by sum(d_k * stride^k)
    (stride defaults to base). Each image, lowest digit first, widens the
    table by adding its nonzero multiples to every entry so far; the zero
    multiple's block is the table itself, so no entry is added to 0."""
    tab = [0]
    for image in images:
        blocks = [tab] + [[add(t, x) for t in tab] for x in accumulate(repeat(image, base - 1), add)]
        tab = list(chain.from_iterable(islice(cycle(blocks), stride or base)))
    return tab


def _exp_table(p: int, m: int, modulus: tuple[int, ...]) -> tuple[int, list[int]]:
    """(generator, exp) for GF(p^m) mod modulus, with exp[i] the canonical
    index of generator^i, by the doubling walk exp[i + L] = gen^L * exp[i]
    (see the module notes)."""
    q, n1 = p**m, p**m - 1
    # For m > 1, the fewest chunks of c lanes, at least two, whose tables
    # hold at most q / log2(q) entries; for odd p a lane is wide enough to
    # hold one reduced digit from each chunk.
    c, w = 1, _width(p)
    for chunks in range(2, m + 1):
        c = -(-m // chunks)
        w = 1 if p == 2 else (chunks * (p - 1)).bit_length()
        if n1.bit_length() << w * c <= q:
            break
    w, add, _ = _packing(p, m, w)
    top, digit = w * m, (1 << w) - 1
    red = sum(-a % p << (w * j) for j, a in enumerate(modulus[:m]))  # x^m
    times = partial(_times, add)

    def mulx(a: int) -> int:
        a <<= w
        return add(a & (1 << top) - 1, times(red, a >> top))

    def mul(a: int, b: int) -> int:
        r = times(a, b >> top - w)
        for k in reversed(range(m - 1)):
            r = add(mulx(r), times(a, b >> (w * k) & digit))
        return r

    def power(a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = mul(r, a)
            a, e = mul(a, a), e >> 1
        return r

    gen = 1
    if n1 > 1:
        facs = _prime_factors(n1)
        gen = next((g for g in range(2, q) if all(power(_spread(g, p, m, w), n1 // f) != 1 for f in facs)), 0)
        if not gen:
            raise AssertionError("no primitive element found")
    if m == 1:  # a round is one integer product mod p per element

        def times_g(g: int, xs: list[int], k: int) -> list[int]:
            return [x * g % p for x in islice(xs, k)]

    else:
        # A chunk table is indexed by c lanes as they sit in the element
        # and reads each digit mod p: the p^c combinations of the chunk's
        # images, gathered through mod_p. So the chunk sums of a round add
        # as plain integers (XOR for p = 2), and lanes are never reduced.
        plus = operator.xor if p == 2 else operator.add
        starts, mask = range(0, m, c), (1 << w * c) - 1
        mod_p = _outer_table(operator.add, [p**j for j in range(c)], p, 1 << w)

        def chunk_map(add, images: list[int], xs: list[int], k: int) -> list[int]:
            """The first k of xs under the GF(p)-linear map lane j -> images[j],
            with add the images' add."""
            images = images + [0] * (c - 1)  # pads the top chunk
            t0, t1, *rest = [list(map(_outer_table(add, images[j : j + c], p).__getitem__, mod_p)) for j in starts]
            out = [plus(t0[x & mask], t1[x >> w * c & mask]) for x in islice(xs, k)]
            for tab, j in zip(rest, starts[2:]):
                out = [plus(y, tab[x >> w * j & mask]) for y, x in zip(out, xs)]
            return out

        def times_g(g: int, xs: list[int], k: int) -> list[int]:
            gx = [g]  # g * x^j
            for _ in range(m - 1):
                gx.append(mulx(gx[-1]))
            return chunk_map(add, gx, xs, k)

    # exp is allocated once; exp[:n] holds gen^0 .. gen^(n-1), and g = gen^n
    exp, n, g = [1] * n1, 1, _spread(gen, p, m, w)
    while n < n1:
        k = min(n, n1 - n)
        exp[n : n + k] = times_g(g, exp, k)
        n, g = n + k, mul(g, g)
    if p > 2 and m > 1:  # lanes to canonical indices: lane j counts p^j
        exp[:] = chunk_map(operator.add, [p**j for j in range(m)], exp, n1)
    return gen, exp


def _family(p: int, m: int, exp: list[int], log: list[int]):
    """(add, neg, zech, axpy) for GF(p^m): the only test of the family.
    For odd p^m, zech[i] = log(1 + alpha^i) (1 bumps the constant digit),
    or -1 where that sum is 0; otherwise zech is None. A log sum or
    difference used as an index lies in [-(q-1), q-2] and wraps; only
    axpy's Zech index, which can fall below -(q-1), is reduced mod q - 1."""
    n1 = p**m - 1
    if p == 2:
        def axpy(f, xs, ys):
            if not f:
                return list(xs)
            lf = log[f] - n1  # lf + log y lies in [-(q-1), q-3]
            return [x ^ exp[lf + log[y]] if y else x for x, y in zip(xs, ys)]

        return operator.xor, operator.pos, None, axpy
    if m == 1:
        def axpy(f, xs, ys):
            return [(x + f * y) % p for x, y in zip(xs, ys)]

        return (lambda a, b: (a + b) % p), (lambda a: -a % p), None, axpy

    zech = [log[y] if y else -1 for y in (x - x % p + (x % p + 1) % p for x in exp)]
    half = n1 // 2

    def add(a, b):  # alpha^i + alpha^j = alpha^i * (1 + alpha^(j - i))
        if not a or not b:
            return a or b
        la = log[a]
        z = zech[log[b] - la]
        return exp[la + z - n1] if z >= 0 else 0

    def neg(a):
        return exp[log[a] - half] if a else 0

    def axpy(f, xs, ys):
        if not f:
            return list(xs)
        lf = log[f] - n1
        out = []
        for x, y in zip(xs, ys):
            if y:
                ly = lf + log[y]
                if x:  # x + f*y = x * (1 + f*y/x)
                    lx = log[x]
                    z = zech[(ly - lx) % n1]
                    x = exp[lx + z - n1] if z >= 0 else 0
                else:
                    x = exp[ly]
            out.append(x)
        return out

    return add, neg, zech, axpy


class FieldCtx:
    """A concrete finite field GF(p^m) with precomputed discrete-log tables.

    Immutable after construction and safe to share across threads; all
    operations are pure.
    """

    __slots__ = ("p", "m", "q", "modulus", "generator", "_exp", "_log", "_zech", "add", "neg", "axpy")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None = None):
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        # q >= 2^m, so the cap refuses a large m before p^m is computed,
        # and a large q before p is factored
        if p >= 2 and (m >= MAX_FIELD_SIZE.bit_length() or p**m > MAX_FIELD_SIZE):
            raise ValueError(f"field size {p}^{m} exceeds the cap {MAX_FIELD_SIZE}")
        if _prime_factors(p) != [p]:
            raise ValueError(f"characteristic {p} is not prime")
        q = p ** m
        self.p = p
        self.m = m
        self.q = q

        if modulus is None:
            modulus = _find_modulus(p, m)
        else:
            modulus = tuple(map(int, modulus))
            if not all(0 <= c < p for c in modulus):
                raise ValueError(f"modulus {list(modulus)} has a coefficient outside GF({p})")
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus

        self.generator, exp = _exp_table(p, m, modulus)
        log = [0] * q
        deque(map(operator.setitem, repeat(log), exp, range(q - 1)), maxlen=0)
        # exp holds q - 1 elements of [1, q) and starts at 1: log[0] and
        # log[1] are 0, and any other slot left at 0 means a value repeats
        if exp[0] != 1 or log.count(0) != 2:
            raise AssertionError("generator does not have full order")
        self._exp = exp
        self._log = log
        self.add, self.neg, self._zech, self.axpy = _family(p, m, exp, log)

    # -- arithmetic: add and neg are installed by _family ---------------

    def sub(self, a: Fe, b: Fe) -> Fe:
        add, neg = self.add, self.neg  # CPython does not specialize self.add(...) on a slot
        return add(a, neg(b))

    # inv and div index exp with a log difference as it is, in [-(q-2), q-2]:
    # a negative index wraps, since exp has q - 1 entries. mul keeps its
    # modulo: on CPython 3.11 a negative list index leaves the specialized
    # subscript, and log[a] + log[b] - (q - 1) timed slower than the modulo.

    def mul(self, a: Fe, b: Fe) -> Fe:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: Fe) -> Fe:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[-self._log[a]]

    def div(self, a: Fe, b: Fe) -> Fe:
        if b == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if a == 0:
            return 0
        log = self._log
        return self._exp[log[a] - log[b]]

    def pow(self, a: Fe, e: int) -> Fe:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("0 cannot be raised to a negative power")
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def order(self, a: Fe) -> int:
        """Least d >= 1 with a^d = 1; always divides q - 1."""
        if a == 0:
            raise ValueError("the zero element has no multiplicative order")
        return (self.q - 1) // math.gcd(self.q - 1, self.log(a))

    def log(self, a: Fe) -> int:
        """Discrete log of a nonzero element with respect to the generator.
        An index outside [0, q) is refused, not read modulo the table."""
        if a == 0:
            raise ValueError("zero has no discrete logarithm")
        if not 0 < a < self.q:
            raise ValueError(f"{a} is not an element of {self!r}")
        return self._log[a]

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    # -- identity / serialization ------------------------------------

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __reduce__(self):  # add, neg and axpy are closures; pickle rebuilds the field
        return FieldCtx, (self.p, self.m, self.modulus)

    def to_dict(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}


def field_new(p: int, m: int) -> FieldCtx:
    """Build GF(p^m) with the deterministic modulus and generator."""
    return FieldCtx(p, m)


def field_from_dict(d: dict) -> FieldCtx:
    if not isinstance(d, dict) or not {"p", "m", "modulus"} <= d.keys():
        raise ValueError("field must be an object with keys 'p', 'm' and 'modulus'")
    p, m, modulus = d["p"], d["m"], d["modulus"]
    # JSON true and false are ints to isinstance, so the type itself is checked
    if not (isinstance(modulus, list) and all(type(x) is int for x in (p, m, *modulus))):
        raise ValueError("field 'p' and 'm' must be integers and 'modulus' a list of integers")
    return FieldCtx(p, m, tuple(modulus))


def field_from_order(q: int) -> FieldCtx:
    """Build the field of size q, factoring q as a prime power."""
    if q > MAX_FIELD_SIZE:
        raise ValueError(f"field size {q} exceeds the cap {MAX_FIELD_SIZE}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, m = factors[0], 1
    while p**m < q:
        m += 1
    return FieldCtx(p, m)
