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
  integer in base p;
* generator: the element of smallest canonical index whose
  multiplicative order is exactly q - 1.

The tables are built on packed digit lanes (_packing, shared with the
bucket scan in listdec): an element's m base-p digits sit in one int at
w bits each, and two elements add lane-wise mod p with one XOR (p = 2)
or one carry-trick add (odd p). Multiplication by x is a shift plus one
add of the reduced top lane, and a general product is Horner's rule over
that step; the primitivity test powers candidates with it. Multiplying
by the generator is GF(p)-linear, so the exp table steps through the
lanes c = max(1, 8 // w) at a time: per element, one lookup per chunk
in a table of generator * (the chunk's lanes) and one lane add per
chunk after the first. For odd p^m each entry also carries the chunk's
share of the canonical index, so the same adds convert the lanes; for
p = 2 the lanes are the index. The cost is about (m / c) * q lookups
and adds, plus one table per chunk of at most p * 2^(w*(c-1)) entries.
A prime field has one lane, and its step is one integer product mod p.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, repeat

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


def _digits(v: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        v, d = divmod(v, p)
        out.append(d)
    return out


# -- polynomial helpers over GF(p), coefficient lists lowest degree first --

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a: list[int], mod: list[int], p: int) -> list[int]:
    # mod must be monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        c = a[-1]
        if c:
            off = len(a) - 1 - dm
            for j in range(dm):
                a[off + j] = (a[off + j] - c * mod[j]) % p
        a.pop()
    return _ptrim(a)


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    m = len(poly) - 1
    for d in range(1, m // 2 + 1):
        for v in range(p ** d):
            div = _digits(v, p, d) + [1]
            if not _pmod(poly, div, p):
                return False
    return True


def _find_modulus(p: int, m: int) -> tuple[int, ...]:
    for v in range(p ** m):
        cand = _digits(v, p, m) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible polynomial of degree {m} over GF({p})")


# -- packed digit lanes ----------------------------------------------------

def _width(p: int) -> int:
    """Bits per packed digit lane: 1 for p = 2, else the least w with
    p <= 2^(w-1)."""
    return 1 if p == 2 else (p - 1).bit_length() + 1


def _packing(p: int, lanes: int):
    """(w, add, key) for vectors whose base-p digit lanes are packed at
    w = _width(p) bits per lane. For p = 2, add is XOR; otherwise adding
    2^(w-1) - p to a lane sum (at most 2p - 2) sets its bit w-1, without
    spilling into the next lane, iff the sum reached p. Bits above the
    top lane add as plain integers (XOR for p = 2). add takes Python ints,
    and int64 arrays when lanes <= 63 // w. key(s) is
    sum(digit * p^lane), and packed order is key order: both compare the
    top lane first."""
    w = _width(p)
    ones = sum(1 << (w * lane) for lane in range(lanes))
    carry = ones * ((1 << (w - 1)) - p)

    def add(a, b):
        s = a + b
        return s - ((s + carry) >> (w - 1) & ones) * p

    def key(s: int) -> int:
        return sum((s >> (w * lane) & (1 << w) - 1) * p**lane for lane in range(lanes))

    return w, operator.xor if p == 2 else add, key


def _spread(x: int, p: int, lanes: int) -> int:
    """key's inverse: the base-p digits of x, one per packed lane."""
    w = _width(p)
    return sum(x // p**k % p << (w * k) for k in range(lanes))


def _outer_table(add, images: list[int], base: int, stride: int = 0) -> list[int]:
    """The combinations sum(d_k * images[k]) under add, for digits d_k
    in [0, base), as a list indexed by sum(d_k * stride^k) (stride
    defaults to base; indices with a lower digit >= base are padding).
    The multiples of each image take base - 1 adds, then each image
    below the last widens the table by an outer sum."""
    *low, top = images
    pad = [0] * (max(stride, base) - base)
    tab = list(accumulate(repeat(top, base - 1), add, initial=0))
    for image in reversed(low):
        col = list(accumulate(repeat(image, base - 1), add, initial=0)) + pad
        tab = [add(t, x) for t in tab for x in col]
    return tab


def _exp_table(p: int, m: int, modulus: tuple[int, ...]) -> tuple[int, list[int]]:
    """(generator, exp) for GF(p^m) mod modulus, with exp[i] the canonical
    index of generator^i, computed on packed lanes (see the module notes)."""
    q, n1 = p**m, p**m - 1
    w, add, _ = _packing(p, m)
    top, digit = w * m, (1 << w) - 1
    red = sum(-c % p << (w * k) for k, c in enumerate(modulus[:m]))  # x^m

    def times(a: int, d: int) -> int:  # d * a, by doubling
        r = a if d & 1 else 0
        while d := d >> 1:
            a = add(a, a)
            if d & 1:
                r = add(r, a)
        return r

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
        gen = next((g for g in range(2, q) if all(power(_spread(g, p, m), n1 // f) != 1 for f in facs)), 0)
        if not gen:
            raise AssertionError("no primitive element found")
    if m == 1:  # the step is one integer product mod p
        return gen, list(accumulate(repeat(gen, n1 - 1), lambda a, g: a * g % p, initial=1))

    # Chunk j covers lanes c*j .. c*j + c - 1, and its table is indexed by
    # those lanes as they sit in the element; lanes below the chunk's top
    # are padded to 2^w digits, which no element holds. An entry is
    # gen * (the chunk's lanes). For odd p it is tagged above bit h with
    # the chunk's share of the canonical index, which a lane add adds as
    # an integer, so step i yields gen^i as lanes and the index of
    # gen^(i-1) as its tag; for p = 2 the lanes are the canonical index.
    tagged = p > 2
    c = max(1, 8 // w)
    chunks = [range(j, min(j + c, m)) for j in range(0, m, c)]
    h, mask = w * c * len(chunks), (1 << w * c) - 1
    gx = [_spread(gen, p, m)]  # gen * x^k
    for _ in range(m - 1):
        gx.append(mulx(gx[-1]))

    tabs = [
        (_outer_table(add, [gx[k] | (p**k << h if tagged else 0) for k in chunk], p, digit + 1), w * chunk[0])
        for chunk in chunks
    ]
    (first, _), rest = tabs[0], tabs[1:]

    def step(a: int) -> int:
        b = first[a & mask]
        for tab, s in rest:
            b = add(b, tab[a >> s & mask])
        return b

    a = 1
    steps = [a := step(a) for _ in range(n1)]
    if tagged:
        return gen, [b >> h for b in steps]
    steps.insert(0, steps.pop())  # gen^(q-1) = 1 is exp[0]
    return gen, steps


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
        if p < 2 or any(p % f == 0 for f in range(2, math.isqrt(p) + 1)):
            raise ValueError(f"characteristic {p} is not prime")
        q = p ** m
        self.p = p
        self.m = m
        self.q = q

        if modulus is None:
            modulus = _find_modulus(p, m)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not _is_irreducible(list(modulus), p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus

        self.generator, exp = _exp_table(p, m, modulus)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        if len(set(exp)) != q - 1:
            raise AssertionError("generator does not have full order")
        self._exp = exp
        self._log = log
        self.add, self.neg, self._zech, self.axpy = _family(p, m, exp, log)

    # -- arithmetic: add and neg are installed by _family ---------------

    def sub(self, a: Fe, b: Fe) -> Fe:
        add, neg = self.add, self.neg  # CPython does not specialize self.add(...) on a slot
        return add(a, neg(b))

    def mul(self, a: Fe, b: Fe) -> Fe:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: Fe) -> Fe:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[-self._log[a] % (self.q - 1)]

    def div(self, a: Fe, b: Fe) -> Fe:
        return self.mul(a, self.inv(b))

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
        return (self.q - 1) // math.gcd(self.q - 1, self._log[a])

    def log(self, a: Fe) -> int:
        """Discrete log of a nonzero element with respect to the generator."""
        if a == 0:
            raise ValueError("zero has no discrete logarithm")
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
    if not (isinstance(modulus, list) and all(isinstance(x, int) for x in (p, m, *modulus))):
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
