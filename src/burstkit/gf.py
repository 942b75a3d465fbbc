"""Exact arithmetic in finite fields GF(p^m), q = p^m <= 2^20.

Elements are canonical indices in [0, q): index 0 is the additive zero
and, for m > 1, an index packs the polynomial-basis coefficients of the
element in base p, constant term in the least significant digit.
Multiplication, inversion and powering run on log/antilog tables built
from a fixed primitive element, and addition in odd p^m on a Zech
logarithm table, so arithmetic is O(1) after construction.

The modulus and the generator are deterministic so that two builds of
the same field agree element by element:

* modulus: the monic irreducible polynomial of degree m over GF(p)
  whose coefficient vector (constant term first) packs to the smallest
  integer in base p;
* generator: the element of smallest canonical index whose
  multiplicative order is exactly q - 1.
"""

from __future__ import annotations

import math

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


def _pack(digits: list[int], p: int) -> int:
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


# -- polynomial helpers over GF(p), coefficient lists lowest degree first --

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


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


class FieldCtx:
    """A concrete finite field GF(p^m) with precomputed discrete-log tables.

    Immutable after construction and safe to share across threads; all
    operations are pure.
    """

    __slots__ = ("p", "m", "q", "modulus", "generator", "_exp", "_log", "_zech", "_neg_one")

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

        if m == 1:
            def raw_mul(a: int, b: int) -> int:
                return (a * b) % p
        else:
            mod = list(modulus)

            def raw_mul(a: int, b: int) -> int:
                prod = _pmod(_pmul(_digits(a, p, m), _digits(b, p, m), p), mod, p)
                return _pack(prod, p)

        def raw_pow(x: int, e: int) -> int:
            r = 1
            while e:
                if e & 1:
                    r = raw_mul(r, x)
                x = raw_mul(x, x)
                e >>= 1
            return r

        n1 = q - 1
        gen = 1
        if n1 > 1:
            facs = _prime_factors(n1)
            for g in range(2, q):
                if all(raw_pow(g, n1 // f) != 1 for f in facs):
                    gen = g
                    break
            else:
                raise AssertionError("no primitive element found")
        self.generator = gen

        exp = [1] * n1
        for i in range(1, n1):
            exp[i] = raw_mul(exp[i - 1], gen)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        if len(set(exp)) != n1:
            raise AssertionError("generator does not have full order")
        self._exp = exp
        self._log = log
        # Zech logarithms for odd p^m: _zech[i] = log(1 + alpha^i), or -1
        # where that sum is 0; adding 1 bumps the constant digit
        self._zech = None
        if p > 2 and m > 1:
            self._zech = [
                log[y] if y else -1 for y in (x - x % p + (x % p + 1) % p for x in exp)
            ]
        self._neg_one = 1 if p == 2 else p - 1

    # -- arithmetic --------------------------------------------------

    def add(self, a: Fe, b: Fe) -> Fe:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        if a == 0 or b == 0:
            return a or b
        # alpha^i + alpha^j = alpha^i * (1 + alpha^(j - i))
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % (self.q - 1)]
        return 0 if z < 0 else self._exp[(la + z) % (self.q - 1)]

    def neg(self, a: Fe) -> Fe:
        if self.p == 2 or a == 0:
            return a
        if self.m == 1:
            return self.p - a
        return self.mul(a, self._neg_one)

    def sub(self, a: Fe, b: Fe) -> Fe:
        return self.add(a, self.neg(b))

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
