import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstkit import (
    FieldCtx,
    field_from_dict,
    field_from_order,
    field_new,
)


# -- independent oracles -------------------------------------------------

def oracle_first_irreducible(p, m):
    """Scan monic degree-m polynomials in coefficient packing order and
    return the first irreducible, deciding irreducibility by checking
    for factorizations directly."""

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def monics(d):
        for v in range(p**d):
            c = []
            vv = v
            for _ in range(d):
                vv, r = divmod(vv, p)
                c.append(r)
            yield c + [1]

    def reducible(f):
        m_ = len(f) - 1
        for d in range(1, m_ // 2 + 1):
            for g in monics(d):
                for h in monics(m_ - d):
                    prod = mul(g, h)
                    if prod == f:
                        return True
        return False

    for cand in monics(m):
        if not reducible(cand):
            return tuple(cand)
    raise AssertionError


def oracle_order(x, p):
    d = 1
    acc = x % p
    while acc != 1:
        acc = (acc * x) % p
        d += 1
    return d


def test_gf2_trivial():
    f = field_new(2, 1)
    assert (f.p, f.m, f.q) == (2, 1, 2)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1


def test_gf16_modulus_is_first_irreducible():
    f = field_new(2, 4)
    assert f.modulus == oracle_first_irreducible(2, 4)
    assert f.modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1


def test_gf9_modulus_is_first_irreducible():
    f = field_new(3, 2)
    assert f.modulus == oracle_first_irreducible(3, 2)
    assert f.modulus == (1, 0, 1)  # x^2 + 1


def test_gf7_generator_least_primitive_root():
    f = field_new(7, 1)
    least = next(g for g in range(2, 7) if oracle_order(g, 7) == 6)
    assert f.generator == least == 3


def test_field_new_rejects_bad_parameters():
    with pytest.raises(ValueError):
        field_new(4, 1)
    with pytest.raises(ValueError):
        field_new(2, 0)
    with pytest.raises(ValueError):
        field_new(2, 21)  # 2^21 > cap


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldCtx(2, 4, (1, 0, 0, 0, 1))  # x^4 + 1 = (x+1)^4


def test_element_order_examples(fields):
    f7, f16 = fields[7], fields[16]
    assert f7.order(1) == 1
    assert f7.order(3) == oracle_order(3, 7) == 6
    assert f16.order(f16.generator) == 15
    with pytest.raises(ValueError):
        f7.order(0)


def _all_small_fields():
    out = []
    for p in range(2, 257):
        if any(p % d == 0 for d in range(2, p)):
            continue
        m = 1
        while p**m <= 256:
            out.append((p, m))
            m += 1
    return out


def test_field_axioms_exhaustive_pairs():
    """Commutativity and subtraction/inverse round trips on every pair,
    for every field of size at most 256."""
    for p, m in _all_small_fields():
        f = field_new(p, m)
        q = f.q
        for a in range(q):
            for b in range(q):
                s = f.add(a, b)
                assert s == f.add(b, a)
                assert f.sub(s, b) == a
                assert f.mul(a, b) == f.mul(b, a)
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1
        # log/antilog round trip
        for a in range(1, q):
            assert f.pow(f.generator, f.log(a)) == a


def test_field_axioms_random_triples():
    rng = random.Random(42)
    for p, m in ((2, 4), (3, 2), (5, 1), (7, 1), (13, 1), (17, 1), (2, 8)):
        f = field_new(p, m)
        for _ in range(300):
            a, b, c = (rng.randrange(f.q) for _ in range(3))
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def digitwise_add(a, b, p):
    """Addition of two packed base-p digit vectors, digit by digit mod p."""
    out, weight = 0, 1
    while a or b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        out += (da + db) % p * weight
        weight *= p
    return out


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 8)])
def test_zech_add_is_digitwise_addition(p, m):
    """Odd p^m addition through Zech logarithms: every pair for the small
    fields, 20000 random pairs (zero and negatives included) for GF(3^8)."""
    f = field_new(p, m)
    if f.q < 100:
        pairs = itertools.product(range(f.q), repeat=2)
    else:
        rng = random.Random(f.q)
        draws = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(20000)]
        pairs = draws + [(a, f.neg(a)) for a, _ in draws[:100]] + [(0, 5), (5, 0), (0, 0)]
    for a, b in pairs:
        assert f.add(a, b) == digitwise_add(a, b, p)


@settings(max_examples=200, derandomize=True)
@given(st.integers(1, 15), st.integers(0, 40), st.integers(0, 40))
def test_power_law(x, a, b):
    f = field_new(2, 4)
    assert f.mul(f.pow(x, a), f.pow(x, b)) == f.pow(x, a + b)


def test_order_divides_group_order(fields):
    for f in (fields[16], fields[7], fields[13]):
        for k in range(f.q - 1):
            g = f.pow(f.generator, k)
            d = f.order(g)
            assert (f.q - 1) % d == 0
            assert d == (f.q - 1) // math.gcd(k, f.q - 1)
            assert f.pow(g, d) == 1


def test_neg_matches_add_inverse(fields):
    for f in (fields[2], fields[3], fields[16], fields[17], fields[8]):
        for a in range(f.q):
            assert f.add(a, f.neg(a)) == 0


def test_serialization_round_trip(fields):
    for f in (fields[16], fields[7], fields[4]):
        g = field_from_dict(f.to_dict())
        assert g == f
        assert g.generator == f.generator


def test_field_from_order(fields):
    f = field_from_order(16)
    assert (f.p, f.m) == (2, 4)
    assert field_from_order(7).p == 7
    with pytest.raises(ValueError):
        field_from_order(12)
