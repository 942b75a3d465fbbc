import hashlib
import itertools
import math
import os
import pickle
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import burstkit
from burstkit import (
    FieldCtx,
    field_from_dict,
    field_from_order,
    field_new,
)
from burstkit import gf
from burstkit.gf import MAX_FIELD_SIZE, _prime_factors


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


# -- the digit-list field build, kept as the reference for the lane build --

def oracle_digits(v, p, n):
    out = []
    for _ in range(n):
        v, d = divmod(v, p)
        out.append(d)
    return out


def oracle_pmod(a, mod, p):
    """a mod the monic mod, digit lists lowest degree first."""
    a = list(a)
    while len(a) >= len(mod):
        c, off = a.pop(), len(a) + 1 - len(mod)
        if c:
            for j in range(len(mod) - 1):
                a[off + j] = (a[off + j] - c * mod[j]) % p
    return a


def oracle_irreducible(f, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    m = len(f) - 1
    return all(
        any(oracle_pmod(f, oracle_digits(v, p, d) + [1], p))
        for d in range(1, m // 2 + 1)
        for v in range(p**d)
    )


def oracle_mul(p, modulus):
    """The product of two canonical indices: a digit-list convolution
    reduced mod the modulus, or the integer product mod p for m = 1."""
    m = len(modulus) - 1
    if m == 1:
        return lambda a, b: a * b % p

    def mul(a, b):
        prod, ys = [0] * (2 * m - 1), oracle_digits(b, p, m)
        for i, x in enumerate(oracle_digits(a, p, m)):
            if x:
                for j, y in enumerate(ys):
                    prod[i + j] = (prod[i + j] + x * y) % p
        return sum(d * p**k for k, d in enumerate(oracle_pmod(prod, modulus, p)))

    return mul


def oracle_power(mul, x, e):
    r = 1
    while e:
        if e & 1:
            r = mul(r, x)
        x, e = mul(x, x), e >> 1
    return r


def oracle_digit_list_build(p, m, modulus=None):
    """(modulus, generator, exp, log, zech) as the digit-list build makes
    them: the first irreducible modulus, the least element of full order,
    and the exp table by repeated multiplication."""
    if modulus is None:
        modulus = next(
            tuple(f) for v in range(p**m) if oracle_irreducible(f := oracle_digits(v, p, m) + [1], p)
        )
    mul, q = oracle_mul(p, modulus), p**m
    gen = 1
    if q > 2:
        facs = _prime_factors(q - 1)
        gen = next(g for g in range(2, q) if all(oracle_power(mul, g, (q - 1) // f) != 1 for f in facs))
    exp = [1] * (q - 1)
    for i in range(1, q - 1):
        exp[i] = mul(exp[i - 1], gen)
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    zech = None
    if p > 2 and m > 1:
        zech = [log[y] if y else -1 for y in (x - x % p + (x % p + 1) % p for x in exp)]
    return modulus, gen, exp, log, zech


def tables(f):
    return f.modulus, f.generator, f._exp, f._log, f._zech


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
    with pytest.raises(ValueError, match="^field size 2097152 exceeds the cap 1048576$"):
        field_from_order(2**21)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldCtx(2, 4, (1, 0, 0, 0, 1))  # x^4 + 1 = (x+1)^4


@pytest.mark.parametrize("modulus", [(1, 0, 4), (4, 0, 1), (-2, 0, 1)], ids=["leading-4", "constant-4", "constant-minus-2"])
def test_modulus_coefficients_outside_the_prime_field_refused(modulus):
    """Each reads as x^2 + 1 once reduced mod 3, and each is refused."""
    message = f"modulus {list(modulus)} has a coefficient outside GF(3)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FieldCtx(3, 2, modulus)


SMALL_DEGREES = [(2, m) for m in range(1, 9)] + [(3, m) for m in range(1, 6)]
SMALL_DEGREES += [(p, m) for p in (5, 7) for m in range(1, 4)] + [(11, 2), (13, 2)]


def test_packed_trial_division_matches_the_digit_list_oracle():
    """The packed-lane trial division agrees with the digit-list one on
    every monic polynomial of these degrees, reducible ones included."""
    for p, m in SMALL_DEGREES:
        polys = [oracle_digits(v, p, m) + [1] for v in range(p**m)]
        verdicts = [gf._is_irreducible(tuple(f), p) for f in polys]
        assert verdicts == [oracle_irreducible(f, p) for f in polys], (p, m)
        assert 0 < sum(verdicts) < len(polys) or m == 1, (p, m)


@pytest.mark.parametrize("p", [3, 5])
def test_every_reducible_modulus_of_a_quadratic_field_is_refused(p):
    reducible = [f for v in range(p * p) if not oracle_irreducible(f := oracle_digits(v, p, 2) + [1], p)]
    assert len(reducible) == p * (p + 1) // 2  # (x - a)(x - b), a <= b
    for modulus in reducible:
        with pytest.raises(ValueError, match="reducible"):
            FieldCtx(p, 2, tuple(modulus))


@pytest.mark.parametrize("p", [0, 1, 9, 1048575])
def test_non_prime_characteristic_refused(p):
    with pytest.raises(ValueError, match="not prime"):
        FieldCtx(p, 1)


def test_element_order_examples(fields):
    f7, f16 = fields[7], fields[16]
    assert f7.order(1) == 1
    assert f7.order(3) == oracle_order(3, 7) == 6
    assert f16.order(f16.generator) == 15
    with pytest.raises(ValueError):
        f7.order(0)
    with pytest.raises(ZeroDivisionError, match="^zero has no multiplicative inverse$"):
        f7.inv(0)
    with pytest.raises(ZeroDivisionError, match="^0 cannot be raised to a negative power$"):
        f16.pow(0, -1)
    with pytest.raises(ValueError, match="^zero has no discrete logarithm$"):
        f16.log(0)
    # an index outside [0, q) is refused, not read modulo the log table
    for a in (-1, 16, 20):
        for method in (f16.log, f16.order):
            with pytest.raises(ValueError, match=rf"^{a} is not an element of GF\(16\)$"):
                method(a)


def _all_small_fields(limit=256):
    out = []
    for p in range(2, limit + 1):
        if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            continue
        m = 1
        while p**m <= limit:
            out.append((p, m))
            m += 1
    return out


def test_lane_build_matches_digit_list_build():
    """Modulus, generator and the exp/log/Zech tables equal the digit-list
    build's for every field of size at most 2^12, GF(2^16), GF(3^8) and
    GF(65521)."""
    for p, m in _all_small_fields(1 << 12) + [(2, 16), (3, 8), (65521, 1)]:
        assert tables(field_new(p, m)) == oracle_digit_list_build(p, m), (p, m)


@pytest.mark.parametrize("p,m", [(2, 4), (2, 8), (3, 3), (5, 2), (7, 2), (3, 5)])
def test_lane_build_matches_digit_list_build_for_every_modulus(p, m):
    """Each monic irreducible modulus of the field, given by the user
    through field_from_dict, builds the digit-list build's tables."""
    moduli = [f for v in range(p**m) if oracle_irreducible(f := oracle_digits(v, p, m) + [1], p)]
    assert len(moduli) > 1
    for modulus in moduli:
        f = field_from_dict({"p": p, "m": m, "modulus": modulus})
        assert tables(f) == oracle_digit_list_build(p, m, tuple(modulus)), modulus


@pytest.mark.parametrize("p,m", [(2, 20), (3, 12)])
def test_fields_at_the_cap(fields, p, m):
    """GF(2^20) and GF(3^12): the generator has order q - 1 under the
    digit-list product, and products, sums and inverses from the tables
    agree with it and obey the field axioms on 3000 seeded triples."""
    f = fields[p**m]
    q = f.q
    assert q <= MAX_FIELD_SIZE < q * p
    mul = oracle_mul(p, f.modulus)
    assert oracle_power(mul, f.generator, q - 1) == 1
    assert all(oracle_power(mul, f.generator, (q - 1) // r) != 1 for r in _prime_factors(q - 1))
    rng = random.Random(q)
    for _ in range(3000):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.mul(a, b) == mul(a, b) == f.mul(b, a)
        assert f.add(a, b) == digitwise_add(a, b, p) == f.add(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.sub(f.add(a, b), b) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1


# sha256 of repr(table) for the largest field of each family under the cap,
# pinned from an independent per-element build of the same tables
CAP_DIGESTS = {
    1 << 20: {
        "modulus": "8fb63258caffcc53b07eb8a97d3526eb75ab2e2a5e87f0dc600c1369282ee98a",
        "generator": "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
        "_exp": "3fcfdab059fa2c31012f747b837808bc01cf3d64bd76ba23927ef6bec9392e95",
        "_log": "3b6a3b5746687edbc429bfeb77edc9c9545fde9b54f3b14cb66af27e170f7d0e",
        "_zech": "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    },
    3**12: {
        "modulus": "c39a3bc701495b8ae126da80619b99a8132dd47227ed4d7292e4dce1544bf997",
        "generator": "8527a891e224136950ff32ca212b45bc93f69fbb801c3b1ebedac52775f99e61",
        "_exp": "9a637c210addd7a72400cf44eef1756388df155906ba13a3ff7305e05d00f9b4",
        "_log": "08221f2fc2f2fcb3be46c3c7dcc3c55383b0828dbfcc8b041e782c7e54a3ac0c",
        "_zech": "fc1f6c7528270679a7f072f7e3f9cd097cd52b54255720b485df71198baaf320",
    },
    1048573: {
        "modulus": "a5cabe61309cbdb1d6a67e597b1659243a076817ce37626014228bde43e86d2d",
        "generator": "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
        "_exp": "17acfd3993f371e7013fa6906d641efc8ad70eaf210e7ed4d23cf59e4ee9e581",
        "_log": "6727697fc906f31e0e1179a92efc173dc5616b5f429e8a882b57eec79e88aef5",
        "_zech": "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    },
}


@pytest.mark.parametrize("q", sorted(CAP_DIGESTS))
def test_tables_at_the_cap_match_their_pinned_digests(fields, q):
    """GF(2^20), GF(3^12) and GF(1048573) build every table element by
    element as pinned: the digit-list oracle is too slow at these sizes.
    No other test uses GF(1048573), so it is built here and not kept for
    the session, which would hold its 80 MiB of tables to the end."""
    f = field_from_order(q) if q == 1048573 else fields[q]
    got = {name: hashlib.sha256(repr(getattr(f, name)).encode()).hexdigest() for name in CAP_DIGESTS[q]}
    assert got == CAP_DIGESTS[q]


def test_cap_field_build_memory():
    """A child process that builds GF(2^20) peaks under 120 MiB: exp and
    log with their int objects take about 80 MiB, and the build adds no
    table-sized set or second copy of either. The child reports the peak
    of its own address space (VmHWM): its ru_maxrss would also count the
    pages of this process, which it shares until it execs."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(burstkit.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "from burstkit import field_new\n"
        "ctx = field_new(2, 20)\n"
        "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert int(run.stdout.split()[-1]) < 120 * 1024  # VmHWM is in KiB


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 81, 65536, 6561, 65521])
def test_mul_div_inv_match_the_reduced_log_sum(fields, q):
    """div and inv index exp with an unreduced log difference; with mul
    they equal exp at the log sum or difference mod q - 1, and mul equals
    the digit-list product: every pair up to q = 16, else a seeded sample
    with 0, 1, the generator and g^(q-2), where the differences reach both
    ends of [-(q-2), q-2]."""
    ctx = fields[q]
    n1, exp, log = q - 1, ctx._exp, ctx._log
    prod = oracle_mul(ctx.p, ctx.modulus)
    top = ctx.pow(ctx.generator, q - 2)
    elements = range(q) if q <= 16 else [0, 1, ctx.generator, top, *random.Random(q).sample(range(2, q), 30)]
    for a in elements:
        for b in elements:
            assert ctx.mul(a, b) == (exp[(log[a] + log[b]) % n1] if a and b else 0) == prod(a, b), (q, a, b)
            if b:
                assert ctx.div(a, b) == (exp[(log[a] - log[b]) % n1] if a else 0), (q, a, b)
                assert ctx.mul(ctx.div(a, b), b) == a
            else:
                with pytest.raises(ZeroDivisionError):
                    ctx.div(a, b)
        if a:
            assert ctx.inv(a) == exp[-log[a] % n1] == ctx.div(1, a)


def test_exp_tables_that_are_not_the_generator_powers_are_refused(monkeypatch):
    """The full-order check rejects an exp table with a repeat (the powers
    of an element of order 5 in GF(16), or one entry overwritten) and a
    permutation that does not start at 1."""
    real = gf._exp_table
    order5 = [1, 8, 12, 10, 15] * 3  # the powers of 8 = x^3, of order 5 modulo x^4 + x + 1
    for bad in (lambda e: order5, lambda e: e[:-1] + [e[1]], lambda e: e[1:] + e[:1]):

        def corrupted(p, m, modulus, bad=bad):
            gen, exp = real(p, m, modulus)
            return gen, bad(exp)

        monkeypatch.setattr(gf, "_exp_table", corrupted)
        with pytest.raises(AssertionError, match="full order"):
            FieldCtx(2, 4)


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


@pytest.mark.parametrize("q", [9, 25, 27, 81, 6561])
def test_odd_pm_neg_negates_every_digit(fields, q):
    """neg(a) negates each base-p digit mod p, neg(0) == 0, and
    sub(a, b) == digitwise_add(a, neg(b)): every element and pair up to
    q = 81, a seeded 2,000-element sample of GF(6561) paired with a
    shuffle of itself."""
    f = fields[q]
    if q <= 81:
        elements = range(q)
        pairs = itertools.product(elements, repeat=2)
    else:
        rng = random.Random(q)
        elements = rng.sample(range(1, q), 1999) + [0]
        pairs = zip(elements, rng.sample(elements, len(elements)))
    assert f.neg(0) == 0
    for a in elements:
        digits = oracle_digits(a, f.p, f.m)
        assert f.neg(a) == sum(-d % f.p * f.p**k for k, d in enumerate(digits)), (q, a)
    for a, b in pairs:
        assert f.sub(a, b) == digitwise_add(a, f.neg(b), f.p), (q, a, b)


def test_serialization_round_trip(fields):
    for f in (fields[16], fields[7], fields[4]):
        g = field_from_dict(f.to_dict())
        assert g == f
        assert g.generator == f.generator


def test_pickle_round_trip_keeps_tables_and_row_kernel(fields):
    for f in (fields[16], fields[7], fields[9]):
        g = pickle.loads(pickle.dumps(f))
        assert g == f and tables(g) == tables(f)
        assert g.axpy(2, [1, 0, 3], [1, 2, 0]) == f.axpy(2, [1, 0, 3], [1, 2, 0])
        assert [g.add(3, b) for b in range(f.q)] == [f.add(3, b) for b in range(f.q)]
        assert [g.neg(a) for a in range(f.q)] == [f.neg(a) for a in range(f.q)]


def test_field_from_order(fields):
    f = field_from_order(16)
    assert (f.p, f.m) == (2, 4)
    assert field_from_order(7).p == 7
    with pytest.raises(ValueError):
        field_from_order(12)


# -- the row kernel against the per-element multiply-add -------------------

@pytest.mark.parametrize("q", [2, 3, 4, 9, 13, 16, 81, 65536, 6561, 65521])
def test_axpy_matches_per_element_multiply_add(fields, q):
    """FieldCtx.axpy(f, xs, ys) == [add(x, mul(f, y))] on each family:
    every (f, x, y) up to q = 16, else a seeded sample of 33 elements with
    0, 1 and the generator^(q-2) whose log sum with itself is the largest,
    where the p = 2 kernel's exp index wraps. Rows also pair each y with
    x = -(f*y), so the Zech sum hits zero."""
    ctx = fields[q]
    top = ctx.pow(ctx.generator, q - 2)
    elements = range(q) if q <= 16 else [0, 1, top, *random.Random(q).sample(range(2, q), 30)]
    pairs = [(x, y) for x in elements for y in elements]
    for f in elements:
        cancel = [(ctx.neg(ctx.mul(f, y)), y) for y in elements]
        xs, ys = zip(*pairs, *cancel)
        assert ctx.axpy(f, xs, ys) == [ctx.add(x, ctx.mul(f, y)) for x, y in zip(xs, ys)], (q, f)
