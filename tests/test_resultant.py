import random
from itertools import accumulate, combinations, pairwise, permutations, repeat

import pytest

from burstkit import (
    RelationWitness,
    ResultantInstance,
    boundary_instance,
    coeff_band,
    det_product_form,
    det_stacked,
    determinant,
    field_new,
    find_kernel_relation,
    find_ratio_collision,
    leading_constant,
    poly_eval,
    poly_from_roots,
    root_run_poly,
    sample_instance,
    stacked_matrix,
    vandermonde,
    verify_relation,
)
from burstkit.matpoly import left_null_space, poly_trim
from burstkit.resultant import order_at_least


def classical_resultant(inst):
    """Textbook two-polynomial resultant from the root lists:
    prod over roots b of the second block and a of the first of (b - a)."""
    assert inst.ell == 1
    ctx = inst.ctx
    roots0 = [ctx.mul(inst.beta[0], ctx.pow(inst.alpha, j)) for j in range(inst.taus[0])]
    roots1 = [ctx.mul(inst.beta[1], ctx.pow(inst.alpha, j)) for j in range(inst.taus[1])]
    acc = 1
    for b in roots1:
        for a in roots0:
            acc = ctx.mul(acc, ctx.sub(b, a))
    return acc


def test_instance_validation():
    f7 = field_new(7, 1)
    with pytest.raises(ValueError):
        ResultantInstance(f7, 3, (2,), (1,))  # needs two blocks
    with pytest.raises(ValueError):
        ResultantInstance(f7, 3, (1, 1), (1, 0))  # zero beta
    with pytest.raises(ValueError):
        ResultantInstance(f7, 3, (1, 0), (1, 1))  # zero block size
    with pytest.raises(ValueError):
        ResultantInstance(f7, 6, (4, 3), (1, 1))  # order(6) = 2 < r = 7
    with pytest.raises(ValueError, match="^mu and beta must have the same length$"):
        ResultantInstance(f7, 3, (1, 1), (1, 2, 3))
    with pytest.raises(ValueError, match=r"^r must be at least ell \+ 1$"):
        sample_instance(f7, random.Random(0), 2, 2)
    inst = ResultantInstance(f7, 3, (2, 1), (1, 2))
    assert inst.r == 3 and inst.taus == (1, 2) and inst.prefix_sums == (2, 3)


def test_root_run_poly_examples():
    f5 = field_new(5, 1)
    inst = ResultantInstance(f5, 2, (1, 1), (1, 3))
    assert root_run_poly(inst, 0) == (4, 1)  # x - 1
    inst2 = ResultantInstance(f5, 2, (2, 1), (1, 1))
    assert root_run_poly(inst2, 1) == (2, 2, 1)  # (x-1)(x-2)
    # degenerate single-root-block sanity: monic of degree tau_i, right roots
    for i in (0, 1):
        p = root_run_poly(inst2, i)
        assert p[-1] == 1 and len(p) - 1 == inst2.taus[i]
        for j in range(inst2.taus[i]):
            root = f5.mul(inst2.beta[i], f5.pow(2, j))
            assert poly_eval(f5, p, root) == 0


def test_coeff_band_shape():
    f5 = field_new(5, 1)
    inst = ResultantInstance(f5, 2, (1, 1), (1, 3))
    assert coeff_band(inst, 0).to_rows() == [[4, 1]]
    # banded shift: row h is row 0 moved right by h, and the top
    # coefficient of every band is 1 (the polynomials are monic)
    f13 = field_new(13, 1)
    inst2 = ResultantInstance(f13, f13.generator, (3, 2), (2, 4))
    band = coeff_band(inst2, 0)
    assert band.rows == 3 and band.cols == 5
    row0 = band.row(0)
    for h in range(1, band.rows):
        assert band.row(h) == [0] * h + row0[: band.cols - h]
    coeffs = root_run_poly(inst2, 0)
    assert coeffs[-1] == 1


def test_stacked_matrix_square_and_sylvester_shape():
    f7 = field_new(7, 1)
    inst = ResultantInstance(f7, 3, (2, 2), (1, 2))
    a = stacked_matrix(inst)
    assert a.rows == a.cols == 4
    # two blocks: the stack is the Sylvester arrangement, i.e. the shift
    # rows of each polynomial, deg(other) of them apiece
    m0 = root_run_poly(inst, 0)
    m1 = root_run_poly(inst, 1)
    assert inst.mu[0] == len(m1) - 1 and inst.mu[1] == len(m0) - 1
    assert a.row(0)[:3] == list(m0) and a.row(1)[1:4] == list(m0)
    assert a.row(2)[:3] == list(m1) and a.row(3)[1:4] == list(m1)


def test_det_examples():
    f5 = field_new(5, 1)
    inst = ResultantInstance(f5, 2, (1, 1), (1, 3))
    assert det_stacked(inst) == 2  # beta_1 - beta_0
    assert det_product_form(inst) == 2
    # coinciding parameters: singular
    sing = ResultantInstance(f5, 2, (1, 1), (3, 3))
    assert det_stacked(sing) == det_product_form(sing) == 0


def test_leading_constant_examples():
    f5 = field_new(5, 1)
    f7 = field_new(7, 1)
    assert leading_constant(f5, 2, (1, 1)) == 1
    assert leading_constant(f7, 3, (3,)) == 1  # single block: empty products
    assert leading_constant(f7, 3, (1, 1, 1)) == 5  # hand-expanded value
    with pytest.raises(ValueError, match="^block sizes must be positive$"):
        leading_constant(f7, 3, (1, 0))
    with pytest.raises(ValueError, match="^alpha must have multiplicative order at least r = 4$"):
        leading_constant(f7, 6, (2, 2))  # order(6) = 2
    # an index outside [0, q) is refused, not read modulo the log table
    for alpha in (-1, 20):
        with pytest.raises(ValueError, match=rf"^{alpha} is not an element of GF\(13\)$"):
            leading_constant(field_new(13, 1), alpha, (1, 1))


def test_leading_constant_is_the_beta_independent_factor():
    """Solve for the constant from one nonsingular assignment, then
    confirm the same value across 100 random draws."""
    f7 = field_new(7, 1)
    rng = random.Random(2)
    mu = (1, 1, 1)
    kappa = leading_constant(f7, 3, mu)
    hits = 0
    while hits < 100:
        beta = tuple(rng.randrange(1, 7) for _ in range(3))
        inst = ResultantInstance(f7, 3, mu, beta)
        d = det_stacked(inst)
        if d == 0:
            continue
        prod = 1
        for i in range(3):
            for k in range(i + 1, 3):
                prod = f7.mul(prod, f7.sub(beta[k], beta[i]))
        assert f7.div(d, prod) == kappa
        hits += 1


def test_master_identity_random_corpus():
    rng = random.Random(101)
    for p, m in ((13, 1), (2, 4), (17, 1)):
        ctx = field_new(p, m)
        for _ in range(250):
            ell = rng.randint(1, 3)
            r = rng.randint(ell + 1, 10)
            inst = sample_instance(ctx, rng, ell, r)
            assert det_stacked(inst) == det_product_form(inst)


def test_product_form_vanishing_factor():
    # beta_1 = beta_0 * alpha^t with 0 <= t < mu_1 kills one factor
    f13 = field_new(13, 1)
    alpha = f13.generator
    inst = ResultantInstance(f13, alpha, (2, 2), (3, f13.mul(3, alpha)))
    assert det_product_form(inst) == 0 == det_stacked(inst)


def test_ratio_collision_examples():
    f7 = field_new(7, 1)
    sing = ResultantInstance(f7, 3, (1, 1), (4, 4))
    assert find_ratio_collision(sing) == (0, 1, 0)
    # ratio is alpha^1 but the range for mu = (1, 1) admits only t = 0
    inst = ResultantInstance(f7, 3, (1, 1), (1, 3))
    assert find_ratio_collision(inst) is None
    # t = mu_k sits just outside the admissible range
    f13 = field_new(13, 1)
    alpha = f13.generator
    out = ResultantInstance(f13, alpha, (2, 2), (1, f13.pow(alpha, 2)))
    assert find_ratio_collision(out) is None
    ins = ResultantInstance(f13, alpha, (2, 2), (1, f13.pow(alpha, 1)))
    assert find_ratio_collision(ins) == (0, 1, 1)


def power_scan(inst):
    """find_ratio_collision's contract by powering: the first (i, k, t),
    t in (-mu_i, mu_k) by |t| with t >= 0 first, where
    beta_k / beta_i = alpha^t."""
    ctx = inst.ctx
    for i in range(inst.ell + 1):
        for k in range(inst.ell + 1):
            if k == i:
                continue
            for t in sorted(range(1 - inst.mu[i], inst.mu[k]), key=lambda t: (abs(t), t < 0)):
                if ctx.div(inst.beta[k], inst.beta[i]) == ctx.pow(inst.alpha, t):
                    return (i, k, t)
    return None


def test_ratio_collision_matches_the_power_scan(fields):
    """The discrete-log comparison returns the power scan's triple on
    random and boundary instances over prime and extension fields, and on
    the tiny-field instances with alpha of order exactly r, where a
    kernel relation exists iff a ratio collides and replays as one."""
    rng = random.Random(101)
    seen = set()
    for p, m in ((13, 1), (2, 4), (3, 3), (17, 1), (3, 4)):
        ctx = field_new(p, m)
        for kind in (None, "-mu_i", "mu_k-1", "mu_k"):
            for _ in range(60):
                ell = rng.randint(1, 3)
                r = rng.randint(ell + 1, 9)
                inst = sample_instance(ctx, rng, ell, r) if kind is None else boundary_instance(ctx, rng, ell, r, kind)
                found = find_ratio_collision(inst)
                assert found == power_scan(inst)
                seen.add(found is None)
    assert seen == {True, False}
    tiny = 0
    for inst in tiny_field_instances(fields):
        found = find_ratio_collision(inst)
        assert found == power_scan(inst), (inst.ctx, inst)
        rel = find_kernel_relation(inst)
        assert (rel is None) == (found is None), (inst.ctx, inst)
        if rel is not None:
            assert verify_relation(inst, rel)
            replay_with_the_oracles(inst, rel)
        tiny += 1
    assert tiny == 552


@pytest.mark.parametrize(
    "kind,pinned_t",
    [
        ("-mu_i", lambda mu, i, k: -mu[i]),
        ("mu_k-1", lambda mu, i, k: mu[k] - 1),
        ("mu_k", lambda mu, i, k: mu[k]),
        ("mu_i", None),
    ],
    ids=["-mu_i", "mu_k-1", "mu_k", "unknown-mu_i"],
)
def test_boundary_instance_pins_one_ratio(fields, kind, pinned_t):
    """Some ordered pair (i, k) has beta_k / beta_i = alpha^t with the
    kind's t. An unknown kind raises ValueError after the same rng draws
    as a known one."""
    rng = random.Random(17)
    for q in (13, 16, 17):
        ctx = fields[q]
        for _ in range(40):
            ell = rng.randint(1, 3)
            r = rng.randint(ell + 1, 9)
            if pinned_t is None:
                state = rng.getstate()
                with pytest.raises(ValueError, match="unknown boundary kind 'mu_i'"):
                    boundary_instance(ctx, rng, ell, r, kind)
                after = rng.getstate()
                rng.setstate(state)
                boundary_instance(ctx, rng, ell, r, "mu_k")
                assert rng.getstate() == after
                continue
            inst = boundary_instance(ctx, rng, ell, r, kind)
            assert any(
                ctx.div(inst.beta[k], inst.beta[i]) == ctx.pow(inst.alpha, pinned_t(inst.mu, i, k))
                for i, k in permutations(range(ell + 1), 2)
            ), (ctx, inst)


def test_order_at_least_matches_the_order_walk(fields):
    """The subgroup form lists what walking every element's order lists:
    every r up to q + 5 for q <= 17, and r around the divisors of 65535
    over GF(2^16)."""
    cases = [(fields[q], range(q + 6)) for q in (2, 3, 4, 5, 7, 8, 9, 13, 16, 17)]
    cases.append((fields[65536], (1, 2, 3, 4, 10, 16, 18, 256, 258, 4370, 21845, 21846, 65535, 65536, 65541)))
    for ctx, rs in cases:
        orders = [(x, ctx.order(x)) for x in ctx.nonzero_elements()]
        for r in rs:
            assert order_at_least(ctx, r) == [x for x, o in orders if o >= r], (ctx, r)


def oracle_sample_instance(ctx, rng, ell, r):
    """The list-building draw, kept as the reference for sample_instance."""
    alpha = rng.choice(order_at_least(ctx, r))
    cuts = [0, *sorted(rng.sample(range(1, r), ell)), r]
    mu = tuple(b - a for a, b in zip(cuts, cuts[1:]))
    beta = tuple(rng.randrange(1, ctx.q) for _ in range(ell + 1))
    return ResultantInstance(ctx, alpha, mu, beta)


def test_sample_instance_draws_as_choice_over_order_at_least(fields):
    """sample_instance returns the instance that rng.choice over the
    order_at_least list gives, and leaves the stream where it leaves it:
    every r from ell + 1 to q + 2 for q <= 17 (so some fields have no
    candidate), and r around divisors of q - 1 over GF(81) and GF(2^16)."""
    cases = [(fields[q], range(2, q + 3)) for q in (2, 3, 4, 5, 7, 8, 9, 13, 16, 17)]
    cases += [(fields[81], (2, 3, 5, 6, 9, 11, 17, 40, 41, 80, 81)), (fields[65536], (2, 4, 6, 18, 256, 258))]
    for ctx, rs in cases:
        for r in rs:
            for seed in range(3 if ctx.q > 81 else 12):
                ell = 1 + seed % min(3, r - 1)
                got, want = random.Random(seed), random.Random(seed)
                try:
                    expected = oracle_sample_instance(ctx, want, ell, r)
                except IndexError:  # rng.choice on an empty list
                    with pytest.raises(ValueError):
                        sample_instance(ctx, got, ell, r)
                    continue
                inst = sample_instance(ctx, got, ell, r)
                assert (inst.alpha, inst.mu, inst.beta) == (expected.alpha, expected.mu, expected.beta), (ctx, r, seed)
                assert got.getstate() == want.getstate()


def test_kernel_relation_examples():
    f5 = field_new(5, 1)
    nonsing = ResultantInstance(f5, 2, (1, 1), (1, 3))
    assert find_kernel_relation(nonsing) is None
    sing = ResultantInstance(f5, 2, (1, 1), (3, 3))
    w = find_kernel_relation(sing)
    assert w is not None and verify_relation(sing, w)
    # identical blocks cancel through constant multipliers
    assert all(len(p) <= 1 for p in w.polys)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda polys: (*polys, ()),
        lambda polys: tuple(() for _ in polys),
        # x times a relation is a relation, but each block reaches degree mu_i = 1
        lambda polys: tuple((0, *p) if p else p for p in polys),
    ],
    ids=["block-count", "all-zero", "degree-mu_i"],
)
def test_verify_relation_rejects_a_tampered_relation(fields, tamper):
    sing = ResultantInstance(fields[5], 2, (1, 1), (3, 3))
    w = find_kernel_relation(sing)
    assert verify_relation(sing, w)
    assert verify_relation(sing, RelationWitness(tamper(w.polys))) is False


def test_kernel_collision_equivalence_with_boundaries():
    rng = random.Random(77)
    for p, m in ((13, 1), (2, 4), (17, 1)):
        ctx = field_new(p, m)
        for _ in range(120):
            ell = rng.randint(1, 3)
            r = rng.randint(ell + 1, 9)
            inst = sample_instance(ctx, rng, ell, r)
            rel = find_kernel_relation(inst)
            coll = find_ratio_collision(inst)
            assert (rel is None) == (coll is None)
            if rel is not None:
                assert verify_relation(inst, rel)
        for kind in ("-mu_i", "mu_k-1", "mu_k"):
            for _ in range(25):
                ell = rng.randint(1, 3)
                r = rng.randint(ell + 1, 9)
                inst = boundary_instance(ctx, rng, ell, r, kind)
                rel = find_kernel_relation(inst)
                coll = find_ratio_collision(inst)
                assert (rel is None) == (coll is None)
                if kind == "mu_k-1":
                    assert coll is not None  # pinned inside the range
                if rel is not None:
                    assert verify_relation(inst, rel)


def test_nonvanishing_at_stepped_powers():
    """The assignment beta_i = alpha^(r_i) always gives a nonzero
    determinant."""
    rng = random.Random(5)
    for p, m in ((13, 1), (2, 4), (17, 1)):
        ctx = field_new(p, m)
        for _ in range(60):
            ell = rng.randint(1, 3)
            r = rng.randint(ell + 1, 9)
            base = sample_instance(ctx, rng, ell, r)
            beta_star = tuple(ctx.pow(base.alpha, ri) for ri in base.prefix_sums)
            inst = ResultantInstance(ctx, base.alpha, base.mu, beta_star)
            assert det_stacked(inst) != 0


def test_two_block_reduction_to_classical_resultant():
    rng = random.Random(55)
    for p, m in ((13, 1), (2, 4), (17, 1)):
        ctx = field_new(p, m)
        for _ in range(80):
            r = rng.randint(2, 9)
            inst = sample_instance(ctx, rng, 1, r)
            assert det_stacked(inst) == classical_resultant(inst)
            assert det_product_form(inst) == classical_resultant(inst)


def test_all_unit_blocks_reduce_to_vandermonde():
    """With every block of size one the determinant is the leading
    constant times the Vandermonde determinant of the beta nodes,
    computed here through the matrix path as an independent check."""
    rng = random.Random(31)
    f13 = field_new(13, 1)
    for _ in range(60):
        ell = rng.randint(1, 3)
        r = ell + 1
        inst = sample_instance(f13, rng, ell, r)
        v = determinant(vandermonde(f13, inst.beta))
        kappa = leading_constant(f13, inst.alpha, inst.mu)
        assert det_stacked(inst) == f13.mul(kappa, v)


def test_cross_block_degree_bookkeeping():
    """Each beta_i occurs mu_i * tau_i times in the product form."""
    rng = random.Random(13)
    f17 = field_new(17, 1)
    for _ in range(40):
        ell = rng.randint(1, 3)
        r = rng.randint(ell + 1, 10)
        inst = sample_instance(f17, rng, ell, r)
        counts = [0] * (ell + 1)
        for i in range(ell + 1):
            for k in range(i + 1, ell + 1):
                counts[i] += inst.mu[i] * inst.mu[k]
                counts[k] += inst.mu[i] * inst.mu[k]
        for i in range(ell + 1):
            assert counts[i] == inst.mu[i] * inst.taus[i]


# -- the multiplicative closed form and product-built roots, as oracles ----

BOUNDARY_KINDS = ("-mu_i", "mu_k-1", "mu_k")


def oracle_poly_mul(ctx, a, b):
    """Schoolbook product, one field multiply-add per coefficient pair."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = ctx.add(out[i + j], ctx.mul(x, y))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def oracle_root_run_poly(inst, i):
    """prod (x - beta_i alpha^j) over j < tau_i, one linear factor at a
    time through the schoolbook product, each root from its own power."""
    ctx = inst.ctx
    out = (1,)
    for j in range(inst.taus[i]):
        root = ctx.mul(inst.beta[i], ctx.pow(inst.alpha, j))
        out = oracle_poly_mul(ctx, out, (ctx.neg(root), 1))
    return out


def oracle_power_node_vdet(ctx, alpha, k):
    acc = 1
    pows = [ctx.pow(alpha, j) for j in range(k)]
    for s in range(k):
        for t in range(s + 1, k):
            acc = ctx.mul(acc, ctx.sub(pows[t], pows[s]))
    return acc


def oracle_leading_constant(ctx, alpha, mu):
    """kappa as a product of field elements: alpha^(P-N) * detV(r)^(-2)
    * prod_i detV(mu_i)^2 * prod_{s<mu_i<=t<r} (alpha^t - alpha^s)."""
    r = sum(mu)
    exponent = sum(m * (r - m) * (r - m - 1) // 2 for m in mu)
    pows = [ctx.pow(alpha, j) for j in range(r)]
    vr = oracle_power_node_vdet(ctx, alpha, r)
    acc = ctx.mul(ctx.pow(alpha, exponent), ctx.inv(ctx.mul(vr, vr)))
    for m_i in mu:
        v = oracle_power_node_vdet(ctx, alpha, m_i)
        acc = ctx.mul(acc, ctx.mul(v, v))
        for s in range(m_i):
            for t in range(m_i, r):
                acc = ctx.mul(acc, ctx.sub(pows[t], pows[s]))
    return acc


def oracle_det_product_form(inst):
    ctx = inst.ctx
    acc = oracle_leading_constant(ctx, inst.alpha, inst.mu)
    pows = [ctx.pow(inst.alpha, j) for j in range(max(inst.mu))]
    for i in range(inst.ell + 1):
        for k in range(i + 1, inst.ell + 1):
            for s in range(inst.mu[i]):
                lhs = ctx.mul(inst.beta[k], pows[s])
                for t in range(inst.mu[k]):
                    acc = ctx.mul(acc, ctx.sub(lhs, ctx.mul(inst.beta[i], pows[t])))
    return acc


def seeded_corpus(fields, seed, orders, count, max_r):
    """count instances per field order; every fourth on the collision
    boundary, cycling over the three boundary kinds."""
    rng = random.Random(seed)
    for q in orders:
        for n in range(count):
            ell = rng.randint(1, 3)
            r = rng.randint(ell + 1, max_r)
            if n % 4 == 3:
                yield boundary_instance(fields[q], rng, ell, r, BOUNDARY_KINDS[n // 4 % 3])
            else:
                yield sample_instance(fields[q], rng, ell, r)


def tiny_field_instances(fields):
    """Over GF(3/4/5/7/8/9): every alpha of order r >= 2, with the blocks
    mu = (1, r - 1) and (r - 1, 1), so a band reads the gap table up to
    its last entry d[order(alpha) - 1], with beta_0 = 1 or the generator
    and every beta_1."""
    for q in (3, 4, 5, 7, 8, 9):
        ctx = fields[q]
        for alpha in ctx.nonzero_elements():
            r = ctx.order(alpha)
            if r < 2:
                continue
            for mu in dict.fromkeys(((1, r - 1), (r - 1, 1))):
                for b0 in (1, ctx.generator):
                    for b1 in ctx.nonzero_elements():
                        yield ResultantInstance(ctx, alpha, mu, (b0, b1))


def running_product_root_run_poly(inst, i):
    """root_run_poly's former product-built path: poly_from_roots over the
    running product beta_i * alpha^j, j < tau_i."""
    roots = accumulate(repeat(inst.alpha, inst.taus[i] - 1), inst.ctx.mul, initial=inst.beta[i])
    return poly_from_roots(inst.ctx, roots)


def check_against_the_oracles(inst):
    ctx = inst.ctx
    assert leading_constant(ctx, inst.alpha, inst.mu) == oracle_leading_constant(ctx, inst.alpha, inst.mu)
    closed = det_product_form(inst)
    assert closed == oracle_det_product_form(inst) == det_stacked(inst), (ctx, inst)
    for i in range(inst.ell + 1):
        assert root_run_poly(inst, i) == oracle_root_run_poly(inst, i) == running_product_root_run_poly(inst, i), (ctx, inst, i)
    return closed


def test_log_sum_closed_form_and_running_roots_match_the_oracles(fields):
    """leading_constant, det_product_form and root_run_poly against the
    multiplicative forms and the product-built roots, over prime, 2^m
    and odd p^m fields up to GF(2^16) with r up to 12, and over the tiny
    fields with alpha of order exactly r."""
    singular = sum(
        check_against_the_oracles(inst) == 0
        for inst in seeded_corpus(fields, 1313, (13, 16, 17, 81, 256, 65536), 32, 12)
    )
    assert 0 < singular < 6 * 32
    tiny = [check_against_the_oracles(inst) == 0 for inst in tiny_field_instances(fields)]
    assert 0 < sum(tiny) < len(tiny)


def replay_with_the_oracles(inst, rel):
    """sum_i u_i * M_i = 0 by the schoolbook product and the
    product-built block polynomials, with deg u_i < mu_i and not all u_i zero."""
    ctx = inst.ctx
    assert len(rel.polys) == inst.ell + 1 and any(rel.polys)
    total = [0] * inst.r
    for i, u_i in enumerate(rel.polys):
        assert len(u_i) <= inst.mu[i]
        for j, c in enumerate(oracle_poly_mul(ctx, u_i, oracle_root_run_poly(inst, i))):
            total[j] = ctx.add(total[j], c)
    assert total == [0] * inst.r, (ctx, inst, rel)


def test_kernel_relation_exists_iff_the_determinant_vanishes(fields):
    """The forward-only null space: no relation exactly when det != 0, and
    each relation replays through the oracles."""
    singular = 0
    for inst in seeded_corpus(fields, 500, (13, 16, 17, 81), 125, 10):
        det = det_stacked(inst)
        rel = find_kernel_relation(inst)
        assert (rel is None) == (det != 0), (inst.ctx, inst)
        if rel is not None:
            replay_with_the_oracles(inst, rel)
        singular += det == 0
    assert 0 < singular < 500


def instances_of_every_composition(fields, rng, q, max_r):
    """Every composition of each r <= max_r into 2-4 blocks, so the widest
    block sits in every position and ties for it, once with free betas and
    once with beta_k = beta_i * alpha^t for a t inside the collision range."""
    ctx = fields[q]
    for r in range(2, max_r + 1):
        alphas = order_at_least(ctx, r)
        for ell in range(1, min(3, r - 1) + 1):
            for cuts in combinations(range(1, r), ell):
                mu = tuple(b - a for a, b in pairwise((0, *cuts, r)))
                alpha = rng.choice(alphas)
                beta = [rng.randrange(1, q) for _ in mu]
                yield ResultantInstance(ctx, alpha, mu, tuple(beta))
                i, k = rng.sample(range(ell + 1), 2)
                beta[k] = ctx.mul(beta[i], ctx.pow(alpha, rng.randrange(1 - mu[i], mu[k])))
                yield ResultantInstance(ctx, alpha, mu, tuple(beta))


def reduction_corpus(fields):
    """Seeded corpora over prime, 2^m and odd p^m fields up to GF(2^16)
    with r up to 12, the tiny fields with alpha of order exactly r, and
    every composition of r <= 8 into 2-4 blocks over GF(13/16/81)."""
    rng = random.Random(29)
    return [
        *seeded_corpus(fields, 2929, (13, 16, 17, 81, 256, 65536), 32, 12),
        *tiny_field_instances(fields),
        *(inst for q in (13, 16, 81) for inst in instances_of_every_composition(fields, rng, q, 8)),
    ]


def test_det_stacked_matches_the_stacked_determinant(fields):
    """The reduction modulo the widest block against the full elimination
    of the stacked matrix, with the widest block in every position and
    tied for in every position but the last."""
    corpus = reduction_corpus(fields)
    singular = 0
    for inst in corpus:
        det = det_stacked(inst)
        assert det == determinant(stacked_matrix(inst)), (inst.ctx, inst)
        singular += det == 0
    assert 0 < singular < len(corpus)
    widest = {(inst.mu.index(max(inst.mu)), inst.mu.count(max(inst.mu)) > 1) for inst in corpus}
    assert widest == {(p, tie) for p in range(4) for tie in (False, True)} - {(3, True)}


def test_kernel_relation_is_the_first_canonical_left_kernel_vector(fields):
    """find_kernel_relation reassembles left_null_space(S)[0] of the
    stacked matrix S, and is None exactly when that basis is empty."""
    for inst in reduction_corpus(fields):
        basis = left_null_space(stacked_matrix(inst))
        rel = find_kernel_relation(inst)
        want = None if not basis else tuple(poly_trim(basis[0][e - m : e]) for m, e in zip(inst.mu, inst.prefix_sums))
        assert (None if rel is None else rel.polys) == want, (inst.ctx, inst)


def pinned_pairs(ctx, rng, alpha, mu):
    """The instance (alpha, mu) with free betas, then once per block pair
    i < k with beta_k = beta_i * alpha^t for a t inside the collision range."""
    beta = tuple(rng.randrange(1, ctx.q) for _ in mu)
    yield ResultantInstance(ctx, alpha, mu, beta)
    for i, k in combinations(range(len(mu)), 2):
        pinned = list(beta)
        pinned[k] = ctx.mul(beta[i], ctx.pow(alpha, rng.randrange(1 - mu[i], mu[k])))
        yield ResultantInstance(ctx, alpha, mu, tuple(pinned))


def kernel_corpus(fields):
    """Every composition of r into 2-4 blocks, each through pinned_pairs:
    over GF(4/5/7/8/9) for every alpha whose order is exactly r, and over
    GF(13/16/81) for every r <= 7 with a sampled alpha of order >= r."""
    rng = random.Random(30)
    runs = [(fields[q], a, fields[q].order(a)) for q in (4, 5, 7, 8, 9) for a in fields[q].nonzero_elements()]
    runs += [(fields[q], rng.choice(order_at_least(fields[q], r)), r) for q in (13, 16, 81) for r in range(2, 8)]
    for ctx, alpha, r in runs:
        for ell in range(1, min(3, r - 1) + 1):
            for cuts in combinations(range(1, r), ell):
                yield from pinned_pairs(ctx, rng, alpha, tuple(b - a for a, b in pairwise((0, *cuts, r))))


def test_kernel_relation_from_the_first_block_remainders_matches_the_stack(fields, monkeypatch):
    """find_kernel_relation, solved on the tau_0 x tau_0 remainders modulo
    M_0, against left_null_space(S)[0] of the full stack S: with M_0 the
    longest block, where every other block is a zero-padded remainder of
    itself, with mu_0 = 1 and with mu_0 the largest, for ell = 1..3, and
    with relations in which u_0 is zero and in which it is not. The exact
    division that gives u_0 is the self-check: on a nonsingular instance
    every nonzero vector is off the left kernel of the remainders, so a
    unit vector in place of the solved one must raise."""
    seen, nonsingular = set(), []
    for inst in kernel_corpus(fields):
        basis = left_null_space(stacked_matrix(inst))
        rel = find_kernel_relation(inst)
        want = None if not basis else tuple(poly_trim(basis[0][e - m : e]) for m, e in zip(inst.mu, inst.prefix_sums))
        assert (None if rel is None else rel.polys) == want, (inst.ctx, inst)
        m0, rest = inst.mu[0], inst.mu[1:]
        shapes = {"mu_0 < all": m0 < min(rest), "mu_0 = 1": m0 == 1, "mu_0 >= all": m0 >= max(rest)}
        found = "none" if rel is None else "u_0 = ()" if rel.polys[0] == () else "u_0 != ()"
        seen |= {(shape, found) for shape, holds in shapes.items() if holds}
        seen |= {(inst.ell, found), (inst.ctx.q, found)}
        if rel is None:
            nonsingular.append(inst)
    assert seen >= {(key, found) for key in ("mu_0 < all", "mu_0 = 1", "mu_0 >= all", 2, 3, 4, 5, 7, 8, 9, 13, 16, 81)
                    for found in ("none", "u_0 = ()", "u_0 != ()")} | {(1, "none"), (1, "u_0 != ()")}
    monkeypatch.setattr("burstkit.resultant._first_left_null", lambda m: [1] + [0] * (m.rows - 1))
    for inst in nonsingular:
        with pytest.raises(AssertionError):
            find_kernel_relation(inst)
    assert len(nonsingular) > 150
