"""Generalized resultant of polynomials with geometric root runs.

An instance fixes a field, an element alpha of multiplicative order at
least r, a composition mu_0 + ... + mu_ell = r, and nonzero parameters
beta_i. Block i contributes the monic polynomial whose roots are the
run beta_i, beta_i*alpha, ..., beta_i*alpha^(tau_i - 1) with
tau_i = r - mu_i. Stacking the shift (band) matrices of these
polynomials gives an r x r matrix; its determinant factors as a
beta-independent constant times the product of all cross-block root
differences, and it vanishes exactly when two blocks collide, i.e.
beta_k / beta_i is a power alpha^t with -mu_i < t < mu_k. For two
blocks the stacked matrix is the Sylvester arrangement and the
determinant is the classical resultant.

No block is built by multiplying polynomials: the blocks and the
closed form are read off the gap table d[j] = log(alpha^j - 1),
1 <= j < r, which exists because order(alpha) >= r. A block's
coefficients come from the q-binomial theorem, each one a running log
sum over d, and all bands of the stacked matrix share one table. The closed form's constant is one
discrete-log sum over alpha^t - alpha^s = alpha^s (alpha^(t-s) - 1),
taken from prefix sums of d. Its cross-block factors
beta_k alpha^s - beta_i alpha^t = beta_i alpha^t (gamma alpha^(s-t) - 1),
gamma = beta_k / beta_i, depend on (s, t) only through the gap s - t,
so each block pair is one log sum with a multiplicity per gap.

Neither the direct determinant nor the kernel relation eliminates the
r x r stack. Both replace the other blocks' rows by their remainders
modulo one block's monic polynomial M_k and eliminate only the
tau_k x tau_k matrix those form: the determinant with k the first
widest block, the kernel relation with k = 0. The kernel relation stops
that elimination at its first free column, reads u_1, ..., u_ell off one
triangular solve, and gets u_0 as the exact quotient
-(sum_{i>=1} u_i M_i) / M_0.

Everything here is certified by evaluation over the finite field; no
symbolic computation is performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations, pairwise, permutations
from random import Random

from .gf import Fe, FieldCtx
from .matpoly import (
    Mat,
    Poly,
    _echelon,
    _first_left_null,
    _wrap,
    poly_add,
    poly_mul,
    poly_trim,
)


@dataclass(frozen=True)
class ResultantInstance:
    """(alpha, mu, beta) with the derived block sizes.

    Invariants: all beta_i nonzero, all mu_i >= 1, at least two blocks,
    and order(alpha) >= r = sum(mu).
    """

    ctx: FieldCtx
    alpha: Fe
    mu: tuple[int, ...]
    beta: tuple[Fe, ...]

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(int(m) for m in self.mu))
        object.__setattr__(self, "beta", tuple(int(b) for b in self.beta))
        if len(self.mu) < 2:
            raise ValueError("an instance needs at least two blocks")
        if len(self.beta) != len(self.mu):
            raise ValueError("mu and beta must have the same length")
        if any(m < 1 for m in self.mu):
            raise ValueError("block sizes must be positive")
        for name, x in (("alpha", self.alpha), *(("beta entry", b) for b in self.beta)):
            if not 0 <= x < self.ctx.q:
                raise ValueError(f"{name} {x} is not an element of GF({self.ctx.q})")
        if any(b == 0 for b in self.beta):
            raise ValueError("beta entries must be nonzero")
        if self.alpha == 0 or self.ctx.order(self.alpha) < self.r:
            raise ValueError(
                f"alpha must have multiplicative order at least r = {self.r}"
            )

    @property
    def ell(self) -> int:
        return len(self.mu) - 1

    @property
    def r(self) -> int:
        return sum(self.mu)

    @property
    def taus(self) -> tuple[int, ...]:
        r = self.r
        return tuple(r - m for m in self.mu)

    @property
    def prefix_sums(self) -> tuple[int, ...]:
        """r_i = mu_0 + ... + mu_i."""
        return tuple(accumulate(self.mu))


@dataclass(frozen=True)
class RelationWitness:
    """Polynomials u_i with deg u_i < mu_i, not all zero, satisfying
    sum_i u_i * M_i = 0. Not checked on construction. find_kernel_relation
    checks each relation it returns as it builds it: u_0 is the exact
    quotient -(sum_{i>=1} u_i * M_i) / M_0, and a remainder raises.
    verify_relation replays one independently: the degrees, not all zero,
    and the sum of the products u_i * M_i."""

    polys: tuple[Poly, ...]


def _log_gaps(ctx: FieldCtx, alpha: Fe, k: int) -> list[int]:
    """The gap table: d[j] = log(alpha^j - 1) for 1 <= j < k, and d[0] = 0.
    Every entry exists while k <= order(alpha); an instance has
    order(alpha) >= r, so k = r always works."""
    log, exp, add, m1 = ctx._log, ctx._exp, ctx.add, ctx.neg(1)
    la, n1 = log[alpha], ctx.q - 1
    return [0, *(log[add(exp[j * la % n1], m1)] for j in range(1, k))]


def _run_coeffs(ctx: FieldCtx, d: list[int], alpha: Fe, beta: Fe, tau: int) -> list[Fe]:
    """prod_{j<tau} (x - beta alpha^j), lowest degree first, from the
    q-binomial theorem (d must reach index tau). The coefficient of
    x^(tau-k) is (-1)^k e_k with e_k = beta^k alpha^C(k,2) [tau choose k]_alpha,
    so e_k / e_(k-1) = beta alpha^(k-1) (alpha^(tau-k+1) - 1) / (alpha^k - 1),
    and the log of each coefficient is a running sum over d."""
    log, exp, n1 = ctx._log, ctx._exp, ctx.q - 1
    la, step = log[alpha], log[beta] + log[ctx.neg(1)]
    e, out = 0, [1]
    for k in range(1, tau + 1):
        e += step + (k - 1) * la + d[tau - k + 1] - d[k]
        out.append(exp[e % n1])
    out.reverse()
    return out


def _band_rows(coeffs: list[Fe], m: int) -> list[list[Fe]]:
    """m rows: row h holds coeffs shifted right by h, in a row of width
    len(coeffs) + m - 1."""
    return [[0] * h + coeffs + [0] * (m - 1 - h) for h in range(m)]


def root_run_poly(inst: ResultantInstance, i: int) -> Poly:
    """Monic polynomial of block i: roots beta_i * alpha^j, j < tau_i."""
    ctx, alpha, tau = inst.ctx, inst.alpha, inst.taus[i]
    return tuple(_run_coeffs(ctx, _log_gaps(ctx, alpha, tau + 1), alpha, inst.beta[i], tau))


def coeff_band(inst: ResultantInstance, i: int) -> Mat:
    """mu_i x r band matrix: row h holds the coefficients of x^h * M_i."""
    return _wrap(inst.ctx, _band_rows(list(root_run_poly(inst, i)), inst.mu[i]), inst.r)


def _blocks(inst: ResultantInstance) -> list[list[Fe]]:
    """Every block's coefficients, all read off one gap table of r entries."""
    ctx, alpha, r = inst.ctx, inst.alpha, inst.r
    d = _log_gaps(ctx, alpha, r)
    return [_run_coeffs(ctx, d, alpha, b, r - m) for b, m in zip(inst.beta, inst.mu)]


def stacked_matrix(inst: ResultantInstance) -> Mat:
    """The r x r stack of all block band matrices."""
    rows = [row for coeffs, m in zip(_blocks(inst), inst.mu) for row in _band_rows(coeffs, m)]
    return _wrap(inst.ctx, rows, inst.r)


def _remainder_rows(ctx: FieldCtx, blocks: list[list[Fe]], mu, k: int) -> list[list[Fe]]:
    """The rows x^h * M_i mod M_k, h < mu_i, of every block i != k in
    stacked order, each as tau_k coefficients, with M = M_k monic of
    degree tau_k. Every remainder is reached by steps rem -> x*rem + c
    mod M, each one shift and, when the shifted-out coefficient is
    nonzero, one axpy of M. If M_i has s = tau_i + 1 - tau_k > 0
    coefficients more than M's remainders hold, it starts from its top
    tau_k coefficients and s steps over the ones below them (Horner's
    rule, a long division) give M_i mod M; otherwise M_i, zero-padded,
    is already its own remainder. mu_i - 1 more steps with c = 0 give
    the next rows.
    """
    axpy, neg = ctx.axpy, ctx.neg
    monic = blocks[k]
    tk, low = len(monic) - 1, monic[:-1]
    rows = []
    for i, (coeffs, m) in enumerate(zip(blocks, mu)):
        if i == k:
            continue
        s = max(len(coeffs) - tk, 0)  # M_i = x^s * (its top coefficients) + (the s below)
        rem = coeffs[s:] + [0] * (tk + s - len(coeffs))
        states = [rem]
        for c in [*reversed(coeffs[:s]), *[0] * (m - 1)]:
            top, rem = rem[-1], [c, *rem[:-1]]
            if top:
                rem = axpy(neg(top), rem, low)
            states.append(rem)
        rows += states[s:]
    return rows


def det_stacked(inst: ResultantInstance) -> Fe:
    """det S for the stacked matrix S, by elimination of a tau_k x tau_k matrix.

    Let k be the first block of the largest mu, M = M_k (monic of degree
    tau_k) and R_k = mu_0 + ... + mu_(k-1). Every polynomial P of degree
    < r is A*M + B with deg A < mu_k and deg B < tau_k, both unique. Let
    Q be the r x r matrix with rows x^h M (h < mu_k) and then x^j
    (j < tau_k), and C the matrix whose row for row P of S is
    (A's coefficients, B's coefficients): then S = C*Q.
    - det Q = (-1)^(mu_k tau_k): moving the tau_k unit rows above the
      band rows takes mu_k*tau_k transpositions and leaves a block lower
      triangular matrix whose diagonal blocks are I and the columns
      tau_k.. of the band rows, which are lower unitriangular because M
      is monic.
    - Row h of block k has A = x^h and B = 0. Moving those mu_k rows of C
      to the top passes R_k rows and leaves [[I, 0], [*, T]], with T the
      tau_k x tau_k matrix of the other rows' remainders in stacked
      order (_remainder_rows), so det C = (-1)^(mu_k R_k) det T.
    Hence det S = (-1)^(mu_k (R_k + tau_k)) det T.
    """
    ctx, mu = inst.ctx, inst.mu
    k = mu.index(max(mu))
    tk = inst.taus[k]
    det = _echelon(ctx, _remainder_rows(ctx, _blocks(inst), mu, k), tk)[1]
    return ctx.neg(det) if mu[k] * (sum(mu[:k]) + tk) % 2 else det


def leading_constant(ctx: FieldCtx, alpha: Fe, mu) -> Fe:
    """The beta-independent constant of the determinant factorization.

    kappa = alpha^(P-N) * detV(r)^(-2)
            * prod_i [ detV(mu_i)^2 * prod_{s<mu_i} prod_{mu_i<=t<r} (alpha^t - alpha^s) ]

    with detV(k) = prod_{s<t<k} (alpha^t - alpha^s) the power-node
    Vandermonde determinant and P - N = sum_i mu_i * C(tau_i, 2).
    Computed as one discrete-log sum: alpha^t - alpha^s =
    alpha^s * (alpha^(t-s) - 1), so each product is O(r) from the prefix
    sums D[j] = d[0] + ... + d[j-1] of the gap table. The sum is an exact
    integer, reduced only at the final exponentiation.
    """
    mu = tuple(int(m) for m in mu)
    if any(m < 1 for m in mu):
        raise ValueError("block sizes must be positive")
    r = sum(mu)
    if alpha == 0 or ctx.order(alpha) < r:
        raise ValueError(f"alpha must have multiplicative order at least r = {r}")
    la = ctx._log[alpha]
    D = list(accumulate(_log_gaps(ctx, alpha, r), initial=0))

    def diffs(m, lo, hi):  # log prod (alpha^t - alpha^s) over s < m, lo <= t < hi, s < t
        total = 0
        for s in range(m):
            a = max(lo, s + 1)
            total += s * la * (hi - a) + D[hi - s] - D[a - s]
        return total

    total = la * sum(m * math.comb(r - m, 2) for m in mu) - 2 * diffs(r, 0, r)
    for m in mu:
        total += 2 * diffs(m, 0, m) + diffs(m, m, r)
    return ctx._exp[total % (ctx.q - 1)]


def det_product_form(inst: ResultantInstance) -> Fe:
    """The closed form: leading constant times all cross-block root
    differences prod_{i<k} prod_{s<mu_i} prod_{t<mu_k}
    (beta_k alpha^s - beta_i alpha^t).

    Each factor is beta_i alpha^t * (gamma alpha^g - 1) with
    gamma = beta_k / beta_i and gap g = s - t in (-mu_k, mu_i), which
    occurs min(mu_i, mu_k + g) - max(0, g) times, so a block pair is one
    log sum over its gaps. A factor vanishes iff gamma = alpha^(-g), a
    ratio collision, and then the result is 0 at once.
    """
    ctx, alpha, mu = inst.ctx, inst.alpha, inst.mu
    log, exp, add, m1, n1 = ctx._log, ctx._exp, ctx.add, ctx.neg(1), ctx.q - 1
    la = log[alpha]
    logs = [log[b] for b in inst.beta]
    total = 0
    for i, k in combinations(range(len(mu)), 2):
        mi, mk, lg = mu[i], mu[k], logs[k] - logs[i]
        total += mi * mk * logs[i] + mi * math.comb(mk, 2) * la
        for g in range(1 - mk, mi):
            y = add(exp[(lg + g * la) % n1], m1)
            if not y:
                return 0
            total += (min(mi, mk + g) - max(0, g)) * log[y]
    return ctx.mul(leading_constant(ctx, alpha, mu), exp[total % n1])


def find_ratio_collision(inst: ResultantInstance) -> tuple[int, int, int] | None:
    """A triple (i, k, t) with beta_k / beta_i = alpha^t, -mu_i < t < mu_k,
    for the first ordered pair (i, k) that has one, or None. A pair has at
    most one t: two would differ by less than mu_i + mu_k <= r <= order(alpha).
    Compares discrete logs: t log(alpha) = log(beta_k) - log(beta_i) mod q - 1."""
    n1, log = inst.ctx.q - 1, inst.ctx._log
    la = log[inst.alpha]
    logs = [log[b] for b in inst.beta]
    for i, k in permutations(range(inst.ell + 1), 2):
        ratio = (logs[k] - logs[i]) % n1
        for t in range(1 - inst.mu[i], inst.mu[k]):
            if t * la % n1 == ratio:
                return (i, k, t)
    return None


def find_kernel_relation(inst: ResultantInstance) -> RelationWitness | None:
    """The first canonical left-kernel basis vector of the stacked matrix,
    left_null_space(stacked_matrix(inst))[0], reassembled into the block
    polynomials u_i; None iff the matrix is nonsingular. It is found on
    the tau_0 x tau_0 matrix of remainders modulo M_0, not on the r x r
    stack S:
    - Every row P of S is A*M_0 + B with deg A < mu_0 and deg B < tau_0,
      so S = C*Q with Q (rows x^h M_0, h < mu_0, then x^j, j < tau_0)
      invertible, as M_0 is monic; vS = 0 iff vC = 0.
    - Block 0's rows of C are the unit rows (x^h, 0) and come first, so
      the first row of C that depends on the rows above it lies outside
      block 0, and it depends on them iff its remainder B depends on the
      remainders above it.
    - So the canonical vector restricted to blocks 1..ell is
      _first_left_null of T, the rows x^h * M_i mod M_0 (i >= 1) in
      stacked order (_remainder_rows with k = 0); T is square, as
      r - mu_0 = tau_0.
    - u_0 is then forced: u_0 = -(sum_{i>=1} u_i * M_i) / M_0, and deg
      u_0 < mu_0 holds, as the sum has degree < r. The sum and its long
      division are axpys on one list of r coefficients. The division
      must be exact; that is the self-check, and a remainder raises
      AssertionError.
    """
    ctx, mu, t0 = inst.ctx, inst.mu, inst.taus[0]
    axpy, neg = ctx.axpy, ctx.neg
    blocks = _blocks(inst)
    tail = _first_left_null(_wrap(ctx, _remainder_rows(ctx, blocks, mu, 0), t0))
    if tail is None:
        return None
    us = [poly_trim(tail[e - m : e]) for m, e in zip(mu[1:], accumulate(mu[1:]))]
    rest = [0] * inst.r  # sum_{i>=1} u_i * M_i, then its remainder modulo M_0
    for u_i, coeffs in zip(us, blocks[1:]):
        for h, c in enumerate(u_i):
            if c:
                rest[h : h + len(coeffs)] = axpy(c, rest[h : h + len(coeffs)], coeffs)
    u0 = [0] * mu[0]
    for h in reversed(range(mu[0])):  # long division by the monic M_0, u_0 = -quotient
        if rest[h + t0]:
            u0[h] = f = neg(rest[h + t0])
            rest[h : h + t0 + 1] = axpy(f, rest[h : h + t0 + 1], blocks[0])
    if any(rest):
        raise AssertionError("left-kernel vector is not a relation: M_0 does not divide the rest")
    return RelationWitness((poly_trim(u0), *us))


def verify_relation(inst: ResultantInstance, witness: RelationWitness) -> bool:
    """Independent replay: degree constraints, not all zero, and
    sum_i u_i * M_i = 0 by polynomial products, not the stacked matrix."""
    ctx = inst.ctx
    if len(witness.polys) != inst.ell + 1:
        return False
    if all(p == () for p in witness.polys):
        return False
    total: Poly = ()
    for u_i, m_i, coeffs in zip(witness.polys, inst.mu, _blocks(inst)):
        if len(u_i) > m_i:
            return False
        total = poly_add(ctx, total, poly_mul(ctx, u_i, coeffs))
    return total == ()


# -- instance sampling (seeded, for certification corpora) -------------

def _low_orders(ctx: FieldCtx, r: int) -> list[Fe]:
    """The elements of multiplicative order < r, ascending: the subgroups
    {g^((q-1)/d * j) : j < d} of the orders d < r, d | q - 1."""
    n1 = ctx.q - 1
    return sorted({ctx.pow(ctx.generator, e) for d in range(1, min(r, ctx.q)) if n1 % d == 0
                   for e in range(0, n1, n1 // d)})


def order_at_least(ctx: FieldCtx, r: int) -> list[Fe]:
    """All elements of multiplicative order >= r, ascending: all nonzero ones
    but those of _low_orders."""
    low = set(_low_orders(ctx, r))
    return [x for x in ctx.nonzero_elements() if x not in low]


def sample_instance(ctx: FieldCtx, rng: Random, ell: int, r: int) -> ResultantInstance:
    """A uniform instance with the given block count and total size. alpha
    is drawn as rng.choice(order_at_least(ctx, r)) would draw it, without
    building that list."""
    if r < ell + 1:
        raise ValueError("r must be at least ell + 1")
    low = _low_orders(ctx, r)
    if len(low) == ctx.q - 1:
        raise ValueError(f"no element of order >= {r} in {ctx!r}")
    alpha = rng.randrange(ctx.q - 1 - len(low)) + 1
    for x in low:  # step alpha past each low-order element at or below it
        if x > alpha:
            break
        alpha += 1
    cuts = [0, *sorted(rng.sample(range(1, r), ell)), r]
    mu = tuple(b - a for a, b in pairwise(cuts))
    beta = tuple(rng.randrange(1, ctx.q) for _ in range(ell + 1))
    return ResultantInstance(ctx, alpha, mu, beta)


def boundary_instance(
    ctx: FieldCtx, rng: Random, ell: int, r: int, t_offset: str
) -> ResultantInstance:
    """An instance with one ratio pinned to the edge of the collision
    range: t_offset selects t = -mu_i (just outside), mu_k - 1 (the last
    inside value) or mu_k (just outside)."""
    inst = sample_instance(ctx, rng, ell, r)
    i = rng.randrange(ell + 1)
    k = rng.randrange(ell + 1)
    while k == i:
        k = rng.randrange(ell + 1)
    t = {"-mu_i": -inst.mu[i], "mu_k-1": inst.mu[k] - 1, "mu_k": inst.mu[k]}.get(t_offset)
    if t is None:
        raise ValueError(f"unknown boundary kind {t_offset!r}")
    beta = list(inst.beta)
    beta[k] = ctx.mul(beta[i], ctx.pow(inst.alpha, t))
    return ResultantInstance(ctx, inst.alpha, inst.mu, tuple(beta))
