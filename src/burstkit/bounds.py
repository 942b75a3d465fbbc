"""Redundancy bounds as exact integer predicates.

Every logarithmic bound is evaluated through the exact integer
inequality from which it was derived, so attainment at equality is
decided without floating point; the real-valued redundancy rendering on
each verdict is advisory only. Verdicts are tri-state: when the
hypotheses of a bound fail, the verdict is inapplicable rather than
violated.

size is always the code size |C| (not the redundancy), since nonlinear
code sizes need not be powers of q.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .burst import check_alphabet, count_bursts


@dataclass(frozen=True)
class BoundVerdict:
    """One bound instance, built only by _verdict and _inapplicable.

    satisfied is the exact integer comparison recorded in exact_terms;
    None means the hypotheses failed and nothing was evaluated. max_size
    is the largest permitted |C| where applicable. min_redundancy is the
    advisory real-valued rendering of the bound.
    """

    bound_id: str
    applicable: bool
    satisfied: bool | None
    max_size: int | None
    exact_terms: dict | None
    inputs: dict = field(default_factory=dict)
    min_redundancy: float | None = None


_RELATIONS = {"<=": operator.le, "<": operator.lt}


def _verdict(bound_id, inputs, lhs, relation, rhs, max_size, min_redundancy) -> BoundVerdict:
    """An applicable verdict: satisfied is decided by lhs relation rhs."""
    return BoundVerdict(
        bound_id=bound_id,
        applicable=True,
        satisfied=_RELATIONS[relation](lhs, rhs),
        max_size=max_size,
        exact_terms={"lhs": lhs, "relation": relation, "rhs": rhs},
        inputs=inputs,
        min_redundancy=min_redundancy,
    )


def _inapplicable(bound_id: str, inputs: dict) -> BoundVerdict:
    return BoundVerdict(bound_id, False, None, None, None, inputs)


def _inputs(q, n, tau, ell, size, hypotheses=None) -> dict:
    """A verdict's inputs, which every bound builds before any arithmetic,
    so the one check here that n, tau, ell and size are at least 1 covers
    every bound."""
    check_alphabet(q)
    for name, v in (("n", n), ("tau", tau), ("ell", ell), ("size", size)):
        if v < 1:
            raise ValueError(f"{name} must be at least 1, got {v}")
    inputs = {"q": q, "n": n, "tau": tau, "ell": ell, "size": size}
    if hypotheses is not None:
        inputs["hypotheses"] = hypotheses
    return inputs


def _nth_root_floor(x: int, k: int) -> int:
    """Largest integer v with v^k <= x (x >= 0, k >= 1)."""
    if x < 0 or k < 1:
        raise ValueError("nth root requires x >= 0 and k >= 1")
    if x in (0, 1) or k == 1:
        return x
    v = int(round(x ** (1.0 / k)))
    while v > 0 and v**k > x:
        v -= 1
    while (v + 1) ** k <= x:
        v += 1
    return v


def _logq(x: float, q: int) -> float:
    return math.log(x) / math.log(q)


def sphere_packing(q: int, n: int, tau: int, ell: int, size: int) -> BoundVerdict:
    """Packing bound: decodability at list size ell forces
    size * V_q(n, tau) <= ell * q^n."""
    inputs = _inputs(q, n, tau, ell, size)
    if tau > n:
        raise ValueError(f"tau must satisfy 1 <= tau <= {n}, got {tau}")
    v = count_bursts(q, n, tau)
    rhs = ell * q**n
    try:
        redundancy = _logq(v / ell, q)
    except OverflowError:  # v / ell passes the float range; math.log reads any int
        redundancy = (math.log(v) - math.log(ell)) / math.log(q)
    return _verdict(
        "sphere_packing", inputs,
        size * v, "<=", rhs, rhs // v, redundancy,
    )


def reiger_group(
    q: int, n: int, tau: int, ell: int, size: int, relaxed: bool = False
) -> BoundVerdict:
    """Group-code bound r >= (1 + 1/ell) tau, in the exact form
    size^ell * q^((ell+1) tau) <= q^(n ell).

    Hypotheses (recorded, asserted by the caller): the code is a group
    code with a single-burst detection decoder. Applicability:
    (ell+1) tau <= n, or for the relaxed variant ell | tau and
    2 tau <= n.
    """
    bound_id = "reiger_group_relaxed" if relaxed else "reiger_group"
    inputs = _inputs(q, n, tau, ell, size, ["group_code", "detects_single_burst"])
    if not (tau % ell == 0 and 2 * tau <= n if relaxed else (ell + 1) * tau <= n):
        return _inapplicable(bound_id, inputs)
    return _verdict(
        bound_id, inputs,
        size**ell * q ** ((ell + 1) * tau), "<=", q ** (n * ell),
        _nth_root_floor(q ** (n * ell - (ell + 1) * tau), ell), (1 + 1 / ell) * tau,
    )


def reiger_linear_min_r(tau: int, ell: int) -> int:
    """Integer redundancy threshold tau + ceil(tau / ell) for linear codes."""
    if tau < 1 or ell < 1:
        raise ValueError("tau and ell must be positive")
    return tau + -(-tau // ell)


def reiger_linear(q: int, n: int, tau: int, ell: int, size: int) -> BoundVerdict:
    """Integer form of the group-code bound for linear codes:
    r >= tau + ceil(tau / ell). Inapplicable unless size is a power of q
    (so that r is an integer) and the group-code hypotheses hold."""
    inputs = _inputs(q, n, tau, ell, size, ["linear_code", "detects_single_burst"])
    k = 0
    v = size
    while v % q == 0:
        v //= q
        k += 1
    hyp = (ell + 1) * tau <= n or (tau % ell == 0 and 2 * tau <= n)
    if not (v == 1 and hyp and k <= n):
        return _inapplicable("reiger_linear", inputs)
    min_r = reiger_linear_min_r(tau, ell)
    return _verdict(
        "reiger_linear", inputs,
        min_r, "<=", n - k, q ** (n - min_r) if min_r <= n else 0, float(min_r),
    )


def general_code_ell2(q: int, n: int, tau: int, size: int) -> BoundVerdict:
    """Bound for unstructured codes with detection at list size 2:
    size <= q^(n - 2 tau) * (2 q^(tau/2) - 2); needs tau even and
    2 tau <= n."""
    inputs = _inputs(q, n, tau, 2, size, ["detects_single_burst"])
    if tau % 2 != 0 or 2 * tau > n:
        return _inapplicable("general_ell2", inputs)
    b = tau // 2
    threshold = q ** (n - 2 * tau) * (2 * q**b - 2)
    return _verdict(
        "general_ell2", inputs,
        size, "<=", threshold, threshold, 2 * tau - _logq(2 * q**b - 2, q),
    )


def general_code_any_ell(q: int, n: int, tau: int, ell: int, size: int) -> BoundVerdict:
    """Bound for unstructured codes with detection at any list size:
    size < ell * q^(n - (tau/ell)(ell+1)); needs ell > 1, ell | tau and
    2 tau <= n. The inequality is strict."""
    inputs = _inputs(q, n, tau, ell, size, ["detects_single_burst"])
    if ell <= 1 or tau % ell != 0 or 2 * tau > n:
        return _inapplicable("general_any_ell", inputs)
    threshold = ell * q ** (n - tau // ell * (ell + 1))
    return _verdict(
        "general_any_ell", inputs,
        size, "<", threshold, threshold - 1, (1 + 1 / ell) * tau - _logq(ell, q),
    )


def lemma_Mell(q: int, ell: int, size: int) -> BoundVerdict:
    """Size cap for length-2*ell codes with detection and list size ell
    at tau = ell: size < ell * q^(ell-1)."""
    inputs = _inputs(q, 2 * ell, ell, ell, size, ["detects_single_burst"])
    if ell <= 1:
        return _inapplicable("lemma_Mell", inputs)
    threshold = ell * q ** (ell - 1)
    return _verdict(
        "lemma_Mell", inputs,
        size, "<", threshold, threshold - 1, (ell + 1) - _logq(ell, q),
    )


def no_detection_ell2(q: int, n: int, tau: int, size: int) -> BoundVerdict:
    """Bound at list size 2 with NO detection requirement:
    size <= 2 q^(n - 2 tau + tau/2); needs tau even and 2 tau <= n."""
    inputs = _inputs(q, n, tau, 2, size, [])
    if tau % 2 != 0 or 2 * tau > n:
        return _inapplicable("no_detection_ell2", inputs)
    threshold = 2 * q ** (n - 2 * tau + tau // 2)
    return _verdict(
        "no_detection_ell2", inputs,
        size, "<=", threshold, threshold, 1.5 * tau - _logq(2, q),
    )


# Every bound by id, each called as f(q, n, tau, ell, size).
BOUNDS = {
    "sphere_packing": sphere_packing,
    "reiger_group": reiger_group,
    "reiger_group_relaxed": lambda q, n, tau, ell, size: reiger_group(
        q, n, tau, ell, size, relaxed=True
    ),
    "reiger_linear": reiger_linear,
    "general_ell2": lambda q, n, tau, ell, size: general_code_ell2(q, n, tau, size),
    "general_any_ell": general_code_any_ell,
    "no_detection_ell2": lambda q, n, tau, ell, size: no_detection_ell2(q, n, tau, size),
    "lemma_Mell": lambda q, n, tau, ell, size: lemma_Mell(q, ell, size),
}
BOUND_IDS = tuple(BOUNDS)


def all_verdicts(q: int, n: int, tau: int, ell: int, size: int) -> list[BoundVerdict]:
    """Every bound evaluated on one parameter set, in BOUND_IDS order.

    lemma_Mell speaks only of n = 2 ell and tau = ell; elsewhere it is
    listed as inapplicable.
    """
    return [
        BOUNDS[b](q, n, tau, ell, size)
        if b != "lemma_Mell" or (n == 2 * ell and tau == ell)
        else _inapplicable(b, _inputs(q, n, tau, ell, size))
        for b in BOUND_IDS
    ]
