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
from dataclasses import dataclass, field

from .burst import count_bursts


@dataclass(frozen=True)
class BoundVerdict:
    """One bound instance.

    satisfied is computed ONLY from the exact integer comparison in
    exact_terms; None means the hypotheses failed and nothing was
    evaluated. max_size is the largest permitted |C| where applicable.
    min_redundancy is the advisory real-valued rendering of the bound.
    """

    bound_id: str
    applicable: bool
    satisfied: bool | None
    max_size: int | None
    exact_terms: dict | None
    inputs: dict = field(default_factory=dict)
    min_redundancy: float | None = None


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
    if not 1 <= tau <= n:
        raise ValueError(f"tau must satisfy 1 <= tau <= {n}")
    if ell < 1 or size < 1:
        raise ValueError("ell and size must be positive")
    v = count_bursts(q, n, tau)
    rhs = ell * q**n
    lhs = size * v
    return BoundVerdict(
        bound_id="sphere_packing",
        applicable=True,
        satisfied=lhs <= rhs,
        max_size=rhs // v,
        exact_terms={"lhs": lhs, "relation": "<=", "rhs": rhs},
        inputs={"q": q, "n": n, "tau": tau, "ell": ell, "size": size},
        min_redundancy=_logq(v / ell, q),
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
    if tau < 1 or ell < 1 or size < 1:
        raise ValueError("tau, ell and size must be positive")
    bound_id = "reiger_group_relaxed" if relaxed else "reiger_group"
    inputs = {
        "q": q,
        "n": n,
        "tau": tau,
        "ell": ell,
        "size": size,
        "hypotheses": ["group_code", "detects_single_burst"],
    }
    applicable = (
        tau % ell == 0 and 2 * tau <= n if relaxed else (ell + 1) * tau <= n
    )
    if not applicable:
        return BoundVerdict(bound_id, False, None, None, None, inputs)
    lhs = size**ell * q ** ((ell + 1) * tau)
    rhs = q ** (n * ell)
    return BoundVerdict(
        bound_id=bound_id,
        applicable=True,
        satisfied=lhs <= rhs,
        max_size=_nth_root_floor(q ** (n * ell - (ell + 1) * tau), ell),
        exact_terms={"lhs": lhs, "relation": "<=", "rhs": rhs},
        inputs=inputs,
        min_redundancy=(1 + 1 / ell) * tau,
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
    if tau < 1 or ell < 1 or size < 1:
        raise ValueError("tau, ell and size must be positive")
    inputs = {
        "q": q,
        "n": n,
        "tau": tau,
        "ell": ell,
        "size": size,
        "hypotheses": ["linear_code", "detects_single_burst"],
    }
    k = 0
    v = size
    while v % q == 0:
        v //= q
        k += 1
    power_of_q = v == 1
    hyp = (ell + 1) * tau <= n or (tau % ell == 0 and 2 * tau <= n)
    if not (power_of_q and hyp and k <= n):
        return BoundVerdict("reiger_linear", False, None, None, None, inputs)
    min_r = reiger_linear_min_r(tau, ell)
    r = n - k
    return BoundVerdict(
        bound_id="reiger_linear",
        applicable=True,
        satisfied=r >= min_r,
        max_size=q ** (n - min_r) if min_r <= n else 0,
        exact_terms={"lhs": min_r, "relation": "<=", "rhs": r},
        inputs=inputs,
        min_redundancy=float(min_r),
    )


def general_code_ell2(q: int, n: int, tau: int, size: int) -> BoundVerdict:
    """Bound for unstructured codes with detection at list size 2:
    size <= q^(n - 2 tau) * (2 q^(tau/2) - 2); needs tau even and
    2 tau <= n."""
    if tau < 1 or size < 1:
        raise ValueError("tau and size must be positive")
    inputs = {
        "q": q,
        "n": n,
        "tau": tau,
        "ell": 2,
        "size": size,
        "hypotheses": ["detects_single_burst"],
    }
    if tau % 2 != 0 or 2 * tau > n:
        return BoundVerdict("general_ell2", False, None, None, None, inputs)
    b = tau // 2
    threshold = q ** (n - 2 * tau) * (2 * q**b - 2)
    return BoundVerdict(
        bound_id="general_ell2",
        applicable=True,
        satisfied=size <= threshold,
        max_size=threshold,
        exact_terms={"lhs": size, "relation": "<=", "rhs": threshold},
        inputs=inputs,
        min_redundancy=2 * tau - _logq(2 * q**b - 2, q),
    )


def general_code_any_ell(q: int, n: int, tau: int, ell: int, size: int) -> BoundVerdict:
    """Bound for unstructured codes with detection at any list size:
    size < ell * q^(n - (tau/ell)(ell+1)); needs ell > 1, ell | tau and
    2 tau <= n. The inequality is strict."""
    if tau < 1 or ell < 1 or size < 1:
        raise ValueError("tau, ell and size must be positive")
    inputs = {
        "q": q,
        "n": n,
        "tau": tau,
        "ell": ell,
        "size": size,
        "hypotheses": ["detects_single_burst"],
    }
    if ell <= 1 or tau % ell != 0 or 2 * tau > n:
        return BoundVerdict("general_any_ell", False, None, None, None, inputs)
    b = tau // ell
    threshold = ell * q ** (n - b * (ell + 1))
    return BoundVerdict(
        bound_id="general_any_ell",
        applicable=True,
        satisfied=size < threshold,
        max_size=threshold - 1,
        exact_terms={"lhs": size, "relation": "<", "rhs": threshold},
        inputs=inputs,
        min_redundancy=(1 + 1 / ell) * tau - _logq(ell, q),
    )


def lemma_Mell(q: int, ell: int, size: int) -> BoundVerdict:
    """Size cap for length-2*ell codes with detection and list size ell
    at tau = ell: size < ell * q^(ell-1)."""
    if ell < 1 or size < 1:
        raise ValueError("ell and size must be positive")
    inputs = {
        "q": q,
        "n": 2 * ell,
        "tau": ell,
        "ell": ell,
        "size": size,
        "hypotheses": ["detects_single_burst"],
    }
    if ell <= 1:
        return BoundVerdict("lemma_Mell", False, None, None, None, inputs)
    threshold = ell * q ** (ell - 1)
    return BoundVerdict(
        bound_id="lemma_Mell",
        applicable=True,
        satisfied=size < threshold,
        max_size=threshold - 1,
        exact_terms={"lhs": size, "relation": "<", "rhs": threshold},
        inputs=inputs,
        min_redundancy=(ell + 1) - _logq(ell, q),
    )


def no_detection_ell2(q: int, n: int, tau: int, size: int) -> BoundVerdict:
    """Bound at list size 2 with NO detection requirement:
    size <= 2 q^(n - 2 tau + tau/2); needs tau even and 2 tau <= n."""
    if tau < 1 or size < 1:
        raise ValueError("tau and size must be positive")
    inputs = {"q": q, "n": n, "tau": tau, "ell": 2, "size": size, "hypotheses": []}
    if tau % 2 != 0 or 2 * tau > n:
        return BoundVerdict("no_detection_ell2", False, None, None, None, inputs)
    threshold = 2 * q ** (n - 2 * tau + tau // 2)
    return BoundVerdict(
        bound_id="no_detection_ell2",
        applicable=True,
        satisfied=size <= threshold,
        max_size=threshold,
        exact_terms={"lhs": size, "relation": "<=", "rhs": threshold},
        inputs=inputs,
        min_redundancy=1.5 * tau - _logq(2, q),
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
    inputs = {"q": q, "n": n, "tau": tau, "ell": ell, "size": size}
    return [
        BOUNDS[b](q, n, tau, ell, size)
        if b != "lemma_Mell" or (n == 2 * ell and tau == ell)
        else BoundVerdict(b, False, None, None, None, inputs)
        for b in BOUND_IDS
    ]
