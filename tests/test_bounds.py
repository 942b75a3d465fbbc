import itertools

import pytest

from burstkit import (
    BoundVerdict,
    all_verdicts,
    count_bursts,
    general_code_any_ell,
    general_code_ell2,
    lemma_Mell,
    no_detection_ell2,
    reiger_group,
    reiger_linear,
    reiger_linear_min_r,
    sphere_packing,
)
from burstkit.bounds import _nth_root_floor


def test_nth_root_floor():
    for x in range(200):
        for k in (1, 2, 3, 5):
            v = _nth_root_floor(x, k)
            assert v**k <= x < (v + 1) ** k
    assert _nth_root_floor(10**30, 3) == 10**10


def test_sphere_packing_examples():
    v = sphere_packing(2, 5, 2, 1, 3)
    assert v.satisfied and v.max_size == 3  # floor(32 / 10)
    assert not sphere_packing(2, 5, 2, 1, 4).satisfied
    # huge list budget: any size up to q^n permitted
    big = count_bursts(3, 4, 2)
    v2 = sphere_packing(3, 4, 2, big, 3**4)
    assert v2.satisfied and v2.max_size >= 3**4
    # tau = n, ell = 1, full space: violated
    assert not sphere_packing(2, 3, 3, 1, 2**3).satisfied


def test_sphere_packing_exactness_flip():
    for q, n, tau, ell in ((2, 5, 2, 1), (3, 6, 2, 2), (4, 5, 3, 2)):
        m = sphere_packing(q, n, tau, ell, 1).max_size
        assert sphere_packing(q, n, tau, ell, m).satisfied
        assert not sphere_packing(q, n, tau, ell, m + 1).satisfied


def test_reiger_group_examples():
    # classical single-burst case: r >= 2 tau
    v = reiger_group(4, 8, 2, 1, 4**4)
    assert v.applicable and v.satisfied and v.min_redundancy == 4.0
    assert not reiger_group(4, 8, 2, 1, 4**5).satisfied
    # ell = tau = 2: minimum redundancy 3
    v = reiger_group(3, 8, 2, 2, 3**5)
    assert v.applicable and v.satisfied and v.min_redundancy == 3.0
    assert not reiger_group(3, 8, 2, 2, 3**6).satisfied
    # the length-8 tau-3 ell-2 parameters violate the hypotheses of both forms
    v1 = reiger_group(2, 8, 3, 2, 2**4)
    v2 = reiger_group(2, 8, 3, 2, 2**4, relaxed=True)
    assert not v1.applicable and v1.satisfied is None
    assert not v2.applicable and v2.satisfied is None
    assert v1.bound_id == "reiger_group" and v2.bound_id == "reiger_group_relaxed"


def test_reiger_group_relaxed_applicability():
    # ell | tau and 2 tau <= n admits pairs the plain form rejects
    v = reiger_group(2, 9, 4, 2, 2**2, relaxed=True)
    assert v.applicable  # (ell+1) tau = 12 > 9, but 2|4 and 8 <= 9
    assert not reiger_group(2, 9, 4, 2, 2**2).applicable


def test_reiger_group_exactness_flip():
    for q, n, tau, ell in ((2, 8, 2, 1), (3, 9, 2, 2), (2, 12, 3, 3)):
        v = reiger_group(q, n, tau, ell, 1)
        m = v.max_size
        assert reiger_group(q, n, tau, ell, m).satisfied
        assert not reiger_group(q, n, tau, ell, m + 1).satisfied


def test_reiger_linear_min_r_examples():
    assert reiger_linear_min_r(2, 1) == 4
    assert reiger_linear_min_r(5, 1) == 10
    assert reiger_linear_min_r(4, 2) == 6
    assert reiger_linear_min_r(3, 2) == 5  # the length-8 code has r = 4 instead
    v = reiger_linear(2, 8, 3, 2, 2**4)
    assert not v.applicable  # flagged inapplicable, not violated


def test_reiger_linear_verdict():
    v = reiger_linear(7, 6, 2, 1, 7**2)  # r = 4 = 2 tau
    assert v.applicable and v.satisfied
    assert not reiger_linear(7, 6, 2, 1, 7**3).satisfied
    # non-power-of-q sizes are out of this bound's hypotheses
    assert not reiger_linear(7, 6, 2, 1, 10).applicable


def test_general_ell2_examples():
    v = general_code_ell2(3, 4, 2, 4)
    assert v.applicable and v.satisfied and v.max_size == 4  # 2q - 2 attained
    assert not general_code_ell2(3, 4, 2, 5).satisfied
    v2 = general_code_ell2(2, 4, 2, 2)
    assert v2.satisfied and v2.max_size == 2
    assert general_code_ell2(5, 4, 2, 1).satisfied
    assert not general_code_ell2(3, 4, 3, 4).applicable  # tau odd
    assert not general_code_ell2(3, 3, 2, 4).applicable  # 2 tau > n


def test_general_any_ell_examples():
    v = general_code_any_ell(3, 4, 2, 2, 4)
    assert v.applicable and v.satisfied and v.max_size == 5  # size < 6
    assert not general_code_any_ell(3, 4, 2, 2, 6).satisfied
    v2 = general_code_any_ell(2, 8, 4, 2, 7)
    assert v2.satisfied and v2.max_size == 7  # size < 2 * 2^2 = 8
    assert general_code_any_ell(2, 8, 4, 2, 1).satisfied
    assert not general_code_any_ell(3, 8, 3, 2, 4).applicable  # 2 does not divide 3
    assert not general_code_any_ell(3, 8, 4, 1, 4).applicable  # needs ell > 1


def test_lemma_Mell():
    v = lemma_Mell(3, 2, 4)
    assert v.applicable and v.satisfied and v.max_size == 2 * 3 - 1
    assert not lemma_Mell(3, 2, 6).satisfied
    assert not lemma_Mell(3, 1, 2).applicable


def test_no_detection_ell2_examples():
    v = no_detection_ell2(3, 4, 2, 6)
    assert v.applicable and v.satisfied and v.max_size == 6  # 2q attained
    assert not no_detection_ell2(3, 4, 2, 7).satisfied
    v2 = no_detection_ell2(2, 4, 2, 4)
    assert v2.satisfied and v2.max_size == 4
    assert not no_detection_ell2(3, 4, 3, 4).applicable


def test_exactness_flip_all_threshold_bounds():
    cases = [
        (general_code_ell2, (3, 8, 2)),
        (general_code_ell2, (2, 10, 4)),
        (no_detection_ell2, (3, 8, 2)),
        (no_detection_ell2, (5, 10, 4)),
    ]
    for fn, params in cases:
        m = fn(*params, 1).max_size
        assert fn(*params, m).satisfied
        assert not fn(*params, m + 1).satisfied
    v = general_code_any_ell(3, 8, 4, 2, 1)
    assert general_code_any_ell(3, 8, 4, 2, v.max_size).satisfied
    assert not general_code_any_ell(3, 8, 4, 2, v.max_size + 1).satisfied


def test_reiger_tighter_than_sphere_packing_on_short_lengths():
    """Where both run, the group-code integer threshold is at least as
    restrictive as the packing threshold for n below ell * q^(tau/ell),
    tested as a comparison of exact integer thresholds."""
    for q, tau, ell in itertools.product((2, 3, 4, 5), (1, 2, 3, 4), (1, 2, 3)):
        for n in range((ell + 1) * tau, 4 * tau + 9):
            if n**ell >= ell**ell * q**tau:  # n >= ell * q^(tau/ell)
                continue
            rv = reiger_group(q, n, tau, ell, 1)
            sv = sphere_packing(q, n, tau, ell, 1)
            assert rv.applicable
            assert rv.max_size <= sv.max_size


def test_all_verdicts_shape():
    vs = all_verdicts(3, 4, 2, 2, 4)
    ids = [v.bound_id for v in vs]
    assert ids == [
        "sphere_packing",
        "reiger_group",
        "reiger_group_relaxed",
        "reiger_linear",
        "general_ell2",
        "general_any_ell",
        "no_detection_ell2",
        "lemma_Mell",
    ]
    # n = 2 ell and tau = ell here, so the size cap applies
    assert vs[-1].applicable
    # elsewhere it is listed as inapplicable, with the inputs as given
    assert all_verdicts(3, 6, 2, 2, 4)[-1] == BoundVerdict(
        "lemma_Mell", False, None, None, None, {"q": 3, "n": 6, "tau": 2, "ell": 2, "size": 4}
    )


def test_integer_predicates_reject_bad_inputs():
    with pytest.raises(ValueError):
        sphere_packing(2, 4, 0, 1, 1)
    with pytest.raises(ValueError):
        sphere_packing(2, 4, 5, 1, 1)
    with pytest.raises(ValueError):
        reiger_group(2, 4, 2, 0, 1)
    with pytest.raises(ValueError):
        general_code_ell2(2, 4, 2, 0)
    with pytest.raises(ValueError, match="^tau and ell must be positive$"):
        reiger_linear_min_r(0, 1)
