import itertools
import json

import pytest

from burstkit import (
    CapExceeded,
    CodeHandle,
    ExplicitCode,
    LinearCode,
    Mat,
    appendix_a_code,
    code_from_dict,
    code_to_dict,
    determinant,
    example_code_1,
    example_code_2,
    expand,
    is_burst,
    is_group_code,
    mat_vec,
    rank,
    rs_alpha,
    rs_code,
)


def test_rs_code_frozen_example(fields):
    rs = rs_code(fields[7], 6, 2)
    assert rs_alpha(fields[7], 6) == 3
    assert rs.H.to_rows() == [[1, 1, 1, 1, 1, 1], [1, 3, 2, 6, 4, 5]]
    assert rs.r == 2 and rs.k == 4


def test_rs_code_r0_is_whole_space(fields):
    rs = rs_code(fields[2], 1, 0)
    assert rs.H.rows == 0
    assert rs.size == 2
    assert sorted(rs.codewords()) == [(0,), (1,)]


def test_rs_code_gf16_rank(fields):
    rs = rs_code(fields[16], 15, 6)
    assert rank(rs.H) == 6


def test_rs_code_preconditions(fields):
    with pytest.raises(ValueError):
        rs_code(fields[7], 5, 2)  # 5 does not divide 6
    with pytest.raises(ValueError):
        rs_code(fields[7], 6, 6)  # r must stay below n


def test_rs_windows_nonsingular(fields):
    """Any r consecutive parity-check columns form a nonsingular block."""
    for q, n in ((7, 6), (16, 15)):
        ctx = fields[q]
        for r in (1, 2, 3):
            rs = rs_code(ctx, n, r)
            for start in range(n - r + 1):
                block = Mat.from_rows(
                    ctx,
                    [[rs.H.at(i, start + j) for j in range(r)] for i in range(r)],
                )
                assert determinant(block) != 0


def test_example_code_1(fields):
    for q in (2, 3, 4, 5):
        code = example_code_1(fields[q])
        assert code.size == 2 * q - 2
        assert code.n == 4
    c2 = example_code_1(fields[2])
    assert c2.codewords == ((0, 1, 1, 1), (1, 1, 1, 0))
    assert c2.contains((1, 1, 1, 0))
    assert not c2.contains((1, 1, 0, 0))


def test_example_code_2(fields):
    for q in (2, 3, 4, 5):
        code = example_code_2(fields[q], 1)
        assert code.size == 2 * q
        assert code.contains((0, 0, 0, 0))
    c2 = example_code_2(fields[2], 1)
    assert c2.codewords == ((0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        example_code_2(fields[3], 0)


def test_appendix_a_skeleton(fields):
    code = appendix_a_code(fields[2], (0,) * 6)
    assert code.G.to_rows() == [
        [1, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0, 0, 1],
    ]
    assert rank(code.G) == 4 and rank(code.H) == 4
    assert code.r == 4 and code.n == 8
    # G H^T = 0 by construction
    for i in range(4):
        assert all(x == 0 for x in mat_vec(code.H, code.G.row(i)))


def test_appendix_a_star_slots(fields):
    f3 = fields[3]
    code = appendix_a_code(f3, (1, 2, 1, 2, 1, 2))
    assert code.G.to_rows() == [
        [1, 1, 2, 0, 1, 0, 0, 0],
        [0, 1, 1, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 2, 1, 0],
        [0, 0, 0, 1, 0, 1, 2, 1],
    ]
    with pytest.raises(ValueError):
        appendix_a_code(f3, (0, 0, 0))
    with pytest.raises(ValueError):
        appendix_a_code(f3, (0, 0, 0, 0, 0, 9))


def test_appendix_a_no_nonzero_codeword_is_a_4_burst(fields):
    """The diagonal band structure forces every nonzero codeword to span
    at least 5 positions, for every star assignment (checked over GF(2)
    exhaustively and a sample over GF(3))."""
    f2 = fields[2]
    for stars in itertools.product(range(2), repeat=6):
        code = appendix_a_code(f2, stars)
        for w in code.codewords():
            if any(w):
                assert not is_burst(w, 4)
    f3 = fields[3]
    for stars in [(0, 1, 2, 0, 1, 2), (2, 2, 2, 2, 2, 2), (0, 0, 1, 0, 2, 0)]:
        code = appendix_a_code(f3, stars)
        for w in code.codewords():
            if any(w):
                assert not is_burst(w, 4)


def test_is_group_code(fields):
    f3 = fields[3]
    assert not is_group_code(example_code_1(f3))  # zero word absent
    assert is_group_code(example_code_2(fields[2], 1))
    # any linear code expanded to explicit form is a group code
    assert is_group_code(expand(rs_code(fields[7], 6, 4)))
    assert expand(CodeHandle(rs_code(fields[7], 6, 4))) == expand(rs_code(fields[7], 6, 4))
    assert not is_group_code(example_code_2(f3, 1))


def test_linear_code_validation(fields):
    f2 = fields[2]
    with pytest.raises(ValueError):
        LinearCode(f2, 4, Mat.from_rows(f2, [[1, 1, 0, 0], [1, 1, 0, 0]]))
    good_h = Mat.from_rows(f2, [[1, 1, 1, 1]])
    bad_g = Mat.from_rows(f2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
    with pytest.raises(ValueError):
        LinearCode(f2, 4, good_h, bad_g)
    with pytest.raises(ValueError, match="^parity-check width does not match the length$"):
        LinearCode(f2, 5, good_h)
    with pytest.raises(ValueError, match="^generator width does not match the length$"):
        LinearCode(f2, 4, good_h, Mat.from_rows(f2, [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0]]))


def test_explicit_code_dedup_and_redundancy(fields):
    f3 = fields[3]
    code = ExplicitCode(f3, 2, ((1, 1), (0, 1), (1, 1)))
    assert code.codewords == ((0, 1), (1, 1))
    assert code.redundancy_exact() == (2, 9)
    with pytest.raises(ValueError, match="^a code must contain at least one word$"):
        ExplicitCode(f3, 2, ())
    with pytest.raises(ValueError, match="^codeword length mismatch$"):
        ExplicitCode(f3, 2, ((1, 1), (0, 1, 2)))


def test_serialization_round_trip(fields):
    handles = [
        CodeHandle(rs_code(fields[7], 6, 2), "rs", {"n": 6, "r": 2}),
        CodeHandle(appendix_a_code(fields[2], (1, 0, 1, 0, 1, 0)), "appxa", {}),
        CodeHandle(example_code_1(fields[3]), "ex1", {}),
    ]
    for h in handles:
        d = json.loads(json.dumps(code_to_dict(h)))
        back = code_from_dict(d)
        assert back.kind == h.kind
        assert back.ctx == h.ctx
        if h.kind == "linear":
            assert back.code.H == h.code.H
            assert (back.code.G is None) == (h.code.G is None)
        else:
            assert back.code.codewords == h.code.codewords
    with pytest.raises(ValueError):
        code_from_dict({"schema": "nope"})


def test_expand_matches_syndrome_membership(fields):
    code = rs_code(fields[7], 6, 3)
    explicit = expand(code)
    assert explicit.size == code.size == 7**3
    for w in explicit.codewords:
        assert code.contains(w)


def test_codeword_cap_default(fields, monkeypatch):
    monkeypatch.delenv("BURSTKIT_CAP_CODEWORDS", raising=False)
    with pytest.raises(CapExceeded, match=r"^codeword expansion q\^k needs 83521 > cap 65536$"):
        expand(rs_code(fields[17], 16, 12))


def test_cap_exceeded_by_an_unprintable_count(fields):
    """q^k = 2^14999 has 4,516 digits, past what str() prints: the
    message gives the power of two at or below the count instead."""
    code = LinearCode(fields[2], 15000, Mat.from_rows(fields[2], [[1] * 15000], cols=15000))
    with pytest.raises(CapExceeded, match=r"^codeword expansion q\^k needs at least 2\^14999 > cap 65536$") as info:
        code.codewords()
    assert info.value.needed == 2**14999
