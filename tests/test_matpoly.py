import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstkit import (
    Mat,
    determinant,
    field_new,
    mat_mul,
    null_space,
    poly_add,
    poly_divmod,
    poly_eval,
    poly_from_roots,
    poly_mul,
    rank,
    rref,
    solve_affine,
    vandermonde,
)
from burstkit.matpoly import NEG_INF, _first_left_null, left_null_space, mat_vec, poly_degree, poly_trim, span_members


def test_poly_ring_examples(fields):
    f7 = fields[7]
    prod = poly_mul(f7, (6, 1), (1, 1))  # (x-1)(x+1)
    assert prod == (6, 0, 1)  # x^2 + 6
    assert poly_eval(f7, prod, 3) == 1  # 9 + 6 = 15 = 1 (mod 7)
    assert poly_add(f7, prod, ()) == prod


def test_poly_normalization_and_degree():
    f7 = field_new(7, 1)
    assert poly_trim([1, 0, 0]) == (1,)
    assert poly_degree(()) == NEG_INF
    assert poly_degree((5,)) == 0
    assert poly_mul(f7, (), (1, 2)) == ()


def test_poly_divmod_examples(fields):
    f7 = fields[7]
    a = (6, 0, 1)  # x^2 - 1
    b = (6, 1)  # x - 1
    assert poly_divmod(f7, a, a) == ((1,), ())
    assert poly_divmod(f7, a, b) == ((1, 1), ())  # quotient x + 1
    assert poly_divmod(f7, b, a) == ((), b)  # deg a < deg b
    with pytest.raises(ZeroDivisionError):
        poly_divmod(f7, a, ())


@settings(max_examples=200, derandomize=True)
@given(
    st.lists(st.integers(0, 6), max_size=8),
    st.lists(st.integers(0, 6), min_size=1, max_size=5),
)
def test_poly_divmod_round_trip(acoeffs, bcoeffs):
    f7 = field_new(7, 1)
    a = poly_trim(acoeffs)
    b = poly_trim(bcoeffs)
    if not b:
        return
    q, r = poly_divmod(f7, a, b)
    assert poly_add(f7, poly_mul(f7, q, b), r) == a
    assert poly_degree(r) < poly_degree(b) or r == ()


def test_determinant_examples(fields):
    f5 = fields[5]
    assert determinant(Mat.identity(f5, 3)) == 1
    assert determinant(Mat.from_rows(f5, [[0, 1], [1, 0]])) == f5.neg(1)
    m = Mat.from_rows(f5, [[f5.neg(1), 1], [f5.neg(3), 1]])
    assert determinant(m) == 2  # beta_1 - beta_0 = 3 - 1
    with pytest.raises(ValueError):
        determinant(Mat(f5, 2, 3))


def test_determinant_multiplicative():
    rng = random.Random(11)
    f7 = field_new(7, 1)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = Mat(f7, n, n, [rng.randrange(7) for _ in range(n * n)])
        b = Mat(f7, n, n, [rng.randrange(7) for _ in range(n * n)])
        assert determinant(mat_mul(a, b)) == f7.mul(determinant(a), determinant(b))


def test_solve_affine_examples(fields):
    f2, f5 = fields[2], fields[5]
    # identity: unique solution
    sol = solve_affine(Mat.identity(f5, 3), [1, 4, 2])
    assert sol == ([1, 4, 2], [])
    # zero matrix, zero rhs: whole space
    sol = solve_affine(Mat(f5, 2, 2), [0, 0])
    assert sol is not None and len(sol[1]) == 2
    # single parity over GF(2)
    sol = solve_affine(Mat.from_rows(f2, [[1, 1]]), [0])
    assert sol == ([0, 0], [[1, 1]])
    # inconsistent
    assert solve_affine(Mat(f5, 2, 2), [1, 0]) is None
    with pytest.raises(ValueError):
        solve_affine(Mat(f5, 2, 2), [1])


def test_solve_affine_enumerated_solution_set():
    """Every member of the affine set solves, and the count is exactly
    q^(cols - rank), checked exhaustively."""
    from burstkit import mat_vec

    rng = random.Random(5)
    for q, p, m in ((2, 2, 1), (3, 3, 1), (4, 2, 2)):
        f = field_new(p, m)
        for _ in range(25):
            rows, cols = rng.randint(1, 3), rng.randint(1, 4)
            a = Mat(f, rows, cols, [rng.randrange(q) for _ in range(rows * cols)])
            x0 = [rng.randrange(q) for _ in range(cols)]
            b = mat_vec(a, x0)  # consistent by construction
            sol = solve_affine(a, b)
            assert sol is not None
            part, basis = sol
            assert q ** (cols - rank(a)) == q ** len(basis)
            members = set()
            for coeffs in itertools.product(range(q), repeat=len(basis)):
                v = list(part)
                for c, bb in zip(coeffs, basis):
                    for j in range(cols):
                        v[j] = f.add(v[j], f.mul(c, bb[j]))
                members.add(tuple(v))
                assert mat_vec(a, v) == b
            assert len(members) == q ** len(basis)
            assert tuple(x0) in members


def test_null_space_is_canonical_echelon_basis(fields):
    from burstkit import mat_vec

    f3 = fields[3]
    m = Mat.from_rows(f3, [[1, 2, 0, 1], [0, 0, 1, 2]])
    basis = null_space(m)
    # free columns are 1 and 3; each basis vector has a 1 there
    assert basis == [[1, 1, 0, 0], [2, 0, 1, 1]]
    for v in basis:
        assert mat_vec(m, v) == [0, 0]


def test_vandermonde_examples(fields):
    f7 = fields[7]
    assert vandermonde(f7, [1]).to_rows() == [[1]]
    v = vandermonde(f7, [1, 3])
    assert v.to_rows() == [[1, 1], [1, 3]]
    assert determinant(v) == 2


def test_vandermonde_determinant_identity():
    rng = random.Random(3)
    for p, m in ((7, 1), (2, 4), (13, 1)):
        f = field_new(p, m)
        for _ in range(30):
            k = rng.randint(1, 4)
            xs = [rng.randrange(f.q) for _ in range(k)]
            prod = 1
            for s in range(k):
                for t in range(s + 1, k):
                    prod = f.mul(prod, f.sub(xs[t], xs[s]))
            assert determinant(vandermonde(f, xs)) == prod


def test_rank_and_rref(fields):
    f2 = fields[2]
    m = Mat.from_rows(f2, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert rank(m) == 2
    assert rank(Mat(f2, 0, 4)) == 0
    assert rank(Mat.identity(f2, 4)) == 4


def test_field_mismatch_rejected():
    f2, f3 = field_new(2, 1), field_new(3, 1)
    with pytest.raises(ValueError):
        mat_mul(Mat.identity(f2, 2), Mat.identity(f3, 2))


def test_shape_mismatches_rejected(fields):
    f5 = fields[5]
    with pytest.raises(ValueError, match="^data length does not match dimensions$"):
        Mat(f5, 2, 2, [1, 2, 3])
    with pytest.raises(ValueError, match="^cannot infer column count from an empty row list$"):
        Mat.from_rows(f5, [])
    with pytest.raises(ValueError, match="^ragged rows$"):
        Mat.from_rows(f5, [[1, 2], [3]])
    with pytest.raises(ValueError, match="^inner dimensions do not match$"):
        mat_mul(Mat.identity(f5, 2), Mat.identity(f5, 3))
    with pytest.raises(ValueError, match="^vector length does not match column count$"):
        mat_vec(Mat.identity(f5, 2), [1, 2, 3])


def test_poly_from_roots(fields):
    f5 = fields[5]
    p = poly_from_roots(f5, [1, 2])
    assert p == (2, 2, 1)  # (x-1)(x-2) = x^2 + 2x + 2 over GF(5)
    for root in (1, 2):
        assert poly_eval(f5, p, root) == 0


# -- brute-force oracles for the elimination kernel ----------------------

ORACLE_ORDERS = (2, 3, 4, 5, 7, 8, 9)
# every shape up to 4 x 5: empty on either side, square, tall and wide
ORACLE_SHAPES = [(r, c) for r in range(5) for c in range(6)]


def oracle_matrices(fields):
    """Seeded matrices over each oracle field, every shape twice: once
    dense, once with zero rows and repeated rows planted."""
    rng = random.Random(2024)
    for q in ORACLE_ORDERS:
        f = fields[q]
        for rows, cols in ORACLE_SHAPES:
            for planted in (False, True):
                data = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
                if planted and rows > 1:
                    data[rng.randrange(rows)] = [0] * cols
                    i, j = rng.sample(range(rows), 2)
                    data[j] = list(data[i])
                yield f, Mat(f, rows, cols, [x for row in data for x in row])


def leibniz(f, m):
    total = 0
    for perm in itertools.permutations(range(m.rows)):
        term = 1
        for i, j in enumerate(perm):
            term = f.mul(term, m.at(i, j))
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        total = f.add(total, f.neg(term) if odd else term)
    return total


def test_determinant_matches_leibniz_expansion(fields):
    squares = 0
    for f, m in oracle_matrices(fields):
        if m.rows == m.cols:
            assert determinant(m) == leibniz(f, m), (f.q, m.to_rows())
            squares += 1
    assert squares == len(ORACLE_ORDERS) * 5 * 2


def test_rref_is_reduced_and_spans_the_input_rows(fields):
    for f, m in oracle_matrices(fields):
        red, pivots = rref(m)
        assert (red.rows, red.cols) == (m.rows, m.cols)
        assert list(pivots) == sorted(set(pivots))
        for i in range(m.rows):
            row = red.row(i)
            if i >= len(pivots):
                assert row == [0] * m.cols
                continue
            assert row[: pivots[i]] == [0] * pivots[i] and row[pivots[i]] == 1
            assert all(red.at(k, pivots[i]) == 0 for k in range(m.rows) if k != i)
        for i in range(m.rows):
            combo = [0] * m.cols
            for k, c in enumerate(pivots):
                combo = [f.add(x, f.mul(m.at(i, c), y)) for x, y in zip(combo, red.row(k))]
            assert combo == m.row(i), (f.q, m.to_rows())


def test_rank_counts_pivots_and_the_row_space(fields):
    for f, m in oracle_matrices(fields):
        r = rank(m)
        assert r == len(rref(m)[1])
        assert len(set(span_members(f, [0] * m.cols, m.to_rows()))) == f.q**r, (f.q, m.to_rows())


def back_substituted_null_basis(f, m):
    """The null-space basis read off the full RREF: 1 at each free
    column, minus that column of the reduced rows at the pivots."""
    red, pivots = rref(m)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        v = [0] * m.cols
        v[free] = 1
        for i, c in enumerate(pivots):
            v[c] = f.neg(red.at(i, free))
        basis.append(v)
    return basis


def test_null_spaces_are_empty_exactly_at_full_column_rank(fields):
    """null_space returns [] straight after the forward pass iff every
    column pivots, on square, tall and wide shapes; otherwise it is the
    back-substituted basis. left_null_space is the same on the transpose."""
    kinds = set()
    for f, m in oracle_matrices(fields):
        basis = null_space(m)
        assert (basis == []) == (rank(m) == m.cols), (f.q, m.to_rows())
        assert basis == back_substituted_null_basis(f, m), (f.q, m.to_rows())
        left = left_null_space(m)
        assert (left == []) == (rank(m) == m.rows), (f.q, m.to_rows())
        assert left == back_substituted_null_basis(f, m.transpose()), (f.q, m.to_rows())
        kinds.add((basis == [], (m.rows > m.cols) - (m.rows < m.cols)))
    # (empty, tall - wide): a wide matrix never has full column rank
    assert kinds == {(True, 0), (True, 1), (False, -1), (False, 0), (False, 1)}


def test_first_left_null_is_the_first_canonical_left_kernel_vector(fields):
    """_first_left_null against left_null_space(m)[0]: the oracle
    matrices, and products A*B with inner size k below both sides, so
    that the rank falls 0-3 short of full on square, tall and wide shapes
    (0-row ones included) over prime, 2^m and odd p^m fields."""
    cases = list(oracle_matrices(fields))
    rng = random.Random(29)
    for q in (2, 3, 4, 9, 13, 16):
        f = fields[q]
        for rows, cols in [(0, 0), (0, 4), (3, 0), (5, 5), (8, 8), (6, 9), (9, 6), (1, 7), (7, 1)]:
            for short in range(4):
                k = max(min(rows, cols) - short, 0)
                a = Mat(f, rows, k, [rng.randrange(q) for _ in range(rows * k)])
                b = Mat(f, k, cols, [rng.randrange(q) for _ in range(k * cols)])
                cases.append((f, mat_mul(a, b)))
    deficiency = set()
    for f, m in cases:
        basis = left_null_space(m)
        assert _first_left_null(m) == (basis[0] if basis else None), (f.q, m.rows, m.cols, m.to_rows())
        if m.rows == m.cols:
            deficiency.add(len(basis))
    assert {0, 1, 2, 3} <= deficiency


# -- the Mat contract: one form, rows copied in and out ------------------

def flat(m):
    return [x for row in m.to_rows() for x in row]


def test_flat_and_row_constructors_agree_and_transpose_twice_is_the_identity(fields):
    """On every oracle shape, 0 x n and n x 0 included."""
    for f, m in oracle_matrices(fields):
        rows = m.to_rows()
        assert Mat(f, m.rows, m.cols, flat(m)) == Mat.from_rows(f, rows, cols=m.cols) == m
        t = m.transpose()
        assert (t.rows, t.cols) == (m.cols, m.rows) and len(t.to_rows()) == m.cols
        assert all(t.at(j, i) == m.at(i, j) for i in range(m.rows) for j in range(m.cols))
        assert t.transpose() == m, (f.q, rows)


def test_rows_handed_out_or_taken_in_are_copies(fields):
    """Mutating what to_rows() or row(i) returns, or the rows given to
    from_rows, leaves the matrix as it was."""

    def bump(f, row):
        row[:] = [f.add(x, 1) for x in row]  # changes every entry

    for f, m in oracle_matrices(fields):
        before = Mat(f, m.rows, m.cols, flat(m))
        for row in m.to_rows():
            bump(f, row)
        for i in range(m.rows):
            bump(f, m.row(i))
        rows = m.to_rows()
        taken = Mat.from_rows(f, rows, cols=m.cols)
        for row in rows:
            bump(f, row)
        assert m == before and taken == before, (f.q, before.to_rows())


def test_kernels_leave_their_arguments_unchanged(fields):
    rng = random.Random(31)
    for f, m in oracle_matrices(fields):
        before = Mat(f, m.rows, m.cols, flat(m))
        v = [rng.randrange(f.q) for _ in range(m.cols)]
        b = [rng.randrange(f.q) for _ in range(m.rows)]
        right = Mat(f, m.cols, 2, [rng.randrange(f.q) for _ in range(2 * m.cols)])
        left = Mat(f, 2, m.rows, [rng.randrange(f.q) for _ in range(2 * m.rows)])
        args = [list(v), list(b), Mat(f, m.cols, 2, flat(right)), Mat(f, 2, m.rows, flat(left))]
        for kernel in (rank, rref, null_space, left_null_space, determinant):
            if kernel is not determinant or m.rows == m.cols:
                kernel(m)
        solve_affine(m, b)
        mat_mul(m, right)
        mat_mul(left, m)
        mat_vec(m, v)
        assert m == before and [v, b, right, left] == args, (f.q, before.to_rows())
