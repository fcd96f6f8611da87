import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hollowcheck.densemat import (DimensionMismatch, Matrix, NotRightInverse,
                                  RankDeficient, Singular, Vector,
                                  _nullspace_basis, invert,
                                  left_nullspace_basis, mat_mul, mat_vec,
                                  mp_axioms_check, orth_complement_basis,
                                  pinv_append_row, pinv_full_col_rank, rank,
                                  rref, vec_mat)


def M(rows):
    return Matrix.from_rows(rows)


def V(xs):
    return Vector.from_list(xs)


def random_matrix(rng, m, n, lo=-5, hi=5):
    return M([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def random_full_col_rank(rng, m, n):
    while True:
        A = random_matrix(rng, m, n)
        if rank(A) == n:
            return A


class TestVector:
    def test_neg_exact(self):
        neg = Vector(3, (Fraction(2, 3), Fraction(0), Fraction(-5, 7))).neg()
        assert neg.entries == (Fraction(-2, 3), 0, Fraction(5, 7))
        assert all(isinstance(e, Fraction) for e in neg.entries)


class TestMatMul:
    def test_identity(self):
        A = M([[1, 2], [3, 4]])
        assert mat_mul(Matrix.identity(2), A) == A

    def test_hand_product(self):
        assert mat_mul(M([[1, 0], [1, 1]]), M([[2], [3]])) == M([[2], [5]])

    def test_zero_row_annihilates(self):
        P = M([[0, 0], [0, 1]])
        A = M([[5, 7], [1, 2]])
        prod = mat_mul(P, A)
        assert prod.row(0).is_zero()

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_mul(M([[1, 2]]), M([[1, 2]]))


class TestInvert:
    def test_identity(self):
        assert invert(Matrix.identity(3)) == Matrix.identity(3)

    def test_scalar(self):
        assert invert(M([[2]])) == M([[Fraction(1, 2)]])

    def test_unit_upper_triangular(self):
        assert invert(M([[1, 1], [0, 1]])) == M([[1, -1], [0, 1]])

    def test_singular_raises(self):
        with pytest.raises(Singular):
            invert(M([[1, 2], [2, 4]]))

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(20):
            A = random_full_col_rank(rng, 4, 4)
            assert mat_mul(A, invert(A)) == Matrix.identity(4)


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(4)) == 4

    def test_proportional_rows(self):
        assert rank(M([[1, 2], [2, 4]])) == 1

    def test_zero_matrix(self):
        assert rank(Matrix.zeros(3, 2)) == 0


def reference_rref(rows):
    """Gauss-Jordan in Fraction arithmetic, the reference for `rref`:
    forward elimination to echelon form, then back-substitution."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    piv_cols = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f == 0:
                continue
            f = f / pv
            for j in range(c, ncols):
                rows[i][j] -= f * rows[r][j]
            rows[i][c] = Fraction(0)
        piv_cols.append(c)
        r += 1
    for r in range(len(piv_cols) - 1, -1, -1):
        c = piv_cols[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(r):
            f = rows[i][c]
            if f != 0:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
    return rows[:len(piv_cols)], piv_cols


def reference_nullspace(rows):
    """Basis of {x : M x = 0} from `reference_rref`: x[fc] = 1 for one free
    column fc, x[pc] = -rref[r][fc] at each pivot column pc."""
    ref_rows, piv_cols = reference_rref(rows)
    basis = []
    for fc in range(len(rows[0])):
        if fc in piv_cols:
            continue
        vec = [Fraction(0)] * len(rows[0])
        vec[fc] = Fraction(1)
        for r, pc in enumerate(piv_cols):
            vec[pc] = -ref_rows[r][fc]
        basis.append(vec)
    return basis


RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
SHAPES = st.one_of(st.tuples(st.just(1), st.integers(1, 6)),
                   st.tuples(st.integers(1, 6), st.just(1)),
                   st.tuples(st.integers(1, 5), st.integers(1, 5)))


@st.composite
def elimination_inputs(draw):
    """Rational matrices: p/q entries, or a rank-deficient product C B,
    with some rows and columns then zeroed."""
    m, n = draw(SHAPES)
    if draw(st.booleans()):
        rows = [[draw(RATIONALS) for _ in range(n)] for _ in range(m)]
    else:
        k = draw(st.integers(1, max(1, min(m, n) - 1)))
        C = [[draw(RATIONALS) for _ in range(k)] for _ in range(m)]
        B = [[draw(RATIONALS) for _ in range(n)] for _ in range(k)]
        rows = [[sum(C[i][t] * B[t][j] for t in range(k)) for j in range(n)]
                for i in range(m)]
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=m))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return [[Fraction(0) if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(rows)]


class TestEliminationAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(elimination_inputs())
    def test_rref_and_rank_match_reference(self, rows):
        A = M(rows)
        ref_rows, ref_pivots = reference_rref(A.row_lists())
        assert rref(A) == (ref_rows, ref_pivots)
        assert rank(A) == len(ref_pivots)
        assert all(type(x) is Fraction for row in rref(A)[0] for x in row)

    @settings(max_examples=300, deadline=None)
    @given(elimination_inputs())
    def test_nullspace_pairs_match_reference(self, rows):
        # both bases, as (w, s) int pairs, against one vector per free
        # column of the reference RREF, in lowest terms with s > 0
        A = M(rows)
        # left_nullspace_basis stands in the zero vector for a trivial kernel
        cases = [(left_nullspace_basis(A.transpose()),
                  reference_nullspace(rows) or [[Fraction(0)] * A.cols]),
                 (orth_complement_basis(A.row(0)),
                  reference_nullspace(rows[:1]))]
        for basis, expected in cases:
            assert len(basis) == len(expected)
            for (w, s), vec in zip(basis, expected):
                assert all(type(x) is int for x in (*w, s))
                assert [Fraction(x, s) for x in w] == vec
                assert s > 0 and math.gcd(s, *w) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(RATIONALS, min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_invert_round_trip_on_rationals(self, rows):
        A = M(rows)
        if rank(A) < A.rows:
            with pytest.raises(Singular):
                invert(A)
        else:
            assert mat_mul(invert(A), A) == Matrix.identity(A.rows)


class TestPinvFullColRank:
    def test_identity(self):
        assert pinv_full_col_rank(Matrix.identity(3)) == Matrix.identity(3)

    def test_ones_column(self):
        P = pinv_full_col_rank(M([[1], [1]]))
        assert P == M([[Fraction(1, 2), Fraction(1, 2)]])

    def test_axioms_random(self):
        # the defining axioms are their own oracle, checked exactly
        rng = random.Random(5)
        for _ in range(10):
            A = random_full_col_rank(rng, 5, 3)
            P = pinv_full_col_rank(A)
            assert all(mp_axioms_check(A, P).values())

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficient):
            pinv_full_col_rank(M([[1, 2], [2, 4], [3, 6]]))


class TestPinvAppendRow:
    def test_zero_row_on_identity(self):
        I2 = Matrix.identity(2)
        P = pinv_append_row(I2, I2, V([0, 0]))
        assert P == M([[0, 1, 0], [0, 0, 1]])

    def test_matches_direct_pinv(self):
        I2 = Matrix.identity(2)
        a = V([1, 0])
        P = pinv_append_row(I2, I2, a)
        stacked = M([[1, 0], [1, 0], [0, 1]])
        assert P == pinv_full_col_rank(stacked)

    def test_random_k2_n3(self):
        # appended row drawn from the row space, stacked via direct pinv
        rng = random.Random(23)
        for _ in range(10):
            while True:
                A2t = random_matrix(rng, 3, 3)
                if rank(A2t) == 3:
                    break
            a = V([rng.randint(-3, 3) for _ in range(3)])
            stacked = M([list(a.entries)] + A2t.row_lists())
            if rank(stacked) != 3:
                continue
            P = pinv_append_row(invert(A2t), A2t, a)
            assert P == pinv_full_col_rank(stacked)

    def test_not_right_inverse_raises(self):
        I2 = Matrix.identity(2)
        bad = M([[2, 0], [0, 2]])
        with pytest.raises(NotRightInverse):
            pinv_append_row(bad, I2, V([1, 1]))


def pair_vector(pair):
    """The exact vector w / s of a (w, s) basis pair."""
    w, s = pair
    return Vector(len(w), tuple(Fraction(x, s) for x in w))


class TestLeftNullspace:
    def test_one_column(self):
        basis = left_nullspace_basis(M([[-1], [-1]]))
        assert len(basis) == 1
        (w, s), = basis
        assert w[0] * -1 + w[1] * -1 == 0 and any(w) and s > 0

    def test_trivial_kernel_sentinel(self):
        basis = left_nullspace_basis(Matrix.identity(2))
        assert basis == [((0, 0), 1)]

    def test_zero_matrix_whole_space(self):
        basis = left_nullspace_basis(Matrix.zeros(2, 1))
        assert len(basis) == 2

    def test_exact_orthogonality_and_count(self):
        rng = random.Random(7)
        for _ in range(20):
            R = random_matrix(rng, 5, 2)
            basis = left_nullspace_basis(R)
            r = rank(R.transpose())
            expected = R.rows - r
            if expected == 0:
                assert basis == [((0,) * R.rows, 1)]
            else:
                assert len(basis) == expected
                for k in basis:
                    assert vec_mat(pair_vector(k), R).is_zero()


class TestOrthComplement:
    def test_2d(self):
        (w, s), = orth_complement_basis(V([1, 2]))
        assert w[0] * 1 + w[1] * 2 == 0 and any(w) and s > 0

    def test_zero_vector_convention(self):
        basis = orth_complement_basis(V([0, 0]))
        assert basis == [((1, 0), 1), ((0, 1), 1)]

    def test_e1_in_3d(self):
        basis = orth_complement_basis(V([1, 0, 0]))
        assert len(basis) == 2
        for w, _ in basis:
            assert w[0] == 0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.just(0), st.integers(-6, 6), RATIONALS,
                              st.integers(-10 ** 30, 10 ** 30)),
                    min_size=1, max_size=8))
    def test_closed_form_matches_elimination(self, xs):
        # pair for pair, int and Fraction entries alike, against the
        # elimination of the 1 x d row it replaced
        v = Vector(len(xs), tuple(xs))
        basis = orth_complement_basis(v)
        if v.is_zero():
            assert basis == [(tuple(int(i == j) for j in range(v.dim)), 1)
                             for i in range(v.dim)]
        else:
            assert basis == _nullspace_basis(Matrix(1, v.dim, (v.entries,)))
        assert all(type(x) is int for w, s in basis for x in (*w, s))

    def test_independent(self):
        rng = random.Random(3)
        for _ in range(20):
            v = V([rng.randint(-4, 4) for _ in range(4)])
            basis = orth_complement_basis(v)
            B = M([list(w) for w, _ in basis])
            assert rank(B) == len(basis)
            if not v.is_zero():
                assert len(basis) == 3
                for k in basis:
                    assert pair_vector(k).dot(v) == 0


class TestMPAxiomsCheck:
    def test_identity(self):
        I3 = Matrix.identity(3)
        assert all(mp_axioms_check(I3, I3).values())

    def test_transpose_counterexample(self):
        A = M([[2]])
        report = mp_axioms_check(A, A.transpose())
        assert not report["APA=A"]

    def test_shape_guard(self):
        with pytest.raises(DimensionMismatch):
            mp_axioms_check(M([[1, 2]]), M([[1, 2]]))



class TestLayout:
    """A Matrix holds `rows` tuples of `cols` entries each."""

    @pytest.mark.parametrize("rows, cols, entries", [
        (1, 2, (1, 2)),                 # the flat row-major layout
        (2, 1, (1, 2)),
        (2, 2, ((1, 2), (3,))),         # ragged
        (1, 1, ((1,), (2,))),           # one row too many
        (1, 2, ([1, 2],)),              # a list row, unhashable
    ])
    def test_not_rows_of_cols_raises(self, rows, cols, entries):
        with pytest.raises(DimensionMismatch):
            Matrix(rows, cols, entries)

    def test_ragged_from_rows_raises(self):
        with pytest.raises(DimensionMismatch):
            M([[1, 2], [3]])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_list_reference(self, data):
        entry = st.one_of(st.integers(-6, 6), RATIONALS)

        def lists(m, n):
            return data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                      min_size=m, max_size=m))
        m, n, k = (data.draw(st.integers(1, 4)) for _ in range(3))
        rows = lists(m, n)
        A = M(rows)
        assert (A.rows, A.cols, len(A.entries)) == (m, n, m)
        assert all(type(row) is tuple and len(row) == n
                   and all(type(x) is Fraction for x in row)
                   for row in A.entries)
        assert A.row_lists() == rows
        assert [[A.at(i, j) for j in range(n)] for i in range(m)] == rows
        assert [list(A.row(i).entries) for i in range(m)] == rows
        assert A.transpose().row_lists() == [[r[j] for r in rows]
                                             for j in range(n)]
        assert A.neg().row_lists() == [[-x for x in r] for r in rows]
        right, below = lists(m, k), lists(k, n)
        assert A.hstack(M(right)).row_lists() == [r + s for r, s
                                                  in zip(rows, right)]
        assert A.vstack(M(below)).row_lists() == rows + below
        with pytest.raises(DimensionMismatch):
            A.hstack(M(lists(m + 1, k)))
        with pytest.raises(DimensionMismatch):
            A.vstack(M(lists(k, n + 1)))
