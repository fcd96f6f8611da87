import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hollowcheck
from hollowcheck.densemat import DimensionMismatch, Matrix, Vector, rank
from hollowcheck.emptiness import decide, decompose
from hollowcheck.harness import system_from_rows
from hollowcheck.oracle import FEASIBLE, fm_feasible, validate_witness
from hollowcheck.standardize import (EarlyEmpty, NotStandard, RawSystem,
                                     StandardSystem, TriviallyNonEmpty,
                                     check_assumptions, standardize)


def M(rows):
    return Matrix.from_rows(rows)


def V(xs):
    return Vector.from_list(xs)


class TestZeroRows:
    def test_early_empty(self):
        # the first contradictory zero row is the one reported
        res = standardize(RawSystem("ineq", M([[1, 0], [0, 0], [0, 0]]),
                                    V([5, -1, -2])))
        assert isinstance(res, EarlyEmpty)
        assert res.row == 1
        assert res.detail == "zero row 1 with negative bound -1"

    def test_removal(self):
        res = standardize(RawSystem("ineq", M([[0], [1], [0], [-1]]),
                                    V([3, 5, 0, 1])))
        assert isinstance(res, StandardSystem)
        assert res.A == M([[1], [-1]]) and res.b == V([5, 1])

    def test_no_zero_rows_unchanged(self):
        raw = RawSystem("ineq", M([[1], [1], [-1]]), V([1, 2, 0]))
        res = standardize(raw)
        assert res.A is raw.Atilde and res.b is raw.btilde

    def test_all_rows_removed(self):
        for form, bounds in (("ineq", [1, 0]), ("ineq_nonneg", [1, 0]),
                             ("eq_nonneg", [0, 0])):
            res = standardize(RawSystem(form, M([[0, 0], [0, 0]]), V(bounds)))
            assert isinstance(res, TriviallyNonEmpty)

    @pytest.mark.parametrize("form, bound, sign", [
        ("ineq", -2, 1), ("ineq_nonneg", -2, 1),
        ("eq_nonneg", 2, -1), ("eq_nonneg", -2, 1)])
    def test_farkas_y_sign(self, form, bound, sign):
        A, b = M([[1], [0], [0]]), V([1, 0, bound])
        res = standardize(RawSystem(form, A, b))
        assert isinstance(res, EarlyEmpty) and res.row == 2
        # an equality row's multiplier is free in sign; t(y)b < 0 always
        assert res.farkas_y == V([0, 0, sign])
        assert res.farkas_y.dot(b) < 0


class TestCheckAssumptions:
    def test_ok(self):
        assert check_assumptions(M([[1], [2], [-1]])) == []

    def test_square_fails(self):
        bad = check_assumptions(M([[1, 0], [0, 1]]))
        assert any("m > n" in v for v in bad)

    def test_zero_row_fails(self):
        bad = check_assumptions(M([[0, 0], [1, 0], [0, 1]]))
        assert any("zeros" in v for v in bad)


def reference_check_assumptions(A: Matrix) -> list:
    """The row scan plus `rank(A)` that `check_assumptions` replaced."""
    violations = []
    for i in range(A.rows):
        if A.row(i).is_zero():
            violations.append(f"row {i} of A is all zeros")
    if A.rows <= A.cols:
        violations.append(f"m > n fails ({A.rows} rows, {A.cols} cols)")
    r = rank(A)
    if r != A.cols:
        violations.append(f"full column rank fails (rank {r} < {A.cols})")
    return violations


SMALL_RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def assumption_matrices(draw):
    """1x1 to 8x4 int or p/q matrices; each row is drawn afresh, zero, or
    a multiple (a duplicate at 1) of an earlier row."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 8))
    entries = draw(st.sampled_from((st.integers(-2, 2), SMALL_RATIONALS)))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(("fresh", "zero", "multiple")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "multiple" and rows:
            k = draw(st.sampled_from((1, -1, 2, Fraction(-1, 2))))
            rows.append([k * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return M(rows)


class TestAssumptionsReadOff:
    """The read-off of one elimination of t(A) against the row scan and
    rank it replaced, message for message."""

    @settings(max_examples=300, deadline=None)
    @given(assumption_matrices())
    # row 1 of A shows only in the second pivot row; row 3 is zero
    @example(M([[1, 0], [0, 1], [1, 1], [0, 0]]))
    # a zero row between a duplicate and the second pivot
    @example(M([[1, 0], [2, 0], [0, 0], [0, 1]]))
    def test_same_messages(self, A):
        expected = reference_check_assumptions(A)
        assert check_assumptions(A) == expected
        b = Vector.zero(A.rows)
        if expected:
            with pytest.raises(NotStandard) as err:
                StandardSystem(A, b)
            assert str(err.value) == "; ".join(expected)
        else:
            assert len(StandardSystem(A, b).split[1]) == A.cols


class TestRhsLength:
    def test_long_and_short_b_raise(self):
        rows = [[1], [1], [-1]]
        for bounds in ([1, 2, 0, 99], [1, 2, -3, 99], [1, 2]):
            with pytest.raises(DimensionMismatch,
                               match=f"b of dim {len(bounds)} for 3 rows"):
                system_from_rows(rows, bounds)

    def test_right_length_decides(self):
        assert decide(system_from_rows([[1], [1], [-1]], [1, 2, -3])).is_empty


def count_eliminations(monkeypatch) -> list:
    """Patch `eliminate` in every package module that holds it; the list
    returned grows by one entry per call."""
    calls = []
    original = hollowcheck.densemat.eliminate

    def counted(M):
        calls.append(M.rows)
        return original(M)
    for name in ("cli", "densemat", "emptiness", "harness", "interval",
                 "oracle", "standardize"):
        mod = importlib.import_module(f"hollowcheck.{name}")
        if hasattr(mod, "eliminate"):
            monkeypatch.setattr(mod, "eliminate", counted)
    return calls


class TestEliminationCount:
    """standardize then decompose eliminates t(A) once on an admissible
    input, and at most twice when `ineq` falls back to the sign split."""

    @pytest.mark.parametrize("form, rows, bounds", [
        ("ineq", [[1], [1], [-1]], [1, 2, 0]),
        ("ineq", [[1, 0], [0, 1], [1, 1], [0, 0]], [1, 1, 3, 0]),
        ("ineq_nonneg", [[1, 1]], [1]),
        ("eq_nonneg", [[1, 2], [3, 1]], [2, 5])])
    def test_admissible_once(self, monkeypatch, form, rows, bounds):
        calls = count_eliminations(monkeypatch)
        std = standardize(RawSystem(form, M(rows), V(bounds)))
        decompose(std)
        assert not std.sign_split and len(calls) == 1

    @pytest.mark.parametrize("rows, bounds", [
        ([[1]], [5]),                                 # m <= n
        ([[1, 2], [2, 4], [-1, -2]], [1, 2, 3]),      # rank 1 < n
        ([[1, 1], [0, 0], [-2, -2]], [1, 0, 2])])     # zero row, rank 1
    def test_sign_split_at_most_twice(self, monkeypatch, rows, bounds):
        calls = count_eliminations(monkeypatch)
        std = standardize(RawSystem("ineq", M(rows), V(bounds)))
        decompose(std)
        assert std.sign_split and len(calls) <= 2


class TestStandardize:
    def test_ineq_sign_split(self):
        res = standardize(RawSystem("ineq", M([[1]]), V([5])))
        assert isinstance(res, StandardSystem)
        assert res.A == M([[1, -1], [-1, 0], [0, -1]])
        assert res.b == V([5, 0, 0])
        assert res.sign_split

    def test_ineq_already_standard_bypasses(self):
        A = M([[1], [1], [-1]])
        res = standardize(RawSystem("ineq", A, V([1, 2, 0])))
        assert isinstance(res, StandardSystem)
        assert res.A == A
        assert not res.sign_split

    def test_ineq_nonneg(self):
        res = standardize(RawSystem("ineq_nonneg", M([[1, 1]]), V([1])))
        assert res.A == M([[1, 1], [-1, 0], [0, -1]])
        assert res.b == V([1, 0, 0])

    def test_eq_nonneg(self):
        res = standardize(RawSystem("eq_nonneg", M([[1]]), V([2])))
        assert res.A == M([[1], [-1], [-1]])
        assert res.b == V([2, -2, 0])

    def test_eq_nonneg_zero_row_contradiction(self):
        res = standardize(RawSystem("eq_nonneg", M([[0], [1]]), V([3, 1])))
        assert isinstance(res, EarlyEmpty)
        assert res.detail == "zero row 0 with nonzero equality bound"

    def test_trivially_nonempty(self):
        res = standardize(RawSystem("ineq", M([[0, 0]]), V([7])))
        assert isinstance(res, TriviallyNonEmpty)

    def test_outputs_pass_assumptions(self):
        rng = random.Random(2)
        for form in ("ineq", "ineq_nonneg", "eq_nonneg"):
            for _ in range(15):
                mt = rng.randint(1, 4)
                nt = rng.randint(1, 3)
                At = M([[rng.randint(-3, 3) for _ in range(nt)]
                        for _ in range(mt)])
                bt = V([rng.randint(-3, 3) for _ in range(mt)])
                res = standardize(RawSystem(form, At, bt))
                if isinstance(res, StandardSystem):
                    assert check_assumptions(res.A) == []


def raw_feasible(raw: RawSystem):
    """Direct inequality translation of a raw system, fed to the oracle."""
    At, bt = raw.Atilde, raw.btilde
    mt, nt = At.rows, At.cols
    rows = At.row_lists()
    bounds = list(bt.entries)
    if raw.form == "eq_nonneg":
        rows += [[-x for x in r] for r in At.row_lists()]
        bounds += [-x for x in bt.entries]
    if raw.form in ("ineq_nonneg", "eq_nonneg"):
        for j in range(nt):
            rows.append([Fraction(-1) if k == j else Fraction(0)
                         for k in range(nt)])
            bounds.append(Fraction(0))
    from hollowcheck.oracle import fm_feasible_rows
    return fm_feasible_rows(rows, bounds, nt)


class TestFeasibilityPreserved:
    def test_random_round_trip(self):
        rng = random.Random(9)
        for form in ("ineq", "ineq_nonneg", "eq_nonneg"):
            for _ in range(12):
                mt = rng.randint(1, 3)
                nt = rng.randint(1, 2)
                At = M([[rng.randint(-3, 3) for _ in range(nt)]
                        for _ in range(mt)])
                bt = V([rng.randint(-3, 3) for _ in range(mt)])
                raw = RawSystem(form, At, bt)
                direct = raw_feasible(raw)
                res = standardize(raw)
                if isinstance(res, EarlyEmpty):
                    assert direct.status != FEASIBLE
                elif isinstance(res, TriviallyNonEmpty):
                    assert direct.status == FEASIBLE
                else:
                    std = fm_feasible(res.A, res.b)
                    assert std.status == direct.status
                    if std.status == FEASIBLE:
                        # the standardized witness maps back to a raw point
                        x = res.original_point(std.witness)
                        assert validate_witness(At, bt, x) \
                            if raw.form == "ineq" else True
