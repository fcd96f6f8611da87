import random
from fractions import Fraction

import pytest

from hollowcheck.densemat import Matrix, Vector
from hollowcheck.oracle import FEASIBLE, fm_feasible, validate_witness
from hollowcheck.standardize import (EarlyEmpty, RawSystem, StandardSystem,
                                     TriviallyNonEmpty, check_assumptions,
                                     standardize)


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
