import itertools
import random
from fractions import Fraction

import pytest

from hollowcheck.densemat import Matrix, Vector
from hollowcheck.oracle import (FEASIBLE, INFEASIBLE, SizeExceeded,
                                fm_feasible, fm_feasible_rows,
                                validate_certificate, validate_witness)


def M(rows):
    return Matrix.from_rows(rows)


def V(xs):
    return Vector.from_list(xs)


class TestFeasible:
    def test_infeasible_1d(self):
        res = fm_feasible(M([[1], [1], [-1]]), V([1, 2, -3]))
        assert res.status == INFEASIBLE
        assert validate_certificate(M([[1], [1], [-1]]), V([1, 2, -3]),
                                    res.certificate)

    def test_feasible_1d_midpoint(self):
        res = fm_feasible(M([[1], [1], [-1]]), V([1, 2, 0]))
        assert res.status == FEASIBLE
        assert res.witness == V([Fraction(1, 2)])

    def test_no_constraints(self):
        res = fm_feasible_rows([], [], 1)
        assert res.status == FEASIBLE
        assert res.witness == V([0])

    def test_unbounded_above_rule(self):
        # only a lower bound: x >= 2, witness lower bound + 1
        res = fm_feasible(M([[-1]]), V([-2]))
        assert res.status == FEASIBLE
        assert res.witness == V([3])

    def test_unbounded_below_rule(self):
        res = fm_feasible(M([[1]]), V([5]))
        assert res.witness == V([4])

    def test_size_cap(self):
        rng = random.Random(0)
        rows = [[rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)]
                for _ in range(30)]
        b = [rng.randint(-3, 3) for _ in range(30)]
        with pytest.raises(SizeExceeded):
            fm_feasible(M(rows), V(b), row_cap=10)


def grid_feasible(A: Matrix, b: Vector, lo=-6, hi=6, denom=2) -> bool:
    """Sanity oracle: exhaustive lattice search on a fine rational grid."""
    n = A.cols
    pts = [Fraction(k, denom) for k in range(lo * denom, hi * denom + 1)]
    for cand in itertools.product(pts, repeat=n):
        if all(sum(A.at(i, j) * cand[j] for j in range(n)) <= b[i]
               for i in range(A.rows)):
            return True
    return False


class TestProperties:
    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(60):
            m = rng.randint(1, 5)
            n = rng.randint(1, 3)
            A = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
            b = V([rng.randint(-3, 3) for _ in range(m)])
            res = fm_feasible(A, b)
            if res.status == FEASIBLE:
                assert validate_witness(A, b, res.witness)
            else:
                assert validate_certificate(A, b, res.certificate)

    def test_agreement_with_grid_search(self):
        # small integer instances whose feasible region, if any, meets the grid
        rng = random.Random(29)
        checked = 0
        for _ in range(40):
            m = rng.randint(1, 5)
            n = rng.randint(1, 2)
            A = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
            b = V([rng.randint(-3, 3) for _ in range(m)])
            res = fm_feasible(A, b)
            on_grid = grid_feasible(A, b)
            if on_grid:
                assert res.status == FEASIBLE
                checked += 1
            elif res.status == FEASIBLE:
                # witness exists but may sit off the coarse grid; verify it
                assert validate_witness(A, b, res.witness)
        assert checked > 5
