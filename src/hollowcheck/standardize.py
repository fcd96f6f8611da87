"""Conversion of the usual polyhedron forms to the standard shape Ax <= b
with m > n, full column rank, and no zero row.

Three input forms are supported:
  ineq        {x : Ax <= b}
  ineq_nonneg {x : Ax <= b, x >= 0}
  eq_nonneg   {x : Ax = b,  x >= 0}

Degenerate all-zero rows are decided early, in one pass: a zero row
0 <= b_i with b_i < 0, or an equality zero row 0 = b_i with b_i != 0,
proves emptiness outright, and EarlyEmpty carries its Farkas vector;
every other zero row is redundant and dropped.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .densemat import Matrix, Vector, rank

FORM_INEQ = "ineq"
FORM_INEQ_NONNEG = "ineq_nonneg"
FORM_EQ_NONNEG = "eq_nonneg"
FORMS = (FORM_INEQ, FORM_INEQ_NONNEG, FORM_EQ_NONNEG)


@dataclass(frozen=True)
class RawSystem:
    form: str
    Atilde: Matrix
    btilde: Vector

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        if self.Atilde.rows != self.btilde.dim:
            raise ValueError("row count of A and dim of b differ")


@dataclass(frozen=True)
class EarlyEmpty:
    """Emptiness decided during presolve; `row` indexes the raw system.

    `farkas_y` is +-1 on that row and 0 elsewhere, with t(y)b < 0.
    """
    row: int
    detail: str
    farkas_y: Vector


@dataclass(frozen=True)
class TriviallyNonEmpty:
    detail: str     # the set: "whole space" or "nonnegative orthant"


@dataclass(frozen=True)
class StandardSystem:
    A: Matrix
    b: Vector
    sign_split: bool = False    # columns are (x+, x-) with x = x+ - x-

    @property
    def m(self) -> int:
        return self.A.rows

    @property
    def n(self) -> int:
        return self.A.cols

    def original_point(self, x_std: Vector) -> Vector:
        """Map a standard-form point back to the original variables."""
        if not self.sign_split:
            return x_std
        nn = self.n // 2
        return Vector(nn, tuple(x_std[j] - x_std[nn + j] for j in range(nn)))


def check_assumptions(A: Matrix) -> list:
    """Empty list when the standard-form assumptions hold."""
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


StandardizeResult = Union[StandardSystem, EarlyEmpty, TriviallyNonEmpty]


def standardize(raw: RawSystem) -> StandardizeResult:
    At, bt = raw.Atilde, raw.btilde
    eq = raw.form == FORM_EQ_NONNEG
    kept = []
    for i in range(At.rows):
        if not At.row(i).is_zero():
            kept.append(i)
        elif bt[i] < 0 or (eq and bt[i] != 0):
            # an equality multiplier may be negative; its sign makes t(y)b < 0
            y = Vector.unit(At.rows, i)
            bound = "nonzero equality bound" if eq else f"negative bound {bt[i]}"
            return EarlyEmpty(i, f"zero row {i} with {bound}",
                              y.neg() if bt[i] > 0 else y)
    if not kept:
        # every constraint was redundant: the set is R^n, or the orthant
        return TriviallyNonEmpty("whole space" if raw.form == FORM_INEQ
                                 else "nonnegative orthant")
    if len(kept) < At.rows:
        rows = At.row_lists()
        At = Matrix.from_rows([rows[i] for i in kept])
        bt = Vector.from_list([bt[i] for i in kept])

    if raw.form == FORM_INEQ and not check_assumptions(At):
        return StandardSystem(At, bt)
    nt = At.cols
    negI = Matrix.identity(nt).neg()

    if raw.form == FORM_INEQ:
        # sign-split embedding x = x+ - x-, always restores full column rank
        zeros = Matrix.zeros(nt, nt)
        A = At.hstack(At.neg()).vstack(negI.hstack(zeros)) \
            .vstack(zeros.hstack(negI))
        b = Vector.from_list(list(bt.entries) + [0] * (2 * nt))
        return _finish(A, b, sign_split=True)

    if raw.form == FORM_INEQ_NONNEG:
        A = At.vstack(negI)
        b = Vector.from_list(list(bt.entries) + [0] * nt)
        return _finish(A, b)

    # eq_nonneg: A x = b becomes Ax <= b and -Ax <= -b, plus x >= 0
    A = At.vstack(At.neg()).vstack(negI)
    b = Vector.from_list(list(bt.entries) + [-x for x in bt.entries] + [0] * nt)
    return _finish(A, b)


def _finish(A: Matrix, b: Vector, sign_split: bool = False) -> StandardSystem:
    # every embedded row is a nonzero input row or a row of -I
    bad = check_assumptions(A)
    if bad:  # embeddings guarantee the assumptions; reaching this is a bug
        raise AssertionError(f"standardized system violates assumptions: {bad}")
    return StandardSystem(A, b, sign_split)
