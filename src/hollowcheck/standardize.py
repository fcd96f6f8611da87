"""Conversion of the usual polyhedron forms to the standard shape Ax <= b
with m > n, full column rank, and no zero row.

Three input forms are supported:
  ineq        {x : Ax <= b}
  ineq_nonneg {x : Ax <= b, x >= 0}
  eq_nonneg   {x : Ax = b,  x >= 0}

Degenerate all-zero rows are decided early: a zero row with a negative
bound proves emptiness outright, otherwise the row is redundant and
dropped.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .densemat import Matrix, Vector, rank

FORM_INEQ = "ineq"
FORM_INEQ_NONNEG = "ineq_nonneg"
FORM_EQ_NONNEG = "eq_nonneg"
FORMS = (FORM_INEQ, FORM_INEQ_NONNEG, FORM_EQ_NONNEG)


class AllRowsRemoved(Exception):
    """Every row was a redundant zero row; the polyhedron is all of R^n."""


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
    """Emptiness decided during presolve; `row` indexes the raw system."""
    row: int
    detail: str


@dataclass(frozen=True)
class TriviallyNonEmpty:
    detail: str


@dataclass(frozen=True)
class Provenance:
    form: str
    n_original: int
    sign_split: bool
    # label per standard-form row: ("orig", i) / ("eq_lower", i) / ("nonneg", j)
    row_labels: tuple

    def original_point(self, x_std: Vector) -> Vector:
        """Map a standard-form point back to the original variables."""
        if not self.sign_split:
            return x_std
        nn = self.n_original
        ents = tuple(x_std[j] - x_std[nn + j] for j in range(nn))
        return Vector(nn, ents)


@dataclass(frozen=True)
class StandardSystem:
    A: Matrix
    b: Vector
    provenance: Provenance

    @property
    def m(self) -> int:
        return self.A.rows

    @property
    def n(self) -> int:
        return self.A.cols


def _zero_row(A: Matrix, i: int) -> bool:
    return A.row(i).is_zero()


def drop_or_decide_zero_rows(A: Matrix, b: Vector):
    """Remove all-zero rows; EarlyEmpty if one of them has a negative bound.

    Returns (A', b', kept_indices) on the reduced path.  Raises
    AllRowsRemoved when nothing survives (the system is all of R^n).
    """
    kept = []
    for i in range(A.rows):
        if _zero_row(A, i):
            if b[i] < 0:
                return EarlyEmpty(i, f"zero row {i} with negative bound {b[i]}")
        else:
            kept.append(i)
    if not kept:
        raise AllRowsRemoved()
    if len(kept) == A.rows:
        return A, b, list(range(A.rows))
    A2 = Matrix.from_rows([[A.at(i, j) for j in range(A.cols)] for i in kept])
    b2 = Vector.from_list([b[i] for i in kept])
    return A2, b2, kept


def check_assumptions(A: Matrix, b: Vector) -> list:
    """Empty list when the standard-form assumptions hold."""
    violations = []
    for i in range(A.rows):
        if _zero_row(A, i):
            violations.append(f"row {i} of A is all zeros")
    if A.rows <= A.cols:
        violations.append(f"m > n fails ({A.rows} rows, {A.cols} cols)")
    r = rank(A)
    if r != A.cols:
        violations.append(f"full column rank fails (rank {r} < {A.cols})")
    return violations


def _neg_identity(n: int) -> Matrix:
    one, zero = Fraction(-1), Fraction(0)
    return Matrix(n, n, tuple(one if i == j else zero
                              for i in range(n) for j in range(n)))


StandardizeResult = Union[StandardSystem, EarlyEmpty, TriviallyNonEmpty]


def standardize(raw: RawSystem) -> StandardizeResult:
    if raw.form == FORM_EQ_NONNEG:
        # a zero row 0 = b_i is only redundant when b_i = 0
        for i in range(raw.Atilde.rows):
            if _zero_row(raw.Atilde, i) and raw.btilde[i] != 0:
                return EarlyEmpty(i, f"zero row {i} with nonzero equality bound")
    try:
        pre = drop_or_decide_zero_rows(raw.Atilde, raw.btilde)
    except AllRowsRemoved:
        # every constraint was redundant: R^n, or the nonnegative orthant
        return TriviallyNonEmpty("all constraint rows are redundant zero rows")
    if isinstance(pre, EarlyEmpty):
        return pre
    At, bt, kept = pre

    mt, nt = At.rows, At.cols

    if raw.form == FORM_INEQ:
        labels = tuple(("orig", i) for i in kept)
        direct = StandardSystem(At, bt,
                                Provenance(raw.form, nt, False, labels))
        if not check_assumptions(At, bt):
            return direct
        # sign-split embedding x = x+ - x-, always restores full column rank
        negAt = Matrix(At.rows, At.cols, tuple(-e for e in At.entries))
        top = At.hstack(negAt)
        negI = _neg_identity(nt)
        zeros = Matrix.zeros(nt, nt)
        A = top.vstack(negI.hstack(zeros)).vstack(zeros.hstack(negI))
        b = Vector.from_list(list(bt.entries) + [0] * (2 * nt))
        labels = labels + tuple(("nonneg_pos", j) for j in range(nt)) \
            + tuple(("nonneg_neg", j) for j in range(nt))
        return _finish(A, b, Provenance(raw.form, nt, True, labels))

    if raw.form == FORM_INEQ_NONNEG:
        A = At.vstack(_neg_identity(nt))
        b = Vector.from_list(list(bt.entries) + [0] * nt)
        labels = tuple(("orig", i) for i in kept) \
            + tuple(("nonneg", j) for j in range(nt))
        return _finish(A, b, Provenance(raw.form, nt, False, labels))

    # eq_nonneg: A x = b becomes Ax <= b and -Ax <= -b, plus x >= 0
    negA = Matrix(mt, nt, tuple(-e for e in At.entries))
    A = At.vstack(negA).vstack(_neg_identity(nt))
    b = Vector.from_list(list(bt.entries) + [-x for x in bt.entries] + [0] * nt)
    labels = tuple(("orig", i) for i in kept) \
        + tuple(("eq_lower", i) for i in kept) \
        + tuple(("nonneg", j) for j in range(nt))
    return _finish(A, b, Provenance(raw.form, nt, False, labels))


def _finish(A: Matrix, b: Vector, prov: Provenance) -> StandardSystem:
    # every embedded row is a nonzero input row or a row of -I
    bad = check_assumptions(A, b)
    if bad:  # embeddings guarantee the assumptions; reaching this is a bug
        raise AssertionError(f"standardized system violates assumptions: {bad}")
    return StandardSystem(A, b, prov)
