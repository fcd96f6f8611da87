"""Conversion of the usual polyhedron forms to the standard shape Ax <= b
with m > n, full column rank, and no zero row.  A `StandardSystem` reads
all three off one elimination of t(A), kept as `split` for `decompose`,
and raises NotStandard if one fails.

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

from dataclasses import dataclass, field
from typing import Union

from .densemat import Matrix, Vector, check_rhs, eliminate
# unused here, but bench/tracer.py patches it by this name in this module
from .densemat import rank  # noqa: F401

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
        check_rhs(self.Atilde, self.btilde)


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


class NotStandard(ValueError):
    """A standing assumption fails; the message lists every failure."""


def _violations(A: Matrix, split: tuple) -> list:
    """The failed assumptions, read off split = eliminate(t(A)): row i of A
    is zero iff column i of d rref(t(A)) is; the rank counts the pivots."""
    rows, piv_cols, _ = split
    violations = [f"row {i} of A is all zeros" for i in range(A.rows)
                  if not any(row[i] for row in rows)]
    if A.rows <= A.cols:
        violations.append(f"m > n fails ({A.rows} rows, {A.cols} cols)")
    if len(piv_cols) != A.cols:
        violations.append(f"full column rank fails "
                          f"(rank {len(piv_cols)} < {A.cols})")
    return violations


def check_assumptions(A: Matrix) -> list:
    """Empty list when the standard-form assumptions hold."""
    return _violations(A, eliminate(A.transpose()))


@dataclass(frozen=True)
class StandardSystem:
    """Ax <= b under the standing assumptions; NotStandard otherwise."""
    A: Matrix
    b: Vector
    sign_split: bool = False    # columns are (x+, x-) with x = x+ - x-
    # eliminate(t(A)): its pivot columns are the first n independent rows
    split: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_rhs(self.A, self.b)
        split = eliminate(self.A.transpose())
        bad = _violations(self.A, split)
        if bad:
            raise NotStandard("; ".join(bad))
        object.__setattr__(self, "split", split)

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

    ineq = raw.form == FORM_INEQ
    if ineq:
        try:
            return StandardSystem(At, bt)
        except NotStandard:
            # x = x+ - x- with x+, x- >= 0
            At = At.hstack(At.neg())
    elif eq:
        # A x = b becomes Ax <= b and -Ax <= -b, with x >= 0
        At = At.vstack(At.neg())
        bt = Vector.from_list(list(bt.entries) + [-x for x in bt.entries])
    # x >= 0 as -x <= 0: no zero row is added, and -I gives full column rank
    A = At.vstack(Matrix.identity(At.cols).neg())
    b = Vector.from_list(list(bt.entries) + [0] * At.cols)
    return StandardSystem(A, b, sign_split=ineq)
