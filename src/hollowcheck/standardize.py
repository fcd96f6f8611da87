"""Conversion of the usual polyhedron forms to the standard shape Ax <= b
with m > n, full column rank, and no zero row.  A `StandardSystem` reads
all three off one elimination of t(A), kept as `split` for `decompose`,
and raises NotStandard if one fails.

Three input forms are supported:
  ineq        {x : Ax <= b}
  ineq_nonneg {x : Ax <= b, x >= 0}, embedded as (A; -I) x <= (b; 0)
  eq_nonneg   {x : Ax = b,  x >= 0}, embedded as (A; -A; -I) x <= (b; -b; 0)

Degenerate all-zero rows are decided early, in one pass: a zero row
0 <= b_i with b_i < 0, or an equality zero row 0 = b_i with b_i != 0,
proves emptiness outright, and EarlyEmpty carries its Farkas vector;
every other zero row is redundant and dropped.  An integer file's
systems are built from its own entries, so they stay in ints; so do
presolve's Farkas vector, the whole space's witness and the zeros that
`original_point` and `original_farkas` insert.

An `ineq` system that is not standard is projected onto the pivot
columns K of one elimination of [A | b]: Ax ranges over the column space
of A, so {x : Ax <= b} is empty iff {u : A_K u <= b} is, and A_K has
full column rank k and no zero row.  When k = m, A_K is invertible and
u = A_K^-1 b, read off the same elimination, is a point of the set
(TriviallyNonEmpty); otherwise A_K is standard.

A `StandardSystem` keeps where its rows and columns sit in the file's
embedding, and `original_point` and `original_farkas` map a witness and
a Farkas vector back there: a witness takes 0 in the columns outside K,
and a Farkas vector 0 at each dropped row (in each copy of the rows for
eq_nonneg).  A certificate of the kept rows is one of the embedding, and
a certificate of A_K is one of A, unchanged.  So every Farkas vector,
presolve's too, is one of the embedding: m, m + n or 2m + n entries,
all >= 0.
"""
from __future__ import annotations

from fractions import Fraction

from .densemat import Matrix, Record, Vector, check_rhs, eliminate
# unused here, but bench/tracer.py patches it by this name in this module
from .densemat import rank  # noqa: F401

FORM_INEQ = "ineq"
FORM_INEQ_NONNEG = "ineq_nonneg"
FORM_EQ_NONNEG = "eq_nonneg"
FORMS = (FORM_INEQ, FORM_INEQ_NONNEG, FORM_EQ_NONNEG)


class RawSystem(Record):
    __slots__ = _fields = ("form", "Atilde", "btilde")

    def __init__(self, form: str, Atilde: Matrix, btilde: Vector):
        Record.__init__(self, form, Atilde, btilde)
        if form not in FORMS:
            raise ValueError(f"unknown form {form!r}")
        check_rhs(Atilde, btilde)


class EarlyEmpty(Record):
    """Emptiness decided during presolve; `row` indexes the raw system.
    `farkas_y` is 1 on that row of the file's embedding (for 0 = b_i > 0,
    on its negated copy, row m + i) and 0 elsewhere, with t(y)b < 0."""
    __slots__ = _fields = ("row", "detail", "farkas_y")


class TriviallyNonEmpty(Record):
    """Nonemptiness decided without the test battery."""
    __slots__ = _fields = (
        "detail",   # the set, "whole space" or "nonnegative orthant", or why
        "note",     # one sentence for the report
        "witness",  # a point of the set, in the file's variables
    )


class NotStandard(ValueError):
    """A standing assumption fails; the message lists every failure."""


def _violations(A: Matrix, split: tuple) -> list:
    """The failed assumptions, read off split = eliminate(t(A)): row i of A
    is zero iff column i of d rref(t(A)) is; the rank counts the pivots."""
    rows, piv_cols, _ = split
    violations = [f"row {i} of A is all zeros"
                  for i, col in enumerate(zip(*rows)) if not any(col)]
    if A.rows <= A.cols:
        violations.append(f"m > n fails ({A.rows} rows, {A.cols} cols)")
    if len(piv_cols) != A.cols:
        violations.append(f"full column rank fails "
                          f"(rank {len(piv_cols)} < {A.cols})")
    return violations


def check_assumptions(A: Matrix) -> list:
    """Empty list when the standard-form assumptions hold."""
    return _violations(A, eliminate(A.transpose()))


def _frame(dim: int, kept) -> tuple | None:
    """(dim, kept) for a selection of `kept` positions out of dim; None
    when it keeps them all."""
    return None if len(kept) == dim else (dim, tuple(kept))


def _lift(v: Vector, frame: tuple | None) -> Vector:
    """v at the kept positions of frame = (dim, kept) and 0 elsewhere; v
    itself for frame None."""
    if frame is None:
        return v
    dim, kept = frame
    ents = [0] * dim
    for i, x in zip(kept, v.entries):
        ents[i] = x
    return Vector(dim, tuple(ents))


class StandardSystem(Record):
    """Ax <= b under the standing assumptions; NotStandard otherwise.

    `raw_rows` places A's rows among the rows of the file's embedding, and
    `raw_cols` its columns among the file's columns, each as a `_frame`.
    """
    _fields = ("A", "b", "raw_rows", "raw_cols")
    # eliminate(t(A)): its pivot columns are the first n independent rows;
    # derived, so eq, repr and hash leave it out
    __slots__ = _fields + ("split",)

    def __init__(self, A: Matrix, b: Vector, raw_rows: tuple | None = None,
                 raw_cols: tuple | None = None):
        Record.__init__(self, A, b, raw_rows, raw_cols)
        check_rhs(A, b)
        split = eliminate(A.transpose())
        bad = _violations(A, split)
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
        """A point of this system as a point of the file: 0 in the columns
        it dropped."""
        return _lift(x_std, self.raw_cols)

    def original_farkas(self, y_std: Vector) -> Vector:
        """A Farkas vector of this system as one of the file's embedding:
        0 at the rows it dropped."""
        return _lift(y_std, self.raw_rows)


StandardizeResult = StandardSystem | EarlyEmpty | TriviallyNonEmpty


def _project(A: Matrix, b: Vector, raw_rows: tuple | None):
    """{x : Ax <= b} on the pivot columns K of eliminate([A | b]), for A
    with no zero row; see the module docstring."""
    n = A.cols
    rows, piv_cols, d = eliminate(A.hstack(Matrix(A.rows, 1, b.entries)))
    K = [c for c in piv_cols if c < n]
    raw_cols = _frame(n, K)
    if len(K) == A.rows:
        # d rref([A | b]) = [d I | d u] on K, for u = A_K^-1 b
        u = Vector(len(K), tuple(Fraction(row[n], d) for row in rows))
        return TriviallyNonEmpty(
            "full row rank", "A has full row rank; a solution of Ax = b "
            "lies in the polyhedron", _lift(u, raw_cols))
    AK = Matrix(A.rows, len(K),
                tuple(A.at(i, c) for i in range(A.rows) for c in K))
    return StandardSystem(AK, b, raw_rows, raw_cols)


def standardize(raw: RawSystem) -> StandardizeResult:
    At, bt = raw.Atilde, raw.btilde
    m, n = At.rows, At.cols
    eq = raw.form == FORM_EQ_NONNEG
    dim = (2 * m if eq else m) + (0 if raw.form == FORM_INEQ else n)
    kept = []
    for i in range(m):
        if any(At.entries[i * n:(i + 1) * n]):
            kept.append(i)
        elif bt[i] < 0 or (eq and bt[i] > 0):
            # 0 <= b_i < 0, or the negated copy 0 <= -b_i < 0 of 0 = b_i
            bound = "nonzero equality bound" if eq else f"negative bound {bt[i]}"
            return EarlyEmpty(i, f"zero row {i} with {bound}",
                              Vector.unit(dim, i if bt[i] < 0 else m + i))
    if not kept:
        # every constraint was redundant: the set is R^n, or the orthant
        detail = ("whole space" if raw.form == FORM_INEQ
                  else "nonnegative orthant")
        return TriviallyNonEmpty(
            detail, "all constraints redundant; polyhedron is the " + detail,
            Vector.zero(n))
    if len(kept) < m:
        At = Matrix(len(kept), n, tuple(
            x for i in kept for x in At.entries[i * n:(i + 1) * n]))
        bt = Vector(len(kept), tuple(bt.entries[i] for i in kept))

    if raw.form == FORM_INEQ:
        raw_rows = _frame(m, kept)
        try:
            return StandardSystem(At, bt, raw_rows)
        except NotStandard:
            return _project(At, bt, raw_rows)
    if eq:
        # A x = b becomes Ax <= b and -Ax <= -b, with x >= 0
        At = At.vstack(At.neg())
        bt = Vector(2 * bt.dim, bt.entries + bt.neg().entries)
        kept += [m + i for i in kept]
        m *= 2
    # x >= 0 as -x <= 0: no zero row is added, and -I gives full column rank
    A = At.vstack(Matrix(n, n, tuple(-1 if i == j else 0
                                      for i in range(n) for j in range(n))))
    b = Vector(bt.dim + n, bt.entries + (0,) * n)
    return StandardSystem(A, b, _frame(dim, kept + list(range(m, dim))))
