"""Dense linear algebra over exact rationals.

An entry is an int or a fractions.Fraction: `parse_system` keeps integer
tokens as ints, and so do `Vector.zero` and `Vector.unit`, while
`to_scalar`, `Matrix.from_rows` and `Vector.from_list` make Fractions.
Every reader goes through numerator/denominator, comparisons and
Fraction(x, d), which both types support.

Everything here is a pure function of immutable values, and every zero
test is exact.  Elimination (`eliminate` and all built on it) runs
fraction-free in Python ints.  `rref` returns Fractions; the nullspace
bases are (w, s) pairs, w a tuple of ints and s > 0 an int, w / s in
lowest terms.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain

ScalarLike = int | Fraction | str


class DimensionMismatch(ValueError):
    pass


class Singular(ValueError):
    """Square matrix has rank < dim."""


class RankDeficient(ValueError):
    """Matrix does not have full column rank."""


class NotRightInverse(ValueError):
    """Claimed right inverse fails A2t @ P == I."""


class Record:
    """Base of the package's value types, in place of `dataclasses`, whose
    import (it loads `inspect`, `ast`, `dis` and `tokenize`) costs a fresh
    `check` process far more than the emptiness test does.

    A subclass names its fields in order in `_fields` and holds them in
    `__slots__`.  `Record.__init__` takes one value per field, in that
    order, and stores each through its slot; a subclass that checks or
    defaults an argument calls it from its own `__init__`.  Records are
    equal when they are of one class and their fields are equal, and the
    repr is `Name(field=value, ...)`, as for a dataclass.  A record is
    frozen: it hashes its fields, and assigning one raises AttributeError.
    A mutable subclass sets `__setattr__ = object.__setattr__` and
    `__hash__ = None`.
    """
    __slots__ = ()
    _fields = ()
    _store = ()     # the fields' slot setters, past the frozen __setattr__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._store = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._store):
            raise TypeError(f"{self.__class__.__qualname__} takes "
                            f"{len(self._store)} values, got {len(values)}")
        for store, value in zip(self._store, values):
            store(self, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__: restoring the slots
        # one by one would go through the frozen __setattr__
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{self.__class__.__qualname__} (value type "
                             f"{type(value).__name__})")


def to_scalar(x: ScalarLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Vector(Record):
    __slots__ = _fields = ("dim", "entries")

    def __init__(self, dim: int, entries: tuple):
        Record.__init__(self, dim, entries)
        if dim < 1 or len(entries) != dim:
            raise DimensionMismatch(
                f"vector of dim {dim} with {len(entries)} entries")

    @staticmethod
    def from_list(xs: Sequence[ScalarLike]) -> "Vector":
        ents = tuple(to_scalar(x) for x in xs)
        return Vector(len(ents), ents)

    @staticmethod
    def zero(dim: int) -> "Vector":
        return Vector(dim, (0,) * dim)

    @staticmethod
    def unit(dim: int, i: int) -> "Vector":
        return Vector(dim, (0,) * i + (1,) + (0,) * (dim - 1 - i))

    def __getitem__(self, i: int):
        return self.entries[i]

    def dot(self, other: "Vector"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dot of dims {self.dim} and {other.dim}")
        return sum(a * b for a, b in zip(self.entries, other.entries))

    def neg(self) -> "Vector":
        return Vector(self.dim, tuple(-e for e in self.entries))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)


class Matrix(Record):
    __slots__ = _fields = ("rows", "cols", "entries")  # entries row-major

    def __init__(self, rows: int, cols: int, entries: tuple):
        Record.__init__(self, rows, cols, entries)
        if rows < 1 or cols < 1:
            raise DimensionMismatch(f"matrix shape {rows}x{cols}")
        if len(entries) != rows * cols:
            raise DimensionMismatch("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[ScalarLike]]) -> "Matrix":
        nrows = len(rows)
        if nrows == 0:
            raise DimensionMismatch("matrix needs at least one row")
        ncols = len(rows[0])
        ents = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            ents.extend(to_scalar(x) for x in r)
        return Matrix(nrows, ncols, tuple(ents))

    @staticmethod
    def identity(n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return Matrix(n, n, tuple(one if i == j else zero
                                  for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(m: int, n: int) -> "Matrix":
        return Matrix(m, n, (Fraction(0),) * (m * n))

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return Vector(self.cols, self.entries[i * self.cols:(i + 1) * self.cols])

    def row_lists(self) -> list:
        return [[self.at(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(chain.from_iterable(
            [self.entries[j::self.cols] for j in range(self.cols)])))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        ents = []
        for i in range(self.rows):
            ents.extend(self.entries[i * self.cols:(i + 1) * self.cols])
            ents.extend(other.entries[i * other.cols:(i + 1) * other.cols])
        return Matrix(self.rows, self.cols + other.cols, tuple(ents))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack col mismatch")
        return Matrix(self.rows + other.rows, self.cols,
                      self.entries + other.entries)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def neg(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-e for e in self.entries))


def check_rhs(A: Matrix, b: Vector) -> None:
    """Raise DimensionMismatch unless b has one entry per row of A."""
    if b.dim != A.rows:
        raise DimensionMismatch(f"b of dim {b.dim} for {A.rows} rows of A")


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    if A.cols != B.rows:
        raise DimensionMismatch(
            f"cannot multiply {A.rows}x{A.cols} by {B.rows}x{B.cols}")
    ents = []
    for i in range(A.rows):
        arow = A.entries[i * A.cols:(i + 1) * A.cols]
        for j in range(B.cols):
            ents.append(sum(arow[k] * B.at(k, j) for k in range(A.cols)))
    return Matrix(A.rows, B.cols, tuple(ents))


def mat_vec(A: Matrix, x: Vector) -> Vector:
    if A.cols != x.dim:
        raise DimensionMismatch(f"mat_vec {A.rows}x{A.cols} by dim {x.dim}")
    return Vector(A.rows,
                  tuple(sum(A.at(i, k) * x[k] for k in range(A.cols))
                        for i in range(A.rows)))


def vec_mat(x: Vector, A: Matrix) -> Vector:
    """Row-vector product t(x) A."""
    if x.dim != A.rows:
        raise DimensionMismatch(f"vec_mat dim {x.dim} by {A.rows}x{A.cols}")
    return Vector(A.cols,
                  tuple(sum(x[i] * A.at(i, j) for i in range(A.rows))
                        for j in range(A.cols)))


def denominator_lcm(xs) -> int:
    """The lcm of the denominators of the rationals xs, a positive int."""
    return math.lcm(*(x.denominator for x in xs))


def int_scaled(xs) -> tuple:
    """The rationals xs times `denominator_lcm(xs)`, as ints; ints as they
    are."""
    if all(type(x) is int for x in xs):
        return tuple(xs)
    scale = denominator_lcm(xs)
    return tuple(x.numerator * (scale // x.denominator) for x in xs)


def lowest_terms(w, d: int) -> tuple:
    """(w / g, d / g) for g = gcd(d, *w), signed so that d / g > 0."""
    g = math.gcd(d, *w) * (-1 if d < 0 else 1)
    return tuple(x // g for x in w), d // g


def eliminate(M: Matrix):
    """Fraction-free Gauss-Jordan elimination of M (Bareiss 1968).

    Each row is first scaled to ints by `int_scaled`, which changes neither
    the pivots nor the RREF.  Each step updates every other row to
    (pv a - f b) // prev, an exact division.  Returns (rows, pivot
    columns, d): the first len(pivot columns) rows are d times rref(M),
    and the rest are zero.
    """
    rows = [list(int_scaled(M.entries[i * M.cols:(i + 1) * M.cols]))
            for i in range(M.rows)]
    piv_cols = []
    prev = 1
    for c in range(M.cols):
        r = len(piv_cols)
        if r == M.rows:
            break
        p = next((i for i in range(r, M.rows) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            # a row with f = 0 still takes the factor pv / prev
            if i == r or not f and pv == prev:
                continue
            rows[i] = [(pv * a - f * b) // prev for a, b in zip(row, prow)]
        piv_cols.append(c)
        prev = pv
    return rows, piv_cols, prev


def rank(M: Matrix) -> int:
    return len(eliminate(M)[1])


def rref(M: Matrix):
    """Reduced row echelon form: (nonzero rows as lists, pivot columns)."""
    rows, piv_cols, d = eliminate(M)
    return ([[Fraction(x, d) for x in row] for row in rows[:len(piv_cols)]],
            piv_cols)


def invert(M: Matrix) -> Matrix:
    """M^-1, read off rref([M | I]); Singular unless M's columns all pivot."""
    if M.rows != M.cols:
        raise DimensionMismatch("invert needs a square matrix")
    n = M.rows
    rows, piv_cols = rref(M.hstack(Matrix.identity(n)))
    if piv_cols != list(range(n)):
        r = sum(1 for c in piv_cols if c < n)
        raise Singular(f"matrix is singular (rank {r} < {n})")
    return Matrix(n, n, tuple(x for row in rows for x in row[n:]))


def pinv_full_col_rank(A: Matrix) -> Matrix:
    """Pseudoinverse (tAA)^-1 tA; requires full column rank."""
    At = A.transpose()
    K = mat_mul(At, A)
    try:
        Kinv = invert(K)
    except Singular as exc:
        raise RankDeficient(
            f"matrix {A.rows}x{A.cols} does not have full column rank") from exc
    return mat_mul(Kinv, At)


def pinv_append_row(A2t_pinv: Matrix, A2t: Matrix, a: Vector) -> Matrix:
    """Pseudoinverse of the bordered matrix (t(a); A2t).

    A2t must have full row rank k <= n with A2t_pinv its right inverse;
    the appended row then has zero residual against A2t's row space and
    the rank-one update formula applies.
    """
    k, n = A2t.rows, A2t.cols
    if a.dim != n or A2t_pinv.rows != n or A2t_pinv.cols != k:
        raise DimensionMismatch("pinv_append_row shape mismatch")
    if mat_mul(A2t, A2t_pinv) != Matrix.identity(k):
        raise NotRightInverse("A2t_pinv is not a right inverse of A2t")
    # v = t(A2t_pinv) a,  h = 1 + t(v) v
    v = mat_vec(A2t_pinv.transpose(), a)
    h = Fraction(1) + v.dot(v)
    pv = mat_vec(A2t_pinv, v)                     # A2t_pinv v, length n
    first_col = Matrix(n, 1, tuple(x / h for x in pv.entries))
    # A2t_pinv - h^-1 (A2t_pinv v) t(v)
    rest = Matrix(n, k,
                  tuple(A2t_pinv.at(i, j) - pv[i] * v[j] / h
                        for i in range(n) for j in range(k)))
    return first_col.hstack(rest)


def _nullspace_basis(M: Matrix) -> list:
    """Basis of {x : M x = 0}, one (w, s) pair per free column of rref(M)."""
    rows, piv_cols, d = eliminate(M)
    basis = []
    for fc in range(M.cols):
        if fc in piv_cols:
            continue
        w = [0] * M.cols
        w[fc] = d
        for r, pc in enumerate(piv_cols):
            w[pc] = -rows[r][fc]
        basis.append(lowest_terms(w, d))
    return basis


def left_nullspace_basis(R: Matrix) -> list:
    """Basis of {k : t(k) R = 0} as (w, s) pairs; the zero vector if trivial."""
    return _nullspace_basis(R.transpose()) or [((0,) * R.rows, 1)]


def orth_complement_basis(v: Vector) -> list:
    """dim-1 independent (w, s) pairs orthogonal to v; canonical for v = 0."""
    return _nullspace_basis(Matrix(1, v.dim, v.entries))


def mp_axioms_check(A: Matrix, P: Matrix) -> dict:
    """Check the four defining axioms of the pseudoinverse of A against P."""
    if P.rows != A.cols or P.cols != A.rows:
        raise DimensionMismatch("candidate pseudoinverse has wrong shape")
    AP = mat_mul(A, P)
    PA = mat_mul(P, A)
    return {
        "APA=A": mat_mul(AP, A) == A,
        "PAP=P": mat_mul(PA, P) == P,
        "AP_symmetric": AP.transpose() == AP,
        "PA_symmetric": PA.transpose() == PA,
    }
