"""Exact Fourier-Motzkin feasibility oracle over rationals.

Ground truth for cross-validating the algebraic emptiness test.
An input row keeps its row index, and a derived row keeps links to its
two parents and the positive factor applied to each.  A contradicting
row (0 <= bound < 0) is a nonnegative combination of input rows, and its
multipliers are an infeasibility certificate (y >= 0, t(y)A = 0,
t(y)b < 0); they are summed over its ancestors only when FM stops on
such a row.  Feasible systems get a rational witness by back-substitution
through the elimination stages.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul

from .densemat import Matrix, Record, Vector, check_rhs, int_scaled

DEFAULT_ROW_CAP = 100_000

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


class SizeExceeded(Exception):
    """Row count blew past the cap; the instance is too large for FM."""


class FMResult(Record):
    __slots__ = _fields = (
        "status",
        "witness",      # feasible: A x <= b exactly
        "certificate",  # infeasible: y >= 0, yA = 0, yb < 0
    )

    def __init__(self, status: str, witness: Vector | None = None,
                 certificate: Vector | None = None):
        Record.__init__(self, status, witness, certificate)


class _Row:
    __slots__ = ("coeffs", "bound", "src")

    def __init__(self, coeffs, bound, src):
        self.coeffs = coeffs    # list[Fraction], full width n
        self.bound = bound      # Fraction
        self.src = src          # input row index, or (pos, fp, neg, fn)


def _combine(pos: _Row, neg: _Row, j: int) -> _Row:
    # pos.coeffs[j] > 0, neg.coeffs[j] < 0; result has zero in column j
    fp = Fraction(1) / pos.coeffs[j]
    fn = Fraction(-1) / neg.coeffs[j]
    coeffs = [fp * a + fn * b for a, b in zip(pos.coeffs, neg.coeffs)]
    coeffs[j] = Fraction(0)
    bound = fp * pos.bound + fn * neg.bound
    return _Row(coeffs, bound, (pos, fp, neg, fn))


def _prune(rows: list) -> tuple:
    """(rows, contradiction): the first constant row 0 <= bound < 0, else
    None and the non-constant rows, the tightest bound kept for each
    coefficient vector, in first-occurrence order."""
    best = {}
    for r in rows:
        if not any(r.coeffs):
            if r.bound < 0:
                return [], r
            continue    # 0 <= bound: noise
        key = tuple(r.coeffs)
        cur = best.get(key)
        if cur is None or r.bound < cur.bound:
            best[key] = r
    return list(best.values()), None


def _eliminate_rows(rows: list, j: int, row_cap: int):
    """One FM step on full-width rows; returns (new_rows, contradiction)."""
    zero, pos, neg = [], [], []
    for r in rows:
        c = r.coeffs[j]
        if c == 0:
            zero.append(r)
        elif c > 0:
            pos.append(r)
        else:
            neg.append(r)
    out = zero
    for p in pos:
        for q in neg:
            out.append(_combine(p, q, j))
            if len(out) > row_cap:
                raise SizeExceeded(f"row cap {row_cap} exceeded eliminating x_{j}")
    return _prune(out)


def _farkas(row: _Row, m: int) -> Vector:
    """The multipliers of the m input rows in `row`: the sum, over each
    path from `row` up to an input row, of the product of its factors."""
    order, seen, stack = [], set(), [(row, False)]
    while stack:
        r, finished = stack.pop()
        if finished:
            order.append(r)     # after both parents: a topological order
        elif r not in seen:
            seen.add(r)
            stack.append((r, True))
            if type(r.src) is tuple:
                stack.append((r.src[0], False))
                stack.append((r.src[2], False))
    y = [Fraction(0)] * m
    weight = {row: Fraction(1)}
    for r in reversed(order):   # each row before its parents
        w = weight[r]
        if type(r.src) is int:
            y[r.src] += w
        else:
            pos, fp, neg, fn = r.src
            weight[pos] = weight.get(pos, 0) + fp * w
            weight[neg] = weight.get(neg, 0) + fn * w
    return Vector.from_list(y)


def _pick_column(rows: list, remaining: list) -> int:
    # smallest pos*neg product controls the FM blowup; ties by index
    return min(remaining, key=lambda j: sum(r.coeffs[j] > 0 for r in rows)
               * sum(r.coeffs[j] < 0 for r in rows))


def _witness_value(rows: list, j: int, values: dict) -> Fraction:
    lo = None
    hi = None
    for r in rows:
        c = r.coeffs[j]
        if c == 0:
            continue
        rest = sum(r.coeffs[k] * values[k]
                   for k in values if r.coeffs[k] != 0 and k != j)
        bound = (r.bound - rest) / c
        if c > 0:
            hi = bound if hi is None else min(hi, bound)
        else:
            lo = bound if lo is None else max(lo, bound)
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1
    if hi is None:
        return lo + 1
    return (lo + hi) / 2


def fm_feasible_rows(coeff_rows: list, bounds: list, n: int,
                     row_cap: int = DEFAULT_ROW_CAP) -> FMResult:
    """Feasibility of {x : coeff_rows x <= bounds} with possibly zero rows."""
    m = len(coeff_rows)
    rows, contradiction = _prune([
        _Row([Fraction(x) for x in coeff_rows[i]], Fraction(bounds[i]), i)
        for i in range(m)])
    snapshots = []          # (var index, rows before eliminating it)
    remaining = list(range(n))
    while contradiction is None and remaining and rows:
        j = _pick_column(rows, remaining)
        snapshots.append((j, rows))
        rows, contradiction = _eliminate_rows(rows, j, row_cap)
        remaining.remove(j)
    if contradiction is not None:
        return FMResult(INFEASIBLE, certificate=_farkas(contradiction, m))

    # feasible: back-substitute in reverse elimination order
    values = {j: Fraction(0) for j in remaining}
    for j, stage_rows in reversed(snapshots):
        values[j] = _witness_value(stage_rows, j, values)
    witness = Vector.from_list([values[j] for j in range(n)])
    return FMResult(FEASIBLE, witness=witness)


def fm_feasible(A: Matrix, b: Vector, row_cap: int = DEFAULT_ROW_CAP) -> FMResult:
    check_rhs(A, b)
    coeff_rows = A.row_lists()
    return fm_feasible_rows(coeff_rows, list(b.entries), A.cols, row_cap)


def validate_certificate(A: Matrix, b: Vector, y: Vector) -> bool:
    """Exact check of a Farkas certificate against the original system.

    A row with y_i = 0 adds nothing to t(y)A or t(y)b.  On the other rows,
    y, A and b are each scaled to ints by the positive lcm of their own
    denominators, which leaves the signs of y, t(y)A and t(y)b alone, and
    the check runs in ints.
    """
    check_rhs(A, b)
    if y.dim != A.rows:
        return False
    rows = [i for i, x in enumerate(y.entries) if x]
    yz = int_scaled([y[i] for i in rows])
    if any(x < 0 for x in yz):
        return False
    n = A.cols
    Az = int_scaled([a for i in rows for a in A.entries[i * n:(i + 1) * n]])
    if any(sum(map(mul, yz, Az[j::n])) for j in range(n)):
        return False
    return sum(map(mul, yz, int_scaled([b[i] for i in rows]))) < 0


def validate_witness(A: Matrix, b: Vector, x: Vector) -> bool:
    check_rhs(A, b)
    if x.dim != A.cols:
        return False
    for i in range(A.rows):
        if sum(A.at(i, j) * x[j] for j in range(A.cols)) > b[i]:
            return False
    return True
