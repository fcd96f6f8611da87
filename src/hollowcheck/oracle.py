"""Exact Fourier-Motzkin feasibility oracle over rationals.

Ground truth for cross-validating the algebraic emptiness test.
Every derived row carries the nonnegative combination of original rows
that produced it, so an infeasibility certificate (y >= 0, t(y)A = 0,
t(y)b < 0) falls out of the elimination for free.  Feasible systems get
a rational witness by back-substitution through the elimination stages.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

from .densemat import Matrix, Vector, check_rhs, int_scaled

DEFAULT_ROW_CAP = 100_000

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


class SizeExceeded(Exception):
    """Row count blew past the cap; the instance is too large for FM."""


@dataclass(frozen=True)
class FMResult:
    status: str
    witness: Optional[Vector] = None        # feasible: A x <= b exactly
    certificate: Optional[Vector] = None    # infeasible: y >= 0, yA = 0, yb < 0


class _Row:
    __slots__ = ("coeffs", "bound", "mult")

    def __init__(self, coeffs, bound, mult):
        self.coeffs = coeffs    # list[Fraction], full width n
        self.bound = bound      # Fraction
        self.mult = mult        # dict original-row-index -> Fraction >= 0


def _combine(pos: _Row, neg: _Row, j: int) -> _Row:
    # pos.coeffs[j] > 0, neg.coeffs[j] < 0; result has zero in column j
    fp = Fraction(1) / pos.coeffs[j]
    fn = Fraction(-1) / neg.coeffs[j]
    coeffs = [fp * a + fn * b for a, b in zip(pos.coeffs, neg.coeffs)]
    coeffs[j] = Fraction(0)
    bound = fp * pos.bound + fn * neg.bound
    mult = dict()
    for idx, w in pos.mult.items():
        mult[idx] = mult.get(idx, Fraction(0)) + fp * w
    for idx, w in neg.mult.items():
        mult[idx] = mult.get(idx, Fraction(0)) + fn * w
    return _Row(coeffs, bound, mult)


def _dedupe(rows: list) -> list:
    # identical coefficient vectors: only the tightest bound matters
    best = {}
    order = []
    for r in rows:
        key = tuple(r.coeffs)
        cur = best.get(key)
        if cur is None:
            best[key] = r
            order.append(key)
        elif r.bound < cur.bound:
            best[key] = r
    return [best[k] for k in order]


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
    out = list(zero)
    for p in pos:
        for q in neg:
            out.append(_combine(p, q, j))
            if len(out) > row_cap:
                raise SizeExceeded(f"row cap {row_cap} exceeded eliminating x_{j}")
    # constant rows: 0 <= bound is either a contradiction or noise
    kept = []
    for r in out:
        if any(c != 0 for c in r.coeffs):
            kept.append(r)
        elif r.bound < 0:
            return out, r
    return _dedupe(kept), None


def _mult_vector(row: _Row, m: int) -> Vector:
    return Vector.from_list([row.mult.get(i, Fraction(0)) for i in range(m)])


def _pick_column(rows: list, remaining: list) -> int:
    # smallest pos*neg product controls the FM blowup; ties by index
    best_j, best_score = remaining[0], None
    for j in remaining:
        p = sum(1 for r in rows if r.coeffs[j] > 0)
        q = sum(1 for r in rows if r.coeffs[j] < 0)
        score = p * q
        if best_score is None or score < best_score:
            best_j, best_score = j, score
    return best_j


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
    rows = [_Row([Fraction(x) for x in coeff_rows[i]], Fraction(bounds[i]),
                 {i: Fraction(1)})
            for i in range(m)]
    # initial constant rows
    live = []
    for r in rows:
        if all(c == 0 for c in r.coeffs):
            if r.bound < 0:
                return FMResult(INFEASIBLE, certificate=_mult_vector(r, m))
        else:
            live.append(r)
    rows = _dedupe(live)

    snapshots = []          # (var index, rows before eliminating it)
    remaining = list(range(n))
    while remaining and rows:
        j = _pick_column(rows, remaining)
        snapshots.append((j, rows))
        rows, contradiction = _eliminate_rows(rows, j, row_cap)
        if contradiction is not None:
            return FMResult(INFEASIBLE, certificate=_mult_vector(contradiction, m))
        remaining.remove(j)

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
