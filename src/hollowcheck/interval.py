"""Extended-real interval arithmetic for half-infinite boxes.

Endpoints are exact rationals, with math.inf / -math.inf as the two
infinite values.  Multiplication by zero short-circuits to the thin
interval [0,0] before any endpoint product, so 0 * inf never occurs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .densemat import DimensionMismatch, Vector

NEG_INF = -math.inf
POS_INF = math.inf


class UndefinedSum(ArithmeticError):
    """(-inf) + (+inf) endpoint pairing; cannot occur for boxes [-inf, b]."""


def is_neg_inf(x) -> bool:
    return isinstance(x, float) and x == NEG_INF


def is_pos_inf(x) -> bool:
    return isinstance(x, float) and x == POS_INF


def _ext_add(x, y):
    if (is_neg_inf(x) and is_pos_inf(y)) or (is_pos_inf(x) and is_neg_inf(y)):
        raise UndefinedSum("adding opposite infinities")
    if is_neg_inf(x) or is_neg_inf(y):
        return NEG_INF
    if is_pos_inf(x) or is_pos_inf(y):
        return POS_INF
    return x + y


def _ext_scale(z, x):
    # caller guarantees z != 0
    if is_neg_inf(x):
        return NEG_INF if z > 0 else POS_INF
    if is_pos_inf(x):
        return POS_INF if z > 0 else NEG_INF
    return z * x


@dataclass(frozen=True)
class Interval:
    lo: object
    hi: object

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @staticmethod
    def thin(x) -> "Interval":
        return Interval(x, x)

    def is_thin(self) -> bool:
        return self.lo == self.hi


ZERO = Interval(Fraction(0), Fraction(0))


@dataclass(frozen=True)
class IntervalVector:
    boxes: tuple

    def __post_init__(self):
        if len(self.boxes) == 0:
            raise ValueError("interval vector must be nonempty")

    def __len__(self) -> int:
        return len(self.boxes)

    def __getitem__(self, i: int) -> Interval:
        return self.boxes[i]


def iv_add(x: Interval, y: Interval) -> Interval:
    return Interval(_ext_add(x.lo, y.lo), _ext_add(x.hi, y.hi))


def iv_scale(z, x: Interval) -> Interval:
    if z == 0:
        return ZERO
    if z > 0:
        return Interval(_ext_scale(z, x.lo), _ext_scale(z, x.hi))
    return Interval(_ext_scale(z, x.hi), _ext_scale(z, x.lo))


def iv_dot(z: Vector, boxes: IntervalVector) -> Interval:
    """The exact set {t(z) a : a in boxes}.

    Each component occurs once in the fold, so the interval evaluation is
    the exact image, not an enclosure.
    """
    if z.dim != len(boxes):
        raise DimensionMismatch(f"iv_dot dims {z.dim} and {len(boxes)}")
    acc = ZERO
    for zi, box in zip(z.entries, boxes.boxes):
        acc = iv_add(acc, iv_scale(zi, box))
    return acc


def contains_zero(x: Interval) -> bool:
    return x.lo <= 0 <= x.hi


def box_below(b: Vector) -> IntervalVector:
    """Component i is [-inf, b_i]."""
    return IntervalVector(tuple(Interval(NEG_INF, bi) for bi in b.entries))
