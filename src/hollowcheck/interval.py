"""The image of the half-infinite box {a : a <= b} under a linear form.

The emptiness test only ever asks whether 0 lies in {t(z) a : a <= b}.
That set is closed form in the signs of z: [-inf, t(z)b] if z >= 0,
[t(z)b, +inf] if z <= 0 (the point [0, 0] when z = 0), and the whole
line otherwise.  A finite endpoint is the exact Fraction t(z)b; the
only infinite ones are NEG_INF and POS_INF, which a plain == recognises.
`emptiness.run_test` reads the same signs off ints; `iv_dot` is the
reference that tests compare it against.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .densemat import DimensionMismatch, Record, Vector

NEG_INF = -math.inf
POS_INF = math.inf


class Interval(Record):
    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo, hi):
        Record.__init__(self, lo, hi)
        if not lo <= hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")


def iv_dot(z: Vector, b: Vector) -> Interval:
    """The exact set {t(z) a : a <= b}, from a sign scan of z."""
    if z.dim != b.dim:
        raise DimensionMismatch(f"iv_dot dims {z.dim} and {b.dim}")
    nonneg = all(e >= 0 for e in z.entries)
    nonpos = all(e <= 0 for e in z.entries)
    if not (nonneg or nonpos):
        return Interval(NEG_INF, POS_INF)
    zb = Fraction(z.dot(b))
    return Interval(zb if nonpos else NEG_INF, zb if nonneg else POS_INF)


def contains_zero(x: Interval) -> bool:
    return x.lo <= 0 <= x.hi
