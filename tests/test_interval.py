import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hollowcheck.densemat import DimensionMismatch, Vector
from hollowcheck.interval import (NEG_INF, POS_INF, Interval, contains_zero,
                                  iv_dot)


def iv(lo, hi):
    return Interval(lo if lo in (NEG_INF, POS_INF) else Fraction(lo),
                    hi if hi in (NEG_INF, POS_INF) else Fraction(hi))


def test_endpoints_out_of_order_rejected():
    with pytest.raises(ValueError):
        Interval(Fraction(2), Fraction(1))


def test_dot_half_infinite():
    assert iv_dot(Vector.from_list([1, 1]),
                  Vector.from_list([1, -3])) == iv(NEG_INF, -2)
    assert iv_dot(Vector.from_list([-1, 0]),
                  Vector.from_list([1, -3])) == iv(-1, POS_INF)


def test_dot_mixed_signs():
    z = Vector.from_list([1, -1])
    assert iv_dot(z, Vector.from_list([1, 2])) == iv(NEG_INF, POS_INF)


def test_dot_zero_vector():
    z = Vector.from_list([0, 0, 0])
    assert iv_dot(z, Vector.from_list([1, 2, 3])) == iv(0, 0)


def test_dot_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        iv_dot(Vector.from_list([1]), Vector.from_list([1, 2]))


def test_box_below_nonempty_invariant():
    with pytest.raises(DimensionMismatch):
        Vector.from_list([])


def test_contains_zero():
    assert not contains_zero(iv(NEG_INF, -2))
    assert contains_zero(iv(0, 0))
    assert contains_zero(iv(NEG_INF, POS_INF))


rationals = st.fractions(min_value=-8, max_value=8,
                         max_denominator=4)
depths = st.fractions(min_value=Fraction(1, 4), max_value=8,
                      max_denominator=4)


def corner_range(z, b, depth):
    """min and max of t(z) a over the corners of the box [b - depth, b]."""
    corners = [sum(zi * c for zi, c in zip(z, pick))
               for pick in itertools.product(*[(bi - depth, bi) for bi in b])]
    return min(corners), max(corners)


@st.composite
def truncated_box_instances(draw):
    r = draw(st.integers(min_value=1, max_value=6))
    z = [draw(rationals) for _ in range(r)]
    b = [draw(rationals) for _ in range(r)]
    d1 = draw(depths)
    return z, b, d1, d1 + draw(depths)


@given(truncated_box_instances())
@settings(max_examples=150, deadline=None)
def test_dot_exactness_against_corner_enumeration(inst):
    # truncating [-inf, b_i] to [b_i - L, b_i]: a finite endpoint of the
    # image is a corner extreme at every depth L, an infinite one moves
    # strictly outward as L grows
    z, b, shallow, deep = inst
    result = iv_dot(Vector.from_list(z), Vector.from_list(b))
    lo1, hi1 = corner_range(z, b, shallow)
    lo2, hi2 = corner_range(z, b, deep)
    if result.lo == NEG_INF:
        assert lo2 < lo1
    else:
        assert result.lo == lo1 == lo2
    if result.hi == POS_INF:
        assert hi2 > hi1
    else:
        assert result.hi == hi1 == hi2


def reference_dot(z, b) -> Interval:
    """{t(z) a : a <= b} with t(z)b summed in Fraction, entry by entry."""
    zb = sum((zi * bi for zi, bi in zip(z, b)), Fraction(0))
    return Interval(zb if all(e <= 0 for e in z) else NEG_INF,
                    zb if all(e >= 0 for e in z) else POS_INF)


@st.composite
def signed_dot_instances(draw):
    # z >= 0, z <= 0, z = 0 or free (mostly mixed); entries that are
    # integers are kept as ints half the time, as Vector allows
    r = draw(st.integers(min_value=1, max_value=6))
    sign = draw(st.sampled_from([1, -1, 0, None]))
    z = [draw(rationals) for _ in range(r)]
    if sign is not None:
        z = [sign * abs(x) for x in z]
    b = [draw(rationals) for _ in range(r)]
    if draw(st.booleans()):
        z = [int(x) if x.denominator == 1 else x for x in z]
        b = [int(x) if x.denominator == 1 else x for x in b]
    return tuple(z), tuple(b)


@given(signed_dot_instances())
@settings(max_examples=300, deadline=None)
def test_dot_matches_fraction_reference(inst):
    z, b = inst
    result = iv_dot(Vector(len(z), z), Vector(len(b), b))
    assert result == reference_dot(z, b)
    for end in (result.lo, result.hi):
        assert end in (NEG_INF, POS_INF) or type(end) is Fraction
