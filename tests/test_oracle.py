import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hollowcheck import oracle
from hollowcheck.densemat import DimensionMismatch, Matrix, Vector
from hollowcheck.harness import GenSpec, gen_random_system
from hollowcheck.oracle import (DEFAULT_ROW_CAP, FEASIBLE, INFEASIBLE,
                                FMResult, SizeExceeded, fm_feasible,
                                fm_feasible_rows, validate_certificate,
                                validate_witness)


def M(rows):
    return Matrix.from_rows(rows)


def V(xs):
    return Vector.from_list(xs)


class TestFeasible:
    def test_infeasible_1d(self):
        res = fm_feasible(M([[1], [1], [-1]]), V([1, 2, -3]))
        assert res.status == INFEASIBLE
        assert validate_certificate(M([[1], [1], [-1]]), V([1, 2, -3]),
                                    res.certificate)

    def test_feasible_1d_midpoint(self):
        res = fm_feasible(M([[1], [1], [-1]]), V([1, 2, 0]))
        assert res.status == FEASIBLE
        assert res.witness == V([Fraction(1, 2)])

    def test_no_constraints(self):
        res = fm_feasible_rows([], [], 1)
        assert res.status == FEASIBLE
        assert res.witness == V([0])

    def test_unbounded_above_rule(self):
        # only a lower bound: x >= 2, witness lower bound + 1
        res = fm_feasible(M([[-1]]), V([-2]))
        assert res.status == FEASIBLE
        assert res.witness == V([3])

    def test_unbounded_below_rule(self):
        res = fm_feasible(M([[1]]), V([5]))
        assert res.witness == V([4])

    def test_size_cap(self):
        rng = random.Random(0)
        rows = [[rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)]
                for _ in range(30)]
        b = [rng.randint(-3, 3) for _ in range(30)]
        with pytest.raises(SizeExceeded):
            fm_feasible(M(rows), V(b), row_cap=10)


def grid_feasible(A: Matrix, b: Vector, lo=-6, hi=6, denom=2) -> bool:
    """Sanity oracle: exhaustive lattice search on a fine rational grid."""
    n = A.cols
    pts = [Fraction(k, denom) for k in range(lo * denom, hi * denom + 1)]
    for cand in itertools.product(pts, repeat=n):
        if all(sum(A.at(i, j) * cand[j] for j in range(n)) <= b[i]
               for i in range(A.rows)):
            return True
    return False


class TestProperties:
    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(60):
            m = rng.randint(1, 5)
            n = rng.randint(1, 3)
            A = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
            b = V([rng.randint(-3, 3) for _ in range(m)])
            res = fm_feasible(A, b)
            if res.status == FEASIBLE:
                assert validate_witness(A, b, res.witness)
            else:
                assert validate_certificate(A, b, res.certificate)

    def test_agreement_with_grid_search(self):
        # small integer instances whose feasible region, if any, meets the grid
        rng = random.Random(29)
        checked = 0
        for _ in range(40):
            m = rng.randint(1, 5)
            n = rng.randint(1, 2)
            A = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
            b = V([rng.randint(-3, 3) for _ in range(m)])
            res = fm_feasible(A, b)
            on_grid = grid_feasible(A, b)
            if on_grid:
                assert res.status == FEASIBLE
                checked += 1
            elif res.status == FEASIBLE:
                # witness exists but may sit off the coarse grid; verify it
                assert validate_witness(A, b, res.witness)
        assert checked > 5


class TestValidatorDimensions:
    A = M([[1], [1], [-1]])

    @pytest.mark.parametrize("b", [[1, 2, -3, 99], [1, 2]])
    def test_b_of_wrong_length_raises(self, b):
        # a long b was read only up to A.rows, a short one ran off its end
        with pytest.raises(DimensionMismatch):
            validate_certificate(self.A, V(b), V([0, 1, 1]))
        with pytest.raises(DimensionMismatch):
            validate_witness(self.A, V(b), V([Fraction(1, 2)]))

    def test_y_or_x_of_wrong_length_rejected(self):
        b = V([1, 2, -3])
        assert not validate_certificate(self.A, b, V([0, 1]))
        assert not validate_certificate(self.A, b, V([0, 1, 1, 0]))
        assert not validate_witness(self.A, V([1, 2, 0]), V([0, 0]))


def reference_certificate(A: Matrix, b: Vector, y: Vector) -> bool:
    """The Farkas check in Fraction arithmetic, entry by entry."""
    if y.dim != A.rows:
        return False
    if any(v < 0 for v in y.entries):
        return False
    comb = [sum(y[i] * A.at(i, j) for i in range(A.rows))
            for j in range(A.cols)]
    if any(c != 0 for c in comb):
        return False
    return sum(y[i] * b[i] for i in range(A.rows)) < 0


def raw_matrix(rows):
    """A Matrix that keeps int entries as ints, as Matrix() allows."""
    return Matrix(len(rows), len(rows[0]), tuple(map(tuple, rows)))


CERTIFICATE_EXAMPLES = {
    # t(y)A = 0 but t(y)b = 0
    "yb_zero": ([[1], [-1]], [1, -1], [1, 1], False),
    # t(y)A is one unit, 1/6, off in the second column
    "one_unit_off": ([[Fraction(1, 2), Fraction(1, 3)],
                      [Fraction(-1, 2), Fraction(-1, 6)]],
                     [1, -2], [1, 1], False),
    # t(y)A = 0 and t(y)b < 0, but y has a negative entry
    "negative_entry": ([[1], [2], [1]], [-1, 0, 0], [2, -1, 0], False),
    "y_zero": ([[1], [1], [-1]], [1, 2, -3], [0, 0, 0], False),
    # int entries beside Fractions in y, A and b
    "int_entries": ([[1], [Fraction(1, 2)], [-1]],
                    [1, Fraction(2), -3], [1, 0, Fraction(1)], True),
    "rational_valid": ([[Fraction(2, 3), 1], [Fraction(-1, 3), -2],
                        [0, Fraction(9, 2)]],
                       [Fraction(1, 3), Fraction(-1, 2), Fraction(-5, 4)],
                       [Fraction(1, 2), 1, Fraction(1, 3)], True),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_EXAMPLES))
def test_certificate_examples(name):
    rows, b, y, expected = CERTIFICATE_EXAMPLES[name]
    args = (raw_matrix(rows), Vector(len(b), tuple(b)),
            Vector(len(y), tuple(y)))
    assert reference_certificate(*args) == expected
    assert validate_certificate(*args) == expected


scalars = st.one_of(st.integers(-4, 4).map(Fraction),
                    st.fractions(min_value=-4, max_value=4,
                                 max_denominator=6))


@st.composite
def certificate_instances(draw):
    """(A, b, y), near a valid certificate more often than not: the last
    row in y's support is solved for t(y)A = 0 and for a chosen t(y)b,
    then perhaps nudged by one unit."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 3))
    A = [[draw(scalars) for _ in range(n)] for _ in range(m)]
    b = [draw(scalars) for _ in range(m)]
    y = [abs(draw(scalars)) for _ in range(m)]
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, m - 1))
        y[i] = -y[i]
    support = [i for i in range(m) if y[i]]
    if support and draw(st.integers(0, 4)):
        k = support[-1]
        for j in range(n):
            A[k][j] = -sum(y[i] * A[i][j] for i in range(m) if i != k) / y[k]
        yb = draw(st.sampled_from([-1, 0, 1])) * abs(draw(scalars))
        b[k] = (yb - sum(y[i] * b[i] for i in range(m) if i != k)) / y[k]
        if draw(st.integers(0, 3)) == 0:
            A[k][draw(st.integers(0, n - 1))] += Fraction(
                draw(st.sampled_from([-1, 1])), draw(st.integers(1, 6)))
    if draw(st.booleans()):
        # int entries where the value is an integer
        A = [[int(x) if x.denominator == 1 else x for x in r] for r in A]
        b = [int(x) if x.denominator == 1 else x for x in b]
        y = [int(x) if x.denominator == 1 else x for x in y]
    return raw_matrix(A), Vector(m, tuple(b)), Vector(m, tuple(y))


@given(certificate_instances())
@settings(max_examples=400, deadline=None)
def test_certificate_matches_fraction_reference(inst):
    # the int check after lcm scaling gives the Fraction check's answer
    assert validate_certificate(*inst) == reference_certificate(*inst)


def reference_witness(A: Matrix, b: Vector, x: Vector) -> bool:
    """A x <= b in Fraction arithmetic, entry by entry."""
    if x.dim != A.cols:
        return False
    return all(sum(Fraction(A.at(i, j)) * x[j] for j in range(A.cols))
               <= b[i] for i in range(A.rows))


@st.composite
def witness_instances(draw):
    """(A, b, x) with p/q or int entries; b_i is often A_i x itself, or
    one small unit either side of it, so points on a boundary, just
    inside and just outside are common."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 3))
    A = [[draw(scalars) for _ in range(n)] for _ in range(m)]
    x = [draw(scalars) for _ in range(n)]
    b = []
    for row in A:
        ax = sum(a * v for a, v in zip(row, x))
        b.append(draw(st.sampled_from((
            ax, ax, ax + Fraction(1, 6), ax - Fraction(1, 6),
            draw(scalars)))))
    if draw(st.booleans()):
        # int entries where the value is an integer
        A = [[int(v) if v.denominator == 1 else v for v in r] for r in A]
        b = [int(v) if v.denominator == 1 else v for v in b]
        x = [int(v) if v.denominator == 1 else v for v in x]
    return raw_matrix(A), Vector(m, tuple(b)), Vector(n, tuple(x))


@given(witness_instances())
@settings(max_examples=400, deadline=None)
def test_witness_matches_fraction_reference(inst):
    # the int check after lcm scaling gives the Fraction check's answer
    assert validate_witness(*inst) == reference_witness(*inst)


def test_witness_on_the_boundary():
    # x = 1/3 meets 3x <= 1 and -3/2 x <= -1/2 with equality, and misses
    # -3/2 x <= -2/3 by 1/6
    A = raw_matrix([[3], [Fraction(-3, 2)]])
    x = V([Fraction(1, 3)])
    assert validate_witness(A, Vector(2, (1, Fraction(-1, 2))), x)
    assert not validate_witness(A, Vector(2, (1, Fraction(-2, 3))), x)


# --- a frozen copy of the FM oracle in which every row carries a dict of
# its multipliers over the input rows; fm_feasible_rows must match it

class _DictRow:
    __slots__ = ("coeffs", "bound", "mult")

    def __init__(self, coeffs, bound, mult):
        self.coeffs, self.bound, self.mult = coeffs, bound, mult


def _dict_combine(pos, neg, j):
    fp = Fraction(1) / pos.coeffs[j]
    fn = Fraction(-1) / neg.coeffs[j]
    coeffs = [fp * a + fn * b for a, b in zip(pos.coeffs, neg.coeffs)]
    coeffs[j] = Fraction(0)
    mult = {}
    for idx, w in pos.mult.items():
        mult[idx] = mult.get(idx, Fraction(0)) + fp * w
    for idx, w in neg.mult.items():
        mult[idx] = mult.get(idx, Fraction(0)) + fn * w
    return _DictRow(coeffs, fp * pos.bound + fn * neg.bound, mult)


def _dict_dedupe(rows):
    best, order = {}, []
    for r in rows:
        key = tuple(r.coeffs)
        cur = best.get(key)
        if cur is None:
            best[key] = r
            order.append(key)
        elif r.bound < cur.bound:
            best[key] = r
    return [best[k] for k in order]


def _dict_eliminate(rows, j, row_cap):
    out = [r for r in rows if r.coeffs[j] == 0]
    for p in [r for r in rows if r.coeffs[j] > 0]:
        for q in [r for r in rows if r.coeffs[j] < 0]:
            out.append(_dict_combine(p, q, j))
            if len(out) > row_cap:
                raise SizeExceeded(
                    f"row cap {row_cap} exceeded eliminating x_{j}")
    kept = []
    for r in out:
        if any(c != 0 for c in r.coeffs):
            kept.append(r)
        elif r.bound < 0:
            return out, r
    return _dict_dedupe(kept), None


def _dict_certificate(row, m):
    return Vector.from_list([row.mult.get(i, Fraction(0)) for i in range(m)])


def _dict_pick_column(rows, remaining):
    best_j, best_score = remaining[0], None
    for j in remaining:
        score = (sum(1 for r in rows if r.coeffs[j] > 0)
                 * sum(1 for r in rows if r.coeffs[j] < 0))
        if best_score is None or score < best_score:
            best_j, best_score = j, score
    return best_j


def _dict_witness_value(rows, j, values):
    lo = hi = None
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


def dict_fm_rows(coeff_rows, bounds, n, row_cap=DEFAULT_ROW_CAP):
    m = len(coeff_rows)
    rows = [_DictRow([Fraction(x) for x in coeff_rows[i]], Fraction(bounds[i]),
                     {i: Fraction(1)}) for i in range(m)]
    live = []
    for r in rows:
        if any(c != 0 for c in r.coeffs):
            live.append(r)
        elif r.bound < 0:
            return FMResult(INFEASIBLE, certificate=_dict_certificate(r, m))
    rows = _dict_dedupe(live)
    snapshots, remaining = [], list(range(n))
    while remaining and rows:
        j = _dict_pick_column(rows, remaining)
        snapshots.append((j, rows))
        rows, contradiction = _dict_eliminate(rows, j, row_cap)
        if contradiction is not None:
            return FMResult(INFEASIBLE,
                            certificate=_dict_certificate(contradiction, m))
        remaining.remove(j)
    values = {j: Fraction(0) for j in remaining}
    for j, stage_rows in reversed(snapshots):
        values[j] = _dict_witness_value(stage_rows, j, values)
    return FMResult(FEASIBLE, witness=Vector.from_list(
        [values[j] for j in range(n)]))


def _outcome(fm, rows, bounds, n, cap):
    """The result with each entry's type beside it, or the SizeExceeded
    message."""
    try:
        res = fm(rows, bounds, n, cap)
    except SizeExceeded as exc:
        return str(exc)
    typed = [None if v is None else [(type(x), x) for x in v.entries]
             for v in (res.witness, res.certificate)]
    return res.status, typed


fm_entries = st.one_of(st.integers(-4, 4),
                       st.fractions(min_value=-4, max_value=4,
                                    max_denominator=5))


@st.composite
def fm_systems(draw):
    """(rows, bounds, n, row_cap): int, Fraction and zero-heavy entries,
    with duplicate coefficient rows, m <= 9, n <= 4."""
    m = draw(st.integers(0, 9))
    n = draw(st.integers(1, 4))
    entry = fm_entries
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.just(0), fm_entries)
    rows = []
    for _ in range(m):
        if rows and draw(st.integers(0, 3)) == 0:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append([draw(entry) for _ in range(n)])
    bounds = [draw(entry) for _ in range(m)]
    cap = draw(st.sampled_from([10, 30, DEFAULT_ROW_CAP]))
    return rows, bounds, n, cap


@given(fm_systems())
@settings(max_examples=200, deadline=None)
def test_parent_links_match_multiplier_dicts(inst):
    # statuses, witnesses, certificates (entry types included) and
    # SizeExceeded messages are those of the dict-carrying elimination
    assert _outcome(fm_feasible_rows, *inst) == _outcome(dict_fm_rows, *inst)


def test_zero_row_certificate():
    res = fm_feasible_rows([[1, 0], [0, 0]], [0, -1], 2)
    assert res.certificate.entries == (Fraction(0), Fraction(1))
    assert all(type(x) is Fraction for x in res.certificate.entries)


def test_certificate_built_only_for_infeasible(monkeypatch):
    # on the agreement workload's shapes, a FEASIBLE result sums no
    # multipliers and an INFEASIBLE one sums them once
    calls = []
    farkas = oracle._farkas
    monkeypatch.setattr(oracle, "_farkas",
                        lambda row, m: calls.append(1) or farkas(row, m))
    seen = set()
    for seed in range(60):
        m = (8, 9, 10)[seed % 3]
        s = gen_random_system(GenSpec(seed=seed, m=m, n=2,
                                      entry_range=5, b_range=5))
        calls.clear()
        res = fm_feasible(s.A, s.b)
        assert len(calls) == (res.status == INFEASIBLE)
        seen.add(res.status)
    assert seen == {FEASIBLE, INFEASIBLE}
