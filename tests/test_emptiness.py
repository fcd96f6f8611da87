import io
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import scan_reference
from hollowcheck import cli, emptiness
from hollowcheck.densemat import (Matrix, Vector, denominator_lcm, eliminate,
                                  int_scaled, invert, left_nullspace_basis,
                                  mat_mul, mat_vec, orth_complement_basis,
                                  rank, vec_mat)
from hollowcheck.emptiness import (BUDGET_SPENT, DEFAULT_ORDER, EMPTY,
                                   FAMILY_CANONICAL, FAMILY_KERNEL,
                                   FAMILY_PAIR, NONEMPTY,
                                   NOT_PROVEN_EMPTY, PIVOT_BUDGET,
                                   SoundnessViolation, WalkResult, build_U,
                                   decide, decompose, family_tests,
                                   farkas_from, in_cone_G, run_test, walk)
from hollowcheck.interval import contains_zero, iv_dot
from hollowcheck.harness import (GenSpec, agreement_run, gen_random_system,
                                system_from_rows)
from hollowcheck.oracle import (INFEASIBLE, fm_feasible, validate_certificate,
                                validate_witness)
from hollowcheck.standardize import RawSystem, StandardSystem, standardize


EMPTY_1D = ([[1], [1], [-1]], [1, 2, -3])
OK_1D = ([[1], [1], [-1]], [1, 2, 0])
RATIONAL_1D = ([[3], [2], [Fraction(-3, 2)]],
               [Fraction(-5, 6), Fraction(1, 2), Fraction(3, 4)])
# systems whose first failing test is a kernel vector
# (TestResidualForm.test_examples_cover_the_special_cases)
KERNEL_NEG_DET = ([[-1], [1], [-1]], [0, 0, -1])
KERNEL_LOW_RANK = ([[-1, 0], [-1, 0], [0, 2], [1, 0]], [0, -1, 0, 0])
# systems on which a vector of the complement of b1 (the first) or of
# R b2 (the second) fails before any canonical test; a pair test then
# fails (TestComplementLemma)
B1_PERP_FIRST = ([[-2], [-1], [-2], [2]], [-1, 0, -2, 1])
RB2_PERP_FIRST = ([[-2, 1], [2, 2], [1, -2], [-2, 2]], [1, 0, -1, 0])
# the pair family's first failure in each sign branch of c = Rz_ij and
# a = Rz_i'j (TestResidualForm.test_examples_cover_the_special_cases);
# with a = 0 or c = 0 a canonical test fails too, and only the family
# alone reaches the pair
PAIR_A0 = ([[1, 0], [0, 1], [1, 1], [0, -1]], [0, 0, 5, -1])
PAIR_C0 = ([[1, 0], [0, 1], [0, -1], [1, 1]], [0, 0, -1, 5])
PAIR_C0_A_NEG = ([[1, 0], [0, 1], [0, -1], [-1, 1]], [0, 0, -1, 5])
PAIR_A_NEG = ([[1, 0], [0, 1], [1, -2], [-2, -1], [1, -2]], [0, -1, 0, 1, 1])
PAIR_C_NEG_A0 = ([[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, 0, -1])
PAIR_C_NEG = ([[1, 0], [0, 1], [1, 1], [-1, 0], [1, -2]], [0, -2, 1, 2, 0])
# criterion 6's shrunk discrepancies (seeds 5125, 5177, 5268, 5357, 5377,
# 5424, 5444): NOT_PROVEN_EMPTY, yet empty; the walk proves each after
# two pivots
CRITERION_6_SHRUNK = (
    ([[0, -1, 0], [1, 0, 0], [-1, -2, 0], [0, 0, 1], [1, 0, -1], [0, 3, 0]],
     [0, 0, -2, -1, 0, 3]),
    ([[0, 0, -1], [0, -1, 0], [-1, 0, 0], [-1, 0, 1], [1, 1, 0], [1, -1, 0]],
     [0, 0, 0, -1, 1, 0]),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -1, 0], [0, 0, -1], [-1, 0, 1]],
     [0, -1, 0, 0, 0, 0]),
    ([[-1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 1], [1, 0, 0], [-1, 0, -1]],
     [0, 0, 0, -1, 0, 0]),
    ([[-1, 0, 0], [0, 0, 1], [0, 1, 0], [0, 0, 1], [0, 1, 0], [1, -1, -2]],
     [0, 0, 1, -1, 0, 1]),
    ([[0, 1], [1, 0], [0, 1], [0, -1], [-1, 0], [1, 1]], [0, 0, 0, 0, 0, -1]),
    ([[0, -1], [1, 0], [0, -1], [-1, -2], [0, 2], [1, 0]], [0, 1, 0, -2, 1, 0]),
)


def sys_of(rows, b):
    return system_from_rows(rows, b)


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def G_of(dec):
    """G = [I | -R], the top m - n rows of U."""
    return Matrix.from_rows(build_U(dec).row_lists()[:dec.m - dec.n])


def canonical_tests(dec):
    return family_tests(dec, order=(FAMILY_CANONICAL,))


def exact_image(z, s):
    """t(k')G = z / s as an exact Vector."""
    return Vector(len(z), tuple(Fraction(x, s) for x in z))


def kprime_of(dec, z, s):
    """k' = z[:m-n] / s, as G = [I | -R]."""
    return Vector(dec.m - dec.n, exact_image(z, s).entries[:dec.m - dec.n])


def det(M):
    """The determinant of a square Matrix, by Gaussian elimination in
    Fraction."""
    rows = [[Fraction(x) for x in row] for row in M.row_lists()]
    out = Fraction(1)
    for c in range(len(rows)):
        p = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            out = -out
        out *= rows[c][c]
        for row in rows[c + 1:]:
            f = row[c] / rows[c][c]
            row[:] = [x - f * y for x, y in zip(row, rows[c])]
    return out


def blocks(dec):
    """(A1, A2), the unselected and the selected rows of A, read off
    permuted_A()."""
    rows = dec.permuted_A().row_lists()
    d = dec.m - dec.n
    return Matrix.from_rows(rows[:d]), Matrix.from_rows(rows[d:])


def reference_kprimes(dec):
    """(family, params) -> k', built in Fraction from R."""
    d, R = dec.m - dec.n, dec.R
    out = {("canonical", (i + 1,)): Vector.unit(d, i) for i in range(d)}
    for idx, (w, s) in enumerate(left_nullspace_basis(R)):
        v = exact_image(w, s)
        out["kernel", (idx, 1)] = v
        out["kernel", (idx, -1)] = v.neg()
    for j, i, i2 in itertools.product(range(dec.n), range(d), range(d)):
        if i < i2:
            ents = [Fraction(0)] * d
            ents[i], ents[i2] = -R.at(i2, j), R.at(i, j)
            out["pair", (j + 1, i + 1, i2 + 1)] = Vector(d, tuple(ents))
    return out


class TestDecompose:
    def test_1d_instance(self):
        dec = decompose(sys_of(*OK_1D))
        # top-to-bottom scan selects row 0 as the invertible 1x1 block
        assert blocks(dec) == (Matrix.from_rows([[1], [-1]]),
                               Matrix.from_rows([[1]]))
        assert dec.R == Matrix.from_rows([[1], [-1]])
        assert dec.row_perm == (1, 2, 0)
        assert dec.b_perm == Vector.from_list([2, 0, 1])

    def test_identity_bottom_block(self):
        A1 = [[2, 3], [4, 5], [7, 1]]
        rows = [[1, 0], [0, 1]] + A1
        # identity rows come first in the scan, so they become A2
        dec = decompose(sys_of(rows, [0] * 5))
        assert blocks(dec) == (Matrix.from_rows(A1), Matrix.identity(2))
        assert dec.R == Matrix.from_rows(A1)

    def test_integer_data(self):
        # R = (2/3, -1/2) after A2 = (3); b_perm = (1/2, 3/4, -5/6)
        dec = decompose(sys_of(*RATIONAL_1D))
        assert dec.R == Matrix.from_rows([[Fraction(2, 3)],
                                          [Fraction(-1, 2)]])
        assert dec.D == 6
        assert dec.Rz == ((4,), (-3,))
        assert dec.bz == (6, 9, -10)

    def test_G_annihilates_A(self):
        rng = random.Random(4)
        for seed in range(15):
            sysr = gen_random_system(GenSpec(seed=seed, m=6, n=2))
            dec = decompose(sysr)
            assert mat_mul(G_of(dec), dec.permuted_A()).is_zero()


def decompose_corpus():
    """About 50 standard systems: integer `gen_random_system` instances, and
    p/q entries standardized through all three input forms."""
    systems = [gen_random_system(GenSpec(seed=seed, m=m, n=n))
               for seed in range(20)
               for m, n in [((5, 2), (8, 3), (12, 3), (6, 4))[seed % 4]]]
    rng = random.Random(17)
    # the ("ineq", 5, 3) rows are multiples of two base rows, so A has rank
    # 2 and is projected onto a column basis
    shapes = (("ineq", 7, 3), ("ineq", 5, 3), ("ineq_nonneg", 4, 3),
              ("eq_nonneg", 2, 3))
    for _ in range(8):
        for form, m, n in shapes:
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                     for _ in range(n)] for _ in range(m)]
            if m == 5:
                ks = [Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 2))
                      for _ in range(m)]
                rows = [[k * x for x in rows[i % 2]]
                        for i, k in enumerate(ks)]
            bounds = [Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                      for _ in range(m)]
            res = standardize(RawSystem(form, Matrix.from_rows(rows),
                                        Vector.from_list(bounds)))
            if isinstance(res, StandardSystem):
                systems.append(res)
    return systems


class TestDecomposeReadsR:
    def test_R_without_invert_or_mat_mul(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("decompose must read R off rref(t(A))")
        monkeypatch.setattr(emptiness, "invert", forbidden)
        monkeypatch.setattr(emptiness, "mat_mul", forbidden)
        systems = decompose_corpus()
        assert len(systems) >= 48
        assert any(s.raw_cols is not None for s in systems)
        integer = 0
        for sysr in systems:
            dec = decompose(sysr)
            A1, A2 = blocks(dec)
            assert dec.R == mat_mul(A1, invert(A2))
            # the split's Bareiss scale, not rescaled
            assert dec.D == abs(sysr.split[2])
            if all(Fraction(x).denominator == 1
                   for row in sysr.A.entries for x in row):
                assert dec.D == abs(det(A2))
                integer += 1
            assert all(type(x) is int for row in dec.Rz for x in row)
            # r_i = D L (b_i - R_i b2), the slack at x_B, for bz = L b_perm
            d = dec.m - dec.n
            L = denominator_lcm(dec.b_perm.entries)
            b1, b2 = dec.b_perm.entries[:d], dec.b_perm.entries[d:]
            assert dec.r == tuple(dec.D * L * (bi - dot(Ri, b2))
                                  for bi, Ri in zip(b1, dec.R.row_lists()))
        assert integer >= 20


class TestBuildU:
    def test_shape_and_blocks(self):
        dec = decompose(sys_of(*OK_1D))
        U = build_U(dec)
        assert (U.rows, U.cols) == (3, 3)
        # top block is G = [I | -R] with R = (1, -1), bottom n rows zero
        assert U.row_lists() == [[1, 0, -1], [0, 1, 1], [0, 0, 0]]

    def test_square_U(self):
        dec = decompose(sys_of([[0, 1], [1, 0], [0, 1]], [1, 1, 1]))
        U = build_U(dec)
        assert U.rows == U.cols == 3


class TestConeAndTests:
    def test_zero_vector_in_cone(self):
        assert in_cone_G((0, 0, 0))

    def test_mixed_not_in_cone(self):
        dec = decompose(sys_of(*OK_1D))
        # t(k)G = (1,-1)[I | -R] has mixed signs here
        assert not in_cone_G(vec_mat(Vector.from_list([1, -1]),
                                     G_of(dec)).entries)

    def test_run_test_fail_on_empty_instance(self):
        dec = decompose(sys_of(*EMPTY_1D))
        failing = [(params, z, s) for _, params, z, s in canonical_tests(dec)
                   if not run_test(z, dec)]
        assert [params for params, _, _ in failing] == [(2,)]
        _, z, s = failing[0]
        interval = iv_dot(exact_image(z, s), dec.b_perm)
        assert interval.hi == Fraction(-2)

    def test_z_over_s_is_product_through_G(self):
        # z = s t(k')G exactly, with k' = z[:m-n] / s the k' that the
        # family and params name
        seen_zero = seen_pair = False
        for sysr in decompose_corpus():
            dec = decompose(sysr)
            G = G_of(dec)
            reference = reference_kprimes(dec)
            for family, params, z, s in family_tests(dec):
                assert all(type(e) is int for e in z)
                assert type(s) is int and s > 0
                kprime = kprime_of(dec, z, s)
                assert kprime == reference[family, params]
                assert ([Fraction(x, s) for x in z]
                        == list(vec_mat(kprime, G).entries)), (family, params)
                seen_zero |= kprime.is_zero()
                seen_pair |= family == "pair"
        assert seen_zero and seen_pair

    def test_kernel_sentinel_passes(self):
        dec = decompose(sys_of(*OK_1D))
        assert run_test((0, 0, 0), dec)
        interval = iv_dot(Vector.zero(3), dec.b_perm)
        assert interval.lo == interval.hi == 0

    def test_run_test_reads_signs_of_scaled_z(self):
        # run_test on c z with the integer bz agrees with the exact image
        # of z over the rational b_perm = (1/2, 3/4, -5/6), for every c > 0
        dec = decompose(sys_of(*RATIONAL_1D))
        for z in itertools.product((-1, 0, 1), repeat=3):
            exact = contains_zero(iv_dot(Vector.from_list(z), dec.b_perm))
            for c in (1, 7):
                assert run_test(tuple(c * e for e in z), dec) == exact, z


class TestFamilies:
    def test_pair_vector_construction(self):
        dec = decompose(sys_of(*OK_1D))
        pairs = [(params, kprime_of(dec, z, s))
                 for family, params, z, s in family_tests(dec)
                 if family == "pair"]
        # k'(j=1,i=1,i'=2) = -r_21 e1 + r_11 e2 with R = (1, -1)
        assert pairs == [((1, 1, 2), Vector.from_list([1, 1]))]

    def test_pair_vector_kills_R_column(self):
        for seed in range(10):
            sysr = gen_random_system(GenSpec(seed=seed, m=6, n=2))
            dec = decompose(sysr)
            for family, (j, *_), z, s in family_tests(dec):
                if family != "pair":
                    continue
                prod = vec_mat(kprime_of(dec, z, s), dec.R)
                assert prod[j - 1] == 0

    def test_m_minus_n_one_has_no_pairs(self):
        sysr = sys_of([[1, 0], [0, 1], [1, 1]], [1, 1, 1])
        dec = decompose(sysr)
        fams = [family for family, *_ in family_tests(dec)]
        assert "pair" not in fams
        assert fams.count("canonical") == 1


def feasible_system(seed, m, n, x0_range=3, lower=0):
    """b = A x0 + s with s >= 0: feasible by construction.  With lower > 0,
    each b_i is then lowered by a random 0..lower, which makes most
    systems infeasible."""
    rng = random.Random(seed)
    A = gen_random_system(GenSpec(seed=seed, m=m, n=n)).A
    x0 = [rng.randint(-x0_range, x0_range) for _ in range(n)]
    b = [sum(A.at(i, j) * x0[j] for j in range(n)) + rng.randint(0, 3)
         for i in range(m)]
    if lower:
        b = [x - rng.randint(0, lower) for x in b]
    return system_from_rows(A.row_lists(), b)


def rational_system(seed, m, n):
    """feasible_system(seed, m, n, lower=2) with each entry of A and b
    divided by a random 1..4: rational, and mostly infeasible."""
    rng = random.Random(seed)
    base = feasible_system(seed, m, n, lower=2)
    rows = [[Fraction(x, rng.randint(1, 4)) for x in row]
            for row in base.A.row_lists()]
    return system_from_rows(
        rows, [Fraction(x, rng.randint(1, 4)) for x in base.b.entries])


def reference_run(dec, order):
    """The z-form battery: (tests run, family counts, first failure as
    (family, params, z, s) or None), read through family_tests and
    run_test, one candidate at a time."""
    counts = dict.fromkeys(order, 0)
    run = 0
    for family, params, z, s in family_tests(dec, order):
        run += 1
        counts[family] += 1
        if not run_test(z, dec):
            return run, counts, (family, params, z, s)
    return run, counts, None


def assert_decide_matches_reference(sysr):
    report = decide(sysr)
    dec = decompose(sysr)
    run, counts, failure = reference_run(dec, DEFAULT_ORDER)
    assert (report.tests_run, report.family_counts) == (run, counts)
    if failure is None:
        assert report.verdict == NOT_PROVEN_EMPTY
        return report
    family, params, z, s = failure
    cert = report.certificate
    assert report.verdict == EMPTY
    assert (cert.family, cert.params) == (family, params)
    assert cert.farkas_y == farkas_from(exact_image(z, s), dec)
    return report


def assert_families_match_reference(dec):
    """Each family alone, so that a pair family runs beside a failing
    canonical test, which decide's order never reaches."""
    for family in DEFAULT_ORDER:
        run, _, failure = reference_run(dec, (family,))
        got_run, got = emptiness._scan(dec, family)
        assert got_run == run, family
        if failure is None:
            assert got is None, family
        else:
            params, w, s = got
            assert params == failure[1], family
            assert emptiness._z_of(w, s, dec) == failure[2:], family


SMALL_RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def battery_systems(draw):
    """Full-column-rank systems without a zero row, n = 1-4 and m - n = 1-5,
    with entries in -2..2 (many zeros in R) or small p/q."""
    n = draw(st.integers(1, 4))
    m = n + draw(st.integers(1, 5))
    entries = draw(st.sampled_from((st.integers(-2, 2), SMALL_RATIONALS)))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    bounds = draw(st.lists(entries, min_size=m, max_size=m))
    assume(all(any(row) for row in rows))
    assume(rank(Matrix.from_rows(rows)) == n)
    return system_from_rows(rows, bounds)


class TestResidualForm:
    """decide's residual form against the z-form reference loop."""

    @settings(max_examples=150, deadline=None)
    @given(battery_systems())
    # m - n = 1: no pairs
    @example(sys_of([[1, 0], [0, 1], [1, 1]], [1, 1, -3]))
    # R = A2^-1 has full row rank: the zero-kernel sentinel
    @example(sys_of([[1, 2], [3, 1], [1, 0], [0, 1]], [1, 2, -1, 3]))
    # the pair family's first failure with c > 0 and a = 0, c = 0 and
    # a > 0, c = 0 and a < 0, c > 0 and a < 0, c < 0 and a = 0, and c < 0
    # and a > 0
    @example(sys_of(*PAIR_A0))
    @example(sys_of(*PAIR_C0))
    @example(sys_of(*PAIR_C0_A_NEG))
    @example(sys_of(*PAIR_A_NEG))
    @example(sys_of(*PAIR_C_NEG_A0))
    @example(sys_of(*PAIR_C_NEG))
    # a = c = 0 in column 1
    @example(sys_of([[1, 0], [0, 1], [0, -1], [0, -1]], [0, 0, -1, -1]))
    @example(sys_of(*RATIONAL_1D))
    # the first failure is a kernel vector, with det < 0 in the kernel's
    # elimination
    @example(sys_of(*KERNEL_NEG_DET))
    # the same with det > 0, and Rz of rank 1 < n
    @example(sys_of(*KERNEL_LOW_RANK))
    # a complement vector fails before any canonical test, and a pair
    # test is decide's first failure
    @example(sys_of(*B1_PERP_FIRST))
    @example(sys_of(*RB2_PERP_FIRST))
    def test_same_as_z_form(self, sysr):
        assert_decide_matches_reference(sysr)
        assert_families_match_reference(decompose(sysr))

    def test_examples_cover_the_special_cases(self):
        for fixture, params, (c, a), first in (
                (PAIR_A0, (1, 1, 2), (1, 0), FAMILY_CANONICAL),
                (PAIR_C0, (1, 1, 2), (0, 1), FAMILY_CANONICAL),
                (PAIR_C0_A_NEG, (1, 1, 2), (0, -1), FAMILY_CANONICAL),
                (PAIR_A_NEG, (1, 1, 2), (1, -2), FAMILY_PAIR),
                (PAIR_C_NEG_A0, (1, 1, 2), (-1, 0), FAMILY_CANONICAL),
                (PAIR_C_NEG, (1, 2, 3), (-1, 1), FAMILY_PAIR)):
            dec = decompose(sys_of(*fixture))
            j, i, i2 = (p - 1 for p in params)
            assert (dec.Rz[i][j], dec.Rz[i2][j]) == (c, a)
            _, _, failure = reference_run(dec, (FAMILY_PAIR,))
            assert failure[:2] == (FAMILY_PAIR, params)
            assert decide(sys_of(*fixture)).certificate.family == first
        sentinel = decompose(sys_of([[1, 2], [3, 1], [1, 0], [0, 1]],
                                    [1, 2, -1, 3]))
        assert [p for f, p, *_ in family_tests(sentinel)
                if f == "kernel"] == [(0, 1)]
        for fixture in (KERNEL_NEG_DET, KERNEL_LOW_RANK):
            cert = decide(sys_of(*fixture)).certificate
            assert cert.family == FAMILY_KERNEL, fixture
            assert sum(1 for x in cert.kprime.entries if x) == 2
        dets = {}
        for name, fixture in (("neg", KERNEL_NEG_DET),
                              ("low", KERNEL_LOW_RANK)):
            dec = decompose(sys_of(*fixture))
            _, pc, dets[name] = eliminate(Matrix.from_rows(
                [list(col) for col in zip(*dec.Rz)]))
            assert len(pc) == (1 if name == "low" else dec.n)
        assert dets["neg"] < 0 < dets["low"]

    @settings(max_examples=150, deadline=None)
    @given(battery_systems())
    def test_reference_bases_have_the_scanned_form(self, sysr):
        # the identities the kernel scan reads in place of the basis,
        # checked against the basis family_tests builds
        dec = decompose(sysr)
        d = dec.m - dec.n
        b1 = dec.bz[:d]
        kernel = left_nullspace_basis(Matrix(d, dec.n, dec.Rz))
        assert kernel == left_nullspace_basis(dec.R)
        for w, _ in kernel:
            assert all(sum(x * row[k] for x, row in zip(w, dec.Rz)) == 0
                       for k in range(dec.n))
            assert dot(w, dec.r) == dec.D * dot(w, b1)

    @pytest.mark.parametrize("kind, m, n, lower", [
        ("feasible", 40, 6, 0), ("near", 20, 4, 2), ("near", 40, 6, 2)])
    def test_large_m(self, kind, m, n, lower):
        # sizes past the pinned corpus, built as the ROADMAP baseline's
        # `feasible` and `near` instances
        verdicts = []
        for seed in range(3):
            sysr = feasible_system(seed, m, n, x0_range=5, lower=lower)
            report = assert_decide_matches_reference(sysr)
            verdicts.append(report.verdict)
        if kind == "feasible":
            assert verdicts == [NOT_PROVEN_EMPTY] * 3
        else:
            assert EMPTY in verdicts


def assert_scans_match_frozen(dec):
    """Each scan and both eliminations of decide against the frozen copies
    in scan_reference."""
    d = dec.m - dec.n
    assert emptiness._scan_pairs(dec) == scan_reference.scan_pairs(dec)
    assert emptiness._scan_kernel(dec) == scan_reference.scan_kernel(dec)
    for M in (dec.A.transpose(), Matrix(dec.n, d, tuple(zip(*dec.Rz)))):
        assert eliminate(M) == scan_reference.eliminate(M)


class TestFrozenScans:
    """The sign-split scans return exactly what the scans they replaced
    return: tests run, params, w and s."""

    @settings(max_examples=150, deadline=None)
    @given(battery_systems())
    @example(sys_of(*PAIR_A0))
    @example(sys_of(*PAIR_C0_A_NEG))
    @example(sys_of(*PAIR_A_NEG))
    @example(sys_of(*PAIR_C_NEG_A0))
    @example(sys_of(*PAIR_C_NEG))
    @example(sys_of(*KERNEL_NEG_DET))
    @example(sys_of(*KERNEL_LOW_RANK))
    def test_small_systems(self, sysr):
        assert_scans_match_frozen(decompose(sysr))

    @pytest.mark.parametrize("m, n, lower", [
        (12, 3, 0), (12, 3, 2), (20, 4, 0), (20, 4, 2), (40, 6, 0)])
    def test_seeded_draws(self, m, n, lower):
        # feasible draws run every pair; lowered ones fail early, and each
        # family alone then runs beside failing canonical tests
        for seed in range(4 if m < 40 else 2):
            assert_scans_match_frozen(decompose(
                feasible_system(seed, m, n, x0_range=5, lower=lower)))

    def test_rational_draws(self):
        for seed, (m, n) in enumerate(((6, 2), (8, 2), (12, 3), (13, 3)) * 2):
            assert_scans_match_frozen(decompose(rational_system(seed, m, n)))

    @pytest.mark.parametrize("xs", [
        (), (1, -2, 0), (True, 2), (Fraction(4, 2), 3),
        (Fraction(1, 2), -1, Fraction(-2, 3))])
    def test_int_scaled(self, xs):
        got = int_scaled(xs)
        assert got == scan_reference.int_scaled(xs)
        assert {type(x) for x in got} <= {int}


def complement_heads(dec) -> list:
    """The head w of every vector of the orthogonal complements of b1 and
    R b2, whose positive multiples bz[:m-n] and Rz bz[m-n:] = D bz[:m-n]
    - r the tableau holds; a complement vector is w / s."""
    d = dec.m - dec.n
    b1 = dec.bz[:d]
    rb2 = tuple(dec.D * x - y for x, y in zip(b1, dec.r))
    return [w for v in (b1, rb2)
            for w, _ in orth_complement_basis(Vector(d, v))]


def fails(w, dec) -> bool:
    """Whether the test of head w fails."""
    return not run_test(emptiness._z_of(w, 1, dec)[0], dec)


def assert_lemma(sysr, heads) -> int:
    """For each head w with one or two nonzeros whose test fails: a
    canonical test on its support, or a pair test on its two rows, fails
    too, and so the battery's scans fail and decide says EMPTY.  Returns
    how many of the heads fail."""
    dec = decompose(sysr)
    d = dec.m - dec.n
    failed = 0
    for w in heads:
        if not fails(w, dec):
            continue
        failed += 1
        support = [i for i, x in enumerate(w) if x]
        assert len(support) in (1, 2), w
        caught = [Vector.unit(d, i).entries for i in support]
        if len(support) == 2:
            caught += [emptiness._pair_w(dec, j, *support)
                       for j in range(dec.n)]
        assert any(fails(v, dec) for v in caught), w
    if failed:
        assert (emptiness._scan_canonical(dec)[1] is not None
                or emptiness._scan_pairs(dec)[1] is not None)
        assert decide(sysr).verdict == EMPTY
    return failed


@st.composite
def lemma_cases(draw):
    """A battery system and up to six heads u e_f + v e_p, for rows f
    and p of A1 drawn at random and u, v in -3..3."""
    sysr = draw(battery_systems())
    d = sysr.m - sysr.n
    heads = []
    for _ in range(draw(st.integers(0, 6))):
        w = [0] * d
        for _ in range(2):
            w[draw(st.integers(0, d - 1))] += draw(st.integers(-3, 3))
        heads.append(tuple(w))
    return sysr, heads


class TestComplementLemma:
    """The lemma behind the battery's three families (README): a test
    whose head is u e_f + v e_p fails only if canonical test f or p, or a
    pair test on rows f and p, fails too.  Every vector of the orthogonal
    complements of b1 and R b2 that is in the cone has such a head, so
    those families never fail alone."""

    @settings(max_examples=300, deadline=None)
    @given(lemma_cases())
    @example((sys_of(*B1_PERP_FIRST), []))
    @example((sys_of(*RB2_PERP_FIRST), []))
    def test_small_systems(self, case):
        sysr, heads = case
        assert_lemma(sysr, complement_heads(decompose(sysr)) + heads)

    def test_seeded_draws(self):
        # the failures of the complement families, and those on which no
        # canonical test fails, so that only a pair test catches them
        failed = pair_only = 0
        for seed in range(60):
            for m, n in ((6, 2), (8, 2), (12, 3), (13, 3)):
                for sysr in (feasible_system(seed, m, n, lower=1),
                             feasible_system(seed, m, n, lower=2),
                             rational_system(seed, m, n)):
                    dec = decompose(sysr)
                    found = assert_lemma(sysr, complement_heads(dec))
                    failed += found
                    pair_only += (found > 0
                                  and emptiness._scan_canonical(dec)[1]
                                  is None)
        assert failed > 150 and pair_only > 15, (failed, pair_only)

    def test_complement_first_fixtures(self):
        # a complement vector fails on each, and no canonical test: the
        # certificate is a pair test's
        for fixture in (B1_PERP_FIRST, RB2_PERP_FIRST):
            sysr = sys_of(*fixture)
            dec = decompose(sysr)
            assert assert_lemma(sysr, complement_heads(dec)) > 0
            assert emptiness._scan_canonical(dec)[1] is None
            assert decide(sysr).certificate.family == FAMILY_PAIR


class TestCandidateCost:
    def test_no_z_per_candidate(self, monkeypatch):
        # a NOT_PROVEN_EMPTY verdict decides every candidate in residual
        # form: no z, no z-form test, no cone filter, no enumeration
        fixtures = [feasible_system(seed, m, n) for seed, (m, n)
                    in enumerate(((6, 2), (8, 2), (12, 3), (13, 3)))]
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper
        for name in ("run_test", "in_cone_G", "family_tests", "_z_of"):
            monkeypatch.setattr(emptiness, name,
                                counting(name, getattr(emptiness, name)))
        candidates = 0
        for sysr in fixtures:
            report = decide(sysr)
            assert report.verdict == NOT_PROVEN_EMPTY
            candidates += report.tests_run
        assert calls == []
        assert candidates > 100

    def test_no_basis_built(self, monkeypatch):
        # the kernel family is read in place: no basis, one elimination,
        # and lowest terms outside decompose only for a failing kernel
        # vector
        shapes = ((6, 2), (8, 2), (12, 3), (13, 3))
        fixtures = ([feasible_system(seed, m, n) for seed, (m, n)
                     in enumerate(shapes)]
                    + [feasible_system(seed, m, n, lower=2)
                       for seed, (m, n) in enumerate(shapes * 2)]
                    + [sys_of(*f) for f in (KERNEL_NEG_DET, KERNEL_LOW_RANK)])
        calls = {"eliminate": [], "lowest_terms": []}
        in_decompose = []

        def forbidden(*args):
            raise AssertionError("decide must not build a basis")

        def counting(name, fn):
            def wrapper(*args):
                if not in_decompose:
                    calls[name].append(args)
                return fn(*args)
            return wrapper

        def marked_decompose(sysr, real=emptiness.decompose):
            in_decompose.append(sysr)
            try:
                return real(sysr)
            finally:
                in_decompose.pop()
        for name in ("left_nullspace_basis", "orth_complement_basis"):
            monkeypatch.setattr(emptiness, name, forbidden)
        for name in calls:
            monkeypatch.setattr(emptiness, name,
                                counting(name, getattr(emptiness, name)))
        monkeypatch.setattr(emptiness, "decompose", marked_decompose)
        verdicts, built = {EMPTY: 0, NOT_PROVEN_EMPTY: 0}, set()
        for sysr in fixtures:
            for found in calls.values():
                found.clear()
            report = decide(sysr)
            verdicts[report.verdict] += 1
            assert len(calls["eliminate"]) <= 1
            if report.verdict == NOT_PROVEN_EMPTY:
                assert len(calls["eliminate"]) == 1
            family = report.certificate and report.certificate.family
            if family == FAMILY_KERNEL:
                assert len(calls["lowest_terms"]) == 1
                built.add(family)
            else:
                assert calls["lowest_terms"] == []
        assert min(verdicts.values()) >= 5, verdicts
        assert built == {FAMILY_KERNEL}

    def test_no_fraction_before_certificate(self, monkeypatch):
        # a NOT_PROVEN_EMPTY verdict runs every family in ints, from the
        # elimination that picks A2 to the last test
        calls = []
        real_new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return real_new(cls, *args, **kwargs)
        fixtures = [feasible_system(seed, m, n) for seed, (m, n)
                    in enumerate(((6, 2), (8, 2), (12, 3), (13, 3)))]
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        for sysr in fixtures:
            calls.clear()
            report = decide(sysr)
            assert report.verdict == NOT_PROVEN_EMPTY
            assert calls == [], sysr.A.rows

    def test_empty_verdict_fraction_count(self, monkeypatch):
        # no verdict makes a Fraction, for integer or rational input: the
        # certificate keeps the ints z = s t(k')G over s, and the exact
        # check of its Farkas vector runs in ints
        shapes = ((6, 2), (8, 2), (12, 3), (13, 3))
        fixtures = {
            "integer": [feasible_system(seed, m, n, lower=2)
                        for seed, (m, n) in enumerate(shapes * 2)],
            "rational": [rational_system(seed, m, n)
                         for seed, (m, n) in enumerate(shapes * 2)],
        }
        calls = []
        real_new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return real_new(cls, *args, **kwargs)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        for kind, systems in fixtures.items():
            empties = 0
            for sysr in systems:
                calls.clear()
                report = decide(sysr)
                empties += report.verdict == EMPTY
                assert calls == [], (kind, sysr.A.rows, report.verdict,
                                     len(calls))
            assert empties >= 4, kind

    def test_cli_check_fraction_budget(self, tmp_path, monkeypatch):
        # `check --json` on an all-integer file keeps its ints from the
        # parse to the written report, whatever the verdict: presolve's
        # Farkas vector, the whole space's witness and decide's certificate
        # are all ints
        files = []
        for seed, (m, n) in enumerate(((10, 2), (11, 2), (12, 3), (13, 3),
                                       (14, 3)) * 2):
            for lower in (0, 2):
                sysr = feasible_system(seed, m, n, lower=lower)
                path = tmp_path / f"s{seed}m{m}n{n}l{lower}.txt"
                path.write_text(f"{m} {n}\n" + "".join(
                    " ".join(str(x) for x in row + [bi]) + "\n"
                    for row, bi in zip(sysr.A.row_lists(), sysr.b.entries)))
                files.append(path)
        # a zero row with a negative bound (presolve EMPTY), only zero rows
        # with nonnegative bounds (the whole space), and a rank-deficient
        # file, projected onto one column
        for name, text in (("presolve.txt", "3 2\n1 1 4\n0 0 -1\n-1 2 3\n"),
                           ("whole.txt", "2 2\n0 0 1\n0 0 0\n"),
                           ("deficient.txt",
                            "3 2\n1 2 1\n2 4 3\n-1 -2 -5\n")):
            files.append(tmp_path / name)
            files[-1].write_text(text)
        calls = []
        real_new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return real_new(cls, *args, **kwargs)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        verdicts = {EMPTY: 0, NOT_PROVEN_EMPTY: 0}
        outs = {}
        for path in files:
            calls.clear()
            buf = io.StringIO()
            code = cli.run(["check", str(path), "--json"], out=buf)
            assert calls == [], (path.name, len(calls))
            outs[path.name] = json.loads(buf.getvalue())
            verdict = outs[path.name]["verdict"]
            assert code == (verdict == EMPTY)
            verdicts[verdict] += 1
        assert min(verdicts.values()) >= 5, verdicts
        assert outs["presolve.txt"]["certificate"]["farkas_y"] == [
            "0/1", "1/1", "0/1"]
        assert "whole space" in outs["whole.txt"]["note"]
        assert outs["deficient.txt"]["certificate"]["farkas_y"] == [
            "1/1", "0/1", "1/1"]


class TestDecide:
    def test_empty_instance(self):
        report = decide(sys_of(*EMPTY_1D))
        assert report.verdict == EMPTY
        assert report.certificate.farkas_y == Vector.from_list([1, 0, 1])

    def test_nonempty_instance(self):
        report = decide(sys_of(*OK_1D))
        assert report.verdict == NOT_PROVEN_EMPTY
        assert report.certificate is None
        assert not report.is_empty

    def test_determinism(self):
        a = decide(sys_of(*EMPTY_1D))
        b = decide(sys_of(*EMPTY_1D))
        assert a == b

    def test_certificate_validates(self):
        for seed in range(40):
            sysr = gen_random_system(GenSpec(seed=seed, m=6, n=2))
            report = decide(sysr)
            if report.verdict == EMPTY:
                y = report.certificate.farkas_y
                assert validate_certificate(sysr.A, sysr.b, y)
                assert fm_feasible(sysr.A, sysr.b).status == INFEASIBLE

    def test_unknown_mode_or_family_raises(self):
        # decide runs one battery: it takes no mode and no order
        for kwargs in ({"mode": "algorithm"}, {"stated_order": True}):
            with pytest.raises(TypeError, match=next(iter(kwargs))):
                decide(sys_of(*OK_1D), **kwargs)
        with pytest.raises(ValueError, match="'canonical', 'kernel'"):
            list(family_tests(decompose(sys_of(*OK_1D)),
                              order=(FAMILY_CANONICAL, "pairs")))
        # the agreement run takes no mode: it reads no count that one sets
        with pytest.raises(TypeError, match="mode"):
            agreement_run([GenSpec(seed=0, m=5, n=2)], mode="thm")

    def test_one_product_per_candidate(self, monkeypatch):
        # the battery runs in ints, and an EMPTY verdict reads its
        # certificate off z / s: no Fraction t(k')R either way, and one z,
        # for the failing test alone
        calls, built = [], []

        def counting(x, A):
            calls.append(x)
            return vec_mat(x, A)
        z_of = emptiness._z_of

        def counting_z(*args):
            built.append(args)
            return z_of(*args)
        monkeypatch.setattr(emptiness, "vec_mat", counting)
        monkeypatch.setattr(emptiness, "_z_of", counting_z)
        for fixture, verdict, products, zs in (
                (OK_1D, NOT_PROVEN_EMPTY, 0, 0), (EMPTY_1D, EMPTY, 0, 1),
                (([[1, 0], [0, 1], [1, 1], [-1, -1]], [1, 1, 2, -3]),
                 EMPTY, 0, 1)):
            calls.clear()
            built.clear()
            report = decide(sys_of(*fixture))
            assert report.verdict == verdict
            assert len(calls) == products, verdict
            assert len(built) == zs, verdict


class TestFarkas:
    def test_hand_certificate(self):
        dec = decompose(sys_of(*EMPTY_1D))
        for _, _, z, s in canonical_tests(dec):
            if not run_test(z, dec):
                y = farkas_from(exact_image(z, s), dec)
                assert y == Vector.from_list([1, 0, 1])

    def test_negated_case(self):
        dec = decompose(sys_of(*EMPTY_1D))
        for _, _, z, s in canonical_tests(dec):
            if not run_test(z, dec):
                assert not run_test(tuple(-e for e in z), dec)
                y = farkas_from(exact_image(z, s).neg(), dec)
                assert y == Vector.from_list([1, 0, 1])


def iis_families(sysr) -> list:
    """The family of decide's certificate of sysr, if any, checked for a
    support S that names an irreducible infeasible subsystem:
    rank(A_S) = |S| - 1.  The only row dependency of A_S is then y_S > 0,
    with t(y_S)b_S < 0, and dropping any row leaves independent rows,
    which Ax = b solves."""
    cert = decide(sysr).certificate
    if cert is None:
        return []
    support = [i for i, x in enumerate(cert.y.entries) if x]
    A_S = Matrix(len(support), sysr.n,
                 tuple(sysr.A.entries[i] for i in support))
    assert rank(A_S) == len(support) - 1, cert.label()
    return [cert.family]


def walk_is_iis(sysr) -> bool:
    """Whether sysr's walk ends Empty, its certificate's support S checked
    for rank(A_S) = |S| - 1: S is the failing row and the basis rows it
    combines, which are independent."""
    res = walk(decompose(sysr))
    if res.status != EMPTY:
        return False
    support = [i for i, x in enumerate(res.y.entries) if x]
    A_S = Matrix(len(support), sysr.n,
                 tuple(sysr.A.entries[i] for i in support))
    assert rank(A_S) == len(support) - 1, res
    return True


class TestIIS:
    @settings(max_examples=300, deadline=None)
    @given(battery_systems())
    def test_small_systems(self, sysr):
        iis_families(sysr)
        walk_is_iis(sysr)

    def test_seeded_draws(self):
        families = set()
        walk_empties = 0
        for seed in range(40):
            for m, n in ((6, 2), (8, 2), (12, 3), (13, 3)):
                systems = [feasible_system(seed, m, n, x0_range=5, lower=lower)
                           for lower in (0, 1, 2)]
                systems.append(rational_system(seed, m, n))
                for sysr in systems:
                    families.update(iis_families(sysr))
                    walk_empties += walk_is_iis(sysr)
        assert families == set(DEFAULT_ORDER)
        assert walk_empties > 200

    def test_walk_past_the_battery(self):
        # the criterion 6 misses, which the walk settles after pivots
        for rows, b in CRITERION_6_SHRUNK:
            assert walk_is_iis(sys_of(rows, b))


def walk_corpus(shapes=((6, 2), (8, 2), (12, 3), (13, 3)), seeds=30):
    """Seeded integer systems, feasible and mostly infeasible, their p/q
    versions, and criterion 6's shrunk discrepancies."""
    systems = []
    for seed in range(seeds):
        for m, n in shapes:
            systems += [feasible_system(seed, m, n, lower=lower)
                        for lower in (0, 1, 2)]
            systems.append(rational_system(seed, m, n))
    return systems + [sys_of(*case) for case in CRITERION_6_SHRUNK]


def reference_walk(sysr, budget):
    """The walk read off R = A_N A_B^-1 and x_B = A_B^-1 b_B in Fractions,
    built afresh at each basis: (status, pivots, basis, failing row)."""
    A, b, n = sysr.A, sysr.b, sysr.n
    dec = decompose(sysr)
    basis = list(dec.row_perm[dec.m - n:])
    pivots = 0
    while True:
        Binv = invert(Matrix(n, n, tuple(A.entries[i] for i in basis)))
        x = mat_vec(Binv, Vector(n, tuple(b[i] for i in basis)))
        violated = [i for i in range(sysr.m) if i not in basis
                    and dot(A.entries[i], x.entries) > b[i]]
        if not violated:
            return NONEMPTY, pivots, tuple(basis), None
        R = {i: vec_mat(A.row(i), Binv).entries for i in violated}
        for i in violated:
            if max(R[i]) <= 0:
                return EMPTY, pivots, tuple(basis), i
        if pivots == budget:
            return BUDGET_SPENT, pivots, tuple(basis), None
        i = violated[0]
        l = min((l for l in range(n) if R[i][l] > 0), key=basis.__getitem__)
        basis[l] = i
        pivots += 1


class TestWalk:
    def test_matches_fm_on_seeded_corpus(self):
        statuses = {}
        rational = 0
        # FM takes about 0.1 s on a (12, 3) system
        for sysr in walk_corpus(((6, 2), (8, 2), (9, 3), (10, 3)), 20):
            res = walk(decompose(sysr))
            oracle = fm_feasible(sysr.A, sysr.b)
            assert res.status != BUDGET_SPENT
            assert (res.status == EMPTY) == (oracle.status == INFEASIBLE)
            if res.status == EMPTY:
                assert validate_certificate(sysr.A, sysr.b, res.y)
                assert {type(x) for x in res.y.entries} == {int}
            else:
                assert validate_witness(sysr.A, sysr.b, res.witness)
            statuses[res.status, res.pivots > 0] = True
            rational += any(type(x) is Fraction for x in sysr.b.entries)
        assert set(statuses) == {(EMPTY, False), (EMPTY, True),
                                 (NONEMPTY, False), (NONEMPTY, True)}
        assert rational > 100

    @settings(max_examples=300, deadline=None)
    @given(battery_systems())
    def test_matches_fm_on_small_systems(self, sysr):
        res = walk(decompose(sysr))
        assert ((res.status == EMPTY)
                == (fm_feasible(sysr.A, sysr.b).status == INFEASIBLE))

    def test_pivots_match_the_fraction_walk(self):
        # the integer pivot rule keeps Rz = D R and r at every basis, so
        # the walk takes the Fraction walk's path, pivot for pivot
        pivots = 0
        for sysr in walk_corpus():
            res = walk(decompose(sysr))
            assert (res.status, res.pivots, res.basis, res.row) \
                == reference_walk(sysr, PIVOT_BUDGET)
            pivots += res.pivots
        assert pivots > 300

    def test_canonical_empty_after_no_pivot(self):
        # a canonical failure at decompose's basis is the walk's answer,
        # with the battery's own Farkas vector, and the walk ends Empty
        # with no pivot only then
        caught = 0
        for sysr in walk_corpus():
            report = decide(sysr)
            res = walk(decompose(sysr))
            if report.is_empty and report.certificate.family == FAMILY_CANONICAL:
                assert (res.status, res.pivots) == (EMPTY, 0)
                assert res.y == report.certificate.y
                caught += 1
            else:
                assert res.pivots > 0 or res.status == NONEMPTY
        assert caught > 50

    def test_budget(self):
        # a walk that needs k pivots spends a budget of k - 1 and answers
        # under a budget of k
        needs = set()
        for sysr in walk_corpus():
            dec = decompose(sysr)
            res = walk(dec)
            k = res.pivots
            if k < 2:
                continue
            spent = walk(dec, k - 1)
            assert (spent.status, spent.pivots, spent.y, spent.witness) \
                == (BUDGET_SPENT, k - 1, None, None)
            assert walk(dec, k) == res
            needs.add((res.status, k))
        assert {status for status, _ in needs} == {EMPTY, NONEMPTY}
        assert max(k for _, k in needs) >= 3

    @pytest.mark.parametrize("budget", [-1, -PIVOT_BUDGET])
    def test_negative_budget_raises(self, budget):
        # pivots == budget never holds for a negative budget, which would
        # leave the walk uncapped
        dec = decompose(sys_of(*CRITERION_6_SHRUNK[0]))
        assert walk(dec).pivots == 2
        with pytest.raises(ValueError, match="budget must be >= 0"):
            walk(dec, budget)

    @pytest.mark.parametrize("case", [CRITERION_6_SHRUNK[0], OK_1D])
    def test_tampered_answer_raises(self, case, monkeypatch):
        # walk checks its own answer: a Farkas vector or a point that
        # fails its exact check never leaves it
        real = emptiness._bland_path

        def tampered(dec, budget):
            res = real(dec, budget)
            if res.status == EMPTY:
                return WalkResult(EMPTY, res.pivots, res.basis, res.row,
                                  res.y.neg(), None)
            return WalkResult(NONEMPTY, res.pivots, res.basis, None, None,
                              Vector(dec.n, tuple(x + 100 for x
                                                  in res.witness.entries)))
        dec = decompose(sys_of(*case))
        assert walk(dec).status in (EMPTY, NONEMPTY)
        monkeypatch.setattr(emptiness, "_bland_path", tampered)
        with pytest.raises(SoundnessViolation, match="fails the exact check"):
            walk(dec)


class TestLemma1Identity:
    def test_projection_fixed_iff_in_kernel_of_U(self):
        from hollowcheck.densemat import pinv_full_col_rank
        rng = random.Random(31)
        for seed in range(10):
            sysr = gen_random_system(GenSpec(seed=seed, m=5, n=2))
            dec = decompose(sysr)
            A = dec.permuted_A()
            P = pinv_full_col_rank(A)
            U = build_U(dec)
            c2 = Vector.from_list([Fraction(rng.randint(-5, 5), 2)
                                   for _ in range(dec.n)])
            top = mat_vec(dec.R, c2)
            c = Vector(dec.m, top.entries + c2.entries)
            assert mat_vec(U, c).is_zero()
            assert mat_vec(A, mat_vec(P, c)) == c
