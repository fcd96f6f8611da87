import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hollowcheck import cli, emptiness
from hollowcheck.densemat import (Matrix, Vector, eliminate, invert,
                                  left_nullspace_basis, mat_mul, mat_vec,
                                  orth_complement_basis, rank, vec_mat)
from hollowcheck.emptiness import (DEFAULT_ORDER, EMPTY, FAMILY_B1_PERP,
                                   FAMILY_CANONICAL, FAMILY_KERNEL,
                                   FAMILY_PAIR, FAMILY_RB2_PERP,
                                   MODE_ALGORITHM, MODE_THEOREM,
                                   NOT_PROVEN_EMPTY, STATED_ORDER, build_U,
                                   decide, decompose, family_tests,
                                   farkas_from, in_cone_G, run_test)
from hollowcheck.interval import contains_zero, iv_dot
from hollowcheck.harness import (GenSpec, agreement_run, gen_random_system,
                                system_from_rows)
from hollowcheck.oracle import INFEASIBLE, fm_feasible, validate_certificate
from hollowcheck.standardize import RawSystem, StandardSystem, standardize


EMPTY_1D = ([[1], [1], [-1]], [1, 2, -3])
OK_1D = ([[1], [1], [-1]], [1, 2, 0])
RATIONAL_1D = ([[3], [2], [Fraction(-3, 2)]],
               [Fraction(-5, 6), Fraction(1, 2), Fraction(3, 4)])
# systems whose first failing test is a kernel or complement vector
# (TestResidualForm.test_examples_cover_the_special_cases)
KERNEL_NEG_DET = ([[-1], [1], [-1]], [0, 0, -1])
KERNEL_LOW_RANK = ([[-1, 0], [-1, 0], [0, 2], [1, 0]], [0, -1, 0, 0])
B1_PERP_PAIR = ([[-1], [1], [1]], [-1, -1, 1])
RB2_PERP_PAIR = ([[1], [1], [-1]], [-1, 0, -1])
B1_ZERO = ([[-1], [1], [1]], [-1, 0, 0])
RB2_ZERO = ([[-1], [1], [1]], [0, -1, 0])


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


def blocks(dec):
    """(A1, A2), the unselected and the selected rows of A, read off
    permuted_A()."""
    rows = dec.permuted_A().row_lists()
    d = dec.m - dec.n
    return Matrix.from_rows(rows[:d]), Matrix.from_rows(rows[d:])


def reference_kprimes(dec):
    """(family, params) -> k', built in Fraction from R, b1 and b2."""
    d, R = dec.m - dec.n, dec.R
    b1 = Vector(d, dec.b_perm.entries[:d])
    b2 = Vector(dec.n, dec.b_perm.entries[d:])
    out = {("canonical", (i + 1,)): Vector.unit(d, i) for i in range(d)}
    for family, basis in (("kernel", left_nullspace_basis(R)),
                          ("b1_perp", orth_complement_basis(b1)),
                          ("rb2_perp", orth_complement_basis(mat_vec(R, b2)))):
        for idx, (w, s) in enumerate(basis):
            v = exact_image(w, s)
            out[family, (idx, 1)] = v
            out[family, (idx, -1)] = v.neg()
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
        for sysr in systems:
            dec = decompose(sysr)
            A1, A2 = blocks(dec)
            assert dec.R == mat_mul(A1, invert(A2))
            assert dec.D == math.lcm(*(x.denominator for x in dec.R.entries))
            assert all(type(x) is int for row in dec.Rz for x in row)


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
            for mode in (MODE_ALGORITHM, MODE_THEOREM):
                for family, params, z, s in family_tests(dec, mode):
                    assert all(type(e) is int for e in z)
                    assert type(s) is int and s > 0
                    kprime = kprime_of(dec, z, s)
                    assert kprime == reference[family, params]
                    assert ([Fraction(x, s) for x in z]
                            == list(vec_mat(kprime, G).entries)), \
                        (family, params)
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

    def test_theorem_mode_superset(self):
        sysr = gen_random_system(GenSpec(seed=12, m=7, n=2))
        dec = decompose(sysr)
        alg = list(family_tests(dec, MODE_ALGORITHM))
        thm = list(family_tests(dec, MODE_THEOREM))
        assert len(thm) >= len(alg)


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


def reference_run(dec, mode, order):
    """The z-form battery: (tests run, family counts, first failure as
    (family, params, z, s) or None), read through family_tests and
    run_test, one candidate at a time."""
    counts = dict.fromkeys(order, 0)
    run = 0
    for family, params, z, s in family_tests(dec, mode, order):
        run += 1
        counts[family] += 1
        if not run_test(z, dec):
            return run, counts, (family, params, z, s)
    return run, counts, None


def assert_decide_matches_reference(sysr, mode, stated_order):
    report = decide(sysr, mode=mode, stated_order=stated_order)
    dec = decompose(sysr)
    run, counts, failure = reference_run(
        dec, mode, STATED_ORDER if stated_order else DEFAULT_ORDER)
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


def assert_families_match_reference(dec, mode):
    """Each family alone, so that a pair family runs beside a failing
    canonical test, which decide's orders never reach."""
    residual = emptiness._residual(dec)
    for family in DEFAULT_ORDER:
        run, _, failure = reference_run(dec, mode, (family,))
        got_run, got = emptiness._scan(dec, family, mode, residual)
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
    # pair (1, 1, 2) with a = 0 and canonical 2 failing
    @example(sys_of([[1, 0], [0, 1], [1, 1], [0, -1]], [0, 0, 5, -1]))
    # pair (1, 1, 2) with c = 0 and canonical 1 failing
    @example(sys_of([[1, 0], [0, 1], [0, -1], [1, 1]], [0, 0, -1, 5]))
    # the same with a < 0: the head's sign is -a, not c
    @example(sys_of([[1, 0], [0, 1], [0, -1], [-1, 1]], [0, 0, -1, 5]))
    # a = c = 0 in column 1
    @example(sys_of([[1, 0], [0, 1], [0, -1], [0, -1]], [0, 0, -1, -1]))
    @example(sys_of(*RATIONAL_1D))
    # the first failure is a kernel vector, with det < 0 in the kernel's
    # elimination
    @example(sys_of(*KERNEL_NEG_DET))
    # the same with det > 0, and Rz of rank 1 < n
    @example(sys_of(*KERNEL_LOW_RANK))
    # in the stated order, the first failure is a b1_perp or an rb2_perp
    # vector with two nonzeros
    @example(sys_of(*B1_PERP_PAIR))
    @example(sys_of(*RB2_PERP_PAIR))
    # b1 = 0 or R b2 = 0: the canonical basis, whose first vector fails
    @example(sys_of(*B1_ZERO))
    @example(sys_of(*RB2_ZERO))
    def test_same_as_z_form(self, sysr):
        dec = decompose(sysr)
        for stated_order in (False, True):
            algorithm, theorem = (
                assert_decide_matches_reference(sysr, mode, stated_order)
                for mode in (MODE_ALGORITHM, MODE_THEOREM))
            # the mode sets only the count
            assert (theorem.verdict, theorem.certificate) == (
                algorithm.verdict, algorithm.certificate)
        for mode in (MODE_ALGORITHM, MODE_THEOREM):
            assert_families_match_reference(dec, mode)

    def test_examples_cover_the_special_cases(self):
        pair_a0 = decompose(sys_of([[1, 0], [0, 1], [1, 1], [0, -1]],
                                   [0, 0, 5, -1]))
        pair_c0 = decompose(sys_of([[1, 0], [0, 1], [0, -1], [1, 1]],
                                   [0, 0, -1, 5]))
        pair_c0_a_neg = decompose(sys_of([[1, 0], [0, 1], [0, -1], [-1, 1]],
                                         [0, 0, -1, 5]))
        for dec, (a, c) in ((pair_a0, (0, 1)), (pair_c0, (1, 0)),
                            (pair_c0_a_neg, (-1, 0))):
            assert (dec.Rz[1][0], dec.Rz[0][0]) == (a, c)
            _, _, failure = reference_run(dec, MODE_ALGORITHM, (FAMILY_PAIR,))
            assert failure[:2] == (FAMILY_PAIR, (1, 1, 2))
        sentinel = decompose(sys_of([[1, 2], [3, 1], [1, 0], [0, 1]],
                                    [1, 2, -1, 3]))
        assert [p for f, p, *_ in family_tests(sentinel)
                if f == "kernel"] == [(0, 1)]
        for fixture, stated_order, family, nonzeros in (
                (KERNEL_NEG_DET, False, FAMILY_KERNEL, 2),
                (KERNEL_LOW_RANK, False, FAMILY_KERNEL, 2),
                (B1_PERP_PAIR, True, FAMILY_B1_PERP, 2),
                (RB2_PERP_PAIR, True, FAMILY_RB2_PERP, 2),
                (B1_ZERO, True, FAMILY_B1_PERP, 1),
                (RB2_ZERO, True, FAMILY_RB2_PERP, 1)):
            for mode in (MODE_ALGORITHM, MODE_THEOREM):
                cert = decide(sys_of(*fixture), mode,
                              stated_order).certificate
                assert cert.family == family, (fixture, mode)
                assert sum(1 for x in cert.kprime.entries if x) == nonzeros
        dets = {}
        for name, fixture in (("neg", KERNEL_NEG_DET),
                              ("low", KERNEL_LOW_RANK)):
            dec = decompose(sys_of(*fixture))
            _, pc, dets[name] = eliminate(Matrix.from_rows(
                [list(col) for col in zip(*dec.Rz)]))
            assert len(pc) == (1 if name == "low" else dec.n)
        assert dets["neg"] < 0 < dets["low"]
        for fixture, zero in ((B1_ZERO, True), (B1_PERP_PAIR, False)):
            dec = decompose(sys_of(*fixture))
            assert any(dec.bz[:dec.m - dec.n]) != zero
        for fixture, zero in ((RB2_ZERO, True), (RB2_PERP_PAIR, False)):
            assert any(emptiness._rb2(decompose(sys_of(*fixture)))) != zero

    @settings(max_examples=150, deadline=None)
    @given(battery_systems())
    def test_reference_bases_have_the_scanned_form(self, sysr):
        # the identities the kernel and complement scans read in place of
        # the bases, checked against the bases family_tests builds
        dec = decompose(sysr)
        d = dec.m - dec.n
        _, r = emptiness._residual(dec)
        b1 = dec.bz[:d]
        kernel = left_nullspace_basis(
            Matrix(d, dec.n, tuple(x for row in dec.Rz for x in row)))
        assert kernel == left_nullspace_basis(dec.R)
        for w, _ in kernel:
            assert all(sum(x * row[k] for x, row in zip(w, dec.Rz)) == 0
                       for k in range(dec.n))
            assert dot(w, r) == dec.D * dot(w, b1)
        for v in (b1, emptiness._rb2(dec)):
            basis = orth_complement_basis(Vector(d, v))
            p = next((i for i, x in enumerate(v) if x), None)
            if p is None:
                assert basis == [(Vector.unit(d, i).entries, 1)
                                 for i in range(d)]
                continue
            free = [f for f in range(d) if f != p]
            assert len(basis) == len(free)
            for (w, _), f in zip(basis, free):
                assert {i for i, x in enumerate(w) if x} <= {p, f}
                assert w[f] > 0
                assert (w[p] * w[f] < 0) == (v[f] * v[p] > 0)
                assert dot(w, v) == 0

    @pytest.mark.parametrize("kind, m, n, lower", [
        ("feasible", 40, 6, 0), ("near", 20, 4, 2), ("near", 40, 6, 2)])
    def test_large_m(self, kind, m, n, lower):
        # sizes past the pinned corpus, built as the ROADMAP baseline's
        # `feasible` and `near` instances
        verdicts = []
        for seed in range(3):
            sysr = feasible_system(seed, m, n, x0_range=5, lower=lower)
            report = assert_decide_matches_reference(sysr, MODE_ALGORITHM,
                                                     False)
            verdicts.append(report.verdict)
        if kind == "feasible":
            assert verdicts == [NOT_PROVEN_EMPTY] * 3
        else:
            assert EMPTY in verdicts


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
            for mode in (MODE_ALGORITHM, MODE_THEOREM):
                report = decide(sysr, mode=mode)
                assert report.verdict == NOT_PROVEN_EMPTY
                candidates += report.tests_run
        assert calls == []
        assert candidates > 100

    def test_no_basis_built(self, monkeypatch):
        # the kernel and complement families are read in place: no basis,
        # one elimination (the kernel's), and lowest terms outside
        # decompose only for the failing vector of such a family
        shapes = ((6, 2), (8, 2), (12, 3), (13, 3))
        fixtures = ([feasible_system(seed, m, n) for seed, (m, n)
                     in enumerate(shapes)]
                    + [feasible_system(seed, m, n, lower=2)
                       for seed, (m, n) in enumerate(shapes * 2)]
                    + [sys_of(*f) for f in (KERNEL_NEG_DET, KERNEL_LOW_RANK,
                                            B1_PERP_PAIR, RB2_PERP_PAIR,
                                            B1_ZERO, RB2_ZERO)])
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
        for name in ("_basis", "left_nullspace_basis",
                     "orth_complement_basis"):
            monkeypatch.setattr(emptiness, name, forbidden)
        for name in calls:
            monkeypatch.setattr(emptiness, name,
                                counting(name, getattr(emptiness, name)))
        monkeypatch.setattr(emptiness, "decompose", marked_decompose)
        verdicts, built = {EMPTY: 0, NOT_PROVEN_EMPTY: 0}, set()
        for sysr in fixtures:
            for mode in (MODE_ALGORITHM, MODE_THEOREM):
                for stated_order in (False, True):
                    for found in calls.values():
                        found.clear()
                    report = decide(sysr, mode, stated_order)
                    verdicts[report.verdict] += 1
                    assert len(calls["eliminate"]) <= 1
                    if report.verdict == NOT_PROVEN_EMPTY:
                        assert len(calls["eliminate"]) == 1
                    family = report.certificate and report.certificate.family
                    if family in (FAMILY_KERNEL, FAMILY_B1_PERP,
                                  FAMILY_RB2_PERP):
                        assert len(calls["lowest_terms"]) == 1
                        built.add(family)
                    else:
                        assert calls["lowest_terms"] == []
        assert min(verdicts.values()) >= 20, verdicts
        assert built == {FAMILY_KERNEL, FAMILY_B1_PERP, FAMILY_RB2_PERP}

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
            for mode in (MODE_ALGORITHM, MODE_THEOREM):
                calls.clear()
                report = decide(sysr, mode=mode)
                assert report.verdict == NOT_PROVEN_EMPTY
                assert calls == [], (sysr.A.rows, mode)

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
                for mode in (MODE_ALGORITHM, MODE_THEOREM):
                    calls.clear()
                    report = decide(sysr, mode=mode)
                    empties += report.verdict == EMPTY
                    assert calls == [], (kind, sysr.A.rows, mode,
                                         report.verdict, len(calls))
            assert empties >= 8, kind

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

    def test_stated_order_same_verdict(self):
        for seed in range(20):
            sysr = gen_random_system(GenSpec(seed=seed, m=5, n=2))
            a = decide(sysr, stated_order=False)
            b = decide(sysr, stated_order=True)
            assert a.verdict == b.verdict

    def test_unknown_mode_or_family_raises(self):
        with pytest.raises(ValueError, match="'algorithm', 'theorem'"):
            decide(sys_of(*OK_1D), mode="Algorithm")
        with pytest.raises(ValueError, match="'canonical', 'kernel'"):
            list(family_tests(decompose(sys_of(*OK_1D)),
                              order=(FAMILY_CANONICAL, "pairs")))
        with pytest.raises(ValueError, match="unknown mode 'thm'"):
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
            for mode in (MODE_ALGORITHM, MODE_THEOREM):
                calls.clear()
                built.clear()
                report = decide(sys_of(*fixture), mode=mode)
                assert report.verdict == verdict
                assert len(calls) == products, (verdict, mode)
                assert len(built) == zs, (verdict, mode)


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
