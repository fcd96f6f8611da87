import itertools
import random
from fractions import Fraction

import pytest

from hollowcheck import emptiness
from hollowcheck.densemat import Matrix, Vector, mat_mul, vec_mat
from hollowcheck.emptiness import (EMPTY, FAMILY_CANONICAL, MODE_ALGORITHM,
                                   MODE_THEOREM, NOT_PROVEN_EMPTY, build_U,
                                   decide, decompose, family_tests,
                                   farkas_from, image, in_cone_G, run_test)
from hollowcheck.interval import contains_zero, iv_dot
from hollowcheck.harness import gen_random_system, GenSpec, system_from_rows
from hollowcheck.oracle import INFEASIBLE, fm_feasible, validate_certificate


EMPTY_1D = ([[1], [1], [-1]], [1, 2, -3])
OK_1D = ([[1], [1], [-1]], [1, 2, 0])
RATIONAL_1D = ([[3], [2], [Fraction(-3, 2)]],
               [Fraction(-5, 6), Fraction(1, 2), Fraction(3, 4)])


def sys_of(rows, b):
    return system_from_rows(rows, b)


def G_of(dec):
    """G = [I | -R], the top m - n rows of U."""
    return Matrix.from_rows(build_U(dec).row_lists()[:dec.m - dec.n])


def canonical_tests(dec):
    return family_tests(dec, order=(FAMILY_CANONICAL,))


def positive_multiple(z, exact):
    """c > 0 with z = c * exact, or None."""
    nonzero = [(zi, ei) for zi, ei in zip(z, exact.entries) if ei != 0]
    if not nonzero:
        return 1 if not any(z) else None
    c = Fraction(nonzero[0][0]) / nonzero[0][1]
    if c > 0 and all(zi == c * ei for zi, ei in zip(z, exact.entries)):
        return c
    return None


class TestDecompose:
    def test_1d_instance(self):
        dec = decompose(sys_of(*OK_1D))
        # top-to-bottom scan selects row 0 as the invertible 1x1 block
        assert dec.A2 == Matrix.from_rows([[1]])
        assert dec.A1 == Matrix.from_rows([[1], [-1]])
        assert dec.R == Matrix.from_rows([[1], [-1]])
        assert dec.row_perm == (1, 2, 0)
        assert dec.b1 == Vector.from_list([2, 0])
        assert dec.b2 == Vector.from_list([1])

    def test_identity_bottom_block(self):
        A1 = [[2, 3], [4, 5], [7, 1]]
        rows = [[1, 0], [0, 1]] + A1
        # identity rows come first in the scan, so they become A2
        dec = decompose(sys_of(rows, [0] * 5))
        assert dec.A2 == Matrix.identity(2)
        assert dec.A1 == Matrix.from_rows(A1)
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
        assert not in_cone_G(image(Vector.from_list([1, -1]), dec).entries)

    def test_run_test_fail_on_empty_instance(self):
        dec = decompose(sys_of(*EMPTY_1D))
        failing = [tv for tv, z in canonical_tests(dec) if not run_test(z, dec)]
        assert [tv.params for tv in failing] == [(2,)]
        interval = iv_dot(image(failing[0].kprime, dec), dec.b_perm)
        assert interval.hi == Fraction(-2)

    def test_image_matches_product_through_G(self):
        shapes = [(4, 2), (5, 2), (6, 2), (5, 3), (7, 3)]
        seen_zero = seen_pair = False
        for seed in range(20):
            m, n = shapes[seed % len(shapes)]
            dec = decompose(gen_random_system(GenSpec(seed=seed, m=m, n=n)))
            G = G_of(dec)
            for mode in (MODE_ALGORITHM, MODE_THEOREM):
                for tv, z in family_tests(dec, mode):
                    exact = image(tv.kprime, dec)
                    assert exact == vec_mat(tv.kprime, G)
                    assert all(type(e) is int for e in z)
                    assert positive_multiple(z, exact) is not None, tv
                    seen_zero |= tv.kprime.is_zero()
                    seen_pair |= tv.family == "pair"
        assert seen_zero and seen_pair

    def test_kernel_sentinel_passes(self):
        dec = decompose(sys_of(*OK_1D))
        assert run_test((0, 0, 0), dec)
        interval = iv_dot(image(Vector.zero(2), dec), dec.b_perm)
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
        pairs = [tv for tv, _ in family_tests(dec) if tv.family == "pair"]
        assert len(pairs) == 1
        (tv,) = pairs
        # k'(j=1,i=1,i'=2) = -r_21 e1 + r_11 e2 with R = (1, -1)
        assert tv.kprime == Vector.from_list([1, 1])

    def test_pair_vector_kills_R_column(self):
        for seed in range(10):
            sysr = gen_random_system(GenSpec(seed=seed, m=6, n=2))
            dec = decompose(sysr)
            for tv, _ in family_tests(dec):
                if tv.family != "pair":
                    continue
                j = tv.params[0]
                prod = vec_mat(tv.kprime, dec.R)
                assert prod[j - 1] == 0

    def test_m_minus_n_one_has_no_pairs(self):
        sysr = sys_of([[1, 0], [0, 1], [1, 1]], [1, 1, 1])
        dec = decompose(sysr)
        fams = [tv.family for tv, _ in family_tests(dec)]
        assert "pair" not in fams
        assert fams.count("canonical") == 1

    def test_theorem_mode_superset(self):
        sysr = gen_random_system(GenSpec(seed=12, m=7, n=2))
        dec = decompose(sysr)
        alg = list(family_tests(dec, MODE_ALGORITHM))
        thm = list(family_tests(dec, MODE_THEOREM))
        assert len(thm) >= len(alg)


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

    def test_one_product_per_candidate(self, monkeypatch):
        # the battery runs in ints: no Fraction t(k')R when nothing fails,
        # and one for an EMPTY verdict, the exact z of its certificate
        calls = []

        def counting(x, A):
            calls.append(x)
            return vec_mat(x, A)
        monkeypatch.setattr(emptiness, "vec_mat", counting)
        for fixture, verdict, products in ((OK_1D, NOT_PROVEN_EMPTY, 0),
                                           (EMPTY_1D, EMPTY, 1)):
            for mode in (MODE_ALGORITHM, MODE_THEOREM):
                calls.clear()
                report = decide(sys_of(*fixture), mode=mode)
                assert report.verdict == verdict
                assert len(calls) == products, (verdict, mode)


class TestFarkas:
    def test_hand_certificate(self):
        dec = decompose(sys_of(*EMPTY_1D))
        for tv, z in canonical_tests(dec):
            if not run_test(z, dec):
                y = farkas_from(image(tv.kprime, dec), dec)
                assert y == Vector.from_list([1, 0, 1])

    def test_negated_case(self):
        dec = decompose(sys_of(*EMPTY_1D))
        for tv, z in canonical_tests(dec):
            if not run_test(z, dec):
                assert not run_test(tuple(-e for e in z), dec)
                y = farkas_from(image(tv.kprime.neg(), dec), dec)
                assert y == Vector.from_list([1, 0, 1])


class TestLemma1Identity:
    def test_projection_fixed_iff_in_kernel_of_U(self):
        from hollowcheck.densemat import mat_vec, pinv_full_col_rank
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
