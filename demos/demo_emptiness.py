"""Walk through the emptiness test on two small 1-D systems.

System A: {x <= 1, x <= 2, -x <= -3}  (needs x <= 1 and x >= 3: empty)
System B: {x <= 1, x <= 2, -x <= 0}   (0 <= x <= 1: nonempty)

Run: python3 demos/demo_emptiness.py
"""
from fractions import Fraction

from hollowcheck import (GenSpec, Vector, contains_zero, decide, decompose,
                         family_tests, fm_feasible, gen_random_system, iv_dot,
                         system_from_rows)


def show(name, rows, bounds):
    sys_ = system_from_rows(rows, bounds)
    print(f"--- {name}: rows={rows}, bounds={bounds}")

    dec = decompose(sys_)
    print(f"selected invertible block rows (original indices): "
          f"{dec.row_perm[dec.m - dec.n:]}")
    print(f"R = A1 A2^-1 = {dec.R.row_lists()}")

    for family, params, z, s in family_tests(dec):
        # family_tests yields integers z = s t(k')G; show the exact t(k')G
        exact = Vector(dec.m, tuple(Fraction(x, s) for x in z))
        interval = iv_dot(exact, dec.b_perm)
        passed = contains_zero(interval)
        label = f"{family}{list(params)}"
        print(f"  test {label:<16} t(k')G={exact.entries} "
              f"image=[{interval.lo}, {interval.hi}] "
              f"{'contains 0' if passed else 'MISSES 0 -> empty'}")
        if not passed:
            break

    report = decide(sys_)
    print(f"verdict: {report.verdict} after {report.tests_run} tests")
    if report.certificate:
        y = report.certificate.farkas_y
        print(f"Farkas certificate y = {tuple(y.entries)} "
              f"(y >= 0, t(y)A = 0, t(y)b < 0)")
    oracle = fm_feasible(sys_.A, sys_.b)
    print(f"oracle cross-check: {oracle.status}"
          + (f", witness x = {tuple(oracle.witness.entries)}"
             if oracle.witness else ""))
    print()


def main():
    show("system A (empty)", [[1], [1], [-1]], [1, 2, -3])
    show("system B (nonempty)", [[1], [1], [-1]], [1, 2, 0])

    print("--- a random 2-D instance")
    sys_ = gen_random_system(GenSpec(seed=7, m=6, n=2))
    report = decide(sys_)
    oracle = fm_feasible(sys_.A, sys_.b)
    print(f"verdict: {report.verdict}, oracle: {oracle.status}, "
          f"tests run: {report.tests_run}, per family: {report.family_counts}")


if __name__ == "__main__":
    main()
