"""Measure how often the algebraic test proves emptiness that the exact
Fourier-Motzkin oracle confirms, across random integer instances.

Empty verdicts are always sound (each carries a Farkas certificate that
is validated exactly); the interesting number is how many oracle-
infeasible instances the test fails to flag -- those show up as
"discrepancies", shrunk to minimal reportable examples.

Run: python3 demos/demo_agreement.py
"""
import json

from hollowcheck import GenSpec, agreement_run


def main():
    shapes = [(m, n) for n in (1, 2, 3) for m in range(n + 1, 8)]
    specs = [GenSpec(seed=i, m=shapes[i % len(shapes)][0],
                     n=shapes[i % len(shapes)][1]) for i in range(200)]

    stats = agreement_run(specs)
    # decide runs one battery, which counts the algorithm's tests
    print("=== mode: algorithm")
    print(f"instances:              {stats.total}")
    print(f"empty, oracle agrees:   {stats.empty_agree}")
    print(f"not proven, feasible:   {stats.notproven_and_feasible}")
    print(f"missed infeasibility:   {len(stats.discrepancies)}")
    print(f"failing-family counts:  {stats.family_failure_histogram}")
    for d in stats.discrepancies[:3]:
        print("shrunk discrepancy:",
              json.dumps(d.to_jsonable(), sort_keys=True))


if __name__ == "__main__":
    main()
