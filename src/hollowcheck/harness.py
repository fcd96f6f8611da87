"""Randomized probes for every lemma/theorem behind the emptiness test,
plus agreement runs against the Fourier-Motzkin oracle.

All probes use exact rational arithmetic.  Soundness (Empty implies the
oracle agrees) is hard-asserted; completeness of the enumeration is only
tallied, with discrepancies shrunk to small reportable instances.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .densemat import (Matrix, Vector, mat_mul, mat_vec, pinv_append_row,
                       pinv_full_col_rank, rank, rref)
from .emptiness import (EMPTY, FAMILY_CANONICAL, MODE_ALGORITHM,
                        SoundnessViolation, build_U, decide, decompose,
                        family_tests, run_test)
from .oracle import (FEASIBLE, INFEASIBLE, SizeExceeded, fm_feasible,
                     validate_certificate, validate_witness)
from .standardize import NotStandard, StandardSystem, check_assumptions

DEFAULT_INSTANCES = 100
DEFAULT_TRIALS = 20
MAX_REJECTS = 1000      # draws before a rejection sampler gives up
RATIONAL_MAG = 9        # numerator bound of a probe's random rationals
FULL_ROW_RANK_MAG = 4   # entry bound of a probe's random full-row-rank matrix


class GenerationExhausted(Exception):
    """Rejection sampling failed too many times for the given spec."""


class ProbeFailure(AssertionError):
    """A lemma/theorem probe found a counterexample; carries the instance."""


@dataclass(frozen=True)
class GenSpec:
    seed: int
    m: int
    n: int
    entry_range: int = 5
    b_range: int = 5

    def __post_init__(self):
        if not (self.m > self.n >= 1):
            raise ValueError(f"need m > n >= 1, got m={self.m}, n={self.n}")
        if self.entry_range < 1 or self.b_range < 1:
            raise ValueError("ranges must be >= 1")


@dataclass
class Discrepancy:
    rows: list          # integer-ish matrix rows of the shrunk instance
    bounds: list
    verdict: str
    oracle_status: str
    seed: int

    def to_jsonable(self) -> dict:
        return {
            "rows": [[str(x) for x in r] for r in self.rows],
            "bounds": [str(x) for x in self.bounds],
            "verdict": self.verdict,
            "oracle_status": self.oracle_status,
            "seed": self.seed,
        }


@dataclass
class AgreementStats:
    total: int = 0
    empty_agree: int = 0
    notproven_and_feasible: int = 0
    discrepancies: list = field(default_factory=list)
    family_failure_histogram: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "total": self.total,
            "empty_agree": self.empty_agree,
            "notproven_and_feasible": self.notproven_and_feasible,
            "discrepancy_count": len(self.discrepancies),
            "discrepancies": [d.to_jsonable() for d in self.discrepancies],
            "family_failure_histogram": dict(
                sorted(self.family_failure_histogram.items())),
        }


def system_from_rows(rows, bounds) -> StandardSystem:
    return StandardSystem(Matrix.from_rows(rows), Vector.from_list(bounds))


def gen_random_system(spec: GenSpec) -> StandardSystem:
    """Integer system satisfying the standing assumptions; seed-deterministic."""
    rng = random.Random(spec.seed)
    for _ in range(MAX_REJECTS):
        A = Matrix.from_rows([[rng.randint(-spec.entry_range, spec.entry_range)
                               for _ in range(spec.n)] for _ in range(spec.m)])
        if check_assumptions(A):
            continue
        b = Vector.from_list([rng.randint(-spec.b_range, spec.b_range)
                              for _ in range(spec.m)])
        return StandardSystem(A, b)
    raise GenerationExhausted(f"no admissible system after {MAX_REJECTS} draws")


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-RATIONAL_MAG, RATIONAL_MAG), rng.randint(1, 4))


def probe_lemma1(sys: StandardSystem, trials: int = DEFAULT_TRIALS,
                 seed: int = 0) -> dict:
    """(A A+ - I)c = 0 iff U c = 0, exactly, on constructed +/- cases."""
    rng = random.Random(seed)
    dec = decompose(sys)
    A = dec.permuted_A()
    P = pinv_full_col_rank(A)
    U = build_U(dec)
    m, n = A.rows, A.cols

    def both_sides(c: Vector):
        lhs = mat_vec(A, mat_vec(P, c))
        proj_fixed = all(x == y for x, y in zip(lhs.entries, c.entries))
        in_kernel = mat_vec(U, c).is_zero()
        return proj_fixed, in_kernel

    checked = 0
    for _ in range(trials):
        c2 = Vector.from_list([_random_rational(rng) for _ in range(n)])
        top = mat_vec(dec.R, c2)
        c = Vector(m, top.entries + c2.entries)       # c = Rhat c2, so U c = 0
        pf, ik = both_sides(c)
        if not (pf and ik):
            raise ProbeFailure(f"lemma1 positive case failed for c={c.entries}")
        # perturb the first component: U c' = U e1 = e1 != 0
        bumped = (c[0] + 1,) + c.entries[1:]
        cp = Vector(m, bumped)
        pf, ik = both_sides(cp)
        if pf or ik:
            raise ProbeFailure(f"lemma1 negative case failed for c={cp.entries}")
        checked += 2
    return {"checked": checked, "ok": True}


def _random_full_row_rank(rng: random.Random, k: int, n: int) -> Matrix:
    for _ in range(MAX_REJECTS):
        rows = [[rng.randint(-FULL_ROW_RANK_MAG, FULL_ROW_RANK_MAG)
                 for _ in range(n)] for _ in range(k)]
        M = Matrix.from_rows(rows)
        if rank(M) == k:
            return M
    raise GenerationExhausted(f"no full-row-rank {k}x{n} matrix found")


def pinv_rank_factorization(M: Matrix) -> Matrix:
    """Independent reference pseudoinverse via M = B C (full-rank factors)."""
    crows, piv_cols = rref(M)
    B = Matrix.from_rows([[M.at(i, c) for c in piv_cols]
                          for i in range(M.rows)])
    C = Matrix.from_rows(crows)
    B_pinv = pinv_full_col_rank(B)
    C_pinv = pinv_full_col_rank(C.transpose()).transpose()
    return mat_mul(C_pinv, B_pinv)


def probe_lemma2(n: int, k: int, trials: int = DEFAULT_TRIALS,
                 seed: int = 0) -> dict:
    """Bordered pseudoinverse matches the direct one; Utilde kernel law holds.

    The appended row is drawn from the row space of A2t: that is the
    situation the update formula covers (zero residual), and the one the
    surrounding construction produces.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    rng = random.Random(seed)
    A2t = _random_full_row_rank(rng, k, n)
    A2t_pinv = pinv_full_col_rank(A2t.transpose()).transpose()  # right inverse
    w = Vector.from_list([rng.randint(-3, 3) for _ in range(k)])
    a = mat_vec(A2t.transpose(), w)                  # a = t(A2t) w
    stacked = Matrix.from_rows([list(a.entries)] + A2t.row_lists())

    P = pinv_append_row(A2t_pinv, A2t, a)
    ref = pinv_rank_factorization(stacked)
    if P.entries != ref.entries:
        raise ProbeFailure("bordered pseudoinverse differs from the direct one")

    # Utilde = [[1, -t(v)], [0, 0]] with t(v) = t(a) A2t_pinv
    v = mat_vec(A2t_pinv.transpose(), a)
    proj = mat_mul(stacked, P)
    checked = 0
    for _ in range(trials):
        c2 = Vector.from_list([_random_rational(rng) for _ in range(k)])
        c0 = v.dot(c2)
        ct = Vector(k + 1, (c0,) + c2.entries)        # kernel construction
        lhs = mat_vec(proj, ct)
        if lhs.entries != ct.entries:
            raise ProbeFailure(f"lemma2 positive case failed for c={ct.entries}")
        cp = Vector(k + 1, (c0 + 1,) + c2.entries)
        lhs = mat_vec(proj, cp)
        fixed = lhs.entries == cp.entries
        in_kernel = (cp[0] - v.dot(c2)) == 0
        if fixed or in_kernel:
            raise ProbeFailure(f"lemma2 negative case failed for c={cp.entries}")
        checked += 2
    return {"checked": checked, "ok": True, "k": k, "n": n}


def probe_theorem1(sys: StandardSystem) -> dict:
    """Row-wise interval test vs oracle feasibility of the touched subsystem."""
    dec = decompose(sys)
    A_rows = dec.permuted_A().row_lists()
    results = []
    for _, (idx,), z, _ in family_tests(dec, order=(FAMILY_CANONICAL,)):
        # z is a positive multiple of t(e_i)G, row i of U; its support
        # B_i is the touched rows
        passed = run_test(z, dec)
        B_i = [j for j in range(dec.m) if z[j] != 0]
        sub_rows = [A_rows[j] for j in B_i]
        sub_b = [dec.b_perm[j] for j in B_i]
        res = fm_feasible(Matrix.from_rows(sub_rows),
                          Vector.from_list(sub_b))
        agree = passed == (res.status == FEASIBLE)
        results.append({"i": idx, "interval_pass": passed,
                        "subsystem_feasible": res.status == FEASIBLE,
                        "agree": agree})
    return {"rows": results, "all_agree": all(r["agree"] for r in results)}


def _discrepancy_holds(rows, bounds) -> bool:
    """The shrink predicate: still NotProvenEmpty yet oracle-infeasible.

    Only the oracle's row cap counts as "does not hold"; any other error,
    a SoundnessViolation above all, propagates.
    """
    try:
        sys = system_from_rows(rows, bounds)
    except NotStandard:
        return False
    if decide(sys).verdict == EMPTY:
        return False
    try:
        return fm_feasible(sys.A, sys.b).status == INFEASIBLE
    except SizeExceeded:
        return False


def _toward_zero(x):
    """One step toward zero that never crosses it: x - 1, x + 1 or 0."""
    if x >= 1:
        return x - 1
    if x <= -1:
        return x + 1
    return 0


def shrink_discrepancy(rows, bounds):
    """Greedy row removal, then entry magnitudes pulled toward zero."""
    rows = [list(r) for r in rows]
    bounds = list(bounds)
    changed = True
    while changed:
        changed = False
        for i in range(len(rows)):
            cand_rows = rows[:i] + rows[i + 1:]
            cand_bounds = bounds[:i] + bounds[i + 1:]
            if len(cand_rows) > 0 and _discrepancy_holds(cand_rows, cand_bounds):
                rows, bounds = cand_rows, cand_bounds
                changed = True
                break
    changed = True
    while changed:
        changed = False
        for i in range(len(rows)):
            for j in range(len(rows[i])):
                x = rows[i][j]
                if x == 0:
                    continue
                cand = [list(r) for r in rows]
                cand[i][j] = _toward_zero(x)
                if _discrepancy_holds(cand, bounds):
                    rows = cand
                    changed = True
            x = bounds[i]
            if x != 0:
                cand_b = list(bounds)
                cand_b[i] = _toward_zero(x)
                if _discrepancy_holds(rows, cand_b):
                    bounds = cand_b
                    changed = True
    return rows, bounds


def agreement_run(specs, mode: str = MODE_ALGORITHM) -> AgreementStats:
    """decide vs oracle across generated instances.

    Empty verdicts are hard-asserted sound: the oracle must find the
    system infeasible, and decide has already checked the Farkas
    certificate exactly against the same A and b.  The NotProvenEmpty
    tallies are the empirical completeness measurement.  A discrepancy
    counts only when the oracle's infeasibility certificate checks exactly.
    """
    stats = AgreementStats()
    for spec in specs:
        sys = gen_random_system(spec)
        report = decide(sys, mode=mode)
        res = fm_feasible(sys.A, sys.b)
        stats.total += 1
        if report.verdict == EMPTY:
            if res.status != INFEASIBLE:
                raise SoundnessViolation(
                    f"Empty verdict on oracle-feasible instance (seed={spec.seed})")
            fam = report.certificate.family
            stats.family_failure_histogram[fam] = \
                stats.family_failure_histogram.get(fam, 0) + 1
            stats.empty_agree += 1
        elif res.status == FEASIBLE:
            if not validate_witness(sys.A, sys.b, res.witness):
                raise SoundnessViolation(
                    f"oracle witness fails its own system (seed={spec.seed})")
            stats.notproven_and_feasible += 1
        else:
            if not validate_certificate(sys.A, sys.b, res.certificate):
                raise SoundnessViolation(
                    f"oracle certificate fails its own system (seed={spec.seed})")
            rows, bounds = shrink_discrepancy(sys.A.row_lists(),
                                              list(sys.b.entries))
            stats.discrepancies.append(Discrepancy(
                rows, bounds, report.verdict, res.status, spec.seed))
    stats.discrepancies.sort(key=lambda d: (len(d.rows), d.seed))
    return stats
