"""Randomized probes for every lemma/theorem behind the emptiness test,
plus agreement runs against the Fourier-Motzkin oracle.

All probes use exact arithmetic; the generator's systems are in ints.
Soundness (Empty implies the oracle agrees) is hard-asserted;
completeness of the enumeration is only tallied, with discrepancies
shrunk to small reportable instances.  Two exact oracles serve: FM
(`oracle.fm_feasible`) decides each instance of an agreement run and
each row of `probe_theorem1`, and it confirms each shrunk discrepancy
once; the shrinker's predicate asks `emptiness.walk`, whose answers are
checked exactly before they are read.  Both decide the same question
exactly, so the shrink takes the same steps under either.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .densemat import (Matrix, Record, Vector, mat_mul, mat_vec,
                       pinv_append_row, pinv_full_col_rank, rank, rref)
from .emptiness import (EMPTY, SoundnessViolation, build_U, decide,
                        decompose, walk)
from .oracle import (FEASIBLE, INFEASIBLE, fm_feasible, validate_certificate,
                     validate_witness)
from .standardize import NotStandard, StandardSystem

DEFAULT_INSTANCES = 100
DEFAULT_TRIALS = 20
MAX_REJECTS = 1000      # draws before a rejection sampler gives up
RATIONAL_MAG = 9        # numerator bound of a probe's random rationals
FULL_ROW_RANK_MAG = 4   # entry bound of a probe's random full-row-rank matrix


class GenerationExhausted(Exception):
    """Rejection sampling failed too many times for the given spec."""


class ProbeFailure(AssertionError):
    """A lemma/theorem probe found a counterexample; carries the instance."""


class GenSpec(Record):
    __slots__ = _fields = ("seed", "m", "n", "entry_range", "b_range")

    def __init__(self, seed: int, m: int, n: int, entry_range: int = 5,
                 b_range: int = 5):
        Record.__init__(self, seed, m, n, entry_range, b_range)
        if not (m > n >= 1):
            raise ValueError(f"need m > n >= 1, got m={m}, n={n}")
        if entry_range < 1 or b_range < 1:
            raise ValueError("ranges must be >= 1")


class Discrepancy(Record):
    __slots__ = _fields = (
        "rows",         # integer-ish matrix rows of the shrunk instance
        "bounds", "verdict", "oracle_status", "seed",
    )

    def to_jsonable(self) -> dict:
        return {
            "rows": [[str(x) for x in r] for r in self.rows],
            "bounds": [str(x) for x in self.bounds],
            "verdict": self.verdict,
            "oracle_status": self.oracle_status,
            "seed": self.seed,
        }


class AgreementStats(Record):
    __slots__ = _fields = ("total", "empty_agree", "notproven_and_feasible",
                           "discrepancies", "family_failure_histogram")

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


def _system(rows, bounds) -> StandardSystem:
    """The system of rows and bounds with their entries as they are."""
    return StandardSystem(Matrix(len(rows), len(rows[0]),
                                 tuple(map(tuple, rows))),
                          Vector(len(bounds), tuple(bounds)))


def gen_random_system(spec: GenSpec) -> StandardSystem:
    """Integer system satisfying the standing assumptions; seed-deterministic.
    Its entries are the ints drawn."""
    rng = random.Random(spec.seed)
    er, br = spec.entry_range, spec.b_range
    for _ in range(MAX_REJECTS):
        A = Matrix(spec.m, spec.n, tuple(
            tuple(rng.randint(-er, er) for _ in range(spec.n))
            for _ in range(spec.m)))
        # b is drawn only for an accepted A: a rejected draw rewinds it
        state = rng.getstate()
        b = Vector(spec.m, tuple(rng.randint(-br, br)
                                 for _ in range(spec.m)))
        try:
            return StandardSystem(A, b)
        except NotStandard:
            rng.setstate(state)
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
    """Row-wise interval test vs oracle feasibility of the touched subsystem.

    Row i's canonical test reads the tableau at A2: it fails iff the slack
    r_i < 0 and Rz_i <= 0.  Its z = [D e_i | -Rz_i] touches row i and the
    basis rows where Rz_i is nonzero.
    """
    dec = decompose(sys)
    A_rows = dec.permuted_A().row_lists()
    d = dec.m - dec.n
    results = []
    for i, (ri, row) in enumerate(zip(dec.r, dec.Rz)):
        passed = ri >= 0 or max(row) > 0
        B_i = [i] + [d + k for k, x in enumerate(row) if x]
        res = fm_feasible(Matrix.from_rows([A_rows[j] for j in B_i]),
                          Vector.from_list([dec.b_perm[j] for j in B_i]))
        feasible = res.status == FEASIBLE
        results.append({"i": i + 1, "interval_pass": passed,
                        "subsystem_feasible": feasible,
                        "agree": passed == feasible})
    return {"rows": results, "all_agree": all(r["agree"] for r in results)}


def _discrepancy_holds(rows, bounds) -> bool:
    """The shrink predicate: still NotProvenEmpty, yet the walk proves the
    system empty.

    A walk that spends its pivot budget (BUDGET_SPENT) counts as "does
    not hold"; any error, a SoundnessViolation above all, propagates.
    """
    try:
        sys = _system(rows, bounds)
    except NotStandard:
        return False
    if decide(sys).verdict == EMPTY:
        return False
    return walk(decompose(sys)).status == EMPTY


def _toward_zero(x):
    """One step toward zero that never crosses it: x - 1, x + 1 or 0."""
    if x >= 1:
        return x - 1
    if x <= -1:
        return x + 1
    return 0


def _A_b(ab) -> tuple:
    """(rows of A, entries of b) of the rows of [A | b]."""
    return [r[:-1] for r in ab], [r[-1] for r in ab]


def shrink_discrepancy(rows, bounds):
    """Greedy row removal, then entry magnitudes pulled toward zero, on
    the rows of [A | b]: each row's coefficients, then its bound.  Each
    step keeps `_discrepancy_holds`."""
    ab = [list(r) + [x] for r, x in zip(rows, bounds)]
    changed = True
    while changed:
        changed = False
        for i in range(len(ab)):
            cand = ab[:i] + ab[i + 1:]
            if cand and _discrepancy_holds(*_A_b(cand)):
                ab = cand
                changed = True
                break
    changed = True
    while changed:
        changed = False
        for i in range(len(ab)):
            for j in range(len(ab[i])):
                x = ab[i][j]
                if x == 0:
                    continue
                cand = [list(r) for r in ab]
                cand[i][j] = _toward_zero(x)
                if _discrepancy_holds(*_A_b(cand)):
                    ab = cand
                    changed = True
    return _A_b(ab)


def agreement_run(specs) -> AgreementStats:
    """decide vs oracle across generated instances.

    Empty verdicts are hard-asserted sound: the oracle must find the
    system infeasible, and decide has already checked the Farkas
    certificate exactly against the same A and b.  The NotProvenEmpty
    tallies are the empirical completeness measurement.  A discrepancy
    counts only when the oracle's infeasibility certificate checks
    exactly, and it is shrunk and reported only when the oracle finds the
    shrunk system infeasible too, with a certificate that checks exactly.
    No tally reads decide's `tests_run`.
    """
    total = empty_agree = notproven_and_feasible = 0
    discrepancies = []
    histogram = {}
    for spec in specs:
        sys = gen_random_system(spec)
        report = decide(sys)
        res = fm_feasible(sys.A, sys.b)
        total += 1
        if report.verdict == EMPTY:
            if res.status != INFEASIBLE:
                raise SoundnessViolation(
                    f"Empty verdict on oracle-feasible instance (seed={spec.seed})")
            fam = report.certificate.family
            histogram[fam] = histogram.get(fam, 0) + 1
            empty_agree += 1
        elif res.status == FEASIBLE:
            if not validate_witness(sys.A, sys.b, res.witness):
                raise SoundnessViolation(
                    f"oracle witness fails its own system (seed={spec.seed})")
            notproven_and_feasible += 1
        else:
            if not validate_certificate(sys.A, sys.b, res.certificate):
                raise SoundnessViolation(
                    f"oracle certificate fails its own system (seed={spec.seed})")
            rows, bounds = shrink_discrepancy(sys.A.row_lists(),
                                              list(sys.b.entries))
            shrunk = _system(rows, bounds)
            confirm = fm_feasible(shrunk.A, shrunk.b)
            if not (confirm.status == INFEASIBLE and validate_certificate(
                    shrunk.A, shrunk.b, confirm.certificate)):
                raise SoundnessViolation(
                    f"oracle does not confirm the shrunk discrepancy "
                    f"(seed={spec.seed})")
            discrepancies.append(Discrepancy(
                rows, bounds, report.verdict, res.status, spec.seed))
    discrepancies.sort(key=lambda d: (len(d.rows), d.seed))
    return AgreementStats(total, empty_agree, notproven_and_feasible,
                          discrepancies, histogram)
