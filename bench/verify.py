"""Exact output checks for the benchmark, written without the package.

Everything is plain `Fraction` arithmetic on the instance file as the
benchmark wrote it, so a bug in the package's own validators cannot hide
a wrong answer.  Each check returns a list of problems; empty means valid.
"""
from __future__ import annotations

from fractions import Fraction

EMPTY = "EMPTY"
NOT_PROVEN_EMPTY = "NOT_PROVEN_EMPTY"
EXIT_FOR_VERDICT = {NOT_PROVEN_EMPTY: 0, EMPTY: 1}


def farkas_problems(rows, b, y) -> list:
    """Problems with y as a Farkas certificate: y >= 0, t(y)A = 0, t(y)b < 0."""
    if len(y) != len(rows):
        return [f"farkas_y has {len(y)} entries for {len(rows)} rows"]
    problems = []
    if any(v < 0 for v in y):
        problems.append("farkas_y has a negative entry")
    n = len(rows[0])
    if any(sum(yi * r[j] for yi, r in zip(y, rows)) != 0 for j in range(n)):
        problems.append("t(y)A != 0")
    if sum(yi * bi for yi, bi in zip(y, b)) >= 0:
        problems.append("t(y)b >= 0")
    return problems


def point_problems(rows, b, x) -> list:
    """Problems with x as a point of {x : Ax <= b}."""
    if x is None or len(x) != len(rows[0]):
        return ["no point of the right dimension recorded"]
    bad = [i for i, (r, bi) in enumerate(zip(rows, b))
           if sum(a * xj for a, xj in zip(r, x)) > bi]
    return [f"x0 violates rows {bad}"] if bad else []


def check_report(inst: dict, exit_code: int, report: dict,
                 feasible: bool) -> list:
    """Check one `check --json` report against its instance.

    `inst` is `instances.read_instance` output.  On a feasible-by-
    construction instance, x0 must satisfy the file and the verdict must
    not be EMPTY.
    """
    verdict = report.get("verdict")
    if verdict not in EXIT_FOR_VERDICT:
        return [f"unknown verdict {verdict!r}"]
    problems = []
    if EXIT_FOR_VERDICT[verdict] != exit_code:
        problems.append(f"exit code {exit_code} for verdict {verdict}")
    families = report.get("families", {})
    if sum(families.values()) != report.get("tests_run"):
        problems.append("tests_run differs from the family counts")
    if feasible:
        problems += point_problems(inst["rows"], inst["b"], inst["x0"])
        if verdict == EMPTY:
            problems.append("EMPTY on a feasible instance")
    cert = report.get("certificate")
    if verdict == EMPTY:
        if cert is None or cert.get("farkas_y") is None:
            problems.append("EMPTY without a Farkas vector")
        else:
            y = [Fraction(t) for t in cert["farkas_y"]]
            problems += farkas_problems(inst["rows"], inst["b"], y)
    elif cert is not None:
        problems.append("certificate on a NOT_PROVEN_EMPTY verdict")
    return problems


def check_agreement(stats) -> list:
    """Consistency of one single-spec `AgreementStats`."""
    outcomes = (stats.empty_agree + stats.notproven_and_feasible
                + len(stats.discrepancies))
    if stats.total != 1 or outcomes != 1:
        return [f"total={stats.total}, outcomes={outcomes} for one spec"]
    for d in stats.discrepancies:
        if d.verdict == EMPTY or d.oracle_status != "infeasible" or not d.rows:
            return [f"malformed discrepancy {d.to_jsonable()}"]
    return []
