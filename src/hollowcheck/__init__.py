"""Algebraic emptiness test for polyhedra {x : Ax <= b}, with an exact
Fourier-Motzkin oracle and a randomized probe harness."""

from .densemat import (Matrix, Vector, invert, left_nullspace_basis, mat_mul,
                       mat_vec, mp_axioms_check, orth_complement_basis,
                       pinv_append_row, pinv_full_col_rank, rank)
from .emptiness import (EMPTY, NOT_PROVEN_EMPTY, EmptinessReport, build_U,
                        decide, decompose, family_tests, run_test)
from .harness import (GenSpec, agreement_run, gen_random_system,
                      probe_lemma1, probe_lemma2, probe_theorem1,
                      system_from_rows)
from .interval import Interval, contains_zero, iv_dot
from .oracle import FEASIBLE, INFEASIBLE, FMResult, fm_feasible
from .standardize import (EarlyEmpty, NotStandard, RawSystem, StandardSystem,
                          TriviallyNonEmpty, check_assumptions, standardize)

__version__ = "0.1.0"

__all__ = [
    "Matrix", "Vector", "invert", "left_nullspace_basis", "mat_mul",
    "mat_vec", "mp_axioms_check", "orth_complement_basis", "pinv_append_row",
    "pinv_full_col_rank", "rank",
    "EMPTY", "NOT_PROVEN_EMPTY", "EmptinessReport", "build_U", "decide",
    "decompose", "family_tests", "run_test",
    "GenSpec", "agreement_run", "gen_random_system", "probe_lemma1",
    "probe_lemma2", "probe_theorem1", "system_from_rows",
    "Interval", "contains_zero", "iv_dot",
    "FEASIBLE", "INFEASIBLE", "FMResult", "fm_feasible",
    "EarlyEmpty", "NotStandard", "RawSystem", "StandardSystem",
    "TriviallyNonEmpty", "check_assumptions", "standardize",
]
