import hashlib
import importlib
import json
import random
from fractions import Fraction

import pytest

from hollowcheck import emptiness, harness
from hollowcheck.densemat import Matrix, Vector, mat_mul, rank
from hollowcheck.emptiness import EMPTY, SoundnessViolation
from hollowcheck.harness import (GenSpec, GenerationExhausted, ProbeFailure,
                                 agreement_run, gen_random_system,
                                 pinv_rank_factorization,
                                 probe_lemma1, probe_lemma2, probe_theorem1,
                                 shrink_discrepancy, system_from_rows)
from hollowcheck.oracle import FEASIBLE, INFEASIBLE, FMResult, fm_feasible
from hollowcheck.standardize import check_assumptions
from test_acceptance import _agreement

# (m, n, entry_range, b_range); the entry_range 1 shapes reject many draws
GEN_SHAPES = ((4, 2, 1, 1), (5, 4, 1, 3), (6, 3, 1, 2), (8, 2, 5, 5),
              (10, 2, 5, 5), (7, 3, 3, 4))
GEN_SPECS = [GenSpec(seed, m, n, er, br)
             for seed in range(100) for m, n, er, br in GEN_SHAPES]
# sha256 of gen_random_system over GEN_SPECS, as recorded when it still
# decided each A with check_assumptions before drawing b
EXPECTED_GEN_DIGEST = \
    "35e8517fede3637ee71f43ac8fae14dc405685da00932a8b36bf417c6a1ed152"
# the one discrepancy of `probe --suite agreement --instances 20 --seed 100`
DISCREPANCY_SPEC = GenSpec(seed=105, m=7, n=3)
DISCREPANCY_SHRUNK = (
    [[-3, -4, 0], [3, 4, 0], [0, -1, 0], [0, -2, -1], [1, 0, 0], [-1, 1, 1]],
    [0, 0, 0, 0, -1, 0])
# sha256 of the shrunk discrepancies of criterion 6's agreement run
EXPECTED_CRITERION_6_DIGEST = \
    "388491ecbe6ff7ab5440f81f3d147872bdc328a907e1c3ada096076100939485"


def reference_gen(spec: GenSpec):
    """The generator's draw order stated plainly: (A, b, draws), where a
    rejected A is followed by the next A, and b is drawn after the first
    A that meets the standing assumptions."""
    rng = random.Random(spec.seed)
    for draws in range(1, harness.MAX_REJECTS + 1):
        A = Matrix.from_rows([[rng.randint(-spec.entry_range, spec.entry_range)
                               for _ in range(spec.n)] for _ in range(spec.m)])
        if not check_assumptions(A):
            b = Vector.from_list([rng.randint(-spec.b_range, spec.b_range)
                                  for _ in range(spec.m)])
            return A, b, draws
    raise GenerationExhausted(spec)


class TestGen:
    def test_deterministic(self):
        a = gen_random_system(GenSpec(seed=1, m=4, n=2, entry_range=3))
        b = gen_random_system(GenSpec(seed=1, m=4, n=2, entry_range=3))
        assert a.A == b.A and a.b == b.b

    def test_invariant_rejects_square(self):
        with pytest.raises(ValueError):
            GenSpec(seed=0, m=3, n=3)

    def test_entries_are_ints(self):
        # the draws as they are: decide and the walk run on ints, as for
        # an all-integer file
        for spec in GEN_SPECS[:60]:
            s = gen_random_system(spec)
            assert {type(x) for row in s.A.entries for x in row} == {int}
            assert {type(x) for x in s.b.entries} == {int}

    def test_output_passes_assumptions(self):
        for seed in range(20):
            s = gen_random_system(GenSpec(seed=seed, m=5, n=3))
            assert check_assumptions(s.A) == []

    def test_outputs_pinned(self):
        h = hashlib.sha256()
        for spec in GEN_SPECS:
            s = gen_random_system(spec)
            h.update((" ".join(str(x) for row in s.A.entries for x in row)
                      + " | "
                      + " ".join(map(str, s.b.entries)) + "\n").encode())
        assert h.hexdigest() == EXPECTED_GEN_DIGEST

    def test_one_elimination_per_draw(self, monkeypatch):
        # StandardSystem's elimination decides each draw; nothing repeats it
        expected = [reference_gen(spec) for spec in GEN_SPECS]
        assert sum(draws for _, _, draws in expected) > len(GEN_SPECS) + 50
        calls = []
        standardize = importlib.import_module("hollowcheck.standardize")
        eliminate = standardize.eliminate
        monkeypatch.setattr(standardize, "eliminate",
                            lambda M: calls.append(1) or eliminate(M))
        for spec, (A, b, draws) in zip(GEN_SPECS, expected):
            calls.clear()
            s = gen_random_system(spec)
            assert (s.A, s.b) == (A, b)
            assert len(calls) == draws


class TestPinvRankFactorization:
    def test_full_rank_square(self):
        M = Matrix.from_rows([[2, 0], [0, 4]])
        P = pinv_rank_factorization(M)
        assert mat_mul(M, P) == Matrix.identity(2)

    def test_rank_deficient(self):
        from hollowcheck.densemat import mp_axioms_check
        M = Matrix.from_rows([[1, 0], [1, 0], [0, 1]])
        P = pinv_rank_factorization(M)
        assert all(mp_axioms_check(M, P).values())
        M2 = Matrix.from_rows([[1, 2], [2, 4]])
        P2 = pinv_rank_factorization(M2)
        assert all(mp_axioms_check(M2, P2).values())


class TestProbes:
    def test_lemma1(self):
        for seed in range(10):
            s = gen_random_system(GenSpec(seed=seed, m=5, n=2))
            rep = probe_lemma1(s, trials=5, seed=seed)
            assert rep["ok"]

    def test_lemma2_all_shapes(self):
        for n in range(1, 5):
            for k in range(1, n + 1):
                rep = probe_lemma2(n=n, k=k, trials=5, seed=n * 10 + k)
                assert rep["ok"]

    def test_theorem1_hand_instances(self):
        empty = system_from_rows([[1], [1], [-1]], [1, 2, -3])
        ok = system_from_rows([[1], [1], [-1]], [1, 2, 0])
        assert probe_theorem1(empty)["all_agree"]
        assert probe_theorem1(ok)["all_agree"]

    def test_theorem1_random(self):
        for seed in range(15):
            s = gen_random_system(GenSpec(seed=seed, m=6, n=2))
            rep = probe_theorem1(s)
            assert rep["all_agree"], rep

    def test_theorem1_reads_the_canonical_z(self, monkeypatch):
        # each row's verdict is run_test on its canonical z, and the oracle
        # sees the rows in z's support, in permuted order
        subsystems = []

        def recording(A, b):
            subsystems.append((A.row_lists(), list(b.entries)))
            return fm_feasible(A, b)
        monkeypatch.setattr(harness, "fm_feasible", recording)
        partial = 0
        for seed in range(30):
            s = gen_random_system(GenSpec(seed=seed, m=7, n=3))
            subsystems.clear()
            rows = probe_theorem1(s)["rows"]
            dec = emptiness.decompose(s)
            A_rows = dec.permuted_A().row_lists()
            tests = list(emptiness.family_tests(
                dec, order=(emptiness.FAMILY_CANONICAL,)))
            assert len(rows) == len(tests) == len(subsystems)
            for row, (_, (i,), z, _), sub in zip(rows, tests, subsystems):
                support = [j for j, x in enumerate(z) if x]
                assert row["i"] == i
                assert row["interval_pass"] == emptiness.run_test(z, dec)
                assert sub == ([A_rows[j] for j in support],
                               [dec.b_perm[j] for j in support])
                partial += len(support) < 1 + dec.n
        assert partial > 0


class TestAgreement:
    def test_hand_instances_classified(self):
        empty = system_from_rows([[1], [1], [-1]], [1, 2, -3])
        ok = system_from_rows([[1], [1], [-1]], [1, 2, 0])
        from hollowcheck.emptiness import decide
        assert decide(empty).verdict == EMPTY
        assert fm_feasible(empty.A, empty.b).status == INFEASIBLE
        assert decide(ok).verdict != EMPTY
        assert fm_feasible(ok.A, ok.b).status == FEASIBLE

    def test_small_run_counts_sum(self):
        specs = [GenSpec(seed=i, m=4 + i % 3, n=1 + i % 2) for i in range(40)]
        stats = agreement_run(specs)
        assert stats.total == 40
        assert (stats.empty_agree + stats.notproven_and_feasible
                + len(stats.discrepancies)) == stats.total

    def test_replay_identical(self):
        specs = [GenSpec(seed=i, m=5, n=2) for i in range(10)]
        a = agreement_run(specs).to_jsonable()
        b = agreement_run(specs).to_jsonable()
        assert a == b

    def test_unchecked_oracle_infeasible_raises(self, monkeypatch):
        # a discrepancy needs the oracle's certificate to check exactly
        spec = GenSpec(seed=3, m=5, n=2)        # NOT_PROVEN_EMPTY
        monkeypatch.setattr(harness, "fm_feasible", lambda A, b: FMResult(
            INFEASIBLE, certificate=Vector.zero(A.rows)))
        with pytest.raises(SoundnessViolation, match="oracle certificate"):
            agreement_run([spec])

    def test_fm_confirms_each_shrunk_discrepancy(self, monkeypatch):
        # FM decides the instance and then the shrunk instance, once each
        calls = []

        def recording(A, b):
            calls.append(A.rows)
            return fm_feasible(A, b)
        monkeypatch.setattr(harness, "fm_feasible", recording)
        stats = agreement_run([DISCREPANCY_SPEC])
        (disc,) = stats.discrepancies
        assert (disc.rows, disc.bounds) == DISCREPANCY_SHRUNK
        assert calls == [DISCREPANCY_SPEC.m, len(disc.rows)]

    def test_unconfirmed_shrunk_discrepancy_raises(self, monkeypatch):
        calls = []

        def second_says_feasible(A, b):
            calls.append(1)
            res = fm_feasible(A, b)
            return res if len(calls) == 1 else FMResult(
                FEASIBLE, witness=Vector.zero(A.cols))
        monkeypatch.setattr(harness, "fm_feasible", second_says_feasible)
        with pytest.raises(SoundnessViolation, match="does not confirm"):
            agreement_run([DISCREPANCY_SPEC])

    def test_criterion_6_pinned(self):
        # criterion 6 prints its tallies; this pins them and the shrunk
        # instances, seeds 5000-5499 over test_acceptance._shapes(8, 3)
        stats = _agreement(500, 5000)
        assert (stats.total, stats.empty_agree, stats.notproven_and_feasible,
                len(stats.discrepancies)) == (500, 284, 209, 7)
        shrunk = json.dumps([d.to_jsonable() for d in stats.discrepancies],
                            sort_keys=True)
        assert (hashlib.sha256(shrunk.encode()).hexdigest()
                == EXPECTED_CRITERION_6_DIGEST)

    def test_tampered_empty_certificate_raises(self, monkeypatch):
        # decide's exact check is the only check of its Farkas vector
        spec = GenSpec(seed=0, m=5, n=2)        # EMPTY
        farkas_from = emptiness.farkas_from
        monkeypatch.setattr(emptiness, "farkas_from",
                            lambda *args: farkas_from(*args).neg())
        with pytest.raises(SoundnessViolation, match="fails the exact check"):
            agreement_run([spec])


class TestShrink:
    def test_shrink_keeps_predicate_or_noop(self):
        # shrinking a non-discrepant instance leaves it untouched-compatible;
        # run it on an arbitrary instance just to exercise the machinery
        s = system_from_rows([[1, 0], [0, 1], [1, 1], [-1, -1]], [1, 1, 2, 3])
        rows, bounds = shrink_discrepancy(s.A.row_lists(),
                                          list(s.b.entries))
        assert len(rows) >= 1

    def test_soundness_violation_propagates(self, monkeypatch):
        # only a spent pivot budget may stop the predicate quietly
        def broken(sys):
            raise SoundnessViolation("injected")
        monkeypatch.setattr(harness, "decide", broken)
        with pytest.raises(SoundnessViolation):
            shrink_discrepancy([[1], [1], [-1]], [1, 2, -3])

    def test_walk_decides_each_step(self, monkeypatch):
        # the predicate asks the walk, not FM, and the shrink ends on the
        # instance criterion 6 would report
        monkeypatch.setattr(harness, "fm_feasible", None)
        s = gen_random_system(DISCREPANCY_SPEC)
        rows, bounds = shrink_discrepancy(s.A.row_lists(), list(s.b.entries))
        assert (rows, bounds) == DISCREPANCY_SHRUNK

    def test_spent_budget_leaves_shrink_unchanged(self, monkeypatch):
        # every candidate needs a pivot, as decide's canonical family
        # passes on it: with no pivot to spend, no step holds
        monkeypatch.setattr(harness, "walk",
                            lambda dec: emptiness.walk(dec, 0))
        s = gen_random_system(DISCREPANCY_SPEC)
        rows, bounds = s.A.row_lists(), list(s.b.entries)
        assert shrink_discrepancy(rows, bounds) == (rows, bounds)

    def test_tampered_walk_answer_raises(self, monkeypatch):
        # a walk answer is checked before the predicate reads it
        real = emptiness._bland_path

        def tampered(dec, budget):
            res = real(dec, budget)
            return res if res.y is None else emptiness.WalkResult(
                res.status, res.pivots, res.basis, res.row, res.y.neg(), None)
        monkeypatch.setattr(emptiness, "_bland_path", tampered)
        s = gen_random_system(DISCREPANCY_SPEC)
        with pytest.raises(SoundnessViolation, match="fails the exact check"):
            shrink_discrepancy(s.A.row_lists(), list(s.b.entries))
        with pytest.raises(SoundnessViolation, match="fails the exact check"):
            agreement_run([DISCREPANCY_SPEC])

    def test_entry_pull_stops_at_zero(self, monkeypatch):
        # a predicate that keeps every row and accepts every entry pull:
        # a step that jumps over zero (1/2 -> -1/2 -> 1/2) never ends
        calls = []

        def keeps_rows(rows, bounds):
            calls.append(1)
            if len(calls) > 2000:
                raise AssertionError("shrink does not terminate")
            return len(rows) == 2
        monkeypatch.setattr(harness, "_discrepancy_holds", keeps_rows)
        rows, bounds = shrink_discrepancy([[Fraction(1, 2)], [1]],
                                          [Fraction(-3, 2), Fraction(1, 3)])
        assert rows == [[0], [0]] and bounds == [0, 0]
