"""The value types are slotted `densemat.Record` classes, with the
equality, repr, hash, immutability, copying and constructor arguments
that a dataclass would give them."""
import ast
import copy
import importlib.util
import math
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from hollowcheck.densemat import Matrix, Record, Vector
from hollowcheck.emptiness import Certificate, EmptinessReport, decompose
from hollowcheck.harness import (AgreementStats, Discrepancy, GenSpec,
                                 system_from_rows)
from hollowcheck.interval import Interval
from hollowcheck.oracle import FEASIBLE, FMResult
from hollowcheck.standardize import (EarlyEmpty, RawSystem, StandardSystem,
                                     TriviallyNonEmpty)

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "bench" / "instances.py"

ROWS, BOUNDS = [[1], [1], [-1]], [1, 2, -3]


def frozen_records():
    """Two builds, from equal but distinct fields, of each frozen type."""
    def vec():
        return Vector(2, (1, Fraction(1, 2)))

    def std():
        return system_from_rows(ROWS, BOUNDS)

    def dec():
        return decompose(std())

    def interval():
        return Interval(-math.inf, Fraction(-2))

    def cert():
        return Certificate("canonical", (0,), (2, 1), Vector(3, (2, 0, 2)),
                           2, (-4, 2))

    builds = [
        vec,
        lambda: Matrix(1, 2, (1, 2)),
        interval,
        lambda: RawSystem("ineq", Matrix(1, 1, (1,)), Vector(1, (2,))),
        lambda: EarlyEmpty(1, "zero row 1", vec()),
        lambda: TriviallyNonEmpty("whole space", "note", vec()),
        std,
        dec,
        cert,
        lambda: EmptinessReport("EMPTY", cert(), 2, (("canonical", 2),),
                                "algorithm"),
        lambda: FMResult(FEASIBLE, witness=vec()),
        lambda: GenSpec(0, 6, 2),
    ]
    return [(build(), build()) for build in builds]


def test_reprs():
    assert repr(Vector(2, (1, 2))) == "Vector(dim=2, entries=(1, 2))"
    assert repr(Matrix(1, 2, (1, Fraction(1, 2)))) == (
        "Matrix(rows=1, cols=2, entries=(1, Fraction(1, 2)))")
    assert repr(Interval(-math.inf, 0)) == "Interval(lo=-inf, hi=0)"
    # split is derived, and stays out of the repr
    assert repr(system_from_rows(ROWS, BOUNDS)) == (
        "StandardSystem(A=Matrix(rows=3, cols=1, entries=(Fraction(1, 1), "
        "Fraction(1, 1), Fraction(-1, 1))), b=Vector(dim=3, entries=("
        "Fraction(1, 1), Fraction(2, 1), Fraction(-3, 1))), raw_rows=None, "
        "raw_cols=None)")
    assert repr(FMResult(FEASIBLE)) == (
        "FMResult(status='feasible', witness=None, certificate=None)")
    assert repr(GenSpec(0, 6, 2)) == (
        "GenSpec(seed=0, m=6, n=2, entry_range=5, b_range=5)")
    assert repr(AgreementStats()) == (
        "AgreementStats(total=0, empty_agree=0, notproven_and_feasible=0, "
        "discrepancies=[], family_failure_histogram={})")


@pytest.mark.parametrize("a, b", frozen_records(),
                         ids=lambda r: type(r).__name__)
def test_frozen_equal_fields_equal_hash(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    field = type(a)._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b


@pytest.mark.parametrize("copier", [
    copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_equal(copier):
    records = [a for a, _ in frozen_records()] + [
        AgreementStats(1, discrepancies=[
            Discrepancy([[1]], [0], "NOT_PROVEN_EMPTY", "infeasible", 3)])]
    for record in records:
        assert copier(record) == record


def test_split_outside_eq_and_hash():
    a, b = (system_from_rows(ROWS, BOUNDS) for _ in range(2))
    assert a.split is not b.split
    assert a == b and hash(a) == hash(b)


def test_unequal_fields():
    assert Vector(2, (1, 2)) != Vector(2, (1, 3))
    assert GenSpec(0, 6, 2) != GenSpec(0, 6, 2, b_range=4)


def test_another_class_never_equal():
    v = Vector(1, (0,))
    early, trivial = EarlyEmpty("d", "n", v), TriviallyNonEmpty("d", "n", v)
    assert early._values() == trivial._values()
    assert early != trivial and not early == trivial
    assert Vector(2, (1, 2)) != (2, (1, 2))
    assert Interval(0, 1) != Record()


def test_mutable_types():
    stats, other = AgreementStats(), AgreementStats()
    assert stats.discrepancies is not other.discrepancies
    assert (stats.family_failure_histogram
            is not other.family_failure_histogram)
    stats.total += 1
    stats.discrepancies.append(
        Discrepancy([[1]], [0], "NOT_PROVEN_EMPTY", "infeasible", 3))
    assert other.total == 0 and other.discrepancies == []
    assert stats != other
    for obj in (stats, stats.discrepancies[0]):
        with pytest.raises(TypeError):
            hash(obj)
    d = Discrepancy([[1]], [0], "NOT_PROVEN_EMPTY", "infeasible", 3)
    assert d == stats.discrepancies[0]
    d.seed = 4
    assert d != stats.discrepancies[0]


def test_constructor_checks_and_defaults():
    assert GenSpec(seed=1, m=3, n=1) == GenSpec(1, 3, 1, 5, 5)
    with pytest.raises(ValueError, match="need m > n"):
        GenSpec(0, 2, 2)
    with pytest.raises(ValueError, match="ranges"):
        GenSpec(0, 3, 1, b_range=0)
    assert FMResult(FEASIBLE, certificate=None) == FMResult(FEASIBLE)
    assert StandardSystem(Matrix.from_rows(ROWS), Vector.from_list(BOUNDS),
                          raw_cols=None) == system_from_rows(ROWS, BOUNDS)
    with pytest.raises(ValueError, match="out of order"):
        Interval(1, 0)
    with pytest.raises(TypeError, match="EarlyEmpty"):
        EarlyEmpty(1, "d")


def test_genspec_as_the_benchmark_builds_it():
    spec = importlib.util.spec_from_file_location("bench_instances",
                                                  INSTANCES)
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    args = instances.agreement_spec_args(0, 0)
    got = GenSpec(**args)
    assert [getattr(got, f) for f in GenSpec._fields] == [
        args["seed"], args["m"], args["n"], args["entry_range"],
        args["b_range"]]


def test_fields_stored_by_record_init_alone():
    # Record.__init__ stores every field; the one store outside it is
    # StandardSystem's derived split
    stores = []
    for path in sorted((ROOT / "src" / "hollowcheck").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "object.__setattr__"):
                stores.append((path.name, ast.unparse(node.args[1])))
    assert stores == [("standardize.py", "'split'")]
