import importlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import hollowcheck
from hollowcheck.densemat import DimensionMismatch, Matrix, Vector, rank
from hollowcheck.emptiness import decide, decompose
from hollowcheck.harness import system_from_rows
from hollowcheck.interval import NEG_INF, POS_INF
from hollowcheck.cli import _frac_str, run
from hollowcheck.oracle import (FEASIBLE, INFEASIBLE, fm_feasible,
                                validate_certificate, validate_witness)
from hollowcheck.standardize import (FORMS, EarlyEmpty, NotStandard,
                                     RawSystem, StandardSystem,
                                     TriviallyNonEmpty, check_assumptions,
                                     standardize)


def M(rows):
    return Matrix.from_rows(rows)


def V(xs):
    return Vector.from_list(xs)


class TestZeroRows:
    def test_early_empty(self):
        # the first contradictory zero row is the one reported
        res = standardize(RawSystem("ineq", M([[1, 0], [0, 0], [0, 0]]),
                                    V([5, -1, -2])))
        assert isinstance(res, EarlyEmpty)
        assert res.row == 1
        assert res.detail == "zero row 1 with negative bound -1"

    def test_removal(self):
        res = standardize(RawSystem("ineq", M([[0], [1], [0], [-1]]),
                                    V([3, 5, 0, 1])))
        assert isinstance(res, StandardSystem)
        assert res.A == M([[1], [-1]]) and res.b == V([5, 1])

    def test_no_zero_rows_unchanged(self):
        raw = RawSystem("ineq", M([[1], [1], [-1]]), V([1, 2, 0]))
        res = standardize(raw)
        assert res.A is raw.Atilde and res.b is raw.btilde

    def test_all_rows_removed(self):
        for form, bounds in (("ineq", [1, 0]), ("ineq_nonneg", [1, 0]),
                             ("eq_nonneg", [0, 0])):
            res = standardize(RawSystem(form, M([[0, 0], [0, 0]]), V(bounds)))
            assert isinstance(res, TriviallyNonEmpty)

    @pytest.mark.parametrize("form, bound, sign", [
        ("ineq", -2, 1), ("ineq_nonneg", -2, 1),
        ("eq_nonneg", 2, -1), ("eq_nonneg", -2, 1)])
    def test_farkas_y_sign(self, form, bound, sign):
        # the 1 sits on the copy of zero row 2 whose bound is negative: the
        # row itself, or (sign -1) the negated copy of 0 = 2, row m + 2
        raw = RawSystem(form, M([[1], [0], [0]]), V([1, 0, bound]))
        res = standardize(raw)
        assert isinstance(res, EarlyEmpty) and res.row == 2
        A, b = embedding(raw)
        assert res.farkas_y == Vector.unit(A.rows, 2 if sign > 0 else 5)
        assert validate_certificate(A, b, res.farkas_y)


class TestCheckAssumptions:
    def test_ok(self):
        assert check_assumptions(M([[1], [2], [-1]])) == []

    def test_square_fails(self):
        bad = check_assumptions(M([[1, 0], [0, 1]]))
        assert any("m > n" in v for v in bad)

    def test_zero_row_fails(self):
        bad = check_assumptions(M([[0, 0], [1, 0], [0, 1]]))
        assert any("zeros" in v for v in bad)


def reference_check_assumptions(A: Matrix) -> list:
    """The row scan plus `rank(A)` that `check_assumptions` replaced."""
    violations = []
    for i in range(A.rows):
        if A.row(i).is_zero():
            violations.append(f"row {i} of A is all zeros")
    if A.rows <= A.cols:
        violations.append(f"m > n fails ({A.rows} rows, {A.cols} cols)")
    r = rank(A)
    if r != A.cols:
        violations.append(f"full column rank fails (rank {r} < {A.cols})")
    return violations


SMALL_RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def assumption_matrices(draw, max_m=8, max_n=4):
    """1x1 to 8x4 int or p/q matrices; each row is drawn afresh, zero, or
    a multiple (a duplicate at 1) of an earlier row."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    entries = draw(st.sampled_from((st.integers(-2, 2), SMALL_RATIONALS)))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(("fresh", "zero", "multiple")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "multiple" and rows:
            k = draw(st.sampled_from((1, -1, 2, Fraction(-1, 2))))
            rows.append([k * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return M(rows)


class TestAssumptionsReadOff:
    """The read-off of one elimination of t(A) against the row scan and
    rank it replaced, message for message."""

    @settings(max_examples=300, deadline=None)
    @given(assumption_matrices())
    # row 1 of A shows only in the second pivot row; row 3 is zero
    @example(M([[1, 0], [0, 1], [1, 1], [0, 0]]))
    # a zero row between a duplicate and the second pivot
    @example(M([[1, 0], [2, 0], [0, 0], [0, 1]]))
    def test_same_messages(self, A):
        expected = reference_check_assumptions(A)
        assert check_assumptions(A) == expected
        b = Vector.zero(A.rows)
        if expected:
            with pytest.raises(NotStandard) as err:
                StandardSystem(A, b)
            assert str(err.value) == "; ".join(expected)
        else:
            assert len(StandardSystem(A, b).split[1]) == A.cols


class TestRhsLength:
    def test_long_and_short_b_raise(self):
        rows = [[1], [1], [-1]]
        for bounds in ([1, 2, 0, 99], [1, 2, -3, 99], [1, 2]):
            with pytest.raises(DimensionMismatch,
                               match=f"b of dim {len(bounds)} for 3 rows"):
                system_from_rows(rows, bounds)

    def test_right_length_decides(self):
        assert decide(system_from_rows([[1], [1], [-1]], [1, 2, -3])).is_empty


def count_eliminations(monkeypatch) -> list:
    """Patch `eliminate` in every package module that holds it; the list
    returned grows by one entry per call."""
    calls = []
    original = hollowcheck.densemat.eliminate

    def counted(M):
        calls.append(M.rows)
        return original(M)
    for name in ("cli", "densemat", "emptiness", "harness", "interval",
                 "oracle", "standardize"):
        mod = importlib.import_module(f"hollowcheck.{name}")
        if hasattr(mod, "eliminate"):
            monkeypatch.setattr(mod, "eliminate", counted)
    return calls


class TestEliminationCount:
    """standardize then decompose eliminates t(A) once on an admissible
    input.  A non-standard `ineq` input adds one elimination of [A | b]
    when A has full row rank, and then one of t(A_K) when it does not."""

    @pytest.mark.parametrize("form, rows, bounds", [
        ("ineq", [[1], [1], [-1]], [1, 2, 0]),
        ("ineq", [[1, 0], [0, 1], [1, 1], [0, 0]], [1, 1, 3, 0]),
        ("ineq_nonneg", [[1, 1]], [1]),
        ("eq_nonneg", [[1, 2], [3, 1]], [2, 5])])
    def test_admissible_once(self, monkeypatch, form, rows, bounds):
        calls = count_eliminations(monkeypatch)
        std = standardize(RawSystem(form, M(rows), V(bounds)))
        decompose(std)
        assert len(calls) == 1

    @pytest.mark.parametrize("rows, bounds", [
        ([[1]], [5]),                                 # m = n = k
        ([[1, 2, 0], [0, 1, 1]], [1, 2]),             # m < n, k = m
        ([[1, 2], [0, 0], [0, 0]], [1, 0, 3])])       # zero rows, k = m = 1
    def test_full_row_rank_twice(self, monkeypatch, rows, bounds):
        calls = count_eliminations(monkeypatch)
        res = standardize(RawSystem("ineq", M(rows), V(bounds)))
        assert isinstance(res, TriviallyNonEmpty)
        assert len(calls) == 2

    @pytest.mark.parametrize("rows, bounds", [
        ([[1, 2], [2, 4], [-1, -2]], [1, 2, 3]),      # rank 1 < n
        ([[1, 1], [0, 0], [-2, -2]], [1, 0, 2]),      # zero row, rank 1
        ([[1, 1], [2, 2]], [1, 3])])                  # square, rank 1
    def test_projected_three_times(self, monkeypatch, rows, bounds):
        calls = count_eliminations(monkeypatch)
        std = standardize(RawSystem("ineq", M(rows), V(bounds)))
        decompose(std)
        assert std.raw_cols is not None and len(calls) == 3


class TestIntegerFiles:
    def test_every_form_stays_in_ints(self):
        # kept rows, the eq_nonneg copy, -I and b's zeros are all ints for
        # an integer file, so decide has no denominators to clear
        rng = random.Random(22)
        standard = 0
        for form in FORMS:
            for _ in range(150):
                m, n = rng.randint(2, 6), rng.randint(1, 3)
                rows = [[rng.randint(-3, 3) * rng.randint(0, 1)
                         for _ in range(n)] for _ in range(m)]
                bounds = [rng.randint(0, 3) for _ in range(m)]
                raw = RawSystem(form, Matrix(m, n, tuple(map(tuple, rows))),
                                Vector(m, tuple(bounds)))
                res = standardize(raw)
                if isinstance(res, StandardSystem):
                    standard += 1
                    assert all(type(x) is int for row in res.A.entries
                               + (res.b.entries,) for x in row), raw
        assert standard > 200


class TestStandardize:
    def test_ineq_full_row_rank(self):
        # x1 + 2 x3 <= 3, x2 - x3 <= 1: K = (0, 1), u = A_K^-1 b = (3, 1)
        res = standardize(RawSystem("ineq", M([[1, 0, 2], [0, 1, -1]]),
                                    V([3, 1])))
        assert isinstance(res, TriviallyNonEmpty)
        assert res.witness == V([3, 1, 0])
        assert "redundant" not in res.note

    def test_ineq_full_row_rank_after_zero_row(self):
        res = standardize(RawSystem("ineq", M([[0, 0], [0, 2]]), V([1, 3])))
        assert res.witness == V([0, Fraction(3, 2)])

    def test_ineq_projected(self):
        # rank 1: column 1 is twice column 0, so K = (0,)
        res = standardize(RawSystem("ineq", M([[1, 2], [2, 4], [-1, -2]]),
                                    V([1, 2, 3])))
        assert isinstance(res, StandardSystem)
        assert res.A == M([[1], [2], [-1]]) and res.b == V([1, 2, 3])
        assert res.raw_rows is None and res.raw_cols == (2, (0,))
        assert res.original_point(V([-3])) == V([-3, 0])

    def test_ineq_already_standard_bypasses(self):
        A = M([[1], [1], [-1]])
        res = standardize(RawSystem("ineq", A, V([1, 2, 0])))
        assert isinstance(res, StandardSystem)
        assert res.A == A
        assert res.raw_rows is None and res.raw_cols is None
        # nothing was dropped: the maps hand back their argument
        x, y = V([1]), V([1, 0, 1])
        assert res.original_point(x) is x and res.original_farkas(y) is y

    def test_dropped_rows_take_zero(self):
        # the zero row 1 is dropped; farkas_y gets a 0 there
        res = standardize(RawSystem("ineq", M([[1], [0], [-1], [1]]),
                                    V([1, 5, -3, 2])))
        assert res.raw_rows == (4, (0, 2, 3))
        assert res.original_farkas(V([1, 1, 0])) == V([1, 0, 1, 0])

    def test_eq_nonneg_dropped_row_in_each_copy(self):
        res = standardize(RawSystem("eq_nonneg", M([[0], [1]]), V([0, 1])))
        assert res.A == M([[1], [-1], [-1]])
        # the embedding is (A; -A; -I): rows 0 and 2 are the zero row
        assert res.raw_rows == (5, (1, 3, 4))
        assert res.original_farkas(V([1, 2, 3])) == V([0, 1, 0, 2, 3])

    def test_ineq_nonneg(self):
        res = standardize(RawSystem("ineq_nonneg", M([[1, 1]]), V([1])))
        assert res.A == M([[1, 1], [-1, 0], [0, -1]])
        assert res.b == V([1, 0, 0])

    def test_eq_nonneg(self):
        res = standardize(RawSystem("eq_nonneg", M([[1]]), V([2])))
        assert res.A == M([[1], [-1], [-1]])
        assert res.b == V([2, -2, 0])

    def test_eq_nonneg_zero_row_contradiction(self):
        res = standardize(RawSystem("eq_nonneg", M([[0], [1]]), V([3, 1])))
        assert isinstance(res, EarlyEmpty)
        assert res.detail == "zero row 0 with nonzero equality bound"

    def test_trivially_nonempty(self):
        res = standardize(RawSystem("ineq", M([[0, 0]]), V([7])))
        assert isinstance(res, TriviallyNonEmpty)

    def test_outputs_pass_assumptions(self):
        rng = random.Random(2)
        for form in ("ineq", "ineq_nonneg", "eq_nonneg"):
            for _ in range(15):
                mt = rng.randint(1, 4)
                nt = rng.randint(1, 3)
                At = M([[rng.randint(-3, 3) for _ in range(nt)]
                        for _ in range(mt)])
                bt = V([rng.randint(-3, 3) for _ in range(mt)])
                res = standardize(RawSystem(form, At, bt))
                if isinstance(res, StandardSystem):
                    assert check_assumptions(res.A) == []


def embedding(raw: RawSystem) -> tuple:
    """(A, b) of the file's inequality embedding, written out directly:
    A, then -A for eq_nonneg, then -I for the nonnegative forms."""
    At, bt = raw.Atilde, raw.btilde
    rows = At.row_lists()
    bounds = list(bt.entries)
    if raw.form == "eq_nonneg":
        rows += [[-x for x in r] for r in At.row_lists()]
        bounds += [-x for x in bt.entries]
    if raw.form in ("ineq_nonneg", "eq_nonneg"):
        for j in range(At.cols):
            rows.append([-1 if k == j else 0 for k in range(At.cols)])
            bounds.append(0)
    return M(rows), V(bounds)


def raw_feasible(raw: RawSystem):
    """Direct inequality translation of a raw system, fed to the oracle."""
    return fm_feasible(*embedding(raw))


class TestFeasibilityPreserved:
    def test_random_round_trip(self):
        rng = random.Random(9)
        witnesses = 0
        for form in ("ineq", "ineq_nonneg", "eq_nonneg"):
            for _ in range(200):
                mt = rng.randint(1, 3)
                nt = rng.randint(1, 2)
                At = M([[rng.randint(-3, 3) for _ in range(nt)]
                        for _ in range(mt)])
                bt = V([rng.randint(-3, 3) for _ in range(mt)])
                raw = RawSystem(form, At, bt)
                direct = raw_feasible(raw)
                res = standardize(raw)
                if isinstance(res, EarlyEmpty):
                    assert direct.status != FEASIBLE
                    continue
                if isinstance(res, TriviallyNonEmpty):
                    assert direct.status == FEASIBLE
                    x = res.witness
                else:
                    std = fm_feasible(res.A, res.b)
                    assert std.status == direct.status
                    if std.status != FEASIBLE:
                        continue
                    x = res.original_point(std.witness)
                # the mapped witness is a point of the file: At x <= bt or
                # At x = bt, and x >= 0 for the nonnegative forms
                assert validate_witness(*embedding(raw), x)
                witnesses += 1
        assert witnesses > 200


@st.composite
def files(draw, forms, max_m, max_n):
    """A RawSystem over `assumption_matrices`, with bounds that are often 0
    so that zero rows survive presolve."""
    A = draw(assumption_matrices(max_m, max_n))
    b = draw(st.lists(st.one_of(st.just(0), SMALL_RATIONALS),
                      min_size=A.rows, max_size=A.rows))
    return RawSystem(draw(st.sampled_from(forms)), A, V(b))


def file_text(raw: RawSystem) -> str:
    lines = [f"{raw.Atilde.rows} {raw.Atilde.cols}"]
    for row, bi in zip(raw.Atilde.row_lists(), raw.btilde.entries):
        lines.append(" ".join(str(x) for x in row + [bi]))
    return "\n".join(lines) + "\n"


def run_json(cmd, path, form) -> tuple:
    buf = io.StringIO()
    code = run(cmd[:1] + [str(path), "--json", "--form", form] + cmd[1:],
               out=buf)
    return code, json.loads(buf.getvalue())


class TestUserFrame:
    """`check` and `oracle` answer in the file's frame, on files with zero
    rows and, for `ineq`, rank deficiency: every EMPTY `farkas_y`,
    presolve's included, is a certificate of the file's embedding as
    written, every EMPTY agrees with FM on the direct translation, every
    `oracle` witness is a point of the file, and `check --oracle-check`
    reports the answer `oracle` gives."""

    def check_file(self, raw: RawSystem, directory) -> None:
        path = directory / "file.txt"
        path.write_text(file_text(raw))
        form = raw.form.replace("_", "-")
        A, b = embedding(raw)
        code, report = run_json(["check", "--oracle-check"], path, form)
        if report["verdict"] == "EMPTY":
            cert = report["certificate"]
            y = V(cert["farkas_y"])
            assert y.dim == A.rows and validate_certificate(A, b, y)
            assert raw_feasible(raw).status == INFEASIBLE
        _, result = run_json(["oracle"], path, form)
        if result["witness"] is not None:
            assert validate_witness(A, b, V(result["witness"]))
        result.pop("presolve", None)    # `oracle` also names the zero row
        assert report["oracle"] == result

    @settings(max_examples=150, deadline=None)
    @given(raw=files(("ineq",), 8, 4))
    @example(raw=RawSystem("ineq", M([[1], [0], [-1], [1]]), V([1, 5, -3, 2])))
    @example(raw=RawSystem("ineq", M([[1, 2], [0, 0], [-2, -4]]),
                           V([1, 1, -3])))
    def test_ineq(self, tmp_path_factory, raw):
        self.check_file(raw, tmp_path_factory.mktemp("ineq"))

    @settings(max_examples=150, deadline=None)
    @given(raw=files(("ineq_nonneg", "eq_nonneg"), 4, 3))
    @example(raw=RawSystem("eq_nonneg", M([[0], [1], [1]]), V([0, 1, 2])))
    @example(raw=RawSystem("eq_nonneg", M([[0], [1]]), V([3, 1])))
    @example(raw=RawSystem("ineq_nonneg", M([[0, 0], [0, 0]]), V([0, 0])))
    def test_nonneg(self, tmp_path_factory, raw):
        self.check_file(raw, tmp_path_factory.mktemp("nonneg"))


def endpoint_str(x) -> str:
    return {NEG_INF: "-inf", POS_INF: "+inf"}.get(x) or _frac_str(x)


class TestTwoReaders:
    """`check --json` writes a certificate from its ints over one scale,
    and the Python API reads the same certificate as Fractions: both give
    one value, and the API's Farkas vector passes the exact check."""

    @settings(max_examples=300, deadline=None)
    @given(raw=files(FORMS, 8, 3))
    # a pair test whose head is negative (z <= 0, y = -z), with a rational
    # row and a dropped zero row
    @example(raw=RawSystem("ineq", M([[0, -1], [0, 0], [-1, 1], [2, 1],
                                      [-1, 2]]),
                           V([Fraction(-1, 2), 1, 2, -2, 2])))
    def test_same_certificate(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("readers") / "file.txt"
        path.write_text(file_text(raw))
        _, report = run_json(["check"], path, raw.form.replace("_", "-"))
        std = standardize(raw)
        if not isinstance(std, StandardSystem):
            return      # presolve: no test failed
        cert = decide(std).certificate
        event("EMPTY" if cert else "NOT_PROVEN_EMPTY")
        if cert is None:
            assert report["certificate"] is None
            return
        event("z <= 0" if min(cert.kprime.entries) < 0 else "z >= 0")
        y = cert.farkas_y
        assert report["certificate"]["k_prime"] == [
            _frac_str(x) for x in cert.kprime.entries]
        assert report["certificate"]["interval"] == [
            endpoint_str(cert.interval.lo), endpoint_str(cert.interval.hi)]
        assert report["certificate"]["farkas_y"] == [
            _frac_str(x) for x in std.original_farkas(y).entries]
        assert validate_certificate(std.A, std.b, y)
        assert validate_certificate(*embedding(raw), std.original_farkas(y))
