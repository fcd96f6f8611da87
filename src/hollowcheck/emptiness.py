"""The algebraic emptiness test.

Pipeline: split A into (A1; A2) with A2 invertible, read R = A1 A2^-1
off `StandardSystem.split`, the elimination of t(A) that picks A2, form
G = [I | -R], then test whether 0 lies in {t(k')G a : a <= b} for each
vector k' of a finite family (canonical basis, left kernel of R,
orthogonal complements of b1 and R b2, and the pairwise elimination
vectors).  The verdict for k' reads only the signs of z = t(k')G and of
t(z)b, which a positive scaling leaves alone, so the battery runs in
Python ints: `decompose` keeps Rz = D R (D > 0 the lcm of R's
denominators) and bz, a positive integer multiple of b.  For k' = w / s
with w an int vector, z = [D w | -w Rz] is s D t(k')G, and t(z)bz = w r
for the residual r = D bz[:m-n] - Rz bz[m-n:]: r_i is a positive
multiple of the slack of row i at the vertex x_B = A2^-1 b2.

`decide` computes r once and decides each candidate from its head w and
r (the `_scan_*` functions), by the paper's rule: a test fails iff z has
one sign and t(z)bz the other.  Canonical test i fails iff Rz_i <= 0 and
r_i < 0.  A pair test, with head entries -a D and c D, passes if they
have mixed signs; otherwise the head has the sign of h = c or -a (h = 0
when z = 0, a pass).  It costs O(1) unless t(z)bz has the sign of -h,
and only then scans its tail.  Neither of the two remaining scans builds
a basis.  A complement vector of b1 or R b2 has two nonzeros, at the
first nonzero p of that vector and at a free index f, so it is a pair
test on rows p and f: mixed signs are settled in O(1), and the rest in
O(n).  A kernel vector is read off one elimination of t(Rz): its tail w
Rz is 0, so it is always in the cone, and t(z)bz = D w bz[:m-n].  A
single-signed kernel or complement vector has w >= 0, so -z is never in
the cone and fails iff z does: the mode, which runs the orientations in
the cone (the algorithm) or both (the theorem), sets only the count,
never the verdict or the certificate.  Each family reports its count
and its first failing params; the dense w, s and z are built for that
failure alone.
`family_tests` is the z form of the same battery, read by `in_cone_G`
and `run_test`, with the bases of `left_nullspace_basis` and
`orth_complement_basis`: the reference for the harness, the demo and
the tests.

As G = [I | -R], the failing test has t(k')G = z / s, and the
certificate keeps that one integer vector and its positive scale s: k'
is z's head over s, `farkas_from` orients z into the Farkas vector
y / s with y = +-z in original row order, and the interval's finite
endpoint t(z)bz / (s L), for bz = L b_perm, is the int pair (t(z)bz, s L).
Its side is read off the endpoint's sign.  The exact check of y against
sys runs in ints (`validate_certificate`), since s moves no sign, and
decide builds no Fraction: `Certificate.kprime`, `.interval` and
`.farkas_y` build theirs only when the Python API reads them.  decide
makes that check before it returns Empty, so the Empty verdict is
unconditionally sound; the converse rests on the enumeration being
sufficient and is only measured (see harness).
"""
from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import chain
from operator import mul

from .densemat import (Matrix, Record, Vector, denominator_lcm, eliminate,
                       int_scaled, left_nullspace_basis, lowest_terms,
                       orth_complement_basis)
from .interval import NEG_INF, POS_INF, Interval
# unused here, but bench/tracer.py patches them by these names in this module
from .densemat import invert, mat_mul, vec_mat  # noqa: F401
from .interval import iv_dot  # noqa: F401
from .oracle import validate_certificate
from .standardize import StandardSystem

MODE_ALGORITHM = "algorithm"
MODE_THEOREM = "theorem"
MODES = (MODE_ALGORITHM, MODE_THEOREM)

FAMILY_CANONICAL = "canonical"
FAMILY_KERNEL = "kernel"
FAMILY_B1_PERP = "b1_perp"
FAMILY_RB2_PERP = "rb2_perp"
FAMILY_PAIR = "pair"

DEFAULT_ORDER = (FAMILY_CANONICAL, FAMILY_KERNEL, FAMILY_B1_PERP,
                 FAMILY_RB2_PERP, FAMILY_PAIR)
# the order the test families appear in the source procedure
STATED_ORDER = (FAMILY_B1_PERP, FAMILY_RB2_PERP, FAMILY_KERNEL,
               FAMILY_CANONICAL, FAMILY_PAIR)


class SoundnessViolation(AssertionError):
    """A verdict failed an exact soundness check: a build-stopping bug."""


class Decomposition(Record):
    __slots__ = _fields = (
        "row_perm",     # permuted position -> original row index
        "A",            # the system's A, in original row order
        "b_perm",       # (b1; b2)
        "D",            # lcm of the denominators of R = A1 A2^-1
        "Rz",           # D R, one tuple of ints per row
        "bz",           # a positive integer multiple of b_perm
    )

    @property
    def m(self) -> int:
        return self.A.rows

    @property
    def n(self) -> int:
        return self.A.cols

    @property
    def R(self) -> Matrix:
        """The exact A1 A2^-1, rebuilt from Rz / D."""
        return Matrix(self.m - self.n, self.n,
                      tuple(Fraction(x, self.D) for row in self.Rz for x in row))

    def permuted_A(self) -> Matrix:
        rows = self.A.row_lists()
        return Matrix.from_rows([rows[i] for i in self.row_perm])


class Certificate(Record):
    """The failing test of an Empty verdict, kept in ints over one
    positive scale s; the exact Fractions are built when read."""
    __slots__ = _fields = (
        "family", "params",
        "head",         # s k', a tuple of ints
        "y",            # s times the Farkas vector, a Vector of ints in
                        # original row order: y >= 0, t(y)A = 0, t(y)b < 0
        "s",
        "endpoint",     # the interval's finite endpoint as (num, den > 0)
    )

    def label(self) -> str:
        return f"{self.family}{list(self.params)}"

    @property
    def kprime(self) -> Vector:
        return Vector(len(self.head),
                      tuple(Fraction(x, self.s) for x in self.head))

    @property
    def farkas_y(self) -> Vector:
        return Vector(self.y.dim,
                      tuple(Fraction(x, self.s) for x in self.y.entries))

    @property
    def interval(self) -> Interval:
        """{t(k')G a : a <= b}: a failing z >= 0 has t(z)b < 0 and
        [-inf, t(z)b], a failing z <= 0 has t(z)b > 0 and [t(z)b, +inf]."""
        end = Fraction(*self.endpoint)
        return (Interval(NEG_INF, end) if self.endpoint[0] < 0
                else Interval(end, POS_INF))


class EmptinessReport(Record):
    __slots__ = _fields = (
        "verdict",      # "EMPTY" | "NOT_PROVEN_EMPTY"
        "certificate", "tests_run", "family_counts", "mode",
    )

    @property
    def is_empty(self) -> bool:
        return self.verdict == "EMPTY"


EMPTY = "EMPTY"
NOT_PROVEN_EMPTY = "NOT_PROVEN_EMPTY"


def decompose(sys: StandardSystem) -> Decomposition:
    """Pick the first n independent rows (top-to-bottom scan) as A2.

    Selected rows are moved after the unselected ones, both blocks keeping
    their relative input order; b is permuted identically.
    """
    A, b, m, n = sys.A, sys.b, sys.m, sys.n
    # the n pivot columns of t(A) are the first n independent rows of A
    basis_rows, selected, d = sys.split
    sel = set(selected)
    unselected = [i for i in range(m) if i not in sel]
    perm = tuple(unselected + selected)
    # column u of rref(t(A)) = basis_rows / d writes row u of A in the rows
    # of A2, so row i of R = A1 A2^-1 is column unselected[i]; in lowest
    # terms, D is the lcm of R's denominators.  For integer A, D divides
    # |det A2|: Rz is no larger than A1 adj(A2)
    flat, D = lowest_terms([row[u] for u in unselected
                            for row in basis_rows], d)
    Rz = tuple(flat[i * n:(i + 1) * n] for i in range(m - n))
    b_perm = Vector(m, tuple(b[i] for i in perm))
    return Decomposition(perm, A, b_perm, D, Rz, int_scaled(b_perm.entries))


def build_U(dec: Decomposition) -> Matrix:
    """The m x m matrix [[I, -R], [0, 0]]; G = [I | -R] is its top block."""
    G = Matrix.identity(dec.m - dec.n).hstack(dec.R.neg())
    return G.vstack(Matrix.zeros(dec.n, dec.m))


def in_cone_G(z: tuple) -> bool:
    """True iff z, a positive multiple of t(k) G, has every component >= 0."""
    return min(z) >= 0


def _check_battery(mode: str, order: tuple) -> None:
    """Raise ValueError for a mode or a family the battery does not know."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not set(order) <= set(DEFAULT_ORDER):
        raise ValueError(f"unknown family in {order}; expected families "
                         f"from {DEFAULT_ORDER}")


def _z_of(w: tuple, s: int, dec: Decomposition) -> tuple:
    """(z, s D) with z = s D t(k')G = [D w | -w Rz], for k' = w / s."""
    support = [(x, row) for x, row in zip(w, dec.Rz) if x]
    return (tuple(x * dec.D for x in w)
            + tuple(-sum(x * row[k] for x, row in support)
                    for k in range(dec.n)), s * dec.D)


def _unit(d: int, i: int) -> tuple:
    return (0,) * i + (1,) + (0,) * (d - 1 - i)


def _pair_w(dec: Decomposition, j: int, i: int, i2: int) -> tuple:
    """D k' for k' = -R_i'j e_i + R_ij e_i', which kills column j of R."""
    w = [0] * (dec.m - dec.n)
    w[i], w[i2] = -dec.Rz[i2][j], dec.Rz[i][j]
    return tuple(w)


def _rb2(dec: Decomposition) -> tuple:
    """Rz bz[m-n:], a positive multiple of R b2."""
    b2z = dec.bz[dec.m - dec.n:]
    return tuple(sum(map(mul, row, b2z)) for row in dec.Rz)


def _basis(dec: Decomposition, family: str, rb2: tuple) -> list:
    """The (w, s) basis of a kernel or complement family, read off Rz and
    bz: a positive scaling changes neither an RREF nor its bases.  Only
    `family_tests` builds it; `decide` reads the same vectors in place."""
    d = dec.m - dec.n
    if family == FAMILY_KERNEL:
        return left_nullspace_basis(
            Matrix(d, dec.n, tuple(x for row in dec.Rz for x in row)))
    # bz = L (b1; b2) and rb2 = L D R b2, L > 0
    return orth_complement_basis(
        Vector(d, dec.bz[:d] if family == FAMILY_B1_PERP else rb2))


def _signed_filtered(basis, family, dec, mode) -> Iterator[tuple]:
    for idx, (w, s) in enumerate(basis):
        z, s = _z_of(w, s, dec)
        if mode != MODE_ALGORITHM or in_cone_G(z):
            yield family, (idx, 1), z, s
        if not any(w):
            continue
        zneg = tuple(-e for e in z)
        if mode != MODE_ALGORITHM or in_cone_G(zneg):
            yield family, (idx, -1), zneg, s


def family_tests(dec: Decomposition, mode: str = MODE_ALGORITHM,
                 order: tuple = DEFAULT_ORDER) -> Iterator[tuple]:
    """Deterministic enumeration of (family, params, z, s), family by family.

    z is a tuple of ints and s > 0 an int with z = s t(k')G exactly, so
    k' = z[:m-n] / s.  This is the z form of the battery that `decide`
    runs in residual form: `decide` gives the verdict, the tests run and
    the family counts of this enumeration read through `run_test`.
    Raises ValueError for a mode or a family it does not know.
    """
    _check_battery(mode, order)
    d = dec.m - dec.n
    for family in order:
        if family == FAMILY_CANONICAL:
            for i in range(d):
                yield (FAMILY_CANONICAL, (i + 1,), *_z_of(_unit(d, i), 1, dec))
        elif family == FAMILY_PAIR:
            for j in range(dec.n):
                for i in range(d - 1):
                    for i2 in range(i + 1, d):
                        yield (FAMILY_PAIR, (j + 1, i + 1, i2 + 1),
                               *_z_of(_pair_w(dec, j, i, i2), dec.D, dec))
        else:
            yield from _signed_filtered(_basis(dec, family, _rb2(dec)),
                                        family, dec, mode)


def run_test(z: tuple, dec: Decomposition) -> bool:
    """Whether 0 lies in {t(z) a : a <= b_perm}, for z a positive multiple
    of t(k')G: read off the signs of z and of t(z) bz, as in `iv_dot`."""
    nonneg = min(z) >= 0
    if not (nonneg or max(z) <= 0):
        return True
    zb = sum(map(mul, z, dec.bz))
    return zb >= 0 if nonneg else zb <= 0


def _scan_canonical(dec: Decomposition, r: tuple) -> tuple:
    """(tests run, first failure) of the canonical family: test i fails
    iff row i is violated at x_B and Rz_i <= 0."""
    for i, (ri, row) in enumerate(zip(r, dec.Rz)):
        if ri < 0 and max(row) <= 0:
            return i + 1, ((i + 1,), _unit(len(r), i), 1)
    return len(r), None


def _scan_pairs(dec: Decomposition, r: tuple) -> tuple:
    """(tests run, first failure) of the pair family.

    Test (j, i, i') has head -a D at i and c D at i', for a = Rz_i'j and
    c = Rz_ij, tail a Rz_i - c Rz_i' and t(z)bz = c r_i' - a r_i.
    """
    d, Rz = len(r), dec.Rz
    per_j = d * (d - 1) // 2
    for j in range(dec.n):
        col = [row[j] for row in Rz]
        for i in range(d - 1):
            c, ri = col[i], r[i]
            for i2 in range(i + 1, d):
                a = col[i2]
                if a * c > 0:
                    continue        # a head of mixed signs
                h = c or -a         # the head's sign; 0 for z = 0, a pass
                if (c * r[i2] - a * ri) * h >= 0 or any(
                        h * (a * x - c * y) < 0
                        for x, y in zip(Rz[i], Rz[i2])):
                    continue
                run = j * per_j + i * (d - 1) - i * (i - 1) // 2 + i2 - i
                return run, ((j + 1, i + 1, i2 + 1),
                             _pair_w(dec, j, i, i2), dec.D)
    return dec.n * per_j, None


def _scan_kernel(dec: Decomposition, mode: str) -> tuple:
    """(tests run, first failure) of the kernel family.

    One elimination of t(Rz), n x d, gives rows E, determinant det and
    pivot columns pc.  Free column f gives w_f = |det| and w_pc =
    -sgn(det) E[r][f], before lowest terms, which scaling leaves alone.
    So w is single-signed iff sgn(det) E[r][f] <= 0 for every pivot row r,
    and then w >= 0.  Its tail w Rz is 0, so z is in the cone, and t(z)bz
    = w r = D w bz[:d].  Without a free column, the basis is the zero
    vector, whose z = 0 passes: one test in either mode.  Otherwise the
    mode sets only the count: algorithm mode runs the z of each
    single-signed w, and theorem mode both orientations of every w.
    """
    d = dec.m - dec.n
    E, pc, det = eliminate(Matrix(dec.n, d, tuple(
        chain.from_iterable(zip(*dec.Rz)))))
    sd = 1 if det > 0 else -1
    free = [f for f in range(d) if f not in pc]
    if not free:
        return 1, None
    rows = E[:len(pc)]
    b1 = dec.bz[:d]
    b1_pc = [b1[p] for p in pc]
    count = 0
    for idx, f in enumerate(free):
        col = [sd * row[f] for row in rows]
        if max(col, default=0) > 0:
            continue        # a head of mixed signs
        count += 1
        if abs(det) * b1[f] < sum(map(mul, col, b1_pc)):
            w = [0] * d
            w[f] = det
            for row, p in zip(E, pc):
                w[p] = -row[f]
            return (2 * idx + 1 if mode == MODE_THEOREM else count,
                    ((idx, 1), *lowest_terms(w, det)))
    return 2 * len(free) if mode == MODE_THEOREM else count, None


def _scan_complement(dec: Decomposition, v: tuple, r: tuple,
                     mode: str) -> tuple:
    """(tests run, first failure) of the orthogonal complement of v.

    v = bz[:d] for b1_perp and Rz bz[d:] for rb2_perp, positive multiples
    of b1 and R b2.  For v = 0 the basis is canonical, e_f.  Otherwise, for
    p the first nonzero of v, free index f != p gives w = a e_f + c e_p,
    a = |v_p| and c = -sgn(v_p) v_f, before lowest terms: a pair test on
    rows f and p.  For c < 0 its head has mixed signs.  Otherwise z is in
    the cone iff a Rz_f + c Rz_p <= 0, and t(z)bz = a r_f + c r_p.  As
    w >= 0, the mode sets only the count, as in `_scan_kernel`.
    """
    d = len(r)
    p = next((i for i, x in enumerate(v) if x), None)
    if p is None:
        p, a, sp, free = 0, 1, 0, range(d)
    else:
        a, sp = abs(v[p]), (1 if v[p] > 0 else -1)
        free = [f for f in range(d) if f != p]
    Rp, rp = dec.Rz[p], r[p]
    count = 0
    for idx, f in enumerate(free):
        c = -sp * v[f]
        if c < 0 or any(a * x + c * y > 0 for x, y in zip(dec.Rz[f], Rp)):
            continue        # a head of mixed signs, or a tail off the cone
        count += 1
        if a * r[f] + c * rp < 0:
            w = [0] * d
            w[p], w[f] = c, a
            return (2 * idx + 1 if mode == MODE_THEOREM else count,
                    ((idx, 1), *lowest_terms(w, a)))
    return 2 * len(free) if mode == MODE_THEOREM else count, None


def _residual(dec: Decomposition) -> tuple:
    """(Rz bz[m-n:], r), computed once per decomposition.

    r = D bz[:m-n] - Rz bz[m-n:]: r_i = t(z)bz for the canonical z of row
    i, a positive multiple of the slack b_i - R_i b2 at the vertex
    x_B = A2^-1 b2.
    """
    rb2 = _rb2(dec)
    return rb2, tuple(dec.D * x - y for x, y in zip(dec.bz[:len(rb2)], rb2))


def _scan(dec: Decomposition, family: str, mode: str,
          residual: tuple) -> tuple:
    """(tests run, first failure) of one family, as `family_tests` with
    `run_test` would find them; a failure is (params, w, s), k' = w / s."""
    rb2, r = residual
    if family == FAMILY_CANONICAL:
        return _scan_canonical(dec, r)
    if family == FAMILY_PAIR:
        return _scan_pairs(dec, r)
    if family == FAMILY_KERNEL:
        return _scan_kernel(dec, mode)
    return _scan_complement(
        dec, dec.bz[:len(r)] if family == FAMILY_B1_PERP else rb2, r, mode)


def farkas_from(z: Vector, dec: Decomposition) -> Vector:
    """Farkas vector +-z, for z a positive multiple of t(k')G of a failing
    test (`decide` passes the ints s t(k')G), in original row order.

    A failing z has a single sign, read off its first nonzero entry; were
    it mixed, y would have a negative entry and decide's exact check would
    reject it.
    """
    y_perm = z.neg() if next((e for e in z.entries if e), 0) < 0 else z
    ents = [None] * dec.m
    for p, orig in enumerate(dec.row_perm):
        ents[orig] = y_perm[p]
    return Vector(dec.m, tuple(ents))


def decide(sys: StandardSystem, mode: str = MODE_ALGORITHM,
           stated_order: bool = False) -> EmptinessReport:
    """Run the full test battery; Empty at the first failing test vector.

    Each family is decided in residual form; the ints z = s t(k')G are
    built for the first failing test alone, and the certificate keeps
    them over s, so decide makes no Fraction on any verdict.  The integer
    Farkas vector y, whose Farkas vector is y / s, is checked exactly
    against sys before Empty is returned; a vector that fails raises
    SoundnessViolation.
    """
    order = STATED_ORDER if stated_order else DEFAULT_ORDER
    _check_battery(mode, order)
    dec = decompose(sys)
    residual = _residual(dec)
    counts = {f: 0 for f in order}
    for family in order:
        counts[family], failure = _scan(dec, family, mode, residual)
        if failure is None:
            continue
        params, w, s = failure
        z, s = _z_of(w, s, dec)     # z = s t(k')G
        # G = [I | -R]: t(k')G begins with k'.  t(z / s) b_perm is
        # t(z)bz / (s L), for bz = L b_perm
        cert = Certificate(family, params, z[:dec.m - dec.n],
                           farkas_from(Vector(dec.m, z), dec), s,
                           (sum(map(mul, z, dec.bz)),
                            s * denominator_lcm(dec.b_perm.entries)))
        # y / s is the Farkas vector, and the positive s moves no sign
        if not validate_certificate(sys.A, sys.b, cert.y):
            raise SoundnessViolation(
                f"Farkas vector from test {cert.label()} fails the exact check")
        return EmptinessReport(EMPTY, cert, sum(counts.values()), counts,
                               mode)
    return EmptinessReport(NOT_PROVEN_EMPTY, None, sum(counts.values()),
                           counts, mode)
