"""The algebraic emptiness test.

Pipeline: split A into (A1; A2) with A2 invertible, read R = A1 A2^-1
off `StandardSystem.split`, the elimination of t(A) that picks A2, form
G = [I | -R], then test whether 0 lies in {t(k')G a : a <= b} for each
vector k' of a finite family (canonical basis, left kernel of R,
orthogonal complements of b1 and R b2, and the pairwise elimination
vectors).  The verdict for k' reads only the signs of z = t(k')G and of
t(z)b, which a positive scaling leaves alone, so the battery runs in
Python ints: `decompose` returns the tableau at A2 in the split's
fraction-free scale (Bareiss 1968), Rz = D R with D = |det A2| for
integer A, bz, a positive integer multiple of b, and the slack column
r = D bz[:m-n] - Rz bz[m-n:]: r_i is a positive multiple of the slack of
row i at the vertex x_B = A2^-1 b2.  For k' = w / s with w an int
vector, z = [D w | -w Rz] is s D t(k')G, and t(z)bz = w r.

`decide` decides each candidate from its head w and the tableau (the
`_scan_*` functions), by the paper's rule: a test fails iff z has
one sign and t(z)bz the other.  Canonical test i fails iff Rz_i <= 0 and
r_i < 0.  A pair test (j, i, i'), with head entries -a D and c D for
a = Rz_i'j and c = Rz_ij, is read by the sign of c: for c > 0 it can
fail only if a <= 0 and t(z)bz < 0, for c < 0 only if a >= 0 and t(z)bz
> 0, and only then is its tail scanned, so it costs one comparison in
the common case.  For c = 0 it fails iff a != 0 and canonical test i
fails, so the run (j, i, .) has no inner loop when canonical i passes.
Neither of the two remaining scans builds a basis.  A complement vector
of b1 or R b2 has two nonzeros, at the first nonzero p of that vector
and at a free index f, so it is a pair test on rows p and f: mixed signs
are settled in O(1), and the rest in O(n).  A kernel vector is read off
one elimination of t(Rz): its tail w Rz is 0, so it is always in the
cone, and t(z)bz = D w bz[:m-n].  A single-signed kernel or complement
vector has w >= 0, so -z is never in the cone, and the battery runs z
alone.  Each family reports its count and its first failing params; the
dense w, s and z are built for that failure alone.
`family_tests` is the z form of the same battery, read by `in_cone_G`
and `run_test`, with the bases of `left_nullspace_basis` and
`orth_complement_basis`: the reference for the demo and the tests.

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

`walk` carries the split along a path of A2s: Lemke's dual simplex on
Ax <= b with a zero objective, under Bland's rule on row indices.  A
basis B of n independent rows is one A2, and the walk pivots copies of
the ints Rz, r and D of `decompose`.  At each basis it runs the
canonical family on the violated rows (r_i < 0): a failure is the
integer Farkas vector y_i = D, y_B = -Rz_i.  With no row violated, x_B
is a point of the set, solved by one `eliminate([A_B | b_B])`.
Otherwise the least violated row i enters, in place of the least basis
row B_l with Rz_il > 0 (one exists, or canonical test i fails), and with
p = Rz_il every other row k becomes (p Rz_k - Rz_kl Rz_i) // D, with
entry l kept as Rz_kl, r_k becomes (p r_k - Rz_kl r_i) // D, row i
becomes -Rz_i with entry l set to D, r_i becomes -r_i, and D becomes p.
Rz is then D R at the new basis, with D its determinant for integer A
(the split scales each column of A to ints, which leaves R alone), so
every division is exact (Edmonds 1967; Bareiss 1968).  With a zero
objective every ratio ties at 0, so this is Bland's rule on the dual
(Bland 1977), which never returns to a basis: the walk ends, after at
most C(m, n) pivots, in an Empty or a feasible answer.  A pivot budget
turns the rare long path (Klee and Minty 1972) into an explicit
outcome.  Each answer is checked exactly before `walk` returns it.
"""
from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from operator import mul

from .densemat import (Matrix, Record, Vector, denominator_lcm, eliminate,
                       int_scaled, left_nullspace_basis, lowest_terms,
                       orth_complement_basis)
from .interval import NEG_INF, POS_INF, Interval
# unused here, but bench/tracer.py patches them by these names in this module
from .densemat import invert, mat_mul, vec_mat  # noqa: F401
from .interval import iv_dot  # noqa: F401
from .oracle import validate_certificate, validate_witness
from .standardize import StandardSystem

FAMILY_CANONICAL = "canonical"
FAMILY_KERNEL = "kernel"
FAMILY_B1_PERP = "b1_perp"
FAMILY_RB2_PERP = "rb2_perp"
FAMILY_PAIR = "pair"

DEFAULT_ORDER = (FAMILY_CANONICAL, FAMILY_KERNEL, FAMILY_B1_PERP,
                 FAMILY_RB2_PERP, FAMILY_PAIR)


class SoundnessViolation(AssertionError):
    """A verdict failed an exact soundness check: a build-stopping bug."""


class Decomposition(Record):
    __slots__ = _fields = (
        "row_perm",     # permuted position -> original row index
        "A",            # the system's A, in original row order
        "b_perm",       # (b1; b2)
        "D",            # |d| for the split's Bareiss scale d: |det A2|
                        # for integer A
        "Rz",           # D R for R = A1 A2^-1, one tuple of ints per row
        "bz",           # a positive integer multiple of b_perm
        "r",            # D bz[:m-n] - Rz bz[m-n:], the slack column
    )

    @property
    def m(self) -> int:
        return self.A.rows

    @property
    def n(self) -> int:
        return self.A.cols

    @property
    def b(self) -> Vector:
        """The system's b, in original row order."""
        b = [None] * self.m
        for p, orig in enumerate(self.row_perm):
            b[orig] = self.b_perm[p]
        return Vector(self.m, tuple(b))

    @property
    def R(self) -> Matrix:
        """The exact A1 A2^-1, rebuilt from Rz / D."""
        return Matrix(self.m - self.n, self.n, tuple(
            tuple(Fraction(x, self.D) for x in row) for row in self.Rz))

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
        "certificate", "family_counts",
    )

    @property
    def is_empty(self) -> bool:
        return self.verdict == "EMPTY"

    @property
    def tests_run(self) -> int:
        return sum(self.family_counts.values())


EMPTY = "EMPTY"
NOT_PROVEN_EMPTY = "NOT_PROVEN_EMPTY"


def decompose(sys: StandardSystem) -> Decomposition:
    """Pick the first n independent rows (top-to-bottom scan) as A2.

    Selected rows are moved after the unselected ones, both blocks keeping
    their relative input order; b is permuted identically.
    """
    A, b, m = sys.A, sys.b.entries, sys.A.rows
    # the n pivot columns of t(A) are the first n independent rows of A
    basis_rows, selected, d = sys.split
    sel = set(selected)
    unselected = [i for i in range(m) if i not in sel]
    perm = tuple(unselected + selected)
    # column u of rref(t(A)) = basis_rows / d writes row u of A in the rows
    # of A2, so row i of R = A1 A2^-1 is column unselected[i] over d.  For
    # integer A, |d| = |det A2|, and Rz = A1 adj(A2) up to sign
    if d < 0:
        basis_rows, d = [[-x for x in row] for row in basis_rows], -d
    cols = list(zip(*basis_rows))
    Rz = tuple([cols[u] for u in unselected])
    b_perm = Vector(m, tuple([b[i] for i in perm]))
    bz = int_scaled(b_perm.entries)
    b2z = bz[m - A.cols:]
    r = tuple([d * x - sum(map(mul, row, b2z)) for x, row in zip(bz, Rz)])
    return Decomposition(perm, A, b_perm, d, Rz, bz, r)


def build_U(dec: Decomposition) -> Matrix:
    """The m x m matrix [[I, -R], [0, 0]]; G = [I | -R] is its top block."""
    G = Matrix.identity(dec.m - dec.n).hstack(dec.R.neg())
    return G.vstack(Matrix.zeros(dec.n, dec.m))


def in_cone_G(z: tuple) -> bool:
    """True iff z, a positive multiple of t(k) G, has every component >= 0."""
    return min(z) >= 0


def _z_of(w: tuple, s: int, dec: Decomposition) -> tuple:
    """(z, s D) with z = s D t(k')G = [D w | -w Rz], for k' = w / s."""
    support = [(x, row) for x, row in zip(w, dec.Rz) if x]
    return (tuple(x * dec.D for x in w)
            + tuple(-sum(x * row[k] for x, row in support)
                    for k in range(dec.n)), s * dec.D)


def _pair_w(dec: Decomposition, j: int, i: int, i2: int) -> tuple:
    """D k' for k' = -R_i'j e_i + R_ij e_i', which kills column j of R."""
    w = [0] * (dec.m - dec.n)
    w[i], w[i2] = -dec.Rz[i2][j], dec.Rz[i][j]
    return tuple(w)


def _rb2(dec: Decomposition) -> tuple:
    """Rz bz[m-n:] = D bz[:m-n] - r, a positive multiple of R b2."""
    return tuple(dec.D * x - y for x, y in zip(dec.bz, dec.r))


def _basis(dec: Decomposition, family: str, rb2: tuple) -> list:
    """The (w, s) basis of a kernel or complement family, read off Rz and
    bz: a positive scaling changes neither an RREF nor its bases.  Only
    `family_tests` builds it; `decide` reads the same vectors in place."""
    d = dec.m - dec.n
    if family == FAMILY_KERNEL:
        return left_nullspace_basis(Matrix(d, dec.n, dec.Rz))
    # bz = L (b1; b2) and rb2 = L D R b2, L > 0
    return orth_complement_basis(
        Vector(d, dec.bz[:d] if family == FAMILY_B1_PERP else rb2))


def _signed_filtered(basis, family, dec) -> Iterator[tuple]:
    for idx, (w, s) in enumerate(basis):
        z, s = _z_of(w, s, dec)
        if in_cone_G(z):
            yield family, (idx, 1), z, s
        if not any(w):
            continue
        zneg = tuple(-e for e in z)
        if in_cone_G(zneg):
            yield family, (idx, -1), zneg, s


def family_tests(dec: Decomposition,
                 order: tuple = DEFAULT_ORDER) -> Iterator[tuple]:
    """Deterministic enumeration of (family, params, z, s), family by family.

    z is a tuple of ints and s > 0 an int with z = s t(k')G exactly, so
    k' = z[:m-n] / s.  This is the z form of the battery that `decide`
    runs on the tableau: `decide` gives the verdict, the tests run and
    the family counts of this enumeration read through `run_test`.
    Raises ValueError for a family it does not know.
    """
    if not set(order) <= set(DEFAULT_ORDER):
        raise ValueError(f"unknown family in {order}; expected families "
                         f"from {DEFAULT_ORDER}")
    d = dec.m - dec.n
    for family in order:
        if family == FAMILY_CANONICAL:
            for i in range(d):
                yield (FAMILY_CANONICAL, (i + 1,),
                       *_z_of(Vector.unit(d, i).entries, 1, dec))
        elif family == FAMILY_PAIR:
            for j in range(dec.n):
                for i in range(d - 1):
                    for i2 in range(i + 1, d):
                        yield (FAMILY_PAIR, (j + 1, i + 1, i2 + 1),
                               *_z_of(_pair_w(dec, j, i, i2), dec.D, dec))
        else:
            yield from _signed_filtered(_basis(dec, family, _rb2(dec)),
                                        family, dec)


def run_test(z: tuple, dec: Decomposition) -> bool:
    """Whether 0 lies in {t(z) a : a <= b_perm}, for z a positive multiple
    of t(k')G: read off the signs of z and of t(z) bz, as in `iv_dot`."""
    nonneg = min(z) >= 0
    if not (nonneg or max(z) <= 0):
        return True
    zb = sum(map(mul, z, dec.bz))
    return zb >= 0 if nonneg else zb <= 0


def _scan_canonical(dec: Decomposition) -> tuple:
    """(tests run, first failure) of the canonical family: test i fails
    iff row i is violated at x_B and Rz_i <= 0."""
    d = len(dec.r)
    for i, (ri, row) in enumerate(zip(dec.r, dec.Rz)):
        if ri < 0 and max(row) <= 0:
            return i + 1, ((i + 1,), Vector.unit(d, i).entries, 1)
    return d, None


def _pair_failure(dec: Decomposition, j: int, i: int, i2: int) -> tuple:
    """(tests run, failure) of `_scan_pairs` when (j, i, i') fails first."""
    d = len(dec.r)
    run = j * d * (d - 1) // 2 + i * (d - 1) - i * (i - 1) // 2 + i2 - i
    return run, ((j + 1, i + 1, i2 + 1), _pair_w(dec, j, i, i2), dec.D)


def _scan_pairs(dec: Decomposition) -> tuple:
    """(tests run, first failure) of the pair family.

    Test (j, i, i') has head -a D at i and c D at i', for a = Rz_i'j and
    c = Rz_ij, tail a Rz_i - c Rz_i' and t(z)bz = c r_i' - a r_i.  It is
    read by the sign of c.  For c > 0 it fails iff a <= 0, c r_i' < a r_i
    and a Rz_ik >= c Rz_i'k for every k; for c < 0 iff a >= 0, c r_i' >
    a r_i and a Rz_ik <= c Rz_i'k for every k (a of the other sign is a
    head of mixed signs).  For c = 0 it fails iff a != 0 and canonical test
    i fails, so the run (j, i, .) is settled once: by its first nonzero a
    when canonical i fails, and as all passes otherwise.
    """
    r, Rz = dec.r, dec.Rz
    d = len(r)
    for j in range(dec.n):
        col = [row[j] for row in Rz]
        for i in range(d - 1):
            c, ri, Ri = col[i], r[i], Rz[i]
            if c > 0:
                for i2 in range(i + 1, d):
                    a = col[i2]
                    if a <= 0 and c * r[i2] < a * ri:
                        for x, y in zip(Ri, Rz[i2]):
                            if a * x < c * y:
                                break
                        else:
                            return _pair_failure(dec, j, i, i2)
            elif c < 0:
                for i2 in range(i + 1, d):
                    a = col[i2]
                    if a >= 0 and c * r[i2] > a * ri:
                        for x, y in zip(Ri, Rz[i2]):
                            if a * x > c * y:
                                break
                        else:
                            return _pair_failure(dec, j, i, i2)
            elif ri < 0 and max(Ri) <= 0:
                for i2 in range(i + 1, d):
                    if col[i2]:
                        return _pair_failure(dec, j, i, i2)
    return dec.n * d * (d - 1) // 2, None


def _scan_kernel(dec: Decomposition) -> tuple:
    """(tests run, first failure) of the kernel family.

    One elimination of t(Rz), n x d, gives rows E, determinant det and
    pivot columns pc.  Free column f gives w_f = |det| and w_pc =
    -sgn(det) E[r][f], before lowest terms, which scaling leaves alone.
    So w is single-signed iff sgn(det) E[r][f] <= 0 for every pivot row r,
    and then w >= 0.  Its tail w Rz is 0, so z is in the cone, and t(z)bz
    = w r = D w bz[:d].  Without a free column, the basis is the zero
    vector, whose z = 0 passes: one test.  Otherwise the z of each
    single-signed w is one test.
    """
    d = dec.m - dec.n
    E, pc, det = eliminate(Matrix(dec.n, d, tuple(zip(*dec.Rz))))
    free = [f for f in range(d) if f not in pc]
    if not free:
        return 1, None
    rows = E[:len(pc)]
    b1 = dec.bz[:d]
    b1_pc = [b1[p] for p in pc]
    sd, adet = (1, det) if det > 0 else (-1, -det)
    count = 0
    for idx, f in enumerate(free):
        col = [row[f] for row in rows]
        if col and (max(col) > 0 if sd > 0 else min(col) < 0):
            continue        # a head of mixed signs
        count += 1
        if adet * b1[f] < sd * sum(map(mul, col, b1_pc)):
            w = [0] * d
            w[f] = det
            for row, p in zip(rows, pc):
                w[p] = -row[f]
            return count, ((idx, 1), *lowest_terms(w, det))
    return count, None


def _scan_complement(dec: Decomposition, v: tuple) -> tuple:
    """(tests run, first failure) of the orthogonal complement of v.

    v = bz[:d] for b1_perp and Rz bz[d:] for rb2_perp, positive multiples
    of b1 and R b2.  For v = 0 the basis is canonical, e_f.  Otherwise, for
    p the first nonzero of v, free index f != p gives w = a e_f + c e_p,
    a = |v_p| and c = -sgn(v_p) v_f, before lowest terms: a pair test on
    rows f and p.  For c < 0 its head has mixed signs.  Otherwise z is in
    the cone iff a Rz_f + c Rz_p <= 0, and t(z)bz = a r_f + c r_p.  As
    w >= 0, -z is never in the cone, as in `_scan_kernel`.
    """
    r = dec.r
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
        if c < 0:
            continue        # a head of mixed signs
        for x, y in zip(dec.Rz[f], Rp):
            if a * x + c * y > 0:
                break       # a tail off the cone
        else:
            count += 1
            if a * r[f] + c * rp < 0:
                w = [0] * d
                w[p], w[f] = c, a
                return count, ((idx, 1), *lowest_terms(w, a))
    return count, None


def _scan(dec: Decomposition, family: str) -> tuple:
    """(tests run, first failure) of one family, as `family_tests` with
    `run_test` would find them; a failure is (params, w, s), k' = w / s."""
    if family == FAMILY_CANONICAL:
        return _scan_canonical(dec)
    if family == FAMILY_PAIR:
        return _scan_pairs(dec)
    if family == FAMILY_KERNEL:
        return _scan_kernel(dec)
    return _scan_complement(dec, dec.bz[:len(dec.r)]
                            if family == FAMILY_B1_PERP else _rb2(dec))


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


def decide(sys: StandardSystem) -> EmptinessReport:
    """Run the full test battery, in `DEFAULT_ORDER`; Empty at the first
    failing test vector.

    Each family is decided on the tableau; the ints z = s t(k')G are
    built for the first failing test alone, and the certificate keeps
    them over s, so decide makes no Fraction on any verdict.  The integer
    Farkas vector y, whose Farkas vector is y / s, is checked exactly
    against sys before Empty is returned; a vector that fails raises
    SoundnessViolation.
    """
    dec = decompose(sys)
    counts = dict.fromkeys(DEFAULT_ORDER, 0)
    for family in DEFAULT_ORDER:
        counts[family], failure = _scan(dec, family)
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
        return EmptinessReport(EMPTY, cert, counts)
    return EmptinessReport(NOT_PROVEN_EMPTY, None, counts)


NONEMPTY = "NONEMPTY"
BUDGET_SPENT = "BUDGET_SPENT"
# pivots a walk may make; a Bland path at m <= 14 and n <= 3, the
# harness's shapes, makes at most C(14, 3) = 364
PIVOT_BUDGET = 1000


class WalkResult(Record):
    """The end of a Bland walk: Empty, a point, or the budget spent."""
    __slots__ = _fields = (
        "status",       # EMPTY | NONEMPTY | BUDGET_SPENT
        "pivots",
        "basis",        # the rows of the last A2, by position, original
                        # row indices
        "row",          # EMPTY: the row whose canonical test failed
        "y",            # EMPTY: the integer Farkas vector, original row
                        # order: y >= 0, t(y)A = 0, t(y)b < 0
        "witness",      # NONEMPTY: x_B, with A x_B <= b
    )


def _vertex(dec: Decomposition, basis: list) -> Vector:
    """x_B = A_B^-1 b_B, read off one elimination of [A_B | b_B]: its rows
    are det [I | x_B]."""
    b = dec.b
    rows, _, det = eliminate(Matrix(dec.n, dec.n + 1, tuple(
        dec.A.entries[i] + (b[i],) for i in basis)))
    return Vector(dec.n, tuple(Fraction(row[dec.n], det) for row in rows))


def _bland_path(dec: Decomposition, budget: int) -> WalkResult:
    """The walk of `walk`, unchecked."""
    d = dec.m - dec.n
    rows = list(dec.row_perm[:d])   # the original row of each tableau row
    basis = list(dec.row_perm[d:])  # the original row at each position
    Rz = [list(row) for row in dec.Rz]
    r = list(dec.r)
    D = dec.D
    pivots = 0
    while True:
        violated = sorted((rows[k], k) for k in range(d) if r[k] < 0)
        if not violated:
            return WalkResult(NONEMPTY, pivots, tuple(basis), None, None,
                              _vertex(dec, basis))
        for orig, k in violated:
            if max(Rz[k]) <= 0:
                y = [0] * dec.m
                y[orig] = D
                for x, row in zip(Rz[k], basis):
                    y[row] = -x
                return WalkResult(EMPTY, pivots, tuple(basis), orig,
                                  Vector(dec.m, tuple(y)), None)
        if pivots == budget:
            return WalkResult(BUDGET_SPENT, pivots, tuple(basis), None, None,
                              None)
        i = violated[0][1]
        Ri, ri = Rz[i], r[i]
        l = min((l for l, x in enumerate(Ri) if x > 0),
                key=basis.__getitem__)
        p = Ri[l]
        for k, Rk in enumerate(Rz):
            f = Rk[l]
            if k == i or not f and p == D:
                continue
            Rz[k] = [(p * a - f * c) // D for a, c in zip(Rk, Ri)]
            Rz[k][l] = f
            r[k] = (p * r[k] - f * ri) // D
        Rz[i] = [-x for x in Ri]
        Rz[i][l] = D
        r[i] = -ri
        rows[i], basis[l] = basis[l], rows[i]
        D = p
        pivots += 1


def walk(dec: Decomposition, budget: int = PIVOT_BUDGET) -> WalkResult:
    """Bland's walk from the basis of `dec` (see the module docstring):
    Empty with an integer Farkas vector, NONEMPTY with a point, or
    BUDGET_SPENT after `budget` pivots with neither.  Each answer is
    checked exactly against the system first; one that fails raises
    SoundnessViolation.  A negative budget raises ValueError."""
    if budget < 0:
        raise ValueError(f"pivot budget must be >= 0, got {budget}")
    res = _bland_path(dec, budget)
    if res.status == EMPTY:
        ok = validate_certificate(dec.A, dec.b, res.y)
    elif res.status == NONEMPTY:
        ok = validate_witness(dec.A, dec.b, res.witness)
    else:
        return res
    if not ok:
        raise SoundnessViolation(
            f"walk answer {res.status} after {res.pivots} pivots fails the "
            f"exact check")
    return res
