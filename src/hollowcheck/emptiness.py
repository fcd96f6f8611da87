"""The algebraic emptiness test.

Pipeline: split A into (A1; A2) with A2 invertible, read R = A1 A2^-1
off the elimination of t(A) that picks A2, form G = [I | -R], then test
whether 0 lies in {t(k')G a : a <= b} for each vector k' of a finite
family (canonical basis, left kernel of R, orthogonal complements of b1
and R b2, and the pairwise elimination vectors).  The verdict for k'
reads only the signs of z = t(k')G and of t(z)b, which a positive
scaling of z or b leaves alone, so the battery runs in Python ints:
`decompose` reads Rz = D R (D > 0 the lcm of R's denominators) off the
integer rows of `densemat.eliminate` and keeps bz, a positive integer
multiple of b; a kernel or complement basis vector comes as an int pair
(w, s), and gives z = [D w | -w Rz] and s D.  `family_tests` yields each
candidate once (once per +-v, as t(-v)G = -t(v)G) as (family, params,
z, s), with z = s t(k')G exactly.  The filter and the test read z.
Fraction is left to the certificate: as G = [I | -R], the first failing
test has k' = z[:m-n]/s and t(k')G = z/s, and the interval and the
Farkas vector +-z/s come from it.  decide checks that vector exactly
before it returns Empty, so the Empty verdict is unconditionally sound;
the converse rests on the enumeration being sufficient and is only
measured (see harness).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, Optional

from .densemat import (Matrix, Vector, eliminate, int_scaled,
                       left_nullspace_basis, lowest_terms,
                       orth_complement_basis)
# unused here, but bench/tracer.py patches them by these names in this module
from .densemat import invert, mat_mul, vec_mat  # noqa: F401
from .interval import Interval, iv_dot
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


class NoInvertibleSubmatrix(Exception):
    """No n independent rows found; upstream rank check must be broken."""


class SoundnessViolation(AssertionError):
    """A verdict failed an exact soundness check: a build-stopping bug."""


@dataclass(frozen=True)
class Decomposition:
    row_perm: tuple      # permuted position -> original row index
    A: Matrix            # the system's A, in original row order
    b_perm: Vector       # (b1; b2)
    D: int               # lcm of the denominators of R = A1 A2^-1
    Rz: tuple            # D R, one tuple of ints per row
    bz: tuple            # a positive integer multiple of b_perm

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


@dataclass(frozen=True)
class Certificate:
    family: str
    params: tuple
    kprime: Vector
    interval: Interval
    farkas_y: Vector     # original row order; y >= 0, t(y)A = 0, t(y)b < 0

    def label(self) -> str:
        return f"{self.family}{list(self.params)}"


@dataclass(frozen=True)
class EmptinessReport:
    verdict: str                         # "EMPTY" | "NOT_PROVEN_EMPTY"
    certificate: Optional[Certificate]
    tests_run: int
    family_counts: dict
    mode: str

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
    A, b = sys.A, sys.b
    m, n = A.rows, A.cols
    # the pivot columns of t(A) are the first n independent rows of A
    basis_rows, selected, d = eliminate(A.transpose())
    if len(selected) < n:
        raise NoInvertibleSubmatrix(
            f"only {len(selected)} independent rows in a rank-{n} system")
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


def _signed_filtered(basis, family, dec, mode) -> Iterator[tuple]:
    for idx, (w, s) in enumerate(basis):
        # k' = w / s, so s D t(k')G = [D w | -w Rz]
        z = (tuple(x * dec.D for x in w)
             + tuple(-sum(map(mul, w, col)) for col in zip(*dec.Rz)))
        s *= dec.D
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
    k' = z[:m-n] / s.  The bases are read off Rz and bz: a positive
    scaling changes neither an RREF nor the bases built from it.
    Raises ValueError for a mode or a family it does not know.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not set(order) <= set(DEFAULT_ORDER):
        raise ValueError(f"unknown family in {order}; expected families "
                         f"from {DEFAULT_ORDER}")
    d = dec.m - dec.n
    Rz, D = dec.Rz, dec.D
    for family in order:
        if family == FAMILY_CANONICAL:
            for i in range(d):
                # D t(e_i)G = [D e_i | -Rz_i]
                z = ((0,) * i + (D,) + (0,) * (d - 1 - i)
                     + tuple(-x for x in Rz[i]))
                yield FAMILY_CANONICAL, (i + 1,), z, D
        elif family == FAMILY_KERNEL:
            Rz_mat = Matrix(d, dec.n, tuple(x for row in Rz for x in row))
            yield from _signed_filtered(left_nullspace_basis(Rz_mat),
                                        FAMILY_KERNEL, dec, mode)
        elif family == FAMILY_B1_PERP:
            # bz = L (b1; b2), L > 0
            b1z = Vector(d, dec.bz[:d])
            yield from _signed_filtered(orth_complement_basis(b1z),
                                        FAMILY_B1_PERP, dec, mode)
        elif family == FAMILY_RB2_PERP:
            rb2z = Vector(d, tuple(sum(map(mul, row, dec.bz[d:]))
                                   for row in Rz))
            yield from _signed_filtered(orth_complement_basis(rb2z),
                                        FAMILY_RB2_PERP, dec, mode)
        elif family == FAMILY_PAIR:
            for j in range(dec.n):
                for i in range(d - 1):
                    for i2 in range(i + 1, d):
                        # k' = -r_i'j e_i + r_ij e_i' kills column j of R;
                        # D^2 t(k')G = [-a D e_i + c D e_i' | a Rz_i - c Rz_i']
                        a, c = Rz[i2][j], Rz[i][j]
                        head = [0] * d
                        head[i], head[i2] = -a * D, c * D
                        z = tuple(head) + tuple(a * x - c * y for x, y
                                                in zip(Rz[i], Rz[i2]))
                        yield FAMILY_PAIR, (j + 1, i + 1, i2 + 1), z, D * D


def run_test(z: tuple, dec: Decomposition) -> bool:
    """Whether 0 lies in {t(z) a : a <= b_perm}, for z a positive multiple
    of t(k')G: read off the signs of z and of t(z) bz, as in `iv_dot`."""
    nonneg = min(z) >= 0
    if not (nonneg or max(z) <= 0):
        return True
    zb = sum(map(mul, z, dec.bz))
    return zb >= 0 if nonneg else zb <= 0


def farkas_from(z: Vector, dec: Decomposition) -> Vector:
    """Farkas vector +-z, for z the exact t(k')G of a failing test, in
    original row order.

    A failing z has a single sign; were it mixed, y would have a negative
    entry and decide's exact check would reject it.
    """
    y_perm = z if all(e >= 0 for e in z.entries) else z.neg()
    ents = [None] * dec.m
    for p, orig in enumerate(dec.row_perm):
        ents[orig] = y_perm[p]
    return Vector(dec.m, tuple(ents))


def decide(sys: StandardSystem, mode: str = MODE_ALGORITHM,
           stated_order: bool = False) -> EmptinessReport:
    """Run the full test battery; Empty at the first failing test vector.

    The Farkas vector is checked exactly against sys before Empty is
    returned; a vector that fails raises SoundnessViolation.
    """
    dec = decompose(sys)
    order = STATED_ORDER if stated_order else DEFAULT_ORDER
    counts = {f: 0 for f in order}
    tests_run = 0
    for family, params, z, s in family_tests(dec, mode, order):
        tests_run += 1
        counts[family] += 1
        if not run_test(z, dec):
            # G = [I | -R]: t(k')G = z / s begins with k'
            exact = Vector(dec.m, tuple(Fraction(x, s) for x in z))
            kprime = Vector(dec.m - dec.n, exact.entries[:dec.m - dec.n])
            cert = Certificate(family, params, kprime,
                               iv_dot(exact, dec.b_perm),
                               farkas_from(exact, dec))
            if not validate_certificate(sys.A, sys.b, cert.farkas_y):
                raise SoundnessViolation(
                    f"Farkas vector from test {cert.label()} fails the exact check")
            return EmptinessReport(EMPTY, cert, tests_run, counts, mode)
    return EmptinessReport(NOT_PROVEN_EMPTY, None, tests_run, counts, mode)
