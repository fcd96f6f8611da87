"""The algebraic emptiness test.

Pipeline: split A into (A1; A2) with A2 invertible, form R = A1 A2^-1 and
G = [I | -R], then test whether 0 lies in {t(k')G a : a <= b} for each
vector k' of a finite family (canonical basis, left kernel of R,
orthogonal complements of b1 and R b2, and the pairwise elimination
vectors).  The verdict for k' reads only the signs of z = t(k')G and of
t(z)b, which a positive scaling of z or b leaves alone, so the battery
runs in Python ints: `decompose` keeps Rz = D R (D > 0 the lcm of R's
denominators) and bz, a positive integer multiple of b, and
`family_tests` yields each candidate once (once per +-v, as t(-v)G =
-t(v)G) with an integer z, a positive multiple of t(k')G built from rows
of Rz.  The algorithm-mode filter and the test read that z.  Fraction
products are left to the certificate: at the first failing test, `image`
rebuilds the exact t(k')G = [k' | -t(k')R], and the interval and the
Farkas vector +-z come from it.  decide checks that vector exactly before
it returns Empty, so the Empty verdict is unconditionally sound; the
converse rests on the enumeration being sufficient and is only measured
(see harness).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, Optional

from .densemat import (Matrix, Vector, invert, left_nullspace_basis, mat_mul,
                       mat_vec, orth_complement_basis, rref, vec_mat)
from .interval import Interval, iv_dot
from .oracle import validate_certificate
from .standardize import StandardSystem

MODE_ALGORITHM = "algorithm"
MODE_THEOREM = "theorem"

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
    A1: Matrix
    A2: Matrix
    R: Matrix            # A1 A2^-1
    b1: Vector
    b2: Vector
    b_perm: Vector       # (b1; b2)
    D: int               # lcm of R's denominators
    Rz: tuple            # D R, one tuple of ints per row
    bz: tuple            # a positive integer multiple of b_perm

    @property
    def m(self) -> int:
        return self.A1.rows + self.A2.rows

    @property
    def n(self) -> int:
        return self.A2.rows

    def permuted_A(self) -> Matrix:
        return self.A1.vstack(self.A2)


@dataclass(frozen=True)
class TestVector:
    __test__ = False  # not a pytest class despite the name

    kprime: Vector
    family: str
    params: tuple = ()

    def label(self) -> str:
        if self.params:
            return f"{self.family}{list(self.params)}"
        return self.family


@dataclass(frozen=True)
class Certificate:
    test: TestVector
    interval: Interval
    farkas_y: Vector     # original row order; y >= 0, t(y)A = 0, t(y)b < 0


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
    _, selected = rref(A.transpose())
    if len(selected) < n:
        raise NoInvertibleSubmatrix(
            f"only {len(selected)} independent rows in a rank-{n} system")
    sel = set(selected)
    unselected = [i for i in range(m) if i not in sel]
    perm = tuple(unselected + selected)
    rowlists = A.row_lists()
    A1 = Matrix.from_rows([rowlists[i] for i in unselected])
    A2 = Matrix.from_rows([rowlists[i] for i in selected])
    R = mat_mul(A1, invert(A2))
    b1 = Vector.from_list([b[i] for i in unselected])
    b2 = Vector.from_list([b[i] for i in selected])
    b_perm = Vector(m, b1.entries + b2.entries)
    # for integer A, D divides |det A2|: Rz is no larger than A1 adj(A2)
    D = _lcm_denominators(R.entries)
    Rz = tuple(_scaled_ints(R.entries[i * n:(i + 1) * n], D)
               for i in range(m - n))
    bz = _scaled_ints(b_perm.entries, _lcm_denominators(b_perm.entries))
    return Decomposition(perm, A1, A2, R, b1, b2, b_perm, D, Rz, bz)


def _lcm_denominators(xs) -> int:
    return math.lcm(*(x.denominator for x in xs))


def _scaled_ints(xs, scale: int) -> tuple:
    """The Fractions xs times scale, a multiple of each denominator."""
    return tuple(x.numerator * (scale // x.denominator) for x in xs)


def build_U(dec: Decomposition) -> Matrix:
    """The m x m matrix [[I, -R], [0, 0]]; G = [I | -R] is its top block."""
    G = Matrix.identity(dec.m - dec.n).hstack(dec.R.neg())
    return G.vstack(Matrix.zeros(dec.n, dec.m))


def image(k: Vector, dec: Decomposition) -> Vector:
    """The exact t(k) G = [k | -t(k) R], for the certificate only."""
    return Vector(dec.m, k.entries
                  + tuple(-e for e in vec_mat(k, dec.R).entries))


def in_cone_G(z: tuple) -> bool:
    """True iff z, a positive multiple of t(k) G, has every component >= 0."""
    return min(z) >= 0


def _scaled_image(v: Vector, dec: Decomposition) -> tuple:
    """(L D) t(v) G in ints, with L the lcm of v's denominators."""
    vz = _scaled_ints(v.entries, _lcm_denominators(v.entries))
    return (tuple(x * dec.D for x in vz)
            + tuple(-sum(map(mul, vz, col)) for col in zip(*dec.Rz)))


def _signed_filtered(basis, family, dec, mode) -> Iterator[tuple]:
    for idx, v in enumerate(basis):
        z = _scaled_image(v, dec)
        candidates = [(v, z, 1)]
        if not v.is_zero():
            candidates.append((v.neg(), tuple(-e for e in z), -1))
        for vec, zs, sign in candidates:
            if mode == MODE_ALGORITHM and not in_cone_G(zs):
                continue
            yield TestVector(vec, family, (idx, sign)), zs


def family_tests(dec: Decomposition, mode: str = MODE_ALGORITHM,
                 order: tuple = DEFAULT_ORDER) -> Iterator[tuple]:
    """Deterministic enumeration of (test vector, z), family by family.

    z is a tuple of ints, a positive multiple of t(k')G.
    """
    d = dec.m - dec.n
    Rz, D = dec.Rz, dec.D
    for family in order:
        if family == FAMILY_CANONICAL:
            for i in range(d):
                # D t(e_i)G = [D e_i | -Rz_i]
                z = ((0,) * i + (D,) + (0,) * (d - 1 - i)
                     + tuple(-x for x in Rz[i]))
                yield TestVector(Vector.unit(d, i), FAMILY_CANONICAL,
                                 (i + 1,)), z
        elif family == FAMILY_KERNEL:
            yield from _signed_filtered(left_nullspace_basis(dec.R),
                                        FAMILY_KERNEL, dec, mode)
        elif family == FAMILY_B1_PERP:
            yield from _signed_filtered(orth_complement_basis(dec.b1),
                                        FAMILY_B1_PERP, dec, mode)
        elif family == FAMILY_RB2_PERP:
            rb2 = mat_vec(dec.R, dec.b2)
            yield from _signed_filtered(orth_complement_basis(rb2),
                                        FAMILY_RB2_PERP, dec, mode)
        elif family == FAMILY_PAIR:
            for j in range(dec.n):
                for i in range(d - 1):
                    for i2 in range(i + 1, d):
                        ents = [Fraction(0)] * d
                        ents[i] = -dec.R.at(i2, j)
                        ents[i2] = dec.R.at(i, j)
                        k = Vector(d, tuple(ents))
                        # D^2 t(k)G = [-a D e_i + c D e_i' | a Rz_i - c Rz_i']
                        a, c = Rz[i2][j], Rz[i][j]
                        head = [0] * d
                        head[i], head[i2] = -a * D, c * D
                        z = tuple(head) + tuple(a * x - c * y for x, y
                                                in zip(Rz[i], Rz[i2]))
                        yield (TestVector(k, FAMILY_PAIR, (j + 1, i + 1, i2 + 1)),
                               z)


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
    for tv, z in family_tests(dec, mode, order):
        tests_run += 1
        counts[tv.family] += 1
        if not run_test(z, dec):
            exact = image(tv.kprime, dec)
            y = farkas_from(exact, dec)
            if not validate_certificate(sys.A, sys.b, y):
                raise SoundnessViolation(
                    f"Farkas vector from test {tv.label()} fails the exact check")
            cert = Certificate(tv, iv_dot(exact, dec.b_perm), y)
            return EmptinessReport(EMPTY, cert, tests_run, counts, mode)
    return EmptinessReport(NOT_PROVEN_EMPTY, None, tests_run, counts, mode)
