"""Frozen copies of the battery's scans and of the Bareiss elimination, as
they read before the scans were split by sign: the reference that
`test_emptiness.TestFrozenScans` checks the package's versions against.
Change nothing here to make a test pass; a difference is a finding.
"""
from operator import mul

from hollowcheck.densemat import Matrix, denominator_lcm, lowest_terms
from hollowcheck.emptiness import _pair_w


def int_scaled(xs) -> tuple:
    if all(type(x) is int for x in xs):
        return tuple(xs)
    scale = denominator_lcm(xs)
    return tuple(x.numerator * (scale // x.denominator) for x in xs)


def eliminate(M: Matrix):
    rows = [list(int_scaled(row)) for row in M.entries]
    piv_cols = []
    prev = 1
    for c in range(M.cols):
        r = len(piv_cols)
        if r == M.rows:
            break
        p = next((i for i in range(r, M.rows) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            # a row with f = 0 still takes the factor pv / prev
            if i == r or not f and pv == prev:
                continue
            rows[i] = [(pv * a - f * b) // prev for a, b in zip(row, prow)]
        piv_cols.append(c)
        prev = pv
    return rows, piv_cols, prev


def scan_pairs(dec) -> tuple:
    r, Rz = dec.r, dec.Rz
    d = len(r)
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


def scan_kernel(dec) -> tuple:
    d = dec.m - dec.n
    E, pc, det = eliminate(Matrix(dec.n, d, tuple(zip(*dec.Rz))))
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
            return count, ((idx, 1), *lowest_terms(w, det))
    return count, None


def scan_complement(dec, v: tuple) -> tuple:
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
        if c < 0 or any(a * x + c * y > 0 for x, y in zip(dec.Rz[f], Rp)):
            continue        # a head of mixed signs, or a tail off the cone
        count += 1
        if a * r[f] + c * rp < 0:
            w = [0] * d
            w[p], w[f] = c, a
            return count, ((idx, 1), *lowest_terms(w, a))
    return count, None
