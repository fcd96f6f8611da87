"""Seeded instance generation for the benchmark, independent of the package.

Two modes write files in the CLI's instance format:

  mixed     random integer A and b, entries and b in [-5, 5]
  feasible  random A, then x0 in [-3, 3]^n and s in [0, 3]^m, b = A x0 + s

Both reject a draw with a zero row or with rank(A) < n.  A feasible file
records its x0 on a comment line ("# x0: ..."), which the CLI ignores and
the output check reads back.  Instance `index` of a run depends only on
(mode, seed, index), so the same seed gives byte-identical files.
"""
from __future__ import annotations

import random
from fractions import Fraction

MIXED = "mixed"
FEASIBLE = "feasible"

MIXED_SHAPES = ((10, 2), (11, 2), (12, 3), (13, 3))
FEASIBLE_SHAPES = ((12, 3), (13, 3), (14, 3))
AGREEMENT_SHAPES = ((8, 2), (9, 2), (10, 2))

ENTRY_RANGE = 5
B_RANGE = 5
X0_RANGE = 3
SLACK_MAX = 3
MAX_REJECTS = 1000


def exact_rank(rows) -> int:
    """Rank by Gaussian elimination over Fraction."""
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        p = work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / p[c]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], p)]
        rank += 1
    return rank


def _rng(mode: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{mode}:{seed}:{index}")


def _draw_matrix(rng: random.Random, m: int, n: int) -> list:
    for _ in range(MAX_REJECTS):
        rows = [[rng.randint(-ENTRY_RANGE, ENTRY_RANGE) for _ in range(n)]
                for _ in range(m)]
        if any(all(x == 0 for x in r) for r in rows):
            continue
        if exact_rank(rows) == n:
            return rows
    raise RuntimeError(f"no admissible {m}x{n} matrix after {MAX_REJECTS} draws")


def make_instance(mode: str, seed: int, index: int, shape=None) -> dict:
    """Rows of A, bounds b and (feasible mode) the point x0.

    The shape cycles through the mode's list unless `shape` fixes it.
    """
    shapes = MIXED_SHAPES if mode == MIXED else FEASIBLE_SHAPES
    m, n = shape or shapes[index % len(shapes)]
    rng = _rng(mode, seed, index)
    rows = _draw_matrix(rng, m, n)
    if mode == MIXED:
        b = [rng.randint(-B_RANGE, B_RANGE) for _ in range(m)]
        return {"rows": rows, "b": b, "x0": None}
    if mode != FEASIBLE:
        raise ValueError(f"unknown mode {mode!r}")
    x0 = [rng.randint(-X0_RANGE, X0_RANGE) for _ in range(n)]
    s = [rng.randint(0, SLACK_MAX) for _ in range(m)]
    b = [sum(a * x for a, x in zip(r, x0)) + si for r, si in zip(rows, s)]
    return {"rows": rows, "b": b, "x0": x0}


def instance_text(inst: dict, label: str) -> str:
    rows, b = inst["rows"], inst["b"]
    lines = [f"# benchmark instance {label}"]
    if inst["x0"] is not None:
        lines.append("# x0: " + " ".join(str(x) for x in inst["x0"]))
    lines.append(f"{len(rows)} {len(rows[0])}")
    for r, bi in zip(rows, b):
        lines.append(" ".join(str(x) for x in r) + " " + str(bi))
    return "\n".join(lines) + "\n"


def write_instance(path: str, mode: str, seed: int, index: int) -> None:
    text = instance_text(make_instance(mode, seed, index),
                         f"{mode} seed={seed} index={index}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_instance(path: str) -> dict:
    """Parse a benchmark instance file exactly: rows, b and x0 as Fractions."""
    x0 = None
    data = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("# x0:"):
                x0 = [Fraction(t) for t in line[len("# x0:"):].split()]
                continue
            line = line.split("#", 1)[0].strip()
            if line:
                data.append(line.split())
    m, n = int(data[0][0]), int(data[0][1])
    body = data[1:]
    if len(body) != m or any(len(r) != n + 1 for r in body):
        raise ValueError(f"{path}: malformed {m}x{n} instance")
    rows = [[Fraction(t) for t in r[:n]] for r in body]
    b = [Fraction(r[n]) for r in body]
    return {"rows": rows, "b": b, "x0": x0}


def agreement_spec_args(seed: int, index: int) -> dict:
    """Keyword arguments of the harness GenSpec for agreement operation `index`."""
    m, n = AGREEMENT_SHAPES[index % len(AGREEMENT_SHAPES)]
    spec_seed = _rng("agreement", seed, index).randrange(2 ** 31)
    return {"seed": spec_seed, "m": m, "n": n,
            "entry_range": ENTRY_RANGE, "b_range": B_RANGE}
