"""Pin `check --json` on fixed generated corpora.

Every instance runs in three configurations; a sha256 over (exit code,
report bytes) must match the recorded value, and the per-configuration
tallies say what moved when it does not.  Refactors of the arithmetic
or the test enumeration must keep all of it identical.

The first corpus is all-integer, in the default `ineq` form.  The second
mixes integers, fractions `p/q` and decimals in both A and b, in all
three input forms, so denominator clearing and the sign-split, orthant
and equality embeddings are pinned too.

The text corpus pins the human-readable output of `check` and both
renderings of `oracle` the same way, on rational instances in all three
forms with some all-zero rows, so the presolve outcomes (`EarlyEmpty`,
`TriviallyNonEmpty`) are rendered too.
"""
import hashlib
import io
import json
import random
from fractions import Fraction

from hollowcheck.cli import run
from hollowcheck.harness import GenSpec, gen_random_system

SHAPES = ((10, 2), (12, 3), (14, 3))
SEEDS = range(10)
CONFIGS = {
    "default": [],
    "theorem": ["--mode", "theorem"],
    "stated_order": ["--stated-order"],
}

# recorded when this test was added; a refactor must reproduce them exactly
EXPECTED_DIGEST = \
    "86ab30f97c6723be415ce5283bead3b129dc566a41fb54f6802bfffc6b26c6a0"
EXPECTED_TALLIES = {
    "default": {"empty": 27, "tests_run": 690},
    "theorem": {"empty": 27, "tests_run": 1254},
    "stated_order": {"empty": 27, "tests_run": 609},
}

# (form, raw m, raw n); ("ineq", 2, 3) has m <= n, so it is sign-split
RATIONAL_SHAPES = (("ineq", 8, 2), ("ineq", 10, 3), ("ineq", 2, 3),
                   ("ineq-nonneg", 6, 2), ("ineq-nonneg", 8, 3),
                   ("eq-nonneg", 2, 3), ("eq-nonneg", 3, 3))
RATIONAL_SEEDS = range(6)
EXPECTED_RATIONAL_DIGEST = \
    "b083024813f606f27e2ebd92a0ada8453332bdc40082e405007bb7bff9a3f1ca"
EXPECTED_RATIONAL_TALLIES = {
    "default": {"empty": 24, "tests_run": 851},
    "theorem": {"empty": 24, "tests_run": 1389},
    "stated_order": {"empty": 24, "tests_run": 817},
}


TEXT_CONFIGS = {
    "check": ["check"],
    "check_oracle": ["check", "--oracle-check"],
    "check_theorem": ["check", "--mode", "theorem"],
    "oracle": ["oracle"],
    "oracle_json": ["oracle", "--json"],
}
TEXT_SEEDS = range(3)
# every form with only redundant zero rows: the whole space, or the orthant
TRIVIAL_TEXT = "2 2\n0 0 0\n0 0 0\n"
# re-recorded when the nonnegative forms' trivial case began to name the
# orthant instead of the whole space (6 `check` outputs changed)
EXPECTED_TEXT_DIGEST = \
    "3628b1d36e1bbc804969f1acf6ac963fd4d7a46dade76400fa8f7ee99d0fad7d"
# configuration -> [runs exiting 0, runs exiting 1]
EXPECTED_TEXT_EXITS = {
    "check": [15, 30],
    "check_oracle": [15, 30],
    "check_theorem": [15, 30],
    "oracle": [10, 35],
    "oracle_json": [10, 35],
}


def instance_text(sys) -> str:
    lines = [f"{sys.m} {sys.n}"]
    for i in range(sys.m):
        lines.append(" ".join([str(sys.A.at(i, j)) for j in range(sys.n)]
                              + [str(sys.b[i])]))
    return "\n".join(lines) + "\n"


def rational_token(rng: random.Random) -> str:
    """An integer, a fraction p/q or a decimal, about a third each."""
    kind = rng.randrange(3)
    if kind == 0:
        return str(rng.randint(-5, 5))
    if kind == 1:
        return str(Fraction(rng.randint(-9, 9), rng.randint(2, 6)))
    return f"{rng.randint(-500, 500) / 100:.2f}"


def rational_text(seed: int, m: int, n: int, zero_frac: float = 0.0) -> str:
    """Rational rows; with `zero_frac`, that share of rows has A-part 0."""
    rng = random.Random(seed)
    rows = []
    for _ in range(m):
        if zero_frac and rng.random() < zero_frac:
            rows.append(" ".join(["0"] * n + [rational_token(rng)]))
        else:
            rows.append(" ".join(rational_token(rng) for _ in range(n + 1)))
    return "\n".join([f"{m} {n}"] + rows) + "\n"


def run_corpus(paths_and_flags):
    """(sha256 hex digest, tallies) over every instance and configuration."""
    digest = hashlib.sha256()
    tallies = {name: {"empty": 0, "tests_run": 0} for name in CONFIGS}
    for path, form_flags in paths_and_flags:
        for name, flags in CONFIGS.items():
            buf = io.StringIO()
            code = run(["check", str(path), "--json"] + form_flags + flags,
                       out=buf)
            digest.update(f"{code}\n{buf.getvalue()}".encode())
            report = json.loads(buf.getvalue())
            tallies[name]["empty"] += report["verdict"] == "EMPTY"
            tallies[name]["tests_run"] += report["tests_run"]
    return digest.hexdigest(), tallies


def test_pinned_corpus(tmp_path):
    corpus = []
    for m, n in SHAPES:
        for seed in SEEDS:
            path = tmp_path / f"m{m}n{n}s{seed}.txt"
            path.write_text(instance_text(gen_random_system(GenSpec(seed, m, n))))
            corpus.append((path, []))
    digest, tallies = run_corpus(corpus)
    assert tallies == EXPECTED_TALLIES
    assert digest == EXPECTED_DIGEST


def test_pinned_rational_corpus(tmp_path):
    corpus = []
    for form, m, n in RATIONAL_SHAPES:
        for seed in RATIONAL_SEEDS:
            path = tmp_path / f"{form}m{m}n{n}s{seed}.txt"
            path.write_text(rational_text(seed, m, n))
            corpus.append((path, ["--form", form]))
    digest, tallies = run_corpus(corpus)
    assert tallies == EXPECTED_RATIONAL_TALLIES
    assert digest == EXPECTED_RATIONAL_DIGEST


def test_pinned_text_corpus(tmp_path):
    corpus = []
    for form, m, n in RATIONAL_SHAPES:
        for seed in TEXT_SEEDS:
            for zero_frac in (0.0, 0.3):
                path = tmp_path / f"{form}m{m}n{n}s{seed}z{zero_frac}.txt"
                path.write_text(rational_text(seed, m, n, zero_frac))
                corpus.append((path, form))
    for form in ("ineq", "ineq-nonneg", "eq-nonneg"):
        path = tmp_path / f"trivial-{form}.txt"
        path.write_text(TRIVIAL_TEXT)
        corpus.append((path, form))
    digest = hashlib.sha256()
    exits = {name: [0, 0] for name in TEXT_CONFIGS}
    for path, form in corpus:
        for name, cmd in TEXT_CONFIGS.items():
            buf = io.StringIO()
            code = run(cmd[:1] + [str(path), "--form", form] + cmd[1:],
                       out=buf)
            digest.update(f"{code}\n{buf.getvalue()}".encode())
            exits[name][code] += 1
    assert exits == EXPECTED_TEXT_EXITS
    assert digest.hexdigest() == EXPECTED_TEXT_DIGEST
