"""Pin `check --json` on fixed generated corpora.

Every instance runs in three configurations; a sha256 over (exit code,
report bytes) must match the recorded value, and the per-configuration
tallies say what moved when it does not.  Refactors of the arithmetic
or the test enumeration must keep all of it identical.

The first corpus is all-integer, in the default `ineq` form.  The second
mixes integers, fractions `p/q` and decimals in both A and b, in all
three input forms, so denominator clearing, the full-row-rank outcome of
the column projection and the orthant and equality embeddings are pinned
too.

The text corpus pins the human-readable output of `check` and both
renderings of `oracle` the same way, on rational instances in all three
forms with some all-zero rows, so the presolve outcomes (`EarlyEmpty`,
`TriviallyNonEmpty`) are rendered too.

The rank-deficient corpus pins the same renderings on `ineq` systems
with m > n whose rows are multiples of fewer than n base rows, some of
them zero: A fails full column rank, so `standardize` projects it onto
a column basis, and each `farkas_y` has one entry per file row.

Every `ineq` file of these corpora is also checked exactly against its
own rows by the benchmark's report check, `bench/verify.check_report`.

The feasible corpus holds integer `ineq` files at the benchmark's
`check-feasible` shapes, feasible by construction: `check` runs every
family to the end on each of them, so the kernel and complement scans are
pinned with their per-family tallies, which the mostly-EMPTY corpora above
reach less often.

The parser reads an integer token as an int and any other numeral as a
Fraction.  Writing each integer token k as k/1 moves a file from the
first path to the second, and must change no byte and no exit code of
`check`, `check --json`, `check --oracle-check --json` or `oracle --json`:
on every file of these corpora, and on Hypothesis files with zero rows,
rank deficiency and p/q tokens in all three forms.
"""
import hashlib
import importlib.util
import io
import json
import random
import re
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

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
FEASIBLE_SHAPES = ((12, 3), (13, 3), (14, 3))
# recorded when this corpus was added; every file is NOT_PROVEN_EMPTY
EXPECTED_FEASIBLE_DIGEST = \
    "f0333875f0903deada1055becd61c361535bd545ef2c3a8fd14d0f4d52ac0bc6"
# configuration -> family -> tests run, summed over the corpus
EXPECTED_FEASIBLE_FAMILIES = {
    "default": {"b1_perp": 7, "canonical": 300, "kernel": 34, "pair": 4080,
                "rb2_perp": 4},
    "theorem": {"b1_perp": 540, "canonical": 300, "kernel": 420,
                "pair": 4080, "rb2_perp": 540},
    "stated_order": {"b1_perp": 7, "canonical": 300, "kernel": 34,
                     "pair": 4080, "rb2_perp": 4},
}

# (form, raw m, raw n); ("ineq", 2, 3) has m <= n: its A has full row rank,
# so `check` reports it without running the battery
RATIONAL_SHAPES = (("ineq", 8, 2), ("ineq", 10, 3), ("ineq", 2, 3),
                   ("ineq-nonneg", 6, 2), ("ineq-nonneg", 8, 3),
                   ("eq-nonneg", 2, 3), ("eq-nonneg", 3, 3))
RATIONAL_SEEDS = range(6)
# re-recorded when rank-deficient `ineq` input was projected onto a column
# basis: the six ("ineq", 2, 3) files skip the battery (18 outputs changed)
EXPECTED_RATIONAL_DIGEST = \
    "5e63412da7e9b7b28608a1dbe3e3db4bc5307f7a53ead69c97f30c043da654ef"
EXPECTED_RATIONAL_TALLIES = {
    "default": {"empty": 24, "tests_run": 797},
    "theorem": {"empty": 24, "tests_run": 1299},
    "stated_order": {"empty": 24, "tests_run": 763},
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
# re-recorded when rank-deficient `ineq` input was projected onto a column
# basis, `farkas_y` gained a 0 at each dropped zero row and `oracle` began
# to print the trivial case's witness (31 outputs changed)
EXPECTED_TEXT_DIGEST = \
    "e33fbf85945f62c5019260ce0bd78efe96deaccca3df684f4aa154c6e3b68bab"
# configuration -> [runs exiting 0, runs exiting 1]
EXPECTED_TEXT_EXITS = {
    "check": [15, 30],
    "check_oracle": [15, 30],
    "check_theorem": [15, 30],
    "oracle": [10, 35],
    "oracle_json": [10, 35],
}


# (raw m, raw n, base rows): every nonzero row is a multiple of one of
# fewer than n base rows, so rank A < n
DEFICIENT_SHAPES = ((3, 2, 1), (4, 2, 1), (4, 3, 1), (5, 3, 2), (6, 3, 2))
DEFICIENT_SEEDS = range(6)
DEFICIENT_CONFIGS = {
    "check_json": ["check", "--json"],
    "check": ["check"],
    "check_oracle": ["check", "--oracle-check"],
    "oracle": ["oracle"],
}
# re-recorded when rank-deficient `ineq` input was projected onto a column
# basis instead of sign-split (62 outputs changed)
EXPECTED_DEFICIENT_DIGEST = \
    "e3394b4139792cd5874245269f6ce434b78fe4e18cc6c3b6929b72c577e90824"
# configuration -> [runs exiting 0, runs exiting 1]; 10 files end in presolve
EXPECTED_DEFICIENT_EXITS = {name: [4, 26] for name in DEFICIENT_CONFIGS}


def instance_text(sys) -> str:
    lines = [f"{sys.m} {sys.n}"]
    for i in range(sys.m):
        lines.append(" ".join([str(sys.A.at(i, j)) for j in range(sys.n)]
                              + [str(sys.b[i])]))
    return "\n".join(lines) + "\n"


def feasible_text(seed: int, m: int, n: int) -> str:
    """A `gen_random_system` matrix with b = A x0 + s, for x0 in [-3, 3]^n
    and s in [0, 3]^m: feasible by construction."""
    rng = random.Random(seed)
    rows = gen_random_system(GenSpec(seed, m, n)).A.row_lists()
    x0 = [rng.randint(-3, 3) for _ in range(n)]
    lines = [f"{m} {n}"]
    for row in rows:
        bi = sum(a * x for a, x in zip(row, x0)) + rng.randint(0, 3)
        lines.append(" ".join(str(x) for x in row + [bi]))
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


def deficient_text(seed: int, m: int, n: int, r: int) -> str:
    """m rows over r < n integer base rows; about a fifth are zero."""
    rng = random.Random(seed)
    base = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
    rows = []
    for _ in range(m):
        if rng.random() < 0.2:
            coeffs = ["0"] * n
        else:
            k = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
            coeffs = [str(k * x) for x in rng.choice(base)]
        rows.append(" ".join(coeffs + [rational_token(rng)]))
    return "\n".join([f"{m} {n}"] + rows) + "\n"


def run_corpus(paths_and_flags):
    """(sha256 hex digest, tallies, per-family tests run) over every
    instance and configuration."""
    digest = hashlib.sha256()
    tallies = {name: {"empty": 0, "tests_run": 0} for name in CONFIGS}
    families = {name: {} for name in CONFIGS}
    for path, form_flags in paths_and_flags:
        for name, flags in CONFIGS.items():
            buf = io.StringIO()
            code = run(["check", str(path), "--json"] + form_flags + flags,
                       out=buf)
            digest.update(f"{code}\n{buf.getvalue()}".encode())
            report = json.loads(buf.getvalue())
            tallies[name]["empty"] += report["verdict"] == "EMPTY"
            tallies[name]["tests_run"] += report["tests_run"]
            for family, run_ in report["families"].items():
                families[name][family] = families[name].get(family, 0) + run_
    return digest.hexdigest(), tallies, families


def test_pinned_corpus(tmp_path):
    corpus = []
    for m, n in SHAPES:
        for seed in SEEDS:
            path = tmp_path / f"m{m}n{n}s{seed}.txt"
            path.write_text(instance_text(gen_random_system(GenSpec(seed, m, n))))
            corpus.append((path, []))
    digest, tallies, _ = run_corpus(corpus)
    assert tallies == EXPECTED_TALLIES
    assert digest == EXPECTED_DIGEST


def test_pinned_rational_corpus(tmp_path):
    corpus = []
    for form, m, n in RATIONAL_SHAPES:
        for seed in RATIONAL_SEEDS:
            path = tmp_path / f"{form}m{m}n{n}s{seed}.txt"
            path.write_text(rational_text(seed, m, n))
            corpus.append((path, ["--form", form]))
    digest, tallies, _ = run_corpus(corpus)
    assert tallies == EXPECTED_RATIONAL_TALLIES
    assert digest == EXPECTED_RATIONAL_DIGEST


def test_pinned_feasible_corpus(tmp_path):
    corpus = []
    for m, n in FEASIBLE_SHAPES:
        for seed in SEEDS:
            path = tmp_path / f"feasible-m{m}n{n}s{seed}.txt"
            path.write_text(feasible_text(seed, m, n))
            corpus.append((path, []))
    digest, tallies, families = run_corpus(corpus)
    assert all(t["empty"] == 0 for t in tallies.values())
    assert families == EXPECTED_FEASIBLE_FAMILIES
    assert digest == EXPECTED_FEASIBLE_DIGEST


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


def test_pinned_rank_deficient_corpus(tmp_path):
    digest = hashlib.sha256()
    exits = {name: [0, 0] for name in DEFICIENT_CONFIGS}
    for m, n, r in DEFICIENT_SHAPES:
        for seed in DEFICIENT_SEEDS:
            path = tmp_path / f"m{m}n{n}r{r}s{seed}.txt"
            path.write_text(deficient_text(seed, m, n, r))
            for name, cmd in DEFICIENT_CONFIGS.items():
                buf = io.StringIO()
                code = run(cmd[:1] + [str(path)] + cmd[1:], out=buf)
                digest.update(f"{code}\n{buf.getvalue()}".encode())
                exits[name][code] += 1
    assert exits == EXPECTED_DEFICIENT_EXITS
    assert digest.hexdigest() == EXPECTED_DEFICIENT_DIGEST


def bench_module(name: str):
    """bench/<name>.py, loaded by path: bench/ is not a package."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ineq_reports_check_against_the_file(tmp_path):
    verify = bench_module("verify")
    instances = bench_module("instances")
    draws = ([(seed, 0.0) for seed in RATIONAL_SEEDS]
             + [(seed, 0.3) for seed in TEXT_SEEDS])
    texts = {rational_text(seed, m, n, zero_frac)
             for form, m, n in RATIONAL_SHAPES if form == "ineq"
             for seed, zero_frac in draws}
    texts |= {deficient_text(seed, *shape)
              for shape in DEFICIENT_SHAPES for seed in DEFICIENT_SEEDS}
    texts.add(TRIVIAL_TEXT)
    verdicts = {"EMPTY": 0, "NOT_PROVEN_EMPTY": 0}
    for i, text in enumerate(sorted(texts)):
        path = tmp_path / f"f{i}.txt"
        path.write_text(text)
        buf = io.StringIO()
        code = run(["check", str(path), "--json"], out=buf)
        report = json.loads(buf.getvalue())
        inst = instances.read_instance(str(path))
        assert verify.check_report(inst, code, report, False) == [], text
        verdicts[report["verdict"]] += 1
    assert verdicts == {"EMPTY": 43, "NOT_PROVEN_EMPTY": 15}


CHECK_COMMANDS = (["check"], ["check", "--json"])
ORACLE_COMMANDS = (["check", "--oracle-check", "--json"], ["oracle", "--json"])
INTEGER_TOKEN = re.compile(r"[+-]?[0-9]+")


def fraction_tokens(text: str) -> str:
    """`text` with each integer token k of a data row written k/1; the
    header keeps its ints."""
    lines, seen_header = [], False
    for line in text.splitlines():
        body, sep, comment = line.partition("#")
        if seen_header and body.strip():
            body = " ".join(tok + "/1" if INTEGER_TOKEN.fullmatch(tok) else tok
                            for tok in body.split())
        seen_header = seen_header or bool(body.strip())
        lines.append(body + sep + comment)
    return "\n".join(lines) + "\n"


def assert_token_paths_agree(text: str, form: str, directory: Path,
                             commands=CHECK_COMMANDS + ORACLE_COMMANDS):
    ints, fractions = directory / "ints.txt", directory / "fractions.txt"
    ints.write_text(text)
    fractions.write_text(fraction_tokens(text))
    for cmd in commands:
        runs = []
        for path in (ints, fractions):
            buf = io.StringIO()
            code = run(cmd[:1] + [str(path), "--form", form] + cmd[1:],
                       out=buf)
            runs.append((code, buf.getvalue()))
        assert runs[0] == runs[1], (cmd, form, text)


def test_fraction_tokens_rewrite():
    assert fraction_tokens("# c 1\n2 1\n-3 +4 # 5\n1/2 0.5\n") == (
        "# c 1\n2 1\n-3/1 +4/1# 5\n1/2 0.5\n")


def test_token_paths_agree_on_the_corpora(tmp_path):
    corpus = [(instance_text(gen_random_system(GenSpec(seed, m, n))), "ineq")
              for m, n in SHAPES for seed in SEEDS]
    corpus += [(rational_text(seed, m, n), form)
               for form, m, n in RATIONAL_SHAPES for seed in RATIONAL_SEEDS]
    corpus += [(rational_text(seed, m, n, zero_frac), form)
               for form, m, n in RATIONAL_SHAPES for seed in TEXT_SEEDS
               for zero_frac in (0.0, 0.3)]
    corpus += [(TRIVIAL_TEXT, form)
               for form in ("ineq", "ineq-nonneg", "eq-nonneg")]
    corpus += [(deficient_text(seed, m, n, r), "ineq")
               for m, n, r in DEFICIENT_SHAPES for seed in DEFICIENT_SEEDS]
    rewritten = oracle_runs = 0
    for text, form in corpus:
        # FM on three variables takes seconds past about 7 rows, so the
        # oracle commands run on the files of at most 20 entries in A
        m, n = map(int, text.split()[:2])
        oracle = m * n <= 20
        assert_token_paths_agree(text, form, tmp_path, CHECK_COMMANDS
                                 + (ORACLE_COMMANDS if oracle else ()))
        rewritten += fraction_tokens(text) != text
        oracle_runs += oracle
    assert rewritten == len(corpus)
    assert oracle_runs == 103


TOKEN_VALUES = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def token_files(draw):
    """Files of 1 to 5 rows over 1 to 3 columns, in int, p/q and decimal
    tokens: each row is drawn afresh, zero, or a multiple of an earlier
    one, so zero rows and rank deficiency are common."""
    n = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("fresh", "zero", "multiple")))
        if kind == "zero":
            rows.append([Fraction(0)] * n)
        elif kind == "multiple" and rows:
            k = draw(st.sampled_from((1, -1, 2, Fraction(-1, 2))))
            rows.append([k * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(TOKEN_VALUES, min_size=n, max_size=n)))
    lines = [f"{len(rows)} {n}"]
    for row in rows:
        b = draw(st.just(Fraction(0)) | TOKEN_VALUES)
        lines.append(" ".join(draw(st.sampled_from(
            (str(x), f"{float(x):.2f}") if x.denominator in (1, 2, 4)
            else (str(x),))) for x in row + [b]))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(text=token_files(),
       form=st.sampled_from(("ineq", "ineq-nonneg", "eq-nonneg")))
def test_token_paths_agree(tmp_path_factory, text, form):
    assert_token_paths_agree(text, form, tmp_path_factory.mktemp("tokens"))
