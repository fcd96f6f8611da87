"""Pin `check --json` on a fixed generated corpus.

Every instance runs in three configurations; a sha256 over (exit code,
report bytes) must match the recorded value, and the per-configuration
tallies say what moved when it does not.  Refactors of the arithmetic
or the test enumeration must keep all of it identical.
"""
import hashlib
import io
import json

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


def instance_text(sys) -> str:
    lines = [f"{sys.m} {sys.n}"]
    for i in range(sys.m):
        lines.append(" ".join([str(sys.A.at(i, j)) for j in range(sys.n)]
                              + [str(sys.b[i])]))
    return "\n".join(lines) + "\n"


def test_pinned_corpus(tmp_path):
    digest = hashlib.sha256()
    tallies = {name: {"empty": 0, "tests_run": 0} for name in CONFIGS}
    for m, n in SHAPES:
        for seed in SEEDS:
            path = tmp_path / f"m{m}n{n}s{seed}.txt"
            path.write_text(instance_text(gen_random_system(GenSpec(seed, m, n))))
            for name, flags in CONFIGS.items():
                buf = io.StringIO()
                code = run(["check", str(path), "--json"] + flags, out=buf)
                digest.update(f"{code}\n{buf.getvalue()}".encode())
                report = json.loads(buf.getvalue())
                tallies[name]["empty"] += report["verdict"] == "EMPTY"
                tallies[name]["tests_run"] += report["tests_run"]
    assert tallies == EXPECTED_TALLIES
    assert digest.hexdigest() == EXPECTED_DIGEST
