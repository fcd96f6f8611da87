"""Each demo script prints exactly its recorded golden output.

The demos narrate the exact arithmetic (t(k')G, intervals, certificates,
pseudoinverses), so a refactor that changes what they print changed a
user-visible value.  To re-record after a deliberate change:
`PYTHONPATH=src python3 demos/NAME.py > tests/demo_golden/NAME.txt`.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("demo_agreement", "demo_emptiness", "demo_pseudoinverse")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_matches_golden(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden = (ROOT / "tests" / "demo_golden" / f"{name}.txt").read_text()
    assert proc.stdout == golden
