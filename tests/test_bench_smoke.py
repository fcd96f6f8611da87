"""Run each benchmark workload briefly, traced, against this checkout.

`bench/run.py` checks every output exactly (`bench/verify.py`) and wraps
the package's functions by name (`bench/tracer.py`), so one short traced
run per workload exercises both against the current code.  The spans go
to `bench/out/`.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload",
                         ["check-mixed", "check-feasible", "agreement"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
