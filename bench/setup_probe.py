"""Set-up time of a fresh process: import plus one warm-up call.

Usage: python3 setup_probe.py SRC_DIR check INSTANCE_FILE
       python3 setup_probe.py SRC_DIR agreement

Prints the seconds from just before `import hollowcheck.cli` to the end of
the warm-up call, normalized by the reference kernel (see calib.py) run
before and after.  Interpreter start-up is not included.
"""
import io
import statistics
import sys
import time

import calib


def main() -> None:
    samples = [calib.kernel_seconds() for _ in range(calib.NEIGHBOURS)]
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from hollowcheck import cli, harness
    if sys.argv[2] == "check":
        code = cli.run(["check", sys.argv[3], "--json"], out=io.StringIO())
        if code not in (0, 1):
            raise SystemExit(f"warm-up check exited {code}")
    else:
        harness.agreement_run([harness.GenSpec(seed=0, m=6, n=2)])
    wall = time.perf_counter() - t0
    samples += [calib.kernel_seconds() for _ in range(calib.NEIGHBOURS)]
    print(repr(wall * calib.NOMINAL_S / statistics.fmean(samples)))


if __name__ == "__main__":
    main()
