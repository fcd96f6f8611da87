"""The hollowcheck benchmark: seeded, single-process, closed-loop workloads.

Usage (from the repository root):

  python3 bench/run.py --workload check-mixed --seed 3 --seconds 30 --trace 0

Workloads (one client, one operation at a time, no threads):

  check-mixed     `cli.run(["check", FILE, "--json"])` on random systems
  check-feasible  the same call on systems feasible by construction
  agreement       `harness.agreement_run([spec])`, FM oracle plus shrinking

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it wraps the package's public functions (see tracer.py), reports the
per-layer metrics and writes the spans to bench/out/.  The last line of
standard output is the JSON result; the line before it is a summary with
the outcome shares.  See bench/README.md for how to read both.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import instances  # noqa: E402
import verify  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("check-mixed", "check-feasible", "agreement")
SETUP_PROBES = 15
WARM_SHAPE = (6, 2)
FAMILIES = ("canonical", "kernel", "b1_perp", "rb2_perp", "pair")

EMPTY = "empty"
NOT_PROVEN = "not_proven"
DISCREPANCY = "discrepancy"
FAILED = "failed"
INCORRECT = "incorrect"

TIMED_LAYERS = (
    "cli.parse_system", "cli.report_to_jsonable", "standardize.standardize",
    "densemat.rank", "emptiness.decide", "emptiness.decompose",
    "densemat.invert", "densemat.mat_mul", "emptiness.family_tests",
    "densemat.left_nullspace_basis", "densemat.orth_complement_basis",
    "emptiness.in_cone_G", "emptiness.run_test", "densemat.vec_mat",
    "interval.iv_dot", "emptiness.farkas_from", "oracle.fm_feasible",
    "oracle.validate_certificate", "oracle.validate_witness",
    "harness.shrink_discrepancy", "harness.gen_random_system",
    "harness.agreement_run",
)
CALLED_LAYERS = (
    "emptiness.decide", "emptiness.in_cone_G", "emptiness.run_test",
    "densemat.vec_mat", "interval.iv_dot", "oracle.fm_feasible",
    "harness.shrink_discrepancy",
)


@dataclass
class Outcome:
    wall: float                  # wall seconds of the call
    status: str
    families: dict = field(default_factory=dict)
    detail: str = ""
    scale: float = 1.0           # machine-speed factor, see calib.py

    @property
    def seconds(self) -> float:
        """Normalized seconds: wall time at the kernel's nominal speed."""
        return self.wall * self.scale


def load_package():
    """Import hollowcheck from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hollowcheck", "__init__.py")):
        raise SystemExit(f"error: no hollowcheck package under {SRC}")
    sys.path.insert(0, SRC)
    import hollowcheck
    from hollowcheck import cli, harness
    if os.path.dirname(os.path.dirname(hollowcheck.__file__)) != SRC:
        raise SystemExit(f"error: imported hollowcheck from {hollowcheck.__file__}")
    return cli, harness


class CheckWorkload:
    kind = "check"

    def __init__(self, cli, mode: str, seed: int, workdir: str):
        self.cli, self.mode, self.seed, self.workdir = cli, mode, seed, workdir

    def op(self, index: int) -> Outcome:
        path = os.path.join(self.workdir, f"{index}.txt")
        instances.write_instance(path, self.mode, self.seed, index)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            code = self.cli.run(["check", path, "--json"], out=buf)
        except Exception as exc:  # cli.run reports its own errors; count any escape
            return Outcome(time.perf_counter() - t0, FAILED,
                           detail=f"{type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        if code not in (0, 1):
            return Outcome(dt, FAILED, detail=f"exit code {code}")
        try:
            report = json.loads(buf.getvalue())
        except ValueError as exc:
            return Outcome(dt, INCORRECT, detail=f"unreadable report: {exc}")
        problems = verify.check_report(
            instances.read_instance(path), code, report,
            feasible=self.mode == instances.FEASIBLE)
        if problems:
            return Outcome(dt, INCORRECT, detail="; ".join(problems))
        status = EMPTY if report["verdict"] == verify.EMPTY else NOT_PROVEN
        return Outcome(dt, status, families=report["families"])

    def warm_up(self) -> str:
        """Write a small fixed instance, run it once, return its path."""
        path = os.path.join(self.workdir, "warm.txt")
        inst = instances.make_instance(instances.MIXED, 0, 0, shape=WARM_SHAPE)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(instances.instance_text(inst, "warm-up"))
        self.cli.run(["check", path, "--json"], out=io.StringIO())
        return path


class AgreementWorkload:
    kind = "agreement"

    def __init__(self, harness, seed: int):
        self.harness, self.seed = harness, seed

    def op(self, index: int) -> Outcome:
        h = self.harness
        spec = h.GenSpec(**instances.agreement_spec_args(self.seed, index))
        t0 = time.perf_counter()
        try:
            stats = h.agreement_run([spec])
        except h.SoundnessViolation as exc:
            return Outcome(time.perf_counter() - t0, INCORRECT, detail=str(exc))
        except Exception as exc:
            return Outcome(time.perf_counter() - t0, FAILED,
                           detail=f"{type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        problems = verify.check_agreement(stats)
        if problems:
            return Outcome(dt, INCORRECT, detail="; ".join(problems))
        if stats.empty_agree:
            return Outcome(dt, EMPTY)
        return Outcome(dt, DISCREPANCY if stats.discrepancies else NOT_PROVEN)

    def warm_up(self) -> None:
        self.harness.agreement_run([self.harness.GenSpec(seed=0, m=6, n=2)])


def run_ops(workload, seconds=None, count=None, before_op=None) -> list:
    """Closed loop: for `seconds` of wall time, or exactly `count` operations.

    The reference kernel runs between operations (see calib.py); its
    samples set each outcome's speed factor.
    """
    gc.collect()
    outcomes, samples = [], []
    deadline = time.perf_counter() + (seconds or 0)
    last_sample = float("-inf")
    index = 0
    while (index < count) if count is not None \
            else (not outcomes or time.perf_counter() < deadline):
        if time.perf_counter() - last_sample >= calib.SAMPLE_EVERY_S:
            samples.append((index, calib.kernel_seconds()))
            last_sample = time.perf_counter()
        if before_op is not None:
            before_op(index)
        outcomes.append(workload.op(index))
        index += 1
    samples.append((index, calib.kernel_seconds()))
    for outcome, factor in zip(outcomes,
                               calib.speed_factors(samples, len(outcomes))):
        outcome.scale = factor
    return outcomes


def setup_seconds(workload, warm_path) -> float:
    """Median over fresh processes of import plus one warm-up call."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
           workload.kind]
    if warm_path is not None:
        cmd.append(warm_path)
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                              check=True, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def busy_seconds(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def share(outcomes, *statuses) -> float:
    return sum(o.status in statuses for o in outcomes) / len(outcomes)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(outcomes, setup_s: float) -> dict:
    lat_ms = [o.seconds * 1e3 for o in outcomes]
    q = statistics.quantiles(lat_ms, n=4, method="inclusive") \
        if len(lat_ms) > 1 else lat_ms * 3
    completed = [o for o in outcomes if o.status not in (FAILED, INCORRECT)]
    return {
        "setup_s": metric(setup_s, "s"),
        "throughput_per_s": metric(len(completed) / busy_seconds(outcomes), "1/s"),
        "latency_p50_ms": metric(q[1], "ms"),
        "latency_p75_ms": metric(q[2], "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, traced, untraced) -> dict:
    ops = len(traced)
    totals = tracer.layer_totals([o.scale for o in traced])
    counts = tracer.counts
    out = {}
    for name in TIMED_LAYERS:
        row = totals.get(name, {"ms": 0.0, "self_ms": 0.0})
        out[f"{name}.ms"] = metric(row["ms"] / ops, "ms/op")
        out[f"{name}.self_ms"] = metric(row["self_ms"] / ops, "ms/op")
    for name in CALLED_LAYERS:
        calls = totals[name]["calls"] if name in totals else 0
        out[f"{name}.calls"] = metric(calls / ops, "count/op")
    per_op = {
        "emptiness.in_cone_G.rejected": counts["emptiness.in_cone_G.rejected"],
        "oracle.fm_feasible.feasible": counts["oracle.fm_feasible.feasible"],
        "oracle.fm_feasible.infeasible": counts["oracle.fm_feasible.infeasible"],
        "oracle.fm_feasible.size_exceeded":
            counts["oracle.fm_feasible.SizeExceeded"],
    }
    beneath = tracer.calls_beneath("harness.shrink_discrepancy")
    per_op["harness.shrink_discrepancy.decide.calls"] = beneath["emptiness.decide"]
    per_op["harness.shrink_discrepancy.fm_feasible.calls"] = \
        beneath["oracle.fm_feasible"]
    for fam in FAMILIES:
        per_op[f"emptiness.tests.{fam}"] = sum(o.families.get(fam, 0)
                                               for o in traced)
    for name, value in per_op.items():
        out[name] = metric(value / ops, "count/op")
    out["emptiness.proven_empty_frac"] = metric(share(traced, EMPTY), "frac")
    out["harness.discrepancy_frac"] = metric(share(traced, DISCREPANCY), "frac")
    traced_s, untraced_s = busy_seconds(traced), busy_seconds(untraced)
    out["trace.ops"] = metric(ops, "count")
    out["trace.throughput_per_s"] = metric(ops / traced_s, "1/s")
    out["trace.untraced_throughput_per_s"] = metric(ops / untraced_s, "1/s")
    out["trace.overhead_frac"] = metric(traced_s / untraced_s - 1, "frac")
    return out


def summary(workload: str, seed: int, outcomes) -> dict:
    bad = [o for o in outcomes if o.status in (FAILED, INCORRECT)]
    wall_ms = [o.wall * 1e3 for o in outcomes]
    return {
        "summary": workload, "seed": seed, "ops": len(outcomes),
        "wall_latency_p50_ms": statistics.median(wall_ms),
        "wall_throughput_per_s": len(outcomes) / sum(wall_ms) * 1e3,
        "mean_speed_factor": statistics.fmean(o.scale for o in outcomes),
        "failed_frac": len(bad) / len(outcomes),
        "proven_empty_frac": share(outcomes, EMPTY),
        "discrepancy_frac": share(outcomes, DISCREPANCY),
        "not_proven_frac": share(outcomes, NOT_PROVEN),
        "failures": [o.detail for o in bad][:5],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    cli, harness = load_package()

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.workload == "agreement":
            workload = AgreementWorkload(harness, args.seed)
        else:
            mode = args.workload.split("-", 1)[1]
            workload = CheckWorkload(cli, mode, args.seed, workdir)
        warm_path = workload.warm_up()

        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_ops(workload, seconds=args.seconds / 2,
                                 before_op=lambda i: setattr(tracer, "op", i))
            finally:
                tracer.uninstall()
            untraced = run_ops(workload, count=len(traced))
            outcomes = traced + untraced
            metrics = per_layer(tracer, traced, untraced)
            tracer.write(os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.jsonl.gz"))
        else:
            setup_s = setup_seconds(workload, warm_path)
            outcomes = run_ops(workload, seconds=args.seconds)
            metrics = end_to_end(outcomes, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(o.status in (FAILED, INCORRECT) for o in outcomes)
    print(json.dumps(summary(args.workload, args.seed, outcomes)))
    print(json.dumps({
        "correct": not any(o.status == INCORRECT for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
