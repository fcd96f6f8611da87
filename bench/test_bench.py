"""Tests of the benchmark's own parts: generator, output check, runner.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import instances  # noqa: E402
import verify  # noqa: E402
from hollowcheck import cli  # noqa: E402


def _text(mode, seed, index):
    return instances.instance_text(instances.make_instance(mode, seed, index),
                                   f"{mode} seed={seed} index={index}")


@pytest.mark.parametrize("mode", [instances.MIXED, instances.FEASIBLE])
def test_generator_is_deterministic(tmp_path, mode):
    for index in range(6):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        instances.write_instance(str(a), mode, 11, index)
        instances.write_instance(str(b), mode, 11, index)
        assert a.read_bytes() == b.read_bytes()
    assert _text(mode, 11, 0) != _text(mode, 12, 0)


@pytest.mark.parametrize("mode", [instances.MIXED, instances.FEASIBLE])
def test_generated_systems_are_admissible(mode):
    shapes = (instances.MIXED_SHAPES if mode == instances.MIXED
              else instances.FEASIBLE_SHAPES)
    for index in range(2 * len(shapes)):
        inst = instances.make_instance(mode, 3, index)
        rows = inst["rows"]
        assert (len(rows), len(rows[0])) == shapes[index % len(shapes)]
        assert all(any(x != 0 for x in r) for r in rows)
        assert instances.exact_rank(rows) == len(rows[0])


def test_feasible_instances_contain_x0(tmp_path):
    for index in range(6):
        path = str(tmp_path / f"{index}.txt")
        instances.write_instance(path, instances.FEASIBLE, 5, index)
        inst = instances.read_instance(path)
        assert inst["x0"] is not None
        assert verify.point_problems(inst["rows"], inst["b"], inst["x0"]) == []


def test_point_check_rejects_a_violating_point():
    rows, b = [[1, 0], [0, 1]], [1, 1]
    assert verify.point_problems(rows, b, [1, 1]) == []
    assert verify.point_problems(rows, b, [2, 0]) != []


def _empty_report(tmp_path):
    """A real `check --json` EMPTY report on a generated mixed instance."""
    for index in range(20):
        path = str(tmp_path / f"{index}.txt")
        instances.write_instance(path, instances.MIXED, 0, index)
        buf = io.StringIO()
        code = cli.run(["check", path, "--json"], out=buf)
        report = json.loads(buf.getvalue())
        if report["verdict"] == verify.EMPTY:
            return instances.read_instance(path), code, report
    raise AssertionError("no EMPTY instance among the first 20")


def test_certificate_check_accepts_the_program_output(tmp_path):
    inst, code, report = _empty_report(tmp_path)
    assert verify.check_report(inst, code, report, feasible=False) == []


@pytest.mark.parametrize("tamper", ["scale_one", "negate_one", "drop_one"])
def test_certificate_check_rejects_a_tampered_farkas_y(tmp_path, tamper):
    inst, code, report = _empty_report(tmp_path)
    y = report["certificate"]["farkas_y"]
    i = next(k for k, v in enumerate(y) if v != "0/1")
    if tamper == "scale_one":
        y[i] = y[i] + "0"            # p/q -> 10p/q
    elif tamper == "negate_one":
        y[i] = "-" + y[i]
    else:
        y[i] = "0/1"
    assert verify.check_report(inst, code, report, feasible=False) != []


def test_report_check_rejects_empty_on_a_feasible_instance(tmp_path):
    inst, code, report = _empty_report(tmp_path)
    inst = dict(inst, x0=[0] * len(inst["rows"][0]))
    assert "EMPTY on a feasible instance" in verify.check_report(
        inst, code, report, feasible=True)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["check-mixed", "check-feasible",
                                      "agreement"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_prints_a_valid_result(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "1",
                "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(str(tmp_path), "--workload", "check-mixed", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
