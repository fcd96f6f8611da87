"""Every name a hollowcheck module imports is used in that module, unless
the benchmark tracer patches the name there (bench/tracer.py SITES); no
module imports another package module's private (`_name`) names; no
module but `emptiness` and `__init__` imports the z-form battery; every
parameter of a package function or lambda is read in its body; and no
module imports `dataclasses` or `typing`, which a `check` run never
loads."""
import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hollowcheck"
TRACER_PATH = ROOT / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _traced_names():
    """(module, name) for each lookup site the tracer patches."""
    return {(site, attr)
            for _, attr, lookups in _load_tracer().SITES.values()
            for site in lookups}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a package re-exports what it lists in __all__
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str, module: str, traced) -> list:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [name for name in _imported_names(tree)
            if name not in used and (module, name) not in traced]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(), path.stem, _traced_names()) == []


def test_stale_import_is_caught():
    source = "from .densemat import invert, mat_vec\n"
    traced = _traced_names()
    # the tracer patches `invert` in emptiness, and nowhere in cli
    assert unused_imports(source, "emptiness", traced) == ["mat_vec"]
    assert unused_imports(source, "cli", traced) == ["invert", "mat_vec"]
    assert unused_imports(source + "mat_vec\n", "emptiness", traced) == []


def private_imports(source: str) -> list:
    """The `_name`s a module imports from another hollowcheck module."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("hollowcheck"))
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_private_import_across_modules(path):
    assert private_imports(path.read_text()) == []


def test_private_import_is_caught():
    assert private_imports("from .densemat import _eliminate\n") == [
        "_eliminate"]
    assert private_imports(
        "from hollowcheck.emptiness import _signed_filtered, decide\n") == [
        "_signed_filtered"]
    assert private_imports("from __future__ import annotations\n"
                           "from .densemat import eliminate\n") == []


# the z form of the battery: a reference for the tests, the demo and the
# tracer, which product code reads off the tableau instead
Z_FORM = ("family_tests", "run_test", "in_cone_G")


def z_form_imports(source: str) -> list:
    """The Z_FORM names a module imports."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name in Z_FORM]


@pytest.mark.parametrize("path", sorted(
    p for p in PACKAGE.glob("*.py")
    if p.stem not in ("emptiness", "__init__")), ids=lambda p: p.stem)
def test_no_z_form_import(path):
    assert z_form_imports(path.read_text()) == []


def test_z_form_import_is_caught():
    assert z_form_imports("from .emptiness import (decide, family_tests,\n"
                          "                        run_test)\n") == [
        "family_tests", "run_test"]
    assert z_form_imports("from .emptiness import decide, decompose\n") == []


def unread_parameters(source: str) -> list:
    """`function:parameter` for each parameter its function never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [p for p in (*args.posonlyargs, *args.args, args.vararg,
                              *args.kwonlyargs, args.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}:{p.arg}" for p in params if p.arg not in read]
    return unread


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameter_is_caught():
    assert unread_parameters("def f(A, b):\n    return A\n") == ["f:b"]
    assert unread_parameters("g = lambda s, *rest, key=0: s\n") == [
        "<lambda>:rest", "<lambda>:key"]
    # a parameter read only by a nested function is read
    assert unread_parameters("def f(x):\n    def g():\n        return x\n"
                             "    return g\n") == []
    # assigning a parameter is not reading it
    assert unread_parameters("def f(x):\n    x = 1\n    return 0\n") == [
        "f:x"]


# each pulls in more start-up than a `check` call's own work: dataclasses
# imports inspect, ast, dis and tokenize, and generates and compiles code
# per class
HEAVY_MODULES = ("dataclasses", "typing")


def heavy_imports(source: str) -> list:
    """The HEAVY_MODULES a module imports."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] in HEAVY_MODULES]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_heavy_import(path):
    assert heavy_imports(path.read_text()) == []


def test_heavy_import_is_caught():
    assert heavy_imports("from dataclasses import dataclass\n"
                         "import typing as t\nimport math\n"
                         "from .densemat import Vector\n") == [
        "dataclasses", "typing"]


def test_check_loads_no_heavy_module(tmp_path):
    # -S: no site module, so only what hollowcheck itself imports is loaded;
    # a plain `check` argv is read without argparse
    path = tmp_path / "in.txt"
    path.write_text("3 1\n1 1\n1 2\n-1 -3\n")
    script = (
        "import io, sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "from hollowcheck import cli\n"
        f"code = cli.run(['check', {str(path)!r}, '--json'], out=io.StringIO())\n"
        "print(code, sorted(m for m in ('argparse', 'dataclasses', 'inspect',\n"
        "                                'typing') if m in sys.modules))\n")
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout == "1 []\n"
