"""Spans around the package's public functions, installed from outside.

The package imports functions by name (`from .densemat import vec_mat`),
so a wrapper must replace the name where it is looked up, not only where
it is defined.  `SITES` lists, per traced function, the span name and
every module attribute that holds it.  `Tracer.install` swaps them all and
`Tracer.uninstall` restores the originals.

Each span is (op, id, parent, name, start, end): `op` numbers the
benchmark operation, `parent` is the enclosing span (-1 at top level).
Spans stay in memory and are written out by `write`.  Self time is a
span's duration minus its children's; the run is single-threaded, so
children never overlap.
"""
from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict

# span name -> (defining module, function, lookup modules)
SITES = {
    "cli.parse_system": ("cli", "parse_system", ("cli",)),
    "cli.report_to_jsonable": ("cli", "report_to_jsonable", ("cli",)),
    "standardize.standardize": ("standardize", "standardize", ("cli",)),
    "densemat.rank": ("densemat", "rank", ("standardize", "harness")),
    "emptiness.decide": ("emptiness", "decide", ("cli", "harness")),
    "emptiness.decompose": ("emptiness", "decompose", ("emptiness",)),
    "densemat.invert": ("densemat", "invert", ("emptiness",)),
    "densemat.mat_mul": ("densemat", "mat_mul", ("emptiness",)),
    "densemat.left_nullspace_basis":
        ("densemat", "left_nullspace_basis", ("emptiness",)),
    "densemat.orth_complement_basis":
        ("densemat", "orth_complement_basis", ("emptiness",)),
    "emptiness.in_cone_G": ("emptiness", "in_cone_G", ("emptiness",)),
    "emptiness.run_test": ("emptiness", "run_test", ("emptiness",)),
    "densemat.vec_mat": ("densemat", "vec_mat", ("emptiness",)),
    "interval.iv_dot": ("interval", "iv_dot", ("emptiness",)),
    "emptiness.farkas_from": ("emptiness", "farkas_from", ("emptiness",)),
    "oracle.fm_feasible": ("oracle", "fm_feasible", ("cli", "harness")),
    "oracle.validate_certificate":
        ("oracle", "validate_certificate", ("harness",)),
    "oracle.validate_witness": ("oracle", "validate_witness", ("harness",)),
    "harness.shrink_discrepancy":
        ("harness", "shrink_discrepancy", ("harness",)),
    "harness.gen_random_system":
        ("harness", "gen_random_system", ("harness",)),
    "harness.agreement_run": ("harness", "agreement_run", ("harness",)),
}
# a generator: its span covers only the time inside each next()
FAMILY_TESTS = ("emptiness.family_tests", "emptiness", "family_tests")


MODULES = ("cli", "densemat", "emptiness", "harness", "interval", "oracle",
           "standardize")


def _modules() -> dict:
    # by import path: the package re-exports a function named `standardize`
    return {m: importlib.import_module(f"hollowcheck.{m}") for m in MODULES}


class Tracer:
    def __init__(self):
        self.spans = []          # (op, id, parent, name, start, end)
        self.counts = defaultdict(int)
        self.op = 0
        self._stack = []
        self._next_id = 0
        self._saved = []         # (module, attribute, original)

    # -- recording ---------------------------------------------------------
    def begin(self) -> tuple:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, name: str, token: tuple) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack.pop()
        self.spans.append((self.op, sid, parent, name, start, end))

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            token = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(name, token)
                tracer.counts[f"{name}.{type(exc).__name__}"] += 1
                raise
            tracer.end(name, token)
            tracer._count(name, result)
            return result
        return traced

    def _count(self, name, result) -> None:
        if name == "emptiness.in_cone_G" and not result:
            self.counts["emptiness.in_cone_G.rejected"] += 1
        elif name == "oracle.fm_feasible":
            self.counts[f"oracle.fm_feasible.{result.status}"] += 1

    def _wrap_generator(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                token = tracer.begin()
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.end(name, token)
                    return
                except BaseException:
                    tracer.end(name, token)
                    raise
                tracer.end(name, token)
                yield item
        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        mods = _modules()
        for name, (home, attr, sites) in SITES.items():
            wrapped = self._wrap(name, getattr(mods[home], attr))
            for site in sites:
                self._patch(mods[site], attr, wrapped)
        name, home, attr = FAMILY_TESTS
        self._patch(mods[home], attr,
                    self._wrap_generator(name, getattr(mods[home], attr)))

    def _patch(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- reporting ---------------------------------------------------------
    def layer_totals(self, scale) -> dict:
        """name -> {"ms", "self_ms", "calls"} summed over all spans.

        Span times of operation `op` are multiplied by `scale[op]`, the
        operation's machine-speed factor.
        """
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"ms": 0.0, "self_ms": 0.0, "calls": 0})
        for op, sid, _, name, start, end in self.spans:
            row = out[name]
            row["ms"] += (end - start) * scale[op] * 1e3
            row["self_ms"] += (end - start - child[sid]) * scale[op] * 1e3
            row["calls"] += 1
        return out

    def calls_beneath(self, ancestor: str) -> dict:
        """name -> calls of spans that have an `ancestor` span above them."""
        info = {sid: (parent, name)
                for _, sid, parent, name, _, _ in self.spans}
        out = defaultdict(int)
        for sid, (parent, name) in info.items():
            while parent >= 0:
                parent, pname = info[parent]
                if pname == ancestor:
                    out[name] += 1
                    break
        return out

    def write(self, path: str) -> None:
        """gzip-compressed JSON lines: a header naming the fields, then spans."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["op", "id", "parent", "name",
                                            "start_s", "end_s"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
