"""The benchmark tracer patches package functions by name; every name it
lists must still resolve, and uninstalling must restore each original."""
import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _patched_sites(tracer_mod):
    sites = [(f"hollowcheck.{site}", attr)
             for _, attr, lookups in tracer_mod.SITES.values()
             for site in lookups]
    _, home, attr = tracer_mod.FAMILY_TESTS
    return sites + [(f"hollowcheck.{home}", attr)]


def test_tracer_install_uninstall_restores_originals():
    tracer_mod = _load_tracer()
    sites = _patched_sites(tracer_mod)
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a in sites}
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        for (m, a), fn in originals.items():
            assert getattr(importlib.import_module(m), a) is not fn, (m, a)
    finally:
        tracer.uninstall()
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn, (m, a)
