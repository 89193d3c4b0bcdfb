"""The benchmark's traced run wraps library functions by name; every name it
lists must still resolve, or the traced run fails before it measures."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_tables():
    # executing the module only defines its tables; nothing is wrapped
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PACKAGE, module.FUNCTIONS, module.METHODS


def test_traced_functions_and_methods_resolve():
    package, functions, methods = _tracer_tables()
    missing = []
    for mod_name, attrs in functions.items():
        module = importlib.import_module(f"{package}.{mod_name}")
        missing += [f"{mod_name}.{a}" for a in attrs if not callable(getattr(module, a, None))]
    for mod_name, cls_name, attr in methods:
        cls = getattr(importlib.import_module(f"{package}.{mod_name}"), cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{mod_name}.{cls_name}.{attr}")
    assert not missing
