"""What the engine's entry points reach.

A ``sys.setprofile`` probe runs, in this process, every ``forge`` form of
``tests/test_input_fuzz.py`` on its valid files, ``forge twist --out``,
``forge certify contract`` and the three ``forge convolve-demo``
identities; the benchmark's operations at seed 0 (both planners and
``verify_report_json`` on the ladders of ``bench/inputs.py``, and the
``finite_twist`` and ``bouquet_symbolic`` operations of
``bench/workloads.py``); and all eight demos.  Every public function of
``src/`` and every public method of a public class is entered, told apart
by its code object, except the five pinned below, which the benchmark
tracer still names.  ``test_engine_surface.py`` asks less: that each name
is referenced somewhere.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import runpy
import sys
from pathlib import Path

from groupoid_forge.cli import main

from helpers import bench_inputs
from test_bench_names import _tracer
from test_input_fuzz import FORMS, files_of, run

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groupoid_forge"

# Public functions no entry point enters; the benchmark tracer times them.
UNREACHED = {
    "graph_groupoid.difference_basic",
    "matrices.identity",
    "matrices.is_nonnegative",
    "rank2_diagrams.build_rank2",
    "rank2_diagrams.reverify_telescope",
}


def _public_code() -> dict:
    """Code object -> name, for every public function of the package's
    modules and every public method, property and cached property of a
    public class defined there."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"groupoid_forge.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                names[obj.__code__] = f"{path.stem}.{name}"
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "fget", None) or getattr(member, "func", member)
                    fn = getattr(fn, "__func__", fn)
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        names[fn.__code__] = f"{path.stem}.{name}.{attr}"
    return names


def _workloads(monkeypatch):
    """``bench/workloads.py``, importing the ``inputs`` it names."""
    monkeypatch.setitem(sys.modules, "inputs", bench_inputs())
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry_points(tmp_path, workloads) -> None:
    for form in FORMS:
        assert run(FORMS[form], files_of(form), tmp_path)[0] in (0, 1)
    # the twisted product written out
    out = str(tmp_path / "twisted.json")
    assert run(FORMS["twist"] + ["--out", out], files_of("twist"), tmp_path)[0] == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["certify", "contract"]) == 0
        for identity in ("comp", "comp2", "right-action"):
            assert main(["convolve-demo", "--identity", identity]) == 0
    for workload in ("af_realize", "rank2_realize"):
        reports = {}
        planned = list(workloads.plan_ops(workload, workloads.ladder(workload, 0), reports))
        verified = list(workloads.verify_ops(json.loads(json.dumps(reports))))
        assert all(rec["ok"] for rec in planned + verified), workload
    records = [
        *workloads.finite_ops(workloads.finite_items(0)),
        *workloads.bouquet_ops(workloads.bouquet_items(0)),
    ]
    assert all(rec["ok"] for rec in records)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")


def test_entry_points_reach_all_but_the_pinned_functions(tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    entered = set()

    def probe(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(probe)
    try:
        _entry_points(tmp_path, workloads)
    finally:
        sys.setprofile(None)
    public = _public_code()
    assert {name for code, name in public.items() if code not in entered} == UNREACHED


def test_the_unreached_functions_are_traced_by_the_benchmark():
    functions = _tracer().FUNCTIONS
    for name in UNREACHED:
        module, attr = name.split(".")
        assert attr in functions[module], name
