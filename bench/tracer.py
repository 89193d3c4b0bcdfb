"""Spans around groupoid_forge's public functions, installed from outside.

The library is not edited: ``install`` replaces each named function or method
by a timing wrapper in every namespace that binds it (the defining module,
every ``groupoid_forge`` module that imported it, and the class for methods).
Spans are kept in memory as flat arrays and written to one file per process
when the process ends; ``load_spans`` and ``summarize`` turn them into
per-name self time and call counts.

A span's self time is its duration minus the durations of its direct
children, so nested calls (``verify_report_json`` re-running the planner, or
``__sub__`` calling ``__add__``) are not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable

# Public functions timed per module: ("module", "attribute").
FUNCTIONS = {
    "rank2_diagrams": (
        "build_rank2",
        "validate_rank2",
        "compute_orders",
        "rank2_automorphism",
        "blue_skeleton",
        "telescope_rank2",
        "reverify_telescope",
    ),
    "twisted_product": (
        "check_wfc",
        "check_lc",
        "minimality_verdict",
        "twisted_product",
        "principality_criterion",
        "contracting_bisection_witness",
        "reverify_contracting_witness",
    ),
    "graph_model": (
        "validate_bratteli",
        "path_count_matrix",
        "telescope",
        "edge_cycle_automorphism",
        "enumerate_paths",
    ),
    "dimension_groups": (
        "dimension_group_of",
        "dg_equal",
        "dg_is_positive",
        "rank2_k_matrices",
    ),
    "groupoid_core": (
        "verify_groupoid_axioms",
        "is_principal",
        "orbits",
        "isotropy_group",
    ),
    "graph_groupoid": (
        "bisection_product",
        "intersect_basic",
        "difference_basic",
        "find_cylinder_inside",
    ),
    "convolution_algebra": (
        "canonical_pieces",
        "convolve",
        "involution",
        "regular_representation",
    ),
    "pipeline": (
        "plan_af_realization",
        "plan_rank2_realization",
        "verify_report_json",
    ),
    # every public function of the integer-matrix layer; reported as one sum
    "matrices": (
        "as_matrix",
        "shape",
        "identity",
        "mat_mul",
        "mat_vec",
        "chain_product",
        "transpose",
        "min_entry",
        "is_proper",
        "is_nonnegative",
        "diagonal",
        "column_rank",
        "is_injective",
    ),
}

# Methods timed on their class: ("module", "Class", "method").
METHODS = (
    ("groupoid_core", "GroupoidAutomorphism", "power"),
    ("convolution_algebra", "RegRepMatrix", "matmul"),
) + tuple(
    ("gaussian", "GaussianRational", name)
    for name in (
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__neg__",
    )
)

PACKAGE = "groupoid_forge"


def _entry_bits(matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m for x in row), default=0)


# Size counters read off returned values, after the span has closed.
def _count_blue(counters, args, result):
    counters["rank2_diagrams.blue_edges"] += len(result.blue)


def _count_telescope(counters, args, result):
    counters["graph_model.chosen_levels"] += len(args[1])
    counters["matrices.entry_bits"] = max(counters["matrices.entry_bits"], _entry_bits(result.mult))


def _count_telescope_rank2(counters, args, result):
    if result.telescoped is not None:
        bits = _entry_bits(result.telescoped.A + result.telescoped.B)
        counters["matrices.entry_bits"] = max(counters["matrices.entry_bits"], bits)


def _count_elements(counters, args, result):
    counters["groupoid_core.elements"] += len(result.finite_form)


def _count_pieces_out(counters, args, result):
    counters["convolution_algebra.pieces"] += len(result)


HOOKS: dict[str, Callable] = {
    "rank2_diagrams.build_rank2": _count_blue,
    "graph_model.telescope": _count_telescope,
    "rank2_diagrams.telescope_rank2": _count_telescope_rank2,
    "twisted_product.twisted_product": _count_elements,
    "convolution_algebra.canonical_pieces": _count_pieces_out,
}


class Tracer:
    """Records (name, start, end, parent) spans for one process."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter
        stack, span_name, start, end, parent = (
            self.stack, self.span_name, self.start, self.end, self.parent
        )
        counters = self.counters
        materialize = name == "convolution_algebra.canonical_pieces"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if materialize:
                # count the input pieces outside the span; the callee
                # iterates its argument once, so a list is equivalent
                args = (list(args[0]),) + args[1:]
                counters["convolution_algebra.pieces_in"] += len(args[0])
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap every named function in every groupoid_forge namespace that
        binds it, and every named method on its class.  Returns the number
        of bindings replaced."""
        modules = [
            m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        replaced = 0
        for mod_name, attrs in FUNCTIONS.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for attr in attrs:
                original = getattr(home, attr)
                wrapper = self.wrap(f"{mod_name}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            replaced += 1
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            original = vars(cls)[attr]
            # GaussianRational binds __radd__ = __add__ and __rmul__ = __mul__;
            # each name gets its own span name so calls are not merged
            setattr(cls, attr, self.wrap(f"{mod_name}.{cls_name}.{attr}", original))
            replaced += 1
        return replaced

    def dump(self, path: str) -> None:
        """Write the spans (binary arrays) and the name table and counters
        (a JSON header line) to ``path``."""
        header = {
            "pass_id": self.pass_id,
            "names": self.names,
            "count": len(self.start),
            "counters": dict(self.counters),
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.start, self.end, self.parent):
                arr.tofile(fh)


def load_spans(path: str):
    """Inverse of ``Tracer.dump``: (header, span_name, start, end, parent)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in ("i", "d", "d", "i"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def summarize(path: str) -> tuple[dict[str, float], Counter, Counter]:
    """Per-name self time (s) and call counts, plus the size counters, for
    the spans of one process."""
    header, span_name, start, end, parent = load_spans(path)
    n = header["count"]
    child_time = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
    self_s: dict[str, float] = {}
    calls: Counter = Counter()
    names = header["names"]
    for i in range(n):
        name = names[span_name[i]]
        self_s[name] = self_s.get(name, 0.0) + (end[i] - start[i]) - child_time[i]
        calls[name] += 1
    return self_s, calls, Counter(header["counters"])
