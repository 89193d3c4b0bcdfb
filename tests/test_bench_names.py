"""The benchmark's traced run wraps library functions by name; every name it
lists must still resolve, or the traced run fails before it measures."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from groupoid_forge.graph_groupoid import BasicBisection, InfiniteBouquet
from groupoid_forge.graph_model import constant_diagram
from groupoid_forge.groupoid_core import (
    cyclic_group_groupoid,
    cyclic_multiplier_automorphism,
    full_relation,
    zero_cocycle,
)
from groupoid_forge.rank2_diagrams import Rank2Data

from helpers import label_family

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    # executing the module only defines its tables; nothing is wrapped
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_tables():
    module = _tracer()
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


FIGURE = Rank2Data(A=(((3,),), ((4,),)), B=(((1,),), ((2,),)), T=((1,), (3,), (6,)))
CONSTANT2 = Rank2Data(A=(((2,),),), B=(((2,),),), T=((1,), (1,)), repeat_from=0)


def _hook_arguments():
    """A small real argument tuple for the library function behind each hook."""
    H, G = full_relation(range(2)), cyclic_group_groupoid(3)
    bouquet = InfiniteBouquet()
    word, unit = bouquet.path([0]), bouquet.path([])
    return {
        "rank2_diagrams.build_rank2": (FIGURE, 3),
        "graph_model.telescope": (constant_diagram(2, 4), (0, 1, 3)),
        "rank2_diagrams.telescope_rank2": (CONSTANT2, 5),
        "twisted_product.twisted_product": (
            H, zero_cocycle(H), G, cyclic_multiplier_automorphism(G, 2)
        ),
        "convolution_algebra.canonical_pieces": (
            label_family([(BasicBisection(word, word), 1), (BasicBisection(unit, unit), 2)]),
        ),
    }


def test_tracer_hooks_read_the_real_results():
    """Each size hook runs on what its library function returns; a hook
    reading an attribute the result lacks would break the traced run."""
    tracer = _tracer()
    arguments = _hook_arguments()
    assert sorted(arguments) == sorted(tracer.HOOKS)
    counted = {}
    for name, hook in tracer.HOOKS.items():
        mod_name, attr = name.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"{tracer.PACKAGE}.{mod_name}"), attr)
        counters = counted[name] = Counter()
        hook(counters, arguments[name], fn(*arguments[name]))
        assert counters and all(v > 0 for v in counters.values()), name
    # the figure's 3 + 12 blue edges, read off the materialized record
    assert counted["rank2_diagrams.build_rank2"]["rank2_diagrams.blue_edges"] == 15
