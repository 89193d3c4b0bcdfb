"""Exact combinatorics of graph groupoids, twisted products, convolution
*-algebras, dimension groups and rank-2 diagrams.

Everything computes over exact arithmetic (integers, rationals, Gaussian
rationals); operations are pure and all values immutable, so concurrent
reads are safe.

The exports load lazily (PEP 562): ``from groupoid_forge import x`` imports
only x's module and what it imports.  The function ``twisted_product`` is
not exported, so ``groupoid_forge.twisted_product`` is always the submodule.
"""

from importlib import import_module

_EXPORTS = {  # module -> the names it exports
    "gaussian": ("GaussianRational", "gauss"),
    "graph_model": (
        "BratteliDiagram", "Edge", "PathWord", "constant_diagram", "diagram_from_json",
        "edge_cycle_automorphism", "enumerate_paths", "telescope", "validate_bratteli",
        "vertex_path",
    ),
    "graph_groupoid": (
        "BasicBisection", "InfiniteBouquet", "bisection_product", "find_cylinder_inside",
        "render_bisection", "unit_bisection",
    ),
    "groupoid_core": (
        "Cocycle", "FiniteGroupoid", "GroupoidAutomorphism", "cyclic_group_groupoid",
        "full_relation", "group_bundle", "identity_automorphism", "is_principal", "isotropy_group",
        "orbit", "orbits", "verify_groupoid_axioms", "weight_cocycle", "zero_cocycle",
    ),
    "twisted_product": (
        "bouquet_twisted_product", "check_lc", "contracting_bisection_witness",
        "principality_criterion",
    ),
    "certificates": ("check_path_lc", "check_wfc", "minimality_verdict"),
    "convolution_algebra": (
        "FiniteConvElement", "SymbolicConvElement", "convolve", "delta", "generator_times",
        "involution", "iota_embed", "iota_inverse", "module_inner_product",
        "regular_representation", "right_action", "unit_indicator",
    ),
    "dimension_groups": (
        "DimensionGroupSpec", "DimGroupElement", "Verdict", "dg_equal", "dg_is_positive",
        "dg_push_to_level", "dimension_group_of", "k0_vertex_class", "rank2_k_matrices",
    ),
    "rank2_diagrams": (
        "CanonicalOrders", "CanonicalRank2Diagram", "Rank2Data", "Rank2Diagram", "Rank2Path",
        "build_rank2", "canonical_rank2", "compute_orders", "rank2_automorphism",
        "telescope_rank2", "validate_rank2",
    ),
    "pipeline": (
        "RealizationReport", "plan_af_realization", "plan_rank2_realization", "unit_corner_spec",
        "verify_report_json",
    ),
    "validation": ("StructuralError", "ValidationReport"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
