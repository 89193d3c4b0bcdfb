"""Exact combinatorics of graph groupoids, twisted products, convolution
*-algebras, dimension groups and rank-2 diagrams.

Everything computes over exact arithmetic (integers, rationals, Gaussian
rationals); operations are pure and all values immutable, so concurrent
reads are safe.
"""

from .gaussian import GaussianRational, gauss
from .graph_model import (
    BratteliDiagram,
    Edge,
    PathWord,
    constant_diagram,
    diagram_from_json,
    edge_cycle_automorphism,
    enumerate_paths,
    telescope,
    validate_bratteli,
    vertex_path,
)
from .graph_groupoid import (
    BasicBisection,
    InfiniteBouquet,
    bisection_product,
    find_cylinder_inside,
    render_bisection,
    unit_bisection,
)
from .groupoid_core import (
    Cocycle,
    FiniteGroupoid,
    GroupoidAutomorphism,
    cyclic_group_groupoid,
    full_relation,
    group_bundle,
    identity_automorphism,
    is_principal,
    isotropy_group,
    orbit,
    orbits,
    verify_groupoid_axioms,
    weight_cocycle,
    zero_cocycle,
)
from .twisted_product import (
    bouquet_twisted_product,
    check_lc,
    check_wfc,
    contracting_bisection_witness,
    minimality_verdict,
    principality_criterion,
    twisted_product,
)
from .convolution_algebra import (
    FiniteConvElement,
    SymbolicConvElement,
    convolve,
    delta,
    generator_times,
    involution,
    iota_embed,
    iota_inverse,
    module_inner_product,
    regular_representation,
    right_action,
    unit_indicator,
)
from .dimension_groups import (
    DimensionGroupSpec,
    DimGroupElement,
    Verdict,
    dg_equal,
    dg_is_positive,
    dg_push_to_level,
    dimension_group_of,
    k0_vertex_class,
    rank2_k_matrices,
)
from .rank2_diagrams import (
    CanonicalOrders,
    CanonicalRank2Diagram,
    Rank2Data,
    Rank2Diagram,
    Rank2Path,
    build_rank2,
    canonical_rank2,
    compute_orders,
    rank2_automorphism,
    telescope_rank2,
    validate_rank2,
)
from .pipeline import (
    RealizationReport,
    plan_af_realization,
    plan_rank2_realization,
    unit_corner_spec,
    verify_report_json,
)
from .validation import StructuralError, ValidationReport

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
