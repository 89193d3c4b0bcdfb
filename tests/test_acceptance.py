"""Acceptance criteria, one test per criterion.

Every tolerance is exact (integer/rational arithmetic); runtime budgets are
asserted where stated.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one pass/fail line per criterion.
"""

import itertools
import json
import time
from fractions import Fraction

from groupoid_forge.convolution_algebra import (
    comp2_identity_sides,
    comp_identity_sides,
    delta,
    involution,
    convolve,
    regular_representation,
    right_action_identity_sides,
)
from groupoid_forge.dimension_groups import (
    DimensionGroupSpec,
    DimGroupElement,
    dg_equal,
    dg_is_positive,
    dimension_group_of,
    rank2_k_matrices,
)
from families import (
    rng_for,
    seeded_bouquet_windows,
    seeded_contracting_witnesses,
    seeded_groupoids_for_representation,
    seeded_twisted_instances,
)
from groupoid_forge.graph_groupoid import (
    BasicBisection,
    InfiniteBouquet,
    basic_proper_subset,
    basic_subset,
    bisection_product,
    find_cylinder_inside,
    unit_bisection,
)
from groupoid_forge.graph_model import constant_diagram, telescope
from groupoid_forge.groupoid_core import (
    full_relation,
    identity_automorphism,
    is_principal,
    relation_automorphism,
    verify_groupoid_axioms,
)
from groupoid_forge.matrices import chain_product, min_entry, transpose
from groupoid_forge.pipeline import plan_af_realization
from groupoid_forge.rank2_diagrams import (
    Rank2Data,
    build_rank2,
    canonical_rank2,
    compute_orders,
    reverify_telescope,
    telescope_rank2,
)
from groupoid_forge.twisted_product import (
    bouquet_twisted_product,
    contracting_bisection_witness,
    principality_criterion,
    reverify_contracting_witness,
    twisted_product,
)

from helpers import materialized_orders

BQ = InfiniteBouquet()


def _report(n, name, detail=""):
    print(f"ACCEPTANCE {n:02d} {name}: PASS {detail}")


def test_criterion_01_twisted_product_axioms():
    """100 seeded twisted products of size <= 24 x 24 verify completely in
    under ten seconds."""
    start = time.perf_counter()
    instances = seeded_twisted_instances(100, seed=20250809, max_size=24)
    assert len(instances) == 100
    for (H, c, G, alpha) in instances:
        assert len(H) <= 24 and len(G) <= 24
        tw = twisted_product(H, c, G, alpha)
        report = verify_groupoid_axioms(tw.finite_form)
        assert report.passed, report.describe()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(1, "twisted-product axioms", f"(100 instances, {elapsed:.2f}s)")


def test_criterion_02_module_identities_exact():
    """The three module identities hold with exact equality for all
    generator indices i, j <= 3 and all point masses over a small G."""
    G = full_relation(range(2))  # 4 elements <= 6
    alpha = relation_automorphism(G, {0: 1, 1: 0})
    model = bouquet_twisted_product(G, alpha)
    checked = 0
    for i, j in itertools.product(range(4), repeat=2):
        for g, gp in itertools.product(G.elements, repeat=2):
            f, fp = delta(G, g), delta(G, gp)
            lhs, rhs = comp_identity_sides(model, i, j, f, fp)
            assert lhs == rhs
            if i == j:
                assert (not lhs.is_zero()) or not convolve(involution(f), fp).coeffs
            else:
                assert lhs.is_zero()
            checked += 1
    for i in range(4):
        for g, gp in itertools.product(G.elements, repeat=2):
            f, fp = delta(G, g), delta(G, gp)
            lhs, rhs = comp2_identity_sides(model, i, f, fp)
            assert lhs == rhs
            lhs, rhs = right_action_identity_sides(model, i, f, fp)
            assert lhs == rhs
            checked += 2
    _report(2, "module identities exact", f"({checked} identity instances)")


def test_criterion_03_regular_representation():
    """Multiplicativity and the adjoint law as exact matrix identities over
    100 seeded pairs on groupoids of <= 12 elements."""
    pairs = seeded_groupoids_for_representation(100, seed=77, max_size=12)
    assert len(pairs) == 100
    for (G, u, xi, eta) in pairs:
        assert len(G) <= 12
        left = regular_representation(G, u, convolve(xi, eta))
        right = regular_representation(G, u, xi).matmul(regular_representation(G, u, eta))
        assert left.entries == right.entries
        assert (
            regular_representation(G, u, involution(xi)).entries
            == regular_representation(G, u, xi).dagger().entries
        )
    _report(3, "regular representation", "(100 seeded pairs)")


def test_criterion_04_figure_anchors():
    """The worked two-level example: orders 3 and 12, their lcms, the
    m-recursion values, and the counted matrix data."""
    data = Rank2Data(A=(((3,),), ((4,),)), B=(((1,),), ((2,),)), T=((1,), (3,), (6,)))
    diagram = canonical_rank2(data, 3)
    orders = compute_orders(diagram)
    assert orders.orders_at(0) == (3,)
    assert orders.level_lcm[0] == 3
    assert orders.orders_at(1) == (12,)
    assert orders.level_lcm[1] == 12
    assert orders.m[1] == 0
    assert orders.m[2] == 12
    A, B, T = rank2_k_matrices(diagram)
    assert A == (((3,),), ((4,),))
    assert B == (((1,),), ((2,),))
    assert T == (((1,),), ((3,),), ((6,),))
    for n in range(2):
        assert A[n][0][0] * T[n][0][0] == T[n + 1][0][0] * B[n][0][0]
    _report(4, "figure anchors", "(orders 3/12, m = 0/12, matrix data)")


def test_criterion_05_telescoping_recursion_executable():
    """Doubling data: the chosen subsequence certifies its entry bounds, the
    built diagram reproduces the order formula, and orders outrun n*m_n
    through level five."""
    data = Rank2Data(A=(((2,),),), B=(((2,),),), T=((1,), (1,)), repeat_from=0)
    result = telescope_rank2(data, 7)
    assert result.complete
    tele = result.telescoped
    # orbit lengths of the built F against o(e) = A(i,j) T(j)
    built = materialized_orders(build_rank2(tele, 7))
    for label, o in built.edge_orders.items():
        n, j, i, _ = label
        assert o == tele.A[n][i][j] * tele.T[n][j]
    orders = compute_orders(canonical_rank2(tele, 7))
    assert orders.m == built.m
    for n in range(6):
        assert orders.min_order_at(n) > n * orders.m[n]
    assert reverify_telescope(result)
    blob = json.loads(json.dumps(result.to_json()))
    from groupoid_forge.rank2_diagrams import rank2_data_from_json

    source, _ = rank2_data_from_json(blob["source"])
    for entry in blob["certificate"]:
        step, level, bound = entry["step"], entry["level"], entry["strict_bound"]
        chained = chain_product([source.a_at(n) for n in range(blob["l"][step], level)])
        assert min_entry(chained) > bound
        assert bound == step * blob["M"][step]
    _report(5, "telescoping recursion executable", f"(levels {result.l})")


def test_criterion_06_multiplicity_growth_and_classes():
    """Telescoping the doubling diagram reaches multiplicity > n through
    level five, and vertex classes agree across telescoping."""
    d = constant_diagram(2)
    report = plan_af_realization(d, depth=5, lbound=6)
    assert report.ok
    table = report.telescoping["min_multiplicity_per_level"]
    for n in range(6):
        assert table[str(n)] > n
    subseq = report.telescoping["subsequence"]
    tele = telescope(d, subseq)
    spec = dimension_group_of(d)
    checks = 0
    for m in range(len(subseq) - 1):
        for i in range(tele.level_size(m)):
            before = DimGroupElement(
                subseq[m], tuple(1 if k == i else 0 for k in range(tele.level_size(m)))
            )
            pushed = tuple(
                transpose(tele.mult[m])[r][i] for r in range(tele.level_size(m + 1))
            )
            verdict = dg_equal(spec, before, DimGroupElement(subseq[m + 1], pushed), subseq[-1])
            assert verdict.is_yes
            checks += 1
    assert report.ktheory["telescope_class_consistency"] == "yes"
    _report(6, "multiplicity growth + class consistency", f"({checks} class checks)")


def test_criterion_07_contracting_witnesses():
    """50 seeded windows produce witnesses with r(B) properly inside s(B)
    inside W, each re-verified through the bisection product; plus the
    trivial-G special case."""
    for model, w in seeded_contracting_witnesses(50, 424242, 9, 4, 3):
        assert basic_proper_subset(w.r_set[0], w.s_set[0]) or w.r_set[1] < w.s_set[1]
        assert basic_subset(w.s_set[0], w.window_h) and w.s_set[1] <= w.window_g
        assert reverify_contracting_witness(model, w)
    # special case, trivial G: the appended-edge pair Z(lam.e1, lam) contracts
    # Z(lam) and its range recomputes as B B^{-1} through the bisection product
    lam = BQ.path([3])
    B = BasicBisection(BQ.path([3, 1]), lam)
    assert basic_proper_subset(B.range_set(), B.source_set())
    assert basic_subset(B.source_set(), unit_bisection(lam))
    assert bisection_product(B, B.inverse()) == B.range_set()
    # and the repeated-word construction on the same window, with trivial G
    G = full_relation([0])
    model = bouquet_twisted_product(G, identity_automorphism(G))
    w = contracting_bisection_witness(model, unit_bisection(lam), frozenset(G.units), l=1)
    assert w.bisection.range_word == BQ.path([3, 3])
    assert w.bisection.source_word == lam
    assert reverify_contracting_witness(model, w)
    _report(7, "contracting witnesses", "(50 seeded + special case)")


def test_criterion_08_principality_oracle_iff():
    """Over the seeded family, exhaustive isotropy scanning agrees with the
    finite-scale criterion in both directions, with zero discrepancies."""
    instances = seeded_twisted_instances(100, seed=8888, max_size=24)
    principal_count = 0
    for (H, c, G, alpha) in instances:
        tw = twisted_product(H, c, G, alpha)
        scanned = is_principal(tw.finite_form)
        predicted, details = principality_criterion(H, c, G, alpha)
        assert scanned == predicted, details
        # a validated cocycle on a finite groupoid realizes no nonzero
        # twisting on isotropy, so the collision clause is vacuous here
        assert details["isotropy_cocycle_values"] == []
        principal_count += scanned
    assert 0 < principal_count < 100  # both directions genuinely exercised
    _report(8, "principality oracle iff", f"({principal_count}/100 principal)")


def test_criterion_09_cylinder_finder():
    """100 seeded basic opens: the returned word's cylinder sits inside the
    window symbolically and matches the max-index formula when the excluded
    set is nonempty."""
    windows = seeded_bouquet_windows(100, seed=31337)
    assert len(windows) == 100
    for W in windows:
        lam = find_cylinder_inside(W)
        assert basic_subset(unit_bisection(lam), W)
        if W.excluded:
            n = max(e.label for e in W.excluded) + 1
            assert lam == W.range_word.concat(BQ.path([n]))
        else:
            assert lam == W.range_word
    _report(9, "cylinder finder", "(100 seeded windows)")


def test_criterion_10_dimension_group_oracle():
    """The doubling limit order-embeds into the dyadic rationals: sampled
    verdicts agree with exact rational arithmetic, plus the pinned cases."""
    spec = DimensionGroupSpec((1, 1), (((2,),),), repeat_from=0)
    rng = rng_for(5150)
    for _ in range(50):
        n, a = rng.randint(0, 6), rng.randint(-20, 20)
        m, b = rng.randint(0, 6), rng.randint(-20, 20)
        eq = dg_equal(spec, DimGroupElement(n, (a,)), DimGroupElement(m, (b,)), 16)
        assert eq.value != "unknown"
        assert eq.is_yes == (Fraction(a, 2**n) == Fraction(b, 2**m))
        pos = dg_is_positive(spec, DimGroupElement(n, (a,)), 16)
        assert pos.value != "unknown"
        assert pos.is_yes == (Fraction(a, 2**n) >= 0)
    assert dg_is_positive(spec, DimGroupElement(0, (1,)), 8).is_yes
    assert dg_is_positive(spec, DimGroupElement(0, (-1,)), 8).value == "no"
    assert dg_equal(spec, DimGroupElement(0, (1,)), DimGroupElement(0, (3,)), 8).value == "no"
    assert dg_equal(spec, DimGroupElement(0, (1,)), DimGroupElement(1, (2,)), 8).is_yes
    _report(10, "dimension-group oracle", "(50 sampled queries + pinned cases)")
