"""The canonical rank-2 layout in closed form, against the per-edge
algorithms of ``tests/helpers.py`` run on the materialized diagram of
``build_rank2``, the orbit-freeness sweep against the per-pair scan, and
the telescope against the one that recomputes every chain."""

import dataclasses
import itertools
import json
import math
import random
from itertools import islice

import pytest

from groupoid_forge import graph_model, rank2_diagrams
from groupoid_forge.certificates import check_path_lc, check_wfc
from groupoid_forge.dimension_groups import rank2_k_matrices
from groupoid_forge.pipeline import plan_rank2_realization, verify_report_json
from groupoid_forge.rank2_diagrams import (
    CanonicalOrders,
    CanonicalRank2Diagram,
    Rank2Data,
    Rank2Path,
    blue_skeleton,
    build_rank2,
    canonical_rank2,
    compose_paths,
    compute_orders,
    make_path,
    path_range,
    path_source,
    rank2_automorphism,
    telescope_rank2,
    validate_rank2,
)
from groupoid_forge.validation import StructuralError

from families import (
    CONSTANT2,
    CONSTANT3,
    FIGURE,
    FIGURE_TAIL,
    TWO_CYCLE_MIXED,
    TWO_CYCLE_ONES,
    seeded_compatible_data,
)
from helpers import (
    OrderData,
    bench_inputs,
    blue_edges_at,
    level_cap,
    materialize_rank2,
    materialized_automorphism,
    materialized_compose_paths,
    materialized_k_matrices,
    materialized_make_path,
    materialized_orders,
    materialized_path_range,
    materialized_path_source,
    materialized_skeleton,
    materialized_validation,
    red_blue_cofinal,
    rescanned_telescope_rank2,
    scanned_rank2_wfc_certificate,
    walked_rank2_lc_lengths,
)


def _telescoped(data, depth):
    levels = depth + 2
    return telescope_rank2(data, levels).telescoped, levels


CASES = {
    "figure": (FIGURE, 3),
    "const2_d3": _telescoped(CONSTANT2, 3),
    "const2_d4": _telescoped(CONSTANT2, 4),
    "const3_d3": _telescoped(CONSTANT3, 3),
    "const3_d4": _telescoped(CONSTANT3, 4),
    "figure_tail_d3": _telescoped(FIGURE_TAIL, 3),
    "two_cycle_ones_d2": _telescoped(TWO_CYCLE_ONES, 2),
    "two_cycle_mixed": (TWO_CYCLE_MIXED, 3),
}


@pytest.fixture(
    scope="module",
    params=[(name, o) for name in CASES for o in (1, -1)],
    ids=lambda p: f"{p[0]}{'+' if p[1] == 1 else '-'}",
)
def pair(request):
    """(canonical, materialized) diagrams of one case and orientation."""
    name, orientation = request.param
    data, levels = CASES[name]
    data = dataclasses.replace(data, orientation=orientation)
    return canonical_rank2(data, levels), build_rank2(data, levels)


def _labels(diagram):
    return [e.label for e in diagram.blue]


class TestAgainstMaterialized:
    def test_labels_in_build_order(self, pair):
        canon, mat = pair
        assert canon.blue_count() == len(mat.blue)
        for n in range(canon.levels() - 1):
            expected = [e.label for e in blue_edges_at(mat, n)]
            assert list(canon.blue_labels_at(n)) == expected
        for n in (0, 1):
            first = [e.label for e in blue_edges_at(mat, n)[:4]]
            assert list(islice(canon.blue_labels_at(n), 4)) == first

    def test_orders_and_f_powers(self, pair):
        canon, mat = pair
        # the orders are the diagram's alone: its level lcms and m are read off it
        fast, ref = CanonicalOrders(canon), materialized_orders(mat)
        assert compute_orders(canon) == fast
        assert fast.level_lcm == ref.level_lcm
        assert fast.m == ref.m
        for n in range(canon.levels() - 1):
            assert fast.orders_at(n) == ref.orders_at(n)
            assert fast.min_order_at(n) == ref.min_order_at(n)
        assert fast.max_edge_level() == ref.max_edge_level()
        for label in _labels(mat):
            assert fast.edge_order(label) == ref.edge_orders[label]
            for s in (*range(-3, 4), ref.m[label[0]]):
                assert fast.f_power(label, s) == ref.f_power(label, s)

    def test_validation_and_k_matrices(self, pair):
        canon, mat = pair
        assert validate_rank2(canon) == materialized_validation(mat)
        assert validate_rank2(canon).passed
        assert rank2_k_matrices(canon) == materialized_k_matrices(mat)

    def test_automorphism(self, pair):
        canon, mat = pair
        fast, ref = rank2_automorphism(canon), materialized_automorphism(mat)
        for label in _labels(mat):
            assert fast.blue_image(label) == ref.blue_image(label)

    def test_skeleton(self, pair):
        canon, mat = pair
        fast, ref = blue_skeleton(canon), materialized_skeleton(mat)
        assert fast.level_sizes == ref.level_sizes
        assert fast.mult == ref.mult


# composable 2-edge paths compared per level, in build order; every one of
# them on the five smaller cases
TWO_EDGE_PATHS_PER_LEVEL = 2000


def _lc_sample(diagram):
    """Every anchor and every blue edge at every level, and the first
    composable 2-edge paths at each level."""
    sample = [Rank2Path((), 0, v) for n in range(diagram.levels()) for v in diagram.vertices_at(n)]
    sample += [Rank2Path((), 1, v) for v in diagram.vertices_at(diagram.levels() - 1)]
    for n in range(diagram.levels() - 1):
        sample += [Rank2Path((label,), n % 2) for label in diagram.blue_labels_at(n)]
    for n in range(diagram.levels() - 2):
        ranging_at = {}
        for label in diagram.blue_labels_at(n + 1):
            ranging_at.setdefault(diagram.blue_ends(label)[0], []).append(label)
        two_edge = (
            Rank2Path((first, second), 0)
            for first in diagram.blue_labels_at(n)
            for second in ranging_at.get(diagram.blue_ends(first)[1], ())
        )
        sample += islice(two_edge, TWO_EDGE_PATHS_PER_LEVEL)
    return sample


class TestLcAgainstOrbitWalk:
    def test_entries(self, pair):
        canon, _ = pair
        orders = rank2_automorphism(canon)
        sample = _lc_sample(canon)
        got = [e.l for e in check_path_lc(orders, sample).entries]
        assert got == walked_rank2_lc_lengths(orders, sample)

        def level(p):
            return p.blue[0][0] if p.blue else p.anchor[0]

        moved = [l for p, l in zip(sample, got) if orders.m[level(p)] > 0]
        if canon.levels() > 3:
            assert max(moved) > 1
        else:
            # m_0 = m_1 = 0, and every red cycle at level 2 divides m_2 = O_1,
            # so a three-level diagram fixes every sampled cylinder
            assert set(got) == {1}


@pytest.mark.parametrize("orientation", (1, -1))
@pytest.mark.parametrize("data, levels", [(CONSTANT2, 3), (CONSTANT2, 4), (FIGURE, 3)])
class TestPathsAgainstMaterialized:
    def diagrams(self, data, levels, orientation):
        data = dataclasses.replace(data, orientation=orientation)
        return canonical_rank2(data, levels), build_rank2(data, levels)

    def test_ends_range_and_source(self, data, levels, orientation):
        canon, mat = self.diagrams(data, levels, orientation)
        for e in mat.blue:
            assert canon.blue_ends(e.label) == (e.range_vertex, e.source_vertex)
            for red in range(4):
                p = Rank2Path((e.label,), red)
                assert path_range(canon, p) == materialized_path_range(mat, p) == e.range_vertex
                assert path_source(canon, p) == materialized_path_source(mat, p)
        for v in canon.vertices_at(1):
            p = Rank2Path((), 2, v)
            assert path_range(canon, p) == materialized_path_range(mat, p) == v
            assert path_source(canon, p) == materialized_path_source(mat, p)

    def test_make_and_compose(self, data, levels, orientation):
        canon, mat = self.diagrams(data, levels, orientation)
        fast, ref = compute_orders(canon), materialized_orders(mat)
        low, high = blue_edges_at(mat, 0), blue_edges_at(mat, 1)
        for e, f in itertools.product(low[:6], high[:12]):
            pair = (e.label, f.label)
            if e.source_vertex == f.range_vertex:
                assert make_path(canon, pair, 1) == materialized_make_path(mat, pair, 1)
            else:
                with pytest.raises(StructuralError) as got:
                    make_path(canon, pair)
                with pytest.raises(StructuralError) as want:
                    materialized_make_path(mat, pair)
                assert str(got.value) == str(want.value)
            for red in range(3):
                p, q = Rank2Path((e.label,), red), Rank2Path((f.label,), 1)
                if materialized_path_source(mat, p) == f.range_vertex:
                    got = compose_paths(canon, fast, p, q)
                    assert got == materialized_compose_paths(mat, ref, p, q)
                else:
                    with pytest.raises(ValueError):
                        compose_paths(canon, fast, p, q)

    def test_unknown_labels(self, data, levels, orientation):
        canon, mat = self.diagrams(data, levels, orientation)
        n, j, i, _ = mat.blue[-1].label
        counts = canon.counts[n][i][j]
        for label in ((n, j, i, counts), (n, j, i, -1), (levels - 1, 0, 0, 0), (0, 5, 0, 0)):
            with pytest.raises(KeyError):
                path_range(canon, Rank2Path((label,), 0))
            with pytest.raises(KeyError):
                materialized_path_range(mat, Rank2Path((label,), 0))


def test_path_source_on_the_canonical_diagram():
    canon = canonical_rank2(CONSTANT2, 3)
    assert path_source(canon, Rank2Path(((0, 0, 0, 0),), 0)) == (1, 0, 0)


# Layouts no matrix data produces: a count that is not a multiple of a cycle
# length, or a cycle without blue edges.
BROKEN = {
    "source_short": (((2,), (3,)), (((4,),),)),
    "both_short": (((2,), (3,)), (((1,),),)),
    "idle_cycle": (((1, 2), (2, 3)), (((0, 2), (0, 6)),)),
    "upper_level": (((1,), (2,), (2,)), (((2,),), ((3,),))),
    # m = (0, 0, 6): the rotation of level 2 misses the level-1 sources
    "rotation_mismatch": (((1,), (1,), (4,)), (((2,),), ((6,),))),
    # m = (0, 0, 0, 2): F^2 wraps the level-2 pair of count 3 past its end
    "wrap_mismatch": (((1,), (1,), (1,), (2,)), (((1,),), ((2,),), ((3,),))),
}


def _outcome(fn, diagram):
    try:
        return "value", fn(diagram)
    except StructuralError as exc:
        return "error", str(exc)


def _skeleton(skeleton_of):
    def levels_and_mult(diagram):
        skeleton = skeleton_of(diagram)
        return skeleton.level_sizes, skeleton.mult

    return levels_and_mult


@pytest.mark.parametrize("orientation", (1, -1))
@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_layouts_match_the_materialized_diagram(name, orientation):
    sizes, counts = BROKEN[name]
    canon = CanonicalRank2Diagram(sizes, counts, orientation)
    mat = materialize_rank2(canon)

    assert not validate_rank2(canon).passed
    assert validate_rank2(canon) == materialized_validation(mat)
    assert _outcome(_skeleton(blue_skeleton), canon) == _outcome(
        _skeleton(materialized_skeleton), mat
    )


# Both refuse exactly what ``validate_rank2`` refuses.  A weaker check of
# their own once let layouts through: ``rank2_k_matrices`` returned
# A = ((0, 1), (0, 3)) on ``idle_cycle``, and ``rank2_automorphism``
# returned m = (0, 0) on ``source_short``, ``both_short`` and ``idle_cycle``.
@pytest.mark.parametrize("orientation", (1, -1))
@pytest.mark.parametrize("name", sorted(BROKEN))
@pytest.mark.parametrize("reader", (rank2_k_matrices, rank2_automorphism), ids=lambda f: f.__name__)
def test_broken_layouts_are_refused_with_the_violations(reader, name, orientation):
    sizes, counts = BROKEN[name]
    canon = CanonicalRank2Diagram(sizes, counts, orientation)
    with pytest.raises(StructuralError) as refused:
        reader(canon)
    assert str(refused.value) == (
        f"rank-2 layout fails validation:\n{validate_rank2(canon).describe()}"
    )


def test_non_proper_matrices_rejected_alike():
    # improper data never reaches either builder: Rank2Data refuses it
    with pytest.raises(StructuralError, match="matrices at level 0 must be proper"):
        Rank2Data(A=(((0,),),), B=(((0,),),), T=((1,), (1,)))


def test_plan_and_reverification_build_no_blue_edge(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a blue edge was materialized")

    monkeypatch.setattr(rank2_diagrams, "build_rank2", forbidden)
    monkeypatch.setattr(graph_model.Edge, "__init__", forbidden)
    for data, unit in ((CONSTANT2, (0, [2])), (TWO_CYCLE_ONES, (0, [1, 2]))):
        report = plan_rank2_realization(data, unit_class=unit, depth=3, lbound=10)
        assert report.telescoping["complete"]
        assert verify_report_json(json.loads(json.dumps(report.to_json())))


# ---------------------------------------------------------------------------
# Orbit-freeness: the residue sweep against the per-pair scan
# ---------------------------------------------------------------------------


def _same_certificate(orders, L):
    """``check_wfc`` equals the pair scan, key order included; returns it."""
    cert = check_wfc(orders, L)
    expected = scanned_rank2_wfc_certificate(orders, L)
    assert json.dumps(cert.to_json()) == json.dumps(expected.to_json())
    return cert


def seeded_orders(seed: int) -> OrderData:
    """One to three distinct orders per level, drawn above n * m_n so the
    order inequality holds, except that about one level in eight draws them
    above a lower floor, where the inequality may fail, and about one in
    eight has n * m_n itself as its least order, the tie where it fails."""
    rng = random.Random(seed)
    edge_orders, level_lcm, m = {}, [], [0]
    for n in range(rng.randint(1, 5)):
        floor = n * m[n]
        draw = rng.random() if floor else 1.0
        tie = floor and 0.125 <= draw < 0.25
        if floor and draw < 0.125:
            floor = rng.randint(0, floor - 1)
        level = rng.sample(range(floor + 1, floor + 30), rng.randint(1, 3))
        if tie:
            level[0] = floor
        edge_orders.update(((n, k), o) for k, o in enumerate(level))
        level_lcm.append(math.lcm(*level))
        m.append(m[-1] + n * level_lcm[-1])
    return OrderData(edge_orders, tuple(level_lcm), tuple(m), {})


def _orders_to_depth(orders: OrderData, depth: int) -> OrderData:
    """The orders of the diagram cut after edge level ``depth``."""
    edge_orders = {k: o for k, o in orders.edge_orders.items() if k[0] <= depth}
    return OrderData(edge_orders, orders.level_lcm[: depth + 1], orders.m[: depth + 2], {})


class TestWfcAgainstPairScan:
    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_canonical_cases(self, name, seed):
        data, levels = CASES[name]
        rng = random.Random(f"{name}:{seed}")
        for depth in range(levels - 1):
            # the certificate reaches the last edge level of its diagram
            orders = compute_orders(canonical_rank2(data, depth + 2))
            for L in (1, rng.randint(2, 30), 12, rng.randint(1, 20)):
                assert _same_certificate(orders, L).depth == depth

    @pytest.mark.parametrize(
        "data, depth, lbound",
        [
            (CONSTANT2, 5, 50),
            (CONSTANT3, 5, 50),
            (CONSTANT2, 7, 11),
            (CONSTANT2, 5, 200),
        ],
        ids=["const2_d5", "const3_d5", "const2_d7_s11", "const2_d5_l200"],
    )
    def test_benchmark_depths(self, data, depth, lbound):
        levels = depth + 2
        diagram = canonical_rank2(telescope_rank2(data, levels).telescoped, levels)
        cert = _same_certificate(compute_orders(diagram), lbound)
        if lbound == 200:
            # one pair (l, s) survives every level
            assert cert.details["undecided_pairs"] == [[137, 98]]
        else:
            assert cert.status == "certificate"

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_orders(self, seed):
        # several distinct orders per level: check_wfc reads nothing else
        orders = seeded_orders(seed)
        rng = random.Random(seed)
        top = orders.max_edge_level()
        for depth in {top, rng.randint(0, top)}:
            cut = _orders_to_depth(orders, depth)
            for L in (rng.randint(1, 40), rng.randint(1, 40)):
                assert _same_certificate(cut, L).depth == depth

    def test_a_least_order_equal_to_n_m_n_fails_the_inequality(self):
        # m_2 = m_1 + 1 * O_1 = 3, so the one order 6 at level 2 ties with
        # 2 * m_2: the inequality o(e) > n * m_n is strict, and fails there
        orders = OrderData({(0, 0): 2, (1, 0): 3, (2, 0): 6}, (2, 3, 6), (0, 0, 3, 15), {})
        cert = _same_certificate(orders, 5)
        row = cert.details["inequality"]["2"]
        assert (row["min_order"], row["n_times_m_n"], row["holds"]) == (6, 6, False)
        assert cert.status == "unknown"

    def test_outcomes_the_cases_cover(self):
        # the sweep meets all three outcomes on these diagrams
        tail, levels = CASES["figure_tail_d3"]
        undecided = _same_certificate(compute_orders(canonical_rank2(tail, levels - 1)), 30)
        assert undecided.status == "unknown"
        assert len(undecided.details["undecided_pairs"]) == 5
        certified = _same_certificate(compute_orders(canonical_rank2(tail, levels)), 30)
        assert certified.status == "certificate" and certified.details["s_bound"] == 30
        assert len(certified.details["witness_level_per_shift_and_red_offset"]) == 30 * 31
        # untelescoped constant data: o = 2 at level 2, but 2 * m_2 = 4
        failing = _same_certificate(compute_orders(canonical_rank2(CONSTANT2, 5)), 10)
        assert failing.details["note"] == "order inequality o(e) > n*m_n fails"
        mixed = canonical_rank2(TWO_CYCLE_MIXED, 3)
        assert any(len(compute_orders(mixed).orders_at(n)) > 1 for n in range(2))

    @pytest.mark.parametrize("shift_bound", [0, -3])
    def test_bounds_that_certify_nothing_are_rejected(self, shift_bound):
        orders = compute_orders(canonical_rank2(*CASES["const2_d3"]))
        with pytest.raises(ValueError, match="shift bound must be at least 1"):
            check_wfc(orders, shift_bound)


def test_telescope_matches_the_rescanned_chains():
    outcomes = set()
    for seed in range(12):
        for repeat in (False, True):
            for orientation in (1, -1):
                data = seeded_compatible_data(seed, repeat, orientation)
                for levels_out in range(3, 8):
                    for cap in (3, 10, 4096):
                        with level_cap(cap):
                            result = telescope_rank2(data, levels_out)
                        expected = rescanned_telescope_rank2(data, levels_out, cap)
                        assert result.to_json() == expected.to_json()
                        if result.complete:
                            outcomes.add("complete")
                        else:
                            outcomes.add(result.failure.split(" ", 2)[1])
    # "level" starts the cap failure, "horizon" the data-horizon failure
    assert outcomes == {"complete", "level", "horizon"}


class TestRedBlueCofinality:
    """The planner decides rank-2 minimality on the blue skeleton alone; the
    red+blue reachability oracle walks both colours."""

    @staticmethod
    def _diagram(data, depth):
        levels_out = depth + 2
        return canonical_rank2(telescope_rank2(data, levels_out).telescoped, levels_out)

    def test_planner_yes_is_cofinal(self):
        cases = [
            (rung["data"], rung["depth"], 50)
            for seed in range(5)
            for rung in bench_inputs().rank2_ladder(seed)
        ]
        cases += [
            (seeded_compatible_data(seed, repeat, orientation), depth, 7)
            for seed in range(20)
            for repeat in (False, True)
            for orientation in (1, -1)
            for depth in (1, 2, 3)
        ]
        certified = 0
        for data, depth, lbound in cases:
            minimality = plan_rank2_realization(data, depth=depth, lbound=lbound).minimality
            if minimality is not None and minimality.is_yes:
                certified += 1
                assert red_blue_cofinal(self._diagram(data, depth), depth + 1)
        assert certified >= 50

    @pytest.mark.parametrize("orientation", [1, -1])
    def test_figure_tail_is_cofinal_at_depth_three(self, orientation):
        rung = next(r for r in bench_inputs().rank2_ladder(0) if r["name"] == "figure_tail_d3")
        data = dataclasses.replace(rung["data"], orientation=orientation)
        assert red_blue_cofinal(self._diagram(data, 3), 4)

    def test_disjoint_cycles_are_not_cofinal(self):
        identity2 = ((1, 0), (0, 1))
        data = Rank2Data((identity2,), (identity2,), ((1, 1), (1, 1)), repeat_from=0)
        assert not red_blue_cofinal(canonical_rank2(data, 4), 3)
