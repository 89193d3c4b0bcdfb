"""The canonical rank-2 layout in closed form, against the per-edge
algorithms of ``tests/helpers.py`` run on the materialized diagram of
``build_rank2``; the orbit-freeness certificate's window against the
per-pair scan and its residue classes against a per-offset scan (and
mutants of the window sweep and the CRT walk against both); the report's
LC entries against walked orbits; and the telescope against the one that
recomputes every chain."""

import dataclasses
import itertools
import json
import math
import random
from functools import cache
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
    brute_orbit_length,
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
    mutant,
    red_blue_cofinal,
    rescanned_telescope_rank2,
    scanned_open_offsets,
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


@pytest.mark.parametrize("seed", range(5))
def test_report_lc_entries_are_walked_orbits(seed):
    # each entry of a planned report against its orbit, walked: a one-edge
    # path by iterating blue_image on its label until it returns, a blueless
    # one by walking its anchor along its red cycle
    for rung in bench_inputs().rank2_ladder(seed):
        report = plan_rank2_realization(rung["data"], rung["unit_class"], depth=rung["depth"])
        if not report.telescoping["complete"]:
            continue
        levels = rung["depth"] + 2
        diagram = canonical_rank2(telescope_rank2(rung["data"], levels).telescoped, levels)
        orders = compute_orders(diagram)
        per_level = {}
        for entry in report.lc.entries:
            p = entry.element
            if p.blue:
                (label,) = p.blue
                assert entry.l == brute_orbit_length(orders.blue_image, label)
                per_level[label[0]] = per_level.get(label[0], 0) + 1
            else:
                assert entry.l == walked_rank2_lc_lengths(orders, [p])[0]
        # up to 4 edges at every edge level; the levels from 2 on have m_n > 0
        assert all(orders.m[n] > 0 for n in range(2, levels - 1))
        expected = {n: min(4, len(list(diagram.blue_labels_at(n)))) for n in range(levels - 1)}
        assert per_level == expected
        assert max(e.l for e in report.lc.entries) > 1, rung["name"]


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
# Orbit-freeness: the window against the per-pair scan, the classes against
# a per-offset scan
# ---------------------------------------------------------------------------


def window_verdict(cert: dict) -> tuple:
    """What a certificate says about the window 1 <= l <= L, 0 <= s <= L:
    its status, depth, bound, inequality rows and undecided pairs."""
    details = cert["details"]
    return (
        cert["status"], cert["depth"], cert["shift_bound"], details.get("note"),
        details["inequality"], details.get("undecided_pairs"),
    )


def scanned_wfc(orders, L) -> tuple:
    """(the pair scan's window verdict, whether each level has one order,
    and per shift l the offsets -3L <= s <= 3L that no level witnesses, by
    a per-offset scan), or the verdict alone when the inequality fails."""
    verdict = window_verdict(scanned_rank2_wfc_certificate(orders, L).to_json())
    if verdict[3] is not None:
        return verdict, None, None
    levels = range(orders.max_edge_level() + 1)
    single = all(len(orders.orders_at(t)) == 1 for t in levels)
    opens = tuple(scanned_open_offsets(orders, l, -3 * L, 3 * L) for l in range(1, L + 1))
    return verdict, single, opens


def class_misses(cert: dict, L: int, single, opens) -> int:
    """How many offsets -3L <= s <= 3L break a shift's class r mod M: an
    open offset outside it or, when each level has one order, an offset
    inside it that a level witnesses; and how many classes have r outside
    0..M-1.  Classes keyed other than by the shifts 1..L in order count as
    one."""
    classes = cert["details"]["open_class_per_shift"]
    M = cert["details"]["open_class_modulus"]
    if list(classes) != [str(l) for l in range(1, L + 1)]:
        return 1
    misses = 0
    for l, open_ in enumerate(opens, 1):
        r = classes[str(l)]
        inside = set()
        if r is not None:
            misses += not 0 <= r < M
            inside = set(range(-3 * L + (r + 3 * L) % M, 3 * L + 1, M))
        misses += len(set(open_) - inside) + (len(inside - set(open_)) if single else 0)
    return misses


def wfc_disagreements(check, orders, L, scans) -> int:
    """How far ``check`` strays from the scans: 1 for a different window
    verdict, else the class misses (none when the inequality fails)."""
    verdict, single, opens = scans
    cert = check(orders, L).to_json()
    if window_verdict(cert) != verdict:
        return 1
    return 0 if opens is None else class_misses(cert, L, single, opens)


def _agreeing_certificate(orders, L):
    """``check_wfc``'s certificate, which agrees with the scans; returns it."""
    assert wfc_disagreements(check_wfc, orders, L, scanned_wfc(orders, L)) == 0
    return check_wfc(orders, L)


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


def canonical_wfc_cases(name: str, seed: int):
    """(depth, orders, L): the case's diagram cut after each edge level,
    under four seeded shift bounds each."""
    data, levels = CASES[name]
    rng = random.Random(f"{name}:{seed}")
    for depth in range(levels - 1):
        orders = compute_orders(canonical_rank2(data, depth + 2))
        for L in (1, rng.randint(2, 30), 12, rng.randint(1, 20)):
            yield depth, orders, L


def seeded_wfc_cases(seed: int):
    """(depth, orders, L): the seeded orders, whole and cut at a seeded
    level, under two seeded shift bounds each."""
    orders = seeded_orders(seed)
    rng = random.Random(seed)
    top = orders.max_edge_level()
    for depth in {top, rng.randint(0, top)}:
        cut = _orders_to_depth(orders, depth)
        for L in (rng.randint(1, 40), rng.randint(1, 40)):
            yield depth, cut, L


BENCHMARK_DEPTHS = {
    "const2_d5": (CONSTANT2, 5, 50),
    "const3_d5": (CONSTANT3, 5, 50),
    "const2_d7_s11": (CONSTANT2, 7, 11),
    "const2_d5_l200": (CONSTANT2, 5, 200),
}


def benchmark_orders(data, depth):
    """The orders of the telescoped diagram a depth-``depth`` plan builds."""
    levels = depth + 2
    return compute_orders(canonical_rank2(telescope_rank2(data, levels).telescoped, levels))


def deep_orders() -> OrderData:
    """Levels 0..299 have the one order 1, which misses every offset; at
    level 300 (m = 1) the order 1000 misses only s = l mod 1000, at 301
    (m = 2) only s = 2l mod 1000, and no shift 1..999 is both: every class
    is null."""
    top = 301
    edge_orders = {(n, 0): 1 for n in range(top - 1)} | {(top - 1, 0): 1000, (top, 0): 1000}
    lcms = (1,) * (top - 1) + (1000, 1000)
    return OrderData(edge_orders, lcms, (0,) * (top - 1) + (1, 2), {})


@cache
def scanned_cases() -> dict:
    """Per test group, (depth, orders, L, scans) over ``TestWfcAgainstScans``'s
    canonical, benchmark, seeded and deep cases, each scanned once per
    session."""
    groups = {
        ("canonical", name, seed): list(canonical_wfc_cases(name, seed))
        for name in CASES
        for seed in range(3)
    }
    groups.update(
        (("benchmark", name), [(depth, benchmark_orders(data, depth), L)])
        for name, (data, depth, L) in BENCHMARK_DEPTHS.items()
    )
    groups.update((("seeded", seed), list(seeded_wfc_cases(seed))) for seed in range(40))
    groups[("deep",)] = [(301, deep_orders(), 30)]
    return {
        group: [(depth, orders, L, scanned_wfc(orders, L)) for depth, orders, L in cases]
        for group, cases in groups.items()
    }


def _checked(group):
    """``check_wfc`` on each case of the group, each agreeing with the scans."""
    for depth, orders, L, scans in scanned_cases()[group]:
        assert wfc_disagreements(check_wfc, orders, L, scans) == 0
        cert = check_wfc(orders, L)
        assert cert.depth == depth
        yield cert


class TestWfcAgainstScans:
    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_canonical_cases(self, name, seed):
        # the certificate reaches the last edge level of its diagram
        assert len(list(_checked(("canonical", name, seed)))) == 4 * (CASES[name][1] - 1)

    @pytest.mark.parametrize("name", BENCHMARK_DEPTHS)
    def test_benchmark_depths(self, name):
        (cert,) = _checked(("benchmark", name))
        if name == "const2_d5_l200":
            # one pair (l, s) survives every level
            assert cert.details["undecided_pairs"] == [[137, 98]]
        else:
            assert cert.status == "certificate"
        if name == "const2_d5":
            # (23, 734) is open at every level, past the window: on one-cycle
            # data each shift keeps one class, s = l*m_5 mod o_5
            assert cert.details["open_class_per_shift"]["23"] == 734
            assert cert.details["open_class_modulus"] == 32768
            assert scanned_open_offsets(benchmark_orders(CONSTANT2, 5), 23, 734, 734) == [734]

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_orders(self, seed):
        # several distinct orders per level: check_wfc reads nothing else
        assert list(_checked(("seeded", seed)))

    def test_a_deep_level_closes_every_class(self):
        (cert,) = _checked(("deep",))
        assert cert.status == "certificate"
        assert set(map(str, cert.details["open_class_per_shift"].values())) == {"None"}

    def test_several_orders_give_an_outer_bound(self):
        # orders 2 and 3 at level 0 and 5 at level 1, with m = 0 at both: the
        # open offsets of shift 1 are the multiples of 5 that are even or
        # multiples of 3, and the class, s = 0 mod 5 with g_0 = gcd(2, 3) = 1,
        # holds the witnessed -5 and 5 as well
        orders = OrderData({(0, 0): 2, (0, 1): 3, (1, 0): 5}, (6, 5), (0, 0, 5), {})
        cert = check_wfc(orders, 4)
        assert cert.details["open_class_per_shift"]["1"] == 0
        assert cert.details["open_class_modulus"] == 5
        assert scanned_open_offsets(orders, 1, -10, 10) == [-10, 0, 10]
        assert wfc_disagreements(check_wfc, orders, 4, scanned_wfc(orders, 4)) == 0

    def test_a_least_order_equal_to_n_m_n_fails_the_inequality(self):
        # m_2 = m_1 + 1 * O_1 = 3, so the one order 6 at level 2 ties with
        # 2 * m_2: the inequality o(e) > n * m_n is strict, and fails there
        orders = OrderData({(0, 0): 2, (1, 0): 3, (2, 0): 6}, (2, 3, 6), (0, 0, 3, 15), {})
        assert wfc_disagreements(check_wfc, orders, 5, scanned_wfc(orders, 5)) == 0
        cert = check_wfc(orders, 5)
        row = cert.details["inequality"]["2"]
        assert (row["min_order"], row["n_times_m_n"], row["holds"]) == (6, 6, False)
        assert cert.status == "unknown"

    def test_outcomes_the_cases_cover(self):
        # the sweep meets all three outcomes on these diagrams
        tail, levels = CASES["figure_tail_d3"]
        undecided = _agreeing_certificate(compute_orders(canonical_rank2(tail, levels - 1)), 30)
        assert undecided.status == "unknown"
        assert len(undecided.details["undecided_pairs"]) == 5
        certified = _agreeing_certificate(compute_orders(canonical_rank2(tail, levels)), 30)
        assert certified.status == "certificate" and certified.shift_bound == 30
        assert len(certified.details["open_class_per_shift"]) == 30
        # untelescoped constant data: o = 2 at level 2, but 2 * m_2 = 4
        failing = _agreeing_certificate(compute_orders(canonical_rank2(CONSTANT2, 5)), 10)
        assert failing.details["note"] == "order inequality o(e) > n*m_n fails"
        mixed = canonical_rank2(TWO_CYCLE_MIXED, 3)
        assert any(len(compute_orders(mixed).orders_at(n)) > 1 for n in range(2))
        # the scanned cases meet null classes, classes that meet the window
        # at its edge L and levels with several orders
        met = {"null": 0, "edge": 0, "several": 0}
        for group in scanned_cases().values():
            for _, orders, L, (verdict, single, _) in group:
                if verdict[3] is None:
                    classes = check_wfc(orders, L).details["open_class_per_shift"].values()
                    met["null"] += None in classes
                    met["edge"] += L in classes
                    met["several"] += not single
        assert min(met.values()) > 0, met

    @pytest.mark.parametrize("shift_bound", [0, -3])
    def test_bounds_that_certify_nothing_are_rejected(self, shift_bound):
        orders = compute_orders(canonical_rank2(*CASES["const2_d3"]))
        with pytest.raises(ValueError, match="shift bound must be at least 1"):
            check_wfc(orders, shift_bound)


def grid_orders():
    """(name, orders) of each complete telescope among the plans of the
    seed-0 rank-2 ladder at depths 1-6 and of seeded compatible data, seeds
    0-39 under both repetition rules, at depths 1-4.  The orders do not
    depend on the orientation, so one of each suffices."""
    datas = [(r["name"], r["data"], 6) for r in bench_inputs().rank2_ladder(0)]
    datas += [
        (f"seeded{seed}:{repeat}", seeded_compatible_data(seed, repeat, 1), 4)
        for seed in range(40)
        for repeat in (False, True)
    ]
    for name, data, depths in datas:
        for depth in range(1, depths + 1):
            tele = telescope_rank2(data, depth + 2)
            if tele.complete:
                yield f"{name}:{depth}", compute_orders(canonical_rank2(tele.telescoped, depth + 2))


def test_plans_agree_with_the_scans():
    # the ladder at lbound 10 and 50, the seeded data at lbound 10: the
    # window against the pair scan, the classes against the per-offset scan
    several = 0
    for name, orders in grid_orders():
        for L in (10,) if name.startswith("seeded") else (10, 50):
            scans = scanned_wfc(orders, L)
            assert wfc_disagreements(check_wfc, orders, L, scans) == 0, (name, L)
            several += scans[1] is False
    assert several


def scan_disagreements(check) -> int:
    """How far ``check`` strays from the scans over every case of the groups."""
    return sum(
        wfc_disagreements(check, orders, L, scans)
        for group in scanned_cases().values()
        for _, orders, L, scans in group
    )


WFC_SWEEP_MUTANTS = {
    "a progression starting at L is dropped": ("if start <= L:", "if start < L:"),
    "each comb is one bit short": ("L // o + 1", "L // o"),
    "a class at the window's edge is not swept": ("r > L", "r >= L"),
    "the CRT step tests consistency mod the wrong modulus": ("if a % d:", "if a % g:"),
    "the modulus forgets the gcd": ("M = M // d * g", "M = M * g"),
    "the step is not lifted by the modulus below": ("r += below * (", "r += ("),
}


class TestWfcSweepMutants:
    """A mutation gate for the window sweep and the CRT walk: each fixed
    mutant of ``certificates.check_wfc`` disagrees with the scans on the
    cases of ``TestWfcAgainstScans``, and the unmutated copy agrees on all."""

    def test_the_unmutated_source_agrees(self):
        check = mutant(check_wfc, "if start <= L:", "if start <= L:")
        assert check is not check_wfc
        assert scan_disagreements(check) == 0

    @pytest.mark.parametrize("name", sorted(WFC_SWEEP_MUTANTS))
    def test_each_mutant_is_killed(self, name):
        assert scan_disagreements(mutant(check_wfc, *WFC_SWEEP_MUTANTS[name]))


def test_telescope_matches_the_rescanned_chains():
    # on repeating data the growth search resumes its walks; caps 5 to 20
    # stop some of them partway
    outcomes = set()
    for seed in range(12):
        for repeat in (False, True):
            caps = (3, 10, 4096) + (tuple(range(5, 21)) if repeat else ())
            for orientation in (1, -1):
                data = seeded_compatible_data(seed, repeat, orientation)
                for levels_out in range(3, 8):
                    for cap in caps:
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
