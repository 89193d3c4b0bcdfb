"""Rank-2 diagrams: the canonical builder, order data, the telescoping
algorithm and the power automorphism."""

import math

import pytest

from families import rng_for
from groupoid_forge.rank2_diagrams import (
    Rank2Data,
    Rank2Diagram,
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
    rank2_data_from_json,
    reverify_telescope,
    telescope_rank2,
    validate_rank2,
)
from groupoid_forge.validation import StructuralError

from helpers import (
    blue_by_label,
    blue_edges_at,
    brute_orbit_length,
    level_cap,
    materialized_orders,
    materialized_validation,
    rank2_path_image,
)

FIGURE = Rank2Data(
    A=(((3,),), ((4,),)),
    B=(((1,),), ((2,),)),
    T=((1,), (3,), (6,)),
)

CONSTANT2 = Rank2Data(A=(((2,),),), B=(((2,),),), T=((1,), (1,)), repeat_from=0)


class TestBuild:
    def test_figure_level_zero_order_three(self):
        diagram = canonical_rank2(FIGURE, 2)
        orders = compute_orders(diagram)
        assert orders.orders_at(0) == (3,)
        assert orders.level_lcm[0] == 3

    def test_figure_level_one_order_twelve(self):
        diagram = canonical_rank2(FIGURE, 3)
        orders = compute_orders(diagram)
        assert orders.orders_at(1) == (12,)
        assert orders.level_lcm == (3, 12)

    def test_orders_by_brute_force_orbit(self):
        diagram = build_rank2(FIGURE, 3)
        orders = compute_orders(canonical_rank2(FIGURE, 3))
        for e in diagram.blue:
            assert orders.edge_order(e.label) == brute_orbit_length(
                lambda lbl: diagram.f_map[lbl], e.label
            )

    def test_double_counting_on_seeded_inputs(self):
        rng = rng_for(77)
        for _ in range(20):
            c0, c1 = rng.randint(1, 2), rng.randint(1, 2)
            T0 = tuple(rng.randint(1, 3) for _ in range(c0))
            T1 = tuple(rng.randint(1, 3) for _ in range(c1))
            A = []
            B = []
            ok = True
            for i in range(c1):
                rowA, rowB = [], []
                for j in range(c0):
                    # pick the count of blue edges as a common multiple
                    count = math.lcm(T0[j], T1[i]) * rng.randint(1, 2)
                    rowA.append(count // T0[j])
                    rowB.append(count // T1[i])
                A.append(tuple(rowA))
                B.append(tuple(rowB))
            data = Rank2Data((tuple(A),), (tuple(B),), (T0, T1))
            diagram = build_rank2(data, 2)
            # F and the degree conditions edge by edge on the built diagram,
            # and the closed form agreeing with that scan
            assert materialized_validation(diagram).passed
            assert validate_rank2(canonical_rank2(data, 2)) == materialized_validation(
                diagram
            )
            # blue-edge count per cycle pair equals A*T_low and B*T_high
            for i in range(c1):
                for j in range(c0):
                    count = sum(
                        1
                        for e in diagram.blue
                        if e.range_vertex[1] == j and e.source_vertex[1] == i
                    )
                    assert count == A[i][j] * T0[j] == B[i][j] * T1[i]

    def test_compatibility_violation_rejected(self):
        with pytest.raises(StructuralError):
            Rank2Data(A=(((4,),),), B=(((2,),),), T=((1,), (3,)))

    @pytest.mark.parametrize(
        "a", [((1, 1), (0, 0)), ((1, 0), (1, 0))], ids=["zero-row", "zero-column"]
    )
    def test_improper_matrix_rejected(self, a):
        # T = 1 everywhere, so compatibility makes B = A
        with pytest.raises(StructuralError, match="matrices at level 0 must be proper"):
            Rank2Data(A=(a,), B=(a,), T=((1, 1), (1, 1)))

    def test_negative_matrices_rejected(self):
        # compatibility holds, and the telescope keeps only even-length
        # chains, whose products are positive
        with pytest.raises(StructuralError, match="A_0 must be nonnegative"):
            Rank2Data(A=(((-2,),),), B=(((-2,),),), T=((1,), (1,)), repeat_from=0)

    def test_improper_matrix_rejected_at_any_stored_level(self):
        # no diagram of fewer than five levels reaches A_3
        one, zero = ((2,),), ((0,),)
        with pytest.raises(StructuralError, match="matrices at level 3 must be proper"):
            Rank2Data(A=(one, one, one, zero), B=(one, one, one, zero), T=((1,),) * 5)

    def test_orientation_other_than_plus_or_minus_one_rejected(self):
        with pytest.raises(StructuralError, match="orientation must be \\+1 or -1"):
            Rank2Data(A=(((2,),),), B=(((2,),),), T=((1,), (1,)), orientation=2)

    def test_validate_catches_broken_factorization(self):
        # the materialized oracle must notice a scrambled F: no canonical
        # diagram can carry one
        diagram = build_rank2(FIGURE, 2)
        assert materialized_validation(diagram).passed
        f2 = dict(diagram.f_map)
        labels = list(f2)
        # force F to fix an edge whose red predecessor differs
        f2[labels[0]], f2[labels[1]] = f2[labels[1]], f2[labels[0]]
        broken = Rank2Diagram(diagram.cycle_sizes, diagram.blue, f2)
        assert not materialized_validation(broken).passed

    def test_all_trivial_diagram(self):
        data = Rank2Data(A=(((1,),),), B=(((1,),),), T=((1,), (1,)), repeat_from=0)
        # orders read off the orbits of the built F, and the closed form
        ref = materialized_orders(build_rank2(data, 4))
        assert len(ref.edge_orders) == 3
        assert all(o == 1 for o in ref.edge_orders.values())
        orders = compute_orders(canonical_rank2(data, 4))
        assert all(orders.edge_order(label) == 1 for label in ref.edge_orders)
        assert orders.m == ref.m == (0, 0, 1, 3)

    def test_json_round_trip(self):
        data, horizon = rank2_data_from_json(FIGURE.to_json() | {"horizon": 3})
        assert data == FIGURE and horizon == 3

    def test_orientation_is_read_as_given(self):
        base = {k: v for k, v in FIGURE.to_json().items() if k != "orientation"}
        assert rank2_data_from_json(base)[0].orientation == 1
        assert rank2_data_from_json(base | {"orientation": "-1"})[0].orientation == -1
        for value in (1, -1, -1.0, True, "1"):
            with pytest.raises(StructuralError, match=f"orientation must be .*got {value!r}"):
                rank2_data_from_json(base | {"orientation": value})


class TestFigureCaption:
    def test_range_returns_after_level_lcm_powers(self):
        # for f ranging at level 1: r(F^{l*O_1}(f)) = r(f), and already for O_0
        diagram = canonical_rank2(FIGURE, 3)
        orders = compute_orders(diagram)
        O0, O1 = orders.level_lcm
        for label in diagram.blue_labels_at(1):
            home = diagram.blue_ends(label)[0]
            for l in range(1, 5):
                moved = orders.f_power(label, l * O1)
                assert diagram.blue_ends(moved)[0] == home
            moved0 = orders.f_power(label, O0)
            assert diagram.blue_ends(moved0)[0] == home


class TestTelescope:
    def test_constant_two_certificate(self):
        result = telescope_rank2(CONSTANT2, 7)
        assert result.complete
        assert result.M[0] == 0 and result.M[1] == 0
        for entry in result.certificate:
            step = entry["step"]
            assert entry["strict_bound"] == step * result.M[step]
            assert entry["min_entry"] > entry["strict_bound"]
        assert reverify_telescope(result)

    def test_order_formula_round_trip(self):
        # the orbit lengths of the materialized F against o(e) = A(i,j) T(j)
        result = telescope_rank2(CONSTANT2, 7)
        orders = materialized_orders(build_rank2(result.telescoped, 7))
        tele = result.telescoped
        for label, o in orders.edge_orders.items():
            n, j, i, _ = label
            assert o == tele.A[n][i][j] * tele.T[n][j]

    def test_orders_beat_m_recursion(self):
        result = telescope_rank2(CONSTANT2, 7)
        diagram = canonical_rank2(result.telescoped, 7)
        orders = compute_orders(diagram)
        for n in range(6):
            assert orders.min_order_at(n) > n * orders.m[n]

    def test_horizon_exhaustion_reports_partial(self):
        with level_cap(4):
            result = telescope_rank2(CONSTANT2, 7)
        assert not result.complete
        assert result.failure and result.telescoped is None
        assert not reverify_telescope(result)

    def test_reverify_rejects_tampering(self):
        result = telescope_rank2(CONSTANT2, 6)
        assert reverify_telescope(result)
        tampered = result._replace(M=tuple(list(result.M[:-1]) + [result.M[-1] + 1]))
        assert not reverify_telescope(tampered)
        # a failure makes the result incomplete, whatever else it records
        failed = result._replace(failure="data horizon 3 reached")
        assert not failed.complete and not reverify_telescope(failed)
        # each recorded level is the first whose chain beats its bound, so the
        # level above it does not
        for k, entry in enumerate(result.certificate):
            certificate = list(result.certificate)
            certificate[k] = {**entry, "level": entry["level"] - 1}
            assert not reverify_telescope(result._replace(certificate=tuple(certificate)))


class TestPaths:
    def test_range_source_of_mixed_path(self):
        diagram = canonical_rank2(FIGURE, 3)
        e = blue_edges_at(build_rank2(FIGURE, 3), 0)[0]
        p = make_path(diagram, (e.label,), red_degree=2)
        assert path_range(diagram, p) == e.range_vertex
        n, j, pos = e.source_vertex
        assert path_source(diagram, p) == diagram.red_walk((n, j, pos), -2)

    def test_composition_normal_form(self):
        diagram, mat = canonical_rank2(FIGURE, 3), build_rank2(FIGURE, 3)
        orders = compute_orders(diagram)
        e0 = blue_edges_at(mat, 0)[0]
        red = Rank2Path((), 1, e0.source_vertex)
        p = Rank2Path((e0.label,), 0)
        combined = compose_paths(diagram, orders, p, red)
        assert combined.blue == (e0.label,) and combined.red_degree == 1
        # red segment then blue edge: the blue edge picks up one F
        f = next(
            x for x in blue_edges_at(mat, 1)
            if x.range_vertex == path_source(diagram, combined)
        )
        q = Rank2Path((f.label,), 0)
        total = compose_paths(diagram, orders, combined, q)
        assert total.blue == (e0.label, orders.f_power(f.label, 1))
        assert total.red_degree == 1

    def test_degree_additive(self):
        diagram, mat = canonical_rank2(FIGURE, 3), build_rank2(FIGURE, 3)
        orders = compute_orders(diagram)
        e0 = blue_edges_at(mat, 0)[0]
        p = Rank2Path((e0.label,), 1)
        f = next(
            x for x in blue_edges_at(mat, 1)
            if x.range_vertex == path_source(diagram, p)
        )
        q = Rank2Path((f.label,), 2)
        total = compose_paths(diagram, orders, p, q)
        assert (len(total.blue), total.red_degree) == (2, 3)


class TestAutomorphism:
    """The closed-form automorphism, checked against the blue edges that
    ``build_rank2`` materializes."""

    def test_levels_zero_one_fixed(self):
        orders = rank2_automorphism(canonical_rank2(FIGURE, 3))
        assert orders.m[:2] == (0, 0)
        for e in blue_edges_at(build_rank2(FIGURE, 3), 0):
            assert orders.blue_image(e.label) == e.label

    def test_level_two_moves_through_power_twelve(self):
        data = Rank2Data(
            A=(((3,),), ((4,),), ((2,),)),
            B=(((1,),), ((2,),), ((2,),)),
            T=((1,), (3,), (6,), (6,)),
        )
        diagram, mat = canonical_rank2(data, 4), build_rank2(data, 4)
        orders = rank2_automorphism(diagram)
        assert orders.m[2] == 12
        for e in blue_edges_at(mat, 2):
            assert orders.blue_image(e.label) == orders.f_power(e.label, 12)
        # exhaustive source/range compatibility on composable blue pairs
        by_label = blue_by_label(mat)
        for e in blue_edges_at(mat, 1):
            for f in blue_edges_at(mat, 2):
                if e.source_vertex != f.range_vertex:
                    continue
                img_e = by_label[orders.blue_image(e.label)]
                img_f = by_label[orders.blue_image(f.label)]
                assert img_e.source_vertex == img_f.range_vertex

    def test_vertex_rotation_consistent(self):
        result = telescope_rank2(CONSTANT2, 6)
        mat = build_rank2(result.telescoped, 6)
        orders = rank2_automorphism(canonical_rank2(result.telescoped, 6))
        by_label = blue_by_label(mat)

        def rotated(v):
            return rank2_path_image(orders, Rank2Path((), 0, v)).anchor

        for e in mat.blue:
            img = by_label[orders.blue_image(e.label)]
            assert img.range_vertex == rotated(e.range_vertex)
            assert img.source_vertex == rotated(e.source_vertex)

    def test_path_image_preserves_composition(self):
        # levels 0-1 of the figure, where m_n = 0, and levels 2-3 of the
        # telescoped constant data, where F^{m_n} moves every edge
        tele = telescope_rank2(CONSTANT2, 6).telescoped
        for data, levels, n in ((FIGURE, 3, 0), (tele, 6, 2)):
            diagram, mat = canonical_rank2(data, levels), build_rank2(data, levels)
            orders = rank2_automorphism(diagram)
            e0 = blue_edges_at(mat, n)[0]
            p = Rank2Path((e0.label,), 1)
            f = next(
                x for x in blue_edges_at(mat, n + 1)
                if x.range_vertex == path_source(diagram, p)
            )
            q = Rank2Path((f.label,), 0)
            lhs = rank2_path_image(orders, compose_paths(diagram, orders, p, q))
            rhs = compose_paths(
                diagram, orders, rank2_path_image(orders, p), rank2_path_image(orders, q)
            )
            assert lhs == rhs
        assert rank2_path_image(orders, p) != p


class TestSkeleton:
    def test_blue_skeleton_shape(self):
        skel = blue_skeleton(canonical_rank2(FIGURE, 3))
        assert skel.level_sizes == (1, 3, 6)
        assert sum(sum(row) for row in skel.mult[0]) == 3
        assert sum(sum(row) for row in skel.mult[1]) == 12
