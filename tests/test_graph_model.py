"""Diagrams, paths, telescoping and the edge-cycling automorphism."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_forge.graph_groupoid import InfiniteBouquet
from groupoid_forge.graph_model import (
    BratteliDiagram,
    Edge,
    constant_diagram,
    diagram_from_json,
    edge_cycle_automorphism,
    enumerate_paths,
    path_count_matrix,
    telescope,
    validate_bratteli,
    vertex_path,
)
from groupoid_forge.matrices import as_matrix
from groupoid_forge.validation import StructuralError

from helpers import brute_orbit_length


def figure_style_diagram():
    # one top vertex, three level-1 vertices, one edge from each
    return BratteliDiagram((1, 3), (as_matrix([[1, 1, 1]]),))


class TestValidate:
    def test_figure_style_passes(self):
        assert validate_bratteli(figure_style_diagram()).passed

    def test_missing_receiver_fails_naming_vertex(self):
        # level-1 vertex 1 receives nothing from level 2
        d = BratteliDiagram(
            (1, 2, 2),
            (as_matrix([[1, 1]]), as_matrix([[1, 1], [0, 0]])),
        )
        report = validate_bratteli(d)
        assert not report.passed
        assert any("(1, 1)" in v.subject and "receive" in v.invariant for v in report.violations)

    def test_missing_emitter_fails(self):
        d = BratteliDiagram(
            (2, 2),
            (as_matrix([[1, 0], [1, 0]]),),
        )
        report = validate_bratteli(d)
        assert any("E^1v" in v.invariant for v in report.violations)

    def test_level_skipping_edge_is_structural(self):
        data = {
            "levels": [{"size": 1}, {"size": 1}, {"size": 1}],
            "edges": [
                {"level": 0, "range": 0, "source": 0, "mult": 1, "source_level": 2}
            ],
        }
        with pytest.raises(StructuralError):
            diagram_from_json(data)

    def test_malformed_level_index_is_structural(self):
        data = {
            "levels": [{"size": 1}, {"size": 1}],
            "edges": [{"level": 5, "range": 0, "source": 0, "mult": 1}],
        }
        with pytest.raises(StructuralError):
            diagram_from_json(data)

    def test_json_round_trip(self):
        d = constant_diagram(2)
        assert diagram_from_json(d.to_json()) == d


class TestTelescope:
    def test_identity_subsequence(self):
        d = BratteliDiagram((1, 2, 1), (as_matrix([[1, 2]]), as_matrix([[3], [1]])))
        t = telescope(d, (0, 1, 2))
        assert t.mult == d.mult

    def test_constant_two_skip(self):
        # oracle: count all length-2 paths by brute force
        d = constant_diagram(2)
        brute = len(enumerate_paths(d, (0, 0), 2))
        assert brute == 4
        t = telescope(d, (0, 2, 4))
        assert t.mult == (((4,),), ((4,),))

    def test_growth_condition_through_level_five(self):
        # gaps chosen so 2^gap > n at every new level n <= 5
        d = constant_diagram(2)
        t = telescope(d, (0, 1, 2, 4, 6, 9, 12))
        for n in range(6):
            assert t.mult[n][0][0] > n
            assert t.mult[n][0][0] == 2 ** ((0, 1, 2, 4, 6, 9, 12)[n + 1] - (0, 1, 2, 4, 6, 9, 12)[n])

    def test_path_counts_within_a_level_are_the_identity(self):
        d = BratteliDiagram((1, 2, 1), (as_matrix([[1, 2]]), as_matrix([[3], [1]])))
        assert path_count_matrix(d, 1, 1) == ((1, 0), (0, 1))
        assert path_count_matrix(d, 0, 1) == d.mult[0]

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            telescope(constant_diagram(2), (0, 2, 1))

    def test_rejects_not_starting_at_zero(self):
        with pytest.raises(ValueError):
            telescope(constant_diagram(2), (1, 2))

    @given(
        st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_functorial_on_subsequences(self, gaps, data):
        d = BratteliDiagram(
            (1, 2, 1, 2, 1, 2, 1, 2, 1),
            tuple(
                as_matrix([[1, 2]]) if n % 2 == 0 else as_matrix([[2], [1]])
                for n in range(8)
            ),
        )
        s1 = [0]
        for g in gaps:
            s1.append(min(s1[-1] + g, d.horizon))
        s1 = sorted(set(s1))
        if len(s1) < 2:
            return
        idx = sorted(data.draw(st.sets(st.integers(0, len(s1) - 1), min_size=2)))
        if idx[0] != 0:
            idx = [0] + idx
        s2 = sorted(set(idx))
        once = telescope(telescope(d, s1), s2)
        composed = telescope(d, [s1[i] for i in s2])
        assert once == composed


class TestEnumeratePaths:
    def test_depth_zero_singleton(self):
        assert enumerate_paths(constant_diagram(2), (0, 0), 0) == (vertex_path((0, 0)),)

    def test_two_loops_depth_three(self):
        # oracle: 2^3 words over two parallel edges per level
        paths = enumerate_paths(constant_diagram(2), (0, 0), 3)
        assert len(paths) == 8
        assert len(set(paths)) == 8

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, 5, 6])
    def test_constant_two_counts_match_matrix_power(self, depth):
        d = constant_diagram(2)
        paths = enumerate_paths(d, (0, 0), depth)
        assert len(paths) == 2**depth
        if depth:
            assert path_count_matrix(d, 0, depth)[0][0] == 2**depth

    def test_deterministic_order(self):
        d = BratteliDiagram((1, 2, 1), (as_matrix([[2, 3]]), as_matrix([[4], [1]])), 0)
        p1 = enumerate_paths(d, (0, 0), 3)
        p2 = enumerate_paths(d, (0, 0), 3)
        assert p1 == p2
        keys = [tuple(e.label for e in p.edges) for p in p1]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys) == (2 * 4 + 3 * 1) * (2 + 3)

    def test_rejects_the_bouquet_and_absent_anchors(self):
        # the bouquet has no vertex "w"; its infinite edge family is not enumerable
        with pytest.raises(TypeError, match="BratteliDiagram"):
            enumerate_paths(InfiniteBouquet(), "w", 0)
        with pytest.raises(TypeError, match="BratteliDiagram"):
            enumerate_paths(InfiniteBouquet(), "v", 2)
        with pytest.raises(ValueError, match="not in diagram"):
            enumerate_paths(constant_diagram(2), (0, 1), 1)
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_paths(constant_diagram(2), (0, 0), -1)
        # a repetition rule extends a diagram below its last level, never
        # above level 0
        for repeat_from in (0, None):
            d = BratteliDiagram((1, 1), (as_matrix([[2]]),), repeat_from)
            assert not d.has_level(-1)
            with pytest.raises(ValueError, match=r"anchor \(-1, 0\) not in diagram"):
                enumerate_paths(d, (-1, 0), 1)


class TestEdgeCycle:
    def test_edges_between_lists_ranges_then_sources_then_copies(self):
        d = BratteliDiagram((2, 3), (as_matrix([[2, 0, 1], [1, 3, 0]]),))
        expected = [
            Edge((0, i, j, t), (0, i), (1, j))
            for i, row in enumerate(d.multiplicity_matrix(0))
            for j, k in enumerate(row)
            for t in range(k)
        ]
        assert d.edges_between(0) == tuple(expected)

    def test_multiplicity_one_is_identity(self):
        d = BratteliDiagram((1, 1), (as_matrix([[1]]),))
        a = edge_cycle_automorphism(d)
        e = d.edges_between(0)[0]
        assert a.edge_image(e) == e

    def test_three_cycle(self):
        d = BratteliDiagram((1, 1), (as_matrix([[3]]),))
        a = edge_cycle_automorphism(d)
        e0, e1, e2 = d.edges_between(0)
        assert a.edge_image(e0) == e1
        assert a.edge_image(e1) == e2
        assert a.edge_image(e2) == e0

    def test_order_is_lcm_by_brute_force(self):
        d = BratteliDiagram(
            (1, 2, 1),
            (as_matrix([[2, 3]]), as_matrix([[4], [1]])),
        )
        a = edge_cycle_automorphism(d)
        lengths = []
        for lvl in range(2):
            for e in d.edges_between(lvl):
                lengths.append(brute_orbit_length(a.edge_image, e))
        expected = 1
        for k in (2, 3, 4, 1):
            expected = math.lcm(expected, k)
        assert math.lcm(*lengths) == expected == a.order(2)

    def test_cycle_lengths_by_brute_force(self):
        d = BratteliDiagram((1, 2, 1), (as_matrix([[2, 6]]), as_matrix([[4], [3]])))
        a = edge_cycle_automorphism(d)
        lengths = []
        for lvl in range(2):
            walked = {brute_orbit_length(a.edge_image, e) for e in d.edges_between(lvl)}
            assert a.cycle_lengths(lvl) == walked
            lengths.extend(walked)
        assert a.order(2) == math.lcm(*lengths)

    def test_fixes_vertices_and_orbits_have_class_size(self):
        d = BratteliDiagram((1, 1), (as_matrix([[5]]),))
        a = edge_cycle_automorphism(d)
        for e in d.edges_between(0):
            image = a.edge_image(e)
            assert (image.range_vertex, image.source_vertex) == (e.range_vertex, e.source_vertex)
            assert brute_orbit_length(a.edge_image, e) == 5

    def test_edge_image_matches_index_formula(self):
        # oracle: the copy's index in its class, stepped modulo the class size
        d = BratteliDiagram((1, 2, 1), (as_matrix([[2, 5]]), as_matrix([[4], [3]])))
        a = edge_cycle_automorphism(d)
        for lvl in range(2):
            for e in d.edges_between(lvl):
                n, i, j, t = e.label
                image = a.edge_image(e)
                assert image.label == (n, i, j, (t + 1) % d.multiplicity_matrix(n)[i][j])
                assert (image.range_vertex, image.source_vertex) == (
                    e.range_vertex,
                    e.source_vertex,
                )
