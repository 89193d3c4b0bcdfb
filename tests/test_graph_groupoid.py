"""The symbolic layer: shifts, germs, the bisection calculus and its
brute-force germ oracle, the cylinder finder, and lifted automorphisms."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_forge.graph_groupoid import (
    BasicBisection,
    GermElement,
    InfiniteBouquet,
    SymbolicTail,
    basic_proper_subset,
    basic_subset,
    bisection_product,
    difference_basic,
    disjoint_sum,
    find_cylinder_inside,
    germs_in_bisection,
    intersect_basic,
    lift_graph_automorphism,
    render_bisection,
    repeat_word,
    shift,
    unit_bisection,
)
from groupoid_forge.graph_model import (
    edge_permutation_automorphism,
    loop_graph,
    vertex_path,
)

from helpers import all_words, germ_universe, product_member_oracle, sum_contains

BQ = InfiniteBouquet()


def bq_bis(r, s, excl=()):
    return BasicBisection(BQ.path(r), BQ.path(s), frozenset(BQ.edge(i) for i in excl))


class TestShift:
    def test_zero_shift_identity(self):
        p = BQ.path([1, 2, 3])
        assert shift(p, 0) == p

    def test_one_step(self):
        assert shift(BQ.path([1, 2, 3]), 1) == BQ.path([2, 3])

    def test_full_shift_gives_vertex(self):
        assert shift(BQ.path([1]), 1) == vertex_path(BQ.vertex)

    def test_composition_law_exhaustive(self):
        # sigma^{m+n} = sigma^n o sigma^m on all words of length <= 5
        g = loop_graph(2)
        for w in all_words(g, "v", 5):
            for m in range(len(w) + 1):
                for n in range(len(w) - m + 1):
                    assert shift(w, m + n) == shift(shift(w, m), n)

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            shift(BQ.path([1]), 2)

    def test_symbolic_tail_rejects_positive(self):
        t = SymbolicTail(BQ.vertex)
        assert shift(t, 0) is t
        with pytest.raises(ValueError):
            shift(t, 1)


class TestGerms:
    def test_degree_and_inverse(self):
        g = GermElement(BQ.path([1, 2]), BQ.path([3]), BQ.path([4]))
        assert g.degree == 1
        assert g.inverse().degree == -1

    def test_compose_concrete(self):
        g = GermElement(BQ.path([1]), BQ.path([2]), BQ.path([7]))
        h = GermElement(BQ.path([2, 7]), BQ.path([5]), vertex_path(BQ.vertex))
        k = g.compose(h)
        assert k.triple()[0] == BQ.path([1, 7])
        assert k.degree == g.degree + h.degree

    def test_compose_mismatch_raises(self):
        g = GermElement(BQ.path([1]), BQ.path([2]), vertex_path(BQ.vertex))
        h = GermElement(BQ.path([3]), BQ.path([4]), vertex_path(BQ.vertex))
        with pytest.raises(ValueError):
            g.compose(h)

    def test_symbolic_compose_shared_tail(self):
        z = SymbolicTail(BQ.vertex)
        g = GermElement(BQ.path([1]), BQ.path([2]), z)
        h = GermElement(BQ.path([2]), BQ.path([3]), z)
        assert g.compose(h).nu == BQ.path([3])

    def test_degree_additivity_on_universe(self):
        g = loop_graph(2)
        universe = germ_universe(g, "v", 3)
        for (x, p, y), (x2, q, y2) in itertools.product(universe[:40], universe[:40]):
            if y == x2:
                assert p + q == (len(x) - len(y2))


class TestBisectionProductOracle:
    """The calculus against direct germ membership, exhaustively on a core
    grid and sampled more widely."""

    def _check_pair(self, a, b, graph, candidates):
        result = bisection_product(a, b)
        for cand in candidates:
            assert sum_contains(result, cand) == product_member_oracle(a, b, cand), (
                render_bisection(a),
                render_bisection(b),
                cand,
            )

    def test_exhaustive_no_exclusions(self):
        g = loop_graph(2)
        words = all_words(g, "v", 2)
        candidates = germ_universe(g, "v", 3)
        bisections = [BasicBisection(x, y) for x in words for y in words]
        for a in bisections:
            for b in bisections:
                self._check_pair(a, b, g, candidates)

    def test_exclusion_grid(self):
        g = loop_graph(3)
        words = all_words(g, "v", 2)
        excl_options = [frozenset(), frozenset({g.edges[0]}), frozenset({g.edges[0], g.edges[2]})]
        candidates = germ_universe(g, "v", 3)
        import random

        rng = random.Random(7)
        bisections = [
            BasicBisection(x, y, f)
            for x in words
            for y in words
            for f in excl_options
        ]
        for _ in range(400):
            a, b = rng.choice(bisections), rng.choice(bisections)
            self._check_pair(a, b, g, candidates)

    def test_spec_anchor_cases(self):
        # Z(a,b).Z(b,d) = Z(a,d)
        out = bisection_product(bq_bis([1, 2], [3], ()), bq_bis([3], [4, 5], ()))
        assert out == bq_bis([1, 2], [4, 5], ())
        # Z(v,e1).Z(e2,v) vanishes: mismatched inner edges
        assert bisection_product(bq_bis([], [1]), bq_bis([2], [])) is None
        # Z(v,e1).Z(e1,v) = Z(v): all units
        out = bisection_product(bq_bis([], [1]), bq_bis([1], []))
        assert out == bq_bis([], [], ())

    def test_degree_additivity(self):
        a, b = bq_bis([1, 2], [3]), bq_bis([3], [])
        piece = bisection_product(a, b)
        assert piece.degree == a.degree + b.degree

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_sampled_alphabet_three(self, data):
        g = loop_graph(3)
        words = all_words(g, "v", 3)
        word = st.sampled_from(words)
        excl = st.frozensets(st.sampled_from(g.edges), max_size=2)
        a = BasicBisection(data.draw(word), data.draw(word), data.draw(excl))
        b = BasicBisection(data.draw(word), data.draw(word), data.draw(excl))
        candidates = germ_universe(g, "v", 2)
        self._check_pair(a, b, g, candidates)


class TestIntersectionDifference:
    def _member(self, b, cand):
        return b.contains_germ(cand)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_against_membership(self, data):
        g = loop_graph(2)
        words = all_words(g, "v", 2)
        word = st.sampled_from(words)
        excl = st.frozensets(st.sampled_from(g.edges), max_size=1)
        a = BasicBisection(data.draw(word), data.draw(word), data.draw(excl))
        b = BasicBisection(data.draw(word), data.draw(word), data.draw(excl))
        inter = intersect_basic(a, b)
        diff = difference_basic(a, b)
        for cand in germ_universe(g, "v", 3):
            in_a, in_b = self._member(a, cand), self._member(b, cand)
            got_inter = inter is not None and self._member(inter, cand)
            assert got_inter == (in_a and in_b)
            got_diff = any(self._member(piece, cand) for piece in diff)
            assert got_diff == (in_a and not in_b)
        for p1, p2 in itertools.combinations(diff, 2):
            assert intersect_basic(p1, p2) is None

    def test_subset_is_prefix_criterion(self):
        a = bq_bis([1, 2], [1, 2])
        b = bq_bis([1], [1])
        assert basic_subset(a, b)
        assert basic_proper_subset(a, b)
        assert not basic_subset(b, a)
        withf = bq_bis([1], [1], excl=(2,))
        assert not basic_subset(a, withf)
        assert basic_subset(bq_bis([1, 3], [1, 3]), withf)

    def test_disjoint_sum_preserves_membership(self):
        g = loop_graph(2)
        pieces = [
            BasicBisection(vertex_path("v"), vertex_path("v")),
            BasicBisection(all_words(g, "v", 1)[1], all_words(g, "v", 1)[1]),
        ]
        s = disjoint_sum(pieces)
        for p1, p2 in itertools.combinations(s, 2):
            assert intersect_basic(p1, p2) is None
        for cand in germ_universe(g, "v", 3):
            expect = any(p.contains_germ(cand) for p in pieces)
            assert any(p.contains_germ(cand) for p in s) == expect


class TestCylinderFinder:
    def test_excluded_set_formula(self):
        W = unit_bisection(BQ.path([5]), {BQ.edge(0), BQ.edge(2)})
        lam = find_cylinder_inside(W)
        assert lam == BQ.path([5, 3])

    def test_empty_exclusions_returns_word(self):
        u = BQ.path([1, 4])
        assert find_cylinder_inside(unit_bisection(u)) == u

    def test_truncated_infinite_path_case(self):
        # caller truncates x to x(0,n) and asks for a cylinder inside Z(x(0,n))
        u = BQ.path([0, 0, 7])
        assert find_cylinder_inside(unit_bisection(u)) == u

    def test_result_contained_symbolically(self):
        W = unit_bisection(BQ.path([2]), {BQ.edge(1)})
        lam = find_cylinder_inside(W)
        assert basic_subset(unit_bisection(lam), W)

    def test_rejects_non_unit_window(self):
        with pytest.raises(ValueError):
            find_cylinder_inside(bq_bis([1], [2]))

    def test_repeat_word(self):
        lam = BQ.path([1, 2])
        assert repeat_word(lam, 3) == BQ.path([1, 2, 1, 2, 1, 2])
        assert repeat_word(lam, 0) == vertex_path(BQ.vertex)


class TestLift:
    def test_identity_lift(self):
        g = loop_graph(2)
        a = edge_permutation_automorphism(g, {0: 0, 1: 1})
        lifted = lift_graph_automorphism(a)
        b = BasicBisection(all_words(g, "v", 2)[3], all_words(g, "v", 1)[1])
        assert lifted.on_bisection(b) == b

    def test_cycle_lift_on_cylinders(self):
        g = loop_graph(2)
        a = edge_permutation_automorphism(g, {0: 1, 1: 0})
        lifted = lift_graph_automorphism(a)
        for word in all_words(g, "v", 4):
            for power in range(1, 4):
                image = lifted.power(power).on_bisection(unit_bisection(word))
                expected = unit_bisection(lifted.power(power).on_path(word))
                assert image == expected

    def test_commutes_with_shift(self):
        g = loop_graph(2)
        a = edge_permutation_automorphism(g, {0: 1, 1: 0})
        lifted = lift_graph_automorphism(a)
        for word in all_words(g, "v", 5):
            for n in range(len(word) + 1):
                assert lifted.on_path(shift(word, n)) == shift(lifted.on_path(word), n)

    def test_on_germ_and_excluded_sets(self):
        g = loop_graph(3)
        a = edge_permutation_automorphism(g, {0: 1, 1: 2, 2: 0})
        lifted = lift_graph_automorphism(a)
        e0, e1, e2 = g.edges
        from groupoid_forge.graph_model import path_from_edges

        b = BasicBisection(
            path_from_edges((e0,)), path_from_edges((e1,)), frozenset({e2})
        )
        image = lifted.on_bisection(b)
        assert image.range_word == path_from_edges((e1,))
        assert image.source_word == path_from_edges((e2,))
        assert image.excluded == frozenset({e0})
        germ = GermElement(
            path_from_edges((e0,)), path_from_edges((e1,)), SymbolicTail("v")
        )
        assert lifted.on_germ(germ).mu == path_from_edges((e1,))


class TestBouquetModel:
    def test_finite_paths_are_units(self):
        assert BQ.finite_paths_are_units
        assert BQ.has_infinite_receivers(BQ.vertex)

    def test_edge_bound_required(self):
        from groupoid_forge.graph_model import enumerate_paths

        with pytest.raises(ValueError):
            enumerate_paths(BQ, BQ.vertex, 2)
        paths = enumerate_paths(BQ, BQ.vertex, 2, edge_bound=3)
        assert len(paths) == 9

    def test_germ_enumeration_matches_membership(self):
        b = bq_bis([1], [], excl=(0,))
        germs = germs_in_bisection(b, BQ, 2, edge_bound=3)
        for cand in germ_universe(BQ, BQ.vertex, 2, edge_bound=3):
            assert (cand in germs) == (
                b.contains_germ(cand) and len(cand[0]) <= 3 and len(cand[2]) <= 2
            )

    def test_render_notation(self):
        b = bq_bis([1, 2], [3], excl=(3, 5))
        assert render_bisection(b) == "Z((e1.e2, e3)∖{e3,e5})"
        assert render_bisection(bq_bis([], [])) == "Z(v)"
