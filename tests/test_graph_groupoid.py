"""The symbolic layer: the bisection calculus against its brute-force germ
oracle, disjointification, the cylinder finder and the bouquet model.

The oracles run over the words in the first n loops of the infinite bouquet
(``bouquet_words(n, ...)``)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_forge.graph_groupoid import (
    BOUQUET_VERTEX,
    BasicBisection,
    InfiniteBouquet,
    basic_proper_subset,
    basic_subset,
    bisection_product,
    difference_basic,
    find_cylinder_inside,
    intersect_basic,
    render_bisection,
    repeat_word,
    unit_bisection,
)
from groupoid_forge.graph_model import path_from_edges, vertex_path

from helpers import (
    bouquet_germs,
    bouquet_words,
    canonical_bisections,
    contains_germ,
    prefix_basic_subset,
    product_member_oracle,
    sum_contains,
)

BQ = InfiniteBouquet()


def bq_bis(r, s, excl=()):
    return BasicBisection(BQ.path(r), BQ.path(s), frozenset(BQ.edge(i) for i in excl))


class TestBisectionProductOracle:
    """The calculus against direct germ membership, exhaustively on a core
    grid and sampled more widely."""

    def _check_pair(self, a, b, candidates):
        result = bisection_product(a, b)
        for cand in candidates:
            assert sum_contains(result, cand) == product_member_oracle(a, b, cand), (
                render_bisection(a),
                render_bisection(b),
                cand,
            )

    def test_exhaustive_no_exclusions(self):
        n = 2
        words = bouquet_words(n, 2)
        candidates = bouquet_germs(n, 3)
        bisections = [BasicBisection(x, y) for x in words for y in words]
        for a in bisections:
            for b in bisections:
                self._check_pair(a, b, candidates)

    def test_exclusion_grid(self):
        n = 3
        words = bouquet_words(n, 2)
        excl_options = [frozenset(), frozenset({BQ.edge(0)}), frozenset({BQ.edge(0), BQ.edge(2)})]
        candidates = bouquet_germs(n, 3)
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
            self._check_pair(a, b, candidates)

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
        n = 3
        words = bouquet_words(n, 3)
        word = st.sampled_from(words)
        excl = st.frozensets(st.sampled_from([BQ.edge(i) for i in range(n)]), max_size=2)
        a = BasicBisection(data.draw(word), data.draw(word), data.draw(excl))
        b = BasicBisection(data.draw(word), data.draw(word), data.draw(excl))
        candidates = bouquet_germs(n, 2)
        self._check_pair(a, b, candidates)


class TestIntersectionDifference:
    def _member(self, b, cand):
        return contains_germ(b, cand)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_against_membership(self, data):
        n = 2
        edge = st.sampled_from([BQ.edge(i) for i in range(n)])
        excl = st.frozensets(edge, max_size=1)
        extend = data.draw(st.booleans())
        word = st.sampled_from(bouquet_words(n, 1 if extend else 2))
        a = BasicBisection(data.draw(word), data.draw(word), data.draw(excl))
        if extend:
            # b extends both of a's words by the same one or two edges and
            # excludes an edge, so a - b has tails through b's excluded set,
            # words of up to four edges that the longer germs reach
            mu = path_from_edges(data.draw(st.lists(edge, min_size=1, max_size=2)))
            b_excl = data.draw(st.frozensets(edge, min_size=1, max_size=1))
            b = BasicBisection(a.range_word.concat(mu), a.source_word.concat(mu), b_excl)
        else:
            b = BasicBisection(data.draw(word), data.draw(word), data.draw(excl))
        inter = intersect_basic(a, b)
        diff = difference_basic(a, b)
        for cand in bouquet_germs(n, 4 if extend else 3):
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

    def test_subset_is_the_prefix_criterion_on_a_grid(self):
        # every ordered pair of bisections with words of length 0-2 over
        # e0..e2, excluded sets of size 0-2 and degree 0 or 1; a germ of a
        # outside b has a tail of at most one edge, so germs over words of
        # length 3 decide inclusion
        edges = [BQ.edge(i) for i in range(3)]
        excluded = [frozenset(f) for k in range(3) for f in itertools.combinations(edges, k)]
        words = bouquet_words(3, 2)
        grid = [
            BasicBisection(x, y, f)
            for x in words
            for y in words
            if len(x) - len(y) in (0, 1)
            for f in excluded
        ]
        germs = bouquet_germs(3, 3)
        members = {
            b: sum(1 << i for i, germ in enumerate(germs) if contains_germ(b, germ)) for b in grid
        }
        included = 0
        for a in grid:
            for b in grid:
                expected = members[a] & ~members[b] == 0
                assert basic_subset(a, b) == prefix_basic_subset(a, b) == expected, (a, b)
                included += expected
        assert {b.degree for b in grid} == {0, 1} and 0 < included < len(grid) ** 2

    def test_difference_is_empty_exactly_on_inclusion(self):
        words = bouquet_words(2, 2)
        edges = [BQ.edge(i) for i in range(2)]
        excluded = [frozenset(), frozenset(edges[:1]), frozenset(edges)]
        grid = [BasicBisection(x, y, f) for x in words for y in words for f in excluded]
        for a in grid:
            for b in grid:
                assert (difference_basic(a, b) == ()) == prefix_basic_subset(a, b), (a, b)

    def test_disjoint_sum_preserves_membership(self):
        # canonical_pieces with coefficient-1 pieces rewrites a family as a
        # disjoint sum; no coefficient cancels, so no piece is dropped
        n = 2
        word = bouquet_words(n, 1)[1]
        pieces = [unit_bisection(vertex_path("v")), unit_bisection(word)]
        s = list(canonical_bisections((p, 1) for p in pieces))
        for p1, p2 in itertools.combinations(s, 2):
            assert intersect_basic(p1, p2) is None
        for cand in bouquet_germs(n, 3):
            expect = any(contains_germ(p, cand) for p in pieces)
            assert any(contains_germ(p, cand) for p in s) == expect


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
        assert repeat_word(lam, 0) == BQ.unit() == vertex_path(BOUQUET_VERTEX)


class TestBouquetModel:
    def test_render_notation(self):
        b = bq_bis([1, 2], [3], excl=(3, 5))
        assert render_bisection(b) == "Z((e1.e2, e3)∖{e3,e5})"
        assert render_bisection(bq_bis([], [])) == "Z(v)"
