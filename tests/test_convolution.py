"""Exact convolution algebra: matrix-unit laws, the module identities, the
regular representation, and the symbolic backend against a germ-level
oracle."""

import dataclasses
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_forge import convolution_algebra
from groupoid_forge.convolution_algebra import (
    FULL_UNIT_BISECTION,
    FiniteConvElement,
    SymbolicConvElement,
    comp2_identity_sides,
    comp_identity_sides,
    compose_with_automorphism_inverse,
    convolve,
    delta,
    generator_times,
    involution,
    iota_embed,
    iota_inverse,
    left_action,
    module_inner_product,
    regular_representation,
    right_action,
    right_action_identity_sides,
    unit_indicator,
    InternalConsistencyError,
)
from families import (
    random_conv_element,
    rng_for,
    seeded_groupoids_for_representation,
)
from groupoid_forge.gaussian import GaussianRational, gauss
from groupoid_forge.graph_groupoid import (
    BasicBisection,
    InfiniteBouquet,
    bisection_product,
    difference_basic,
    intersect_basic,
    render_bisection,
    unit_bisection,
)
from groupoid_forge.graph_model import Edge, PathWord, vertex_path
from groupoid_forge.groupoid_core import (
    build_groupoid,
    cyclic_group_groupoid,
    cyclic_multiplier_automorphism,
    full_relation,
    identity_automorphism,
    relation_automorphism,
)
from groupoid_forge.twisted_product import bouquet_twisted_product
from groupoid_forge.validation import StructuralError
from helpers import (
    bench_inputs,
    bouquet_germs,
    canonical_bisections,
    contains_germ,
    determinant,
    is_psd_hermitian,
    label_tables,
    looped_dagger,
    looped_matmul,
    paired_symbolic_convolve,
    scanned_canonical_pieces,
    scanned_difference_is_zero,
    scanned_involution,
)
from test_bisection_parity import shift_model

BQ = InfiniteBouquet()


def swap_model():
    G = full_relation(range(2))
    return bouquet_twisted_product(G, relation_automorphism(G, {0: 1, 1: 0}))


def pointwise_pairs(model) -> list[tuple[SymbolicConvElement, SymbolicConvElement]]:
    """The twelve (x, y) pairs of two random pieces each whose product
    ``test_convolution_pointwise`` evaluates germ by germ."""
    rng = rng_for(31)
    out = []
    for _ in range(12):
        pieces_x = {}
        pieces_y = {}
        for _ in range(2):
            r = BQ.path([rng.randint(0, 2) for _ in range(rng.randint(0, 2))])
            s = BQ.path([rng.randint(0, 2) for _ in range(rng.randint(0, 2))])
            g = rng.choice(model.g.elements)
            pieces_x[(BasicBisection(r, s), g)] = gauss(rng.randint(-2, 2), rng.randint(-1, 1))
            r2 = BQ.path([rng.randint(0, 2) for _ in range(rng.randint(0, 2))])
            s2 = BQ.path([rng.randint(0, 2) for _ in range(rng.randint(0, 2))])
            pieces_y[(BasicBisection(r2, s2), rng.choice(model.g.elements))] = gauss(
                rng.randint(-2, 2)
            )
        out.append((SymbolicConvElement(model, pieces_x), SymbolicConvElement(model, pieces_y)))
    return out


class TestGaussian:
    def test_field_ops(self):
        a = gauss(Fraction(1, 2), 1)
        b = gauss(2, Fraction(-1, 3))
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a / b * b == a
        assert (a - a) == gauss(0)


class TestFiniteBackend:
    def test_matrix_unit_law(self):
        G = full_relation(range(3))
        assert convolve(delta(G, (0, 1)), delta(G, (1, 2))) == delta(G, (0, 2))
        # a finite element keeps only its nonzero coefficients
        assert not convolve(delta(G, (0, 1)), delta(G, (2, 0))).coeffs

    def test_support_outside_the_groupoid_is_refused(self):
        # a stray id (one the tables name but the elements do not) has a
        # code of its own, past the elements; both backends refuse it
        G = full_relation(range(2))
        tables = label_tables(G)
        tables["inverse_map"][(0, 1)] = "stray"
        bad = build_groupoid(G.elements, G.units, **tables)
        unit = FULL_UNIT_BISECTION
        for build in (
            lambda: FiniteConvElement(G, {(0, 0): 1, (5, 5): 1}),
            lambda: FiniteConvElement(bad, {"stray": 1}),
            lambda: SymbolicConvElement(swap_model(), {(unit, (0, 0)): 1, (unit, (5, 5)): 1}),
        ):
            with pytest.raises(StructuralError, match="outside the groupoid"):
                build()

    def test_involution_of_point_mass(self):
        G = full_relation(range(2))
        x = delta(G, (0, 1), gauss(1, 2))
        assert involution(x) == delta(G, (1, 0), gauss(1, -2))

    def test_antihomomorphism_seeded(self):
        rng = rng_for(5)
        for _ in range(100):
            G = full_relation(range(3))
            x, y = random_conv_element(rng, G), random_conv_element(rng, G)
            assert involution(convolve(x, y)) == convolve(involution(y), involution(x))

    def test_matrix_algebra_isomorphism(self):
        # delta_{(i,j)} -> E_{ij}: all products agree with matrix units
        G = full_relation(range(3))
        for (i, j), (k, l) in itertools.product(
            itertools.product(range(3), repeat=2), repeat=2
        ):
            prod = convolve(delta(G, (i, j)), delta(G, (k, l)))
            if j == k:
                assert prod == delta(G, (i, l))
            else:
                assert not prod.coeffs

    def test_evaluation_reads_the_support(self):
        G = full_relation(range(2))
        x = FiniteConvElement(G, {(0, 1): gauss(1, 2), (1, 0): 0})
        assert x((0, 1)) == gauss(1, 2)
        assert x((1, 0)) == gauss(0) and x((0, 0)) == gauss(0)

    def test_elements_are_not_hashable(self):
        G = full_relation(range(2))
        model = swap_model()
        for x in (delta(G, (0, 1)), iota_embed(delta(model.g, (0, 0)), model)):
            with pytest.raises(TypeError):
                hash(x)

    def test_mixed_backends_rejected(self):
        G = full_relation(range(2))
        model = swap_model()
        with pytest.raises(TypeError):
            convolve(delta(G, (0, 0)), iota_embed(delta(model.g, (0, 0)), model))


class TestRegularRepresentation:
    def test_full_relation_matrix_unit(self):
        G = full_relation(range(2))
        m = regular_representation(G, (1, 1), delta(G, (0, 1)))
        # basis is the source fiber at (1,1): elements (0,1), (1,1)
        nonzero = [
            (i, j)
            for i in range(2)
            for j in range(2)
            if m.entries[i][j] != gauss(0)
        ]
        assert len(nonzero) == 1

    def test_homomorphism_and_star_seeded(self):
        for (G, u, xi, eta) in seeded_groupoids_for_representation(100, seed=9):
            left = regular_representation(G, u, convolve(xi, eta))
            right = regular_representation(G, u, xi).matmul(
                regular_representation(G, u, eta)
            )
            assert left.entries == right.entries
            star = regular_representation(G, u, involution(xi))
            assert star.entries == regular_representation(G, u, xi).dagger().entries

    def test_product_and_adjoint_match_the_index_loops(self):
        # the regular-representation pairs of the finite_twist benchmark at
        # seed 0; entries compared by value and by type
        def typed(entries):
            return [[(type(x), x) for x in row] for row in entries]

        for G, u, xi, eta in bench_inputs().representation_pairs(0):
            m_x = regular_representation(G, u, FiniteConvElement(G, xi))
            m_y = regular_representation(G, u, FiniteConvElement(G, eta))
            assert typed(m_x.matmul(m_y).entries) == typed(looped_matmul(m_x, m_y))
            assert typed(m_x.dagger().entries) == typed(looped_dagger(m_x))

    def test_each_composable_pair_is_multiplied_once(self):
        # a product is a lookup in the row of its left factor
        products = []

        class Row(dict):
            def get(self, j, default=None):
                k = dict.get(self, j, default)
                if k is not None:
                    products.append((id(self), j))
                return k

        G = full_relation(range(3))
        G = dataclasses.replace(G, rows=[Row(row) for row in G.rows])
        xi = FiniteConvElement(G, {g: gauss(1) for g in G.elements})
        regular_representation(G, (0, 0), xi)
        # three basis elements, each composable with the three elements ending at its range
        assert len(products) == len(set(products)) == 9

    def test_symbolic_backend_rejected(self):
        model = swap_model()
        x = generator_times(model, 0, delta(model.g, (0, 0)))
        with pytest.raises(TypeError):
            regular_representation(model.g, (0, 0), x)


class TestEmbedding:
    def test_support_lies_over_units(self):
        model = swap_model()
        f = delta(model.g, (0, 1))
        emb = iota_embed(f, model)
        assert FULL_UNIT_BISECTION == unit_bisection(InfiniteBouquet().unit())
        assert all(b is FULL_UNIT_BISECTION for (b, g) in emb.coeffs)

    def test_multiplicative_and_star_seeded(self):
        model = swap_model()
        rng = rng_for(17)
        for _ in range(100):
            f = random_conv_element(rng, model.g)
            fp = random_conv_element(rng, model.g)
            assert iota_embed(convolve(f, fp), model) == convolve(
                iota_embed(f, model), iota_embed(fp, model)
            )
            assert iota_embed(involution(f), model) == involution(iota_embed(f, model))

    def test_iota_inverse_round_trip(self):
        model = swap_model()
        f = FiniteConvElement(model.g, {(0, 1): gauss(2, 1), (1, 1): gauss(-1)})
        assert iota_inverse(iota_embed(f, model)) == f

    def test_iota_inverse_rejects_escaping_support(self):
        model = swap_model()
        x = generator_times(model, 1, delta(model.g, (0, 0)))
        with pytest.raises(InternalConsistencyError):
            iota_inverse(x)

    def test_a_unit_space_cut_in_two_is_in_the_image(self):
        # 1[Z(v minus e0)] + 1[Z(e0)] is iota(delta(0, 0)) cut at e0; its
        # normal form is the one piece Z(v)
        model = swap_model()
        g = (0, 0)
        x = SymbolicConvElement(
            model,
            {
                (unit_bisection(BQ.unit(), {BQ.edge(0)}), g): gauss(1),
                (unit_bisection(BQ.path([0])), g): gauss(1),
            },
        )
        f = delta(model.g, g)
        assert list(x.coeffs.items()) == [((FULL_UNIT_BISECTION, g), gauss(1))]
        assert x == iota_embed(f, model)
        assert iota_inverse(x) == f
        assert module_inner_product(x, x) == f

    @pytest.mark.parametrize("rest", [None, gauss(2)], ids=["partial", "uneven"])
    def test_a_cover_that_misses_or_differs_escapes(self, rest):
        model = swap_model()
        g = (0, 0)
        pieces = {(unit_bisection(BQ.unit(), {BQ.edge(0)}), g): gauss(1)}
        if rest is not None:
            pieces[(unit_bisection(BQ.path([0])), g)] = rest
        x = SymbolicConvElement(model, pieces)
        with pytest.raises(InternalConsistencyError, match="G-algebra: Z\\("):
            iota_inverse(x)
        with pytest.raises(InternalConsistencyError):
            module_inner_product(iota_embed(delta(model.g, g), model), x)


class TestModuleIdentities:
    """The three closed-form identities, exhaustive over i,j <= 3 and all
    point masses on a small G (both for the swap relation and a cyclic
    group with inversion)."""

    def _models(self):
        yield swap_model()
        G = cyclic_group_groupoid(3)
        yield bouquet_twisted_product(G, cyclic_multiplier_automorphism(G, 2))

    def test_comp_identity_exhaustive(self):
        for model in self._models():
            G = model.g
            for i, j in itertools.product(range(4), repeat=2):
                for g, gp in itertools.product(G.elements, repeat=2):
                    lhs, rhs = comp_identity_sides(model, i, j, delta(G, g), delta(G, gp))
                    assert lhs == rhs

    def test_comp2_identity_exhaustive(self):
        for model in self._models():
            G = model.g
            for i in range(4):
                for g, gp in itertools.product(G.elements, repeat=2):
                    lhs, rhs = comp2_identity_sides(model, i, delta(G, g), delta(G, gp))
                    assert lhs == rhs

    def test_right_action_identity_exhaustive(self):
        for model in self._models():
            G = model.g
            for i in range(4):
                for g, gp in itertools.product(G.elements, repeat=2):
                    lhs, rhs = right_action_identity_sides(
                        model, i, delta(G, g), delta(G, gp)
                    )
                    assert lhs == rhs

    def test_right_action_identity_collapses_for_trivial_twist(self):
        G = full_relation(range(2))
        model = bouquet_twisted_product(G, identity_automorphism(G))
        f, fp = delta(G, (0, 1)), delta(G, (1, 0))
        lhs = right_action(generator_times(model, 2, f), fp)
        assert lhs == generator_times(model, 2, convolve(f, fp))

    def test_generator_star_relations(self):
        # x_i* x_i embeds the unit indicator; x_i* x_j vanishes for i != j
        model = swap_model()
        one = unit_indicator(model.g)
        xi = generator_times(model, 1, one)
        xj = generator_times(model, 2, one)
        assert convolve(involution(xi), xi) == iota_embed(one, model)
        assert convolve(involution(xi), xj).is_zero()

    def test_left_action_via_star(self):
        model = swap_model()
        rng = rng_for(23)
        for _ in range(50):
            f = random_conv_element(rng, model.g)
            fp = random_conv_element(rng, model.g)
            fpp = random_conv_element(rng, model.g)
            x = generator_times(model, 0, f)
            assert left_action(fp, right_action(x, fpp)) == right_action(
                left_action(fp, x), fpp
            )


class TestInnerProduct:
    def test_orthogonality_distinct_generators(self):
        model = swap_model()
        f = delta(model.g, (0, 1))
        x = generator_times(model, 1, f)
        y = generator_times(model, 2, f)
        assert not module_inner_product(x, y).coeffs

    def test_unit_indicator_case(self):
        model = swap_model()
        one = unit_indicator(model.g)
        x = generator_times(model, 0, one)
        assert module_inner_product(x, x) == one

    def test_gram_matrix_diagonal_psd(self):
        model = swap_model()
        f = FiniteConvElement(model.g, {(0, 1): gauss(1, 1), (0, 0): gauss(2)})
        vectors = [generator_times(model, 1, f), generator_times(model, 2, f)]
        gram = [[module_inner_product(a, b) for b in vectors] for a in vectors]
        assert not gram[0][1].coeffs and not gram[1][0].coeffs
        for k in range(2):
            m = regular_representation(model.g, (0, 0), gram[k][k])
            assert is_psd_hermitian(m)

    def test_inner_product_matches_closed_form(self):
        model = swap_model()
        f = delta(model.g, (0, 1), gauss(0, 1))
        fp = delta(model.g, (1, 1), gauss(3))
        got = module_inner_product(
            generator_times(model, 3, f), generator_times(model, 3, fp)
        )
        fa = compose_with_automorphism_inverse(f, model.alpha, 1)
        fpa = compose_with_automorphism_inverse(fp, model.alpha, 1)
        assert got == convolve(involution(fa), fpa)


class TestSymbolicOracle:
    """Pointwise convolution against a germ-level factorization sum."""

    def _evaluate(self, x: SymbolicConvElement, point):
        germ, g = point
        total = gauss(0)
        for (b, gel), c in x.coeffs.items():
            if gel == g and contains_germ(b, germ):
                total = total + c
        return total

    def _oracle_convolve_at(self, x, y, point, factor_germs):
        model = x.model
        G, alpha = model.g, model.alpha
        k_germ, gk = point
        kx, kp, ky = k_germ
        total = gauss(0)
        for (h1, p1, m1) in factor_germs:
            # h2 = h1^{-1} k needs matching range words
            if h1 != kx:
                continue
            h2 = (m1, kp - p1, ky)
            for g1 in G.elements:
                g1_inv_gk_def = G.composable(G.inv(g1), gk)
                if not g1_inv_gk_def:
                    continue
                g2 = alpha.power(p1)(G.mul(G.inv(g1), gk))
                total = total + self._evaluate(x, ((h1, p1, m1), g1)) * self._evaluate(
                    y, (h2, g2)
                )
        return total

    def test_convolution_pointwise(self):
        model = swap_model()
        universe = bouquet_germs(3, 2)
        for trial, (x, y) in enumerate(pointwise_pairs(model)):
            z = convolve(x, y)
            for point_germ in universe[:60]:
                for g in model.g.elements:
                    got = self._evaluate(z, (point_germ, g))
                    want = self._oracle_convolve_at(x, y, (point_germ, g), universe)
                    assert got == want, (trial, point_germ, g)

    def test_involution_pointwise(self):

        model = swap_model()
        rng = rng_for(37)
        universe = bouquet_germs(3, 2)
        for _ in range(10):
            r = BQ.path([rng.randint(0, 2) for _ in range(rng.randint(0, 2))])
            s = BQ.path([rng.randint(0, 2) for _ in range(rng.randint(0, 2))])
            g = rng.choice(model.g.elements)
            x = SymbolicConvElement(model, {(BasicBisection(r, s), g): gauss(2, 3)})
            xs = involution(x)
            for (gx, gp, gy) in universe[:50]:
                for gel in model.g.elements:
                    # xi*(h, g) = conj(xi((h, g)^{-1}))
                    inv_point = ((gy, -gp, gx), model.alpha.power(gp)(model.g.inv(gel)))
                    assert self._evaluate(xs, ((gx, gp, gy), gel)) == self._evaluate(
                        x, inv_point
                    ).conjugate()


class TestCanonicalization:
    def test_overlapping_sums_canonicalize(self):
        model = swap_model()
        g = (0, 0)
        z_all = BasicBisection(BQ.unit(), BQ.unit())
        z_e0 = BasicBisection(BQ.path([0]), BQ.path([0]))
        # the constructor canonicalizes the overlapping sum
        s = SymbolicConvElement(model, {(z_all, g): gauss(1), (z_e0, g): gauss(1)})

        for germ in bouquet_germs(3, 2):
            expect = gauss(0)
            if contains_germ(z_all, germ):
                expect = expect + gauss(1)
            if contains_germ(z_e0, germ):
                expect = expect + gauss(1)
            got = gauss(0)
            for (b, gel), c in s.coeffs.items():
                if gel == g and contains_germ(b, germ):
                    got = got + c
            assert got == expect

    def test_equality_across_decompositions(self):
        model = swap_model()
        g = (0, 0)
        z_all = BasicBisection(BQ.unit(), BQ.unit())
        z_e0 = BasicBisection(BQ.path([0]), BQ.path([0]))
        z_not_e0 = BasicBisection(BQ.unit(), BQ.unit(), frozenset({BQ.edge(0)}))
        whole = SymbolicConvElement(model, {(z_all, g): gauss(5)})
        split = SymbolicConvElement(model, {(z_e0, g): gauss(5), (z_not_e0, g): gauss(5)})
        assert whole == split

    def test_equal_maps_compare_without_splitting(self, monkeypatch):
        model = swap_model()
        x, y = pointwise_pairs(model)[0]
        xy, again = convolve(x, y), convolve(x, y)
        key = next(iter(xy.coeffs))
        moved = SymbolicConvElement(model, {**xy.coeffs, key: xy.coeffs[key] + gauss(0, 1)})
        calls = []
        real_pieces, real_sub = convolution_algebra.canonical_pieces, GaussianRational.__sub__

        def counted_pieces(pieces):
            calls.append("canonical_pieces")
            return real_pieces(pieces)

        def counted_sub(a, b):
            calls.append("__sub__")
            return real_sub(a, b)

        monkeypatch.setattr(convolution_algebra, "canonical_pieces", counted_pieces)
        monkeypatch.setattr(GaussianRational, "__sub__", counted_sub)
        # normal forms compare as maps: no difference is formed and nothing
        # is cut, whether the maps are equal or one coefficient apart
        assert xy.coeffs and xy == again and not (xy == moved) and not calls

    def test_determinant_exact(self):
        rows = (
            (gauss(1), gauss(0, 1)),
            (gauss(0, -1), gauss(2)),
        )
        assert determinant(rows) == gauss(1)


WORDS = st.lists(st.integers(0, 2), max_size=2)
FAMILIES = st.lists(
    st.tuples(WORDS, WORDS, st.sets(st.integers(0, 2)), st.integers(-2, 2)),
    min_size=1,
    max_size=6,
)


def family_of(raw) -> list[tuple[BasicBisection, GaussianRational]]:
    """(range letters, source letters, excluded letters, coefficient) rows
    as bouquet pieces."""
    return [
        (BasicBisection(BQ.path(r), BQ.path(s), frozenset(map(BQ.edge, f))), gauss(c))
        for r, s, f, c in raw
    ]


# Every germ of words with letters 0..2 and length 3 or less.
GERMS = bouquet_germs(3, 3)


def value_at(pieces, germ) -> GaussianRational:
    total = gauss(0)
    for b, c in pieces:
        if contains_germ(b, germ):
            total = total + c
    return total


def recut(family, rng, cuts: int) -> list:
    """The same function cut further: a piece is split along another piece
    of the family, or along a one-edge cylinder of its own, into the
    intersection and ``difference_basic``'s rest, each keeping its
    coefficient."""
    out = list(family)
    for _ in range(cuts):
        k = rng.randrange(len(out))
        b, c = out[k]
        if rng.random() < 0.5:
            knife = rng.choice(family)[0]
        else:
            tail = BQ.path([rng.randrange(4)])
            knife = BasicBisection(b.range_word.concat(tail), b.source_word.concat(tail))
        inter = intersect_basic(b, knife)
        if inter is not None:
            out[k:k + 1] = [(inter, c)] + [(piece, c) for piece in difference_basic(b, knife)]
    rng.shuffle(out)
    return out


# Rows (range letters, source letters, excluded letters, g's two points,
# coefficient's two parts) of a shift-model element.
SHIFT_ROWS = st.lists(
    st.tuples(
        WORDS, WORDS, st.sets(st.integers(0, 2), max_size=2), st.integers(0, 2),
        st.integers(0, 2), st.integers(-2, 2), st.integers(-1, 1),
    ),
    max_size=6,
)


def shift_element(model, rows) -> SymbolicConvElement:
    m = len(model.g.units)
    return SymbolicConvElement(
        model,
        {
            (BasicBisection(BQ.path(r), BQ.path(s), frozenset(map(BQ.edge, f))), (a % m, b % m)):
            gauss(re, im)
            for r, s, f, a, b, re, im in rows
        },
    )


class TestNormalForm:
    """``canonical_pieces`` depends only on the function: not on how its
    input is cut, nor on the input order."""

    @settings(max_examples=200, deadline=None)
    @given(FAMILIES, st.randoms(use_true_random=False))
    def test_recut_and_shuffled_input_gives_the_same_form(self, raw, rng):
        family = family_of(raw)
        want = list(canonical_bisections(family).items())
        assert list(canonical_bisections(recut(family, rng, 4)).items()) == want
        # the words have letters 0..2 and length 2 or less, so every jump
        # of either function sits on a germ of GERMS
        assert all(c for _, c in want)
        for (p, _), (q, _) in itertools.combinations(want, 2):
            assert intersect_basic(p, q) is None
        for germ in GERMS:
            assert value_at(want, germ) == value_at(family, germ)

    def test_pointwise_against_the_splitting_loop(self):
        # depth-1 words, so every jump sits at depth 2 or less and germs up
        # to length 3 tell any two forms apart
        rng = rng_for(41)
        for _ in range(25):
            raw = [
                (
                    [rng.randint(0, 2) for _ in range(rng.randint(0, 1))],
                    [rng.randint(0, 2) for _ in range(rng.randint(0, 1))],
                    set(rng.sample(range(3), rng.randint(0, 2))),
                    rng.randint(-2, 2),
                )
                for _ in range(rng.randint(1, 5))
            ]
            family = family_of(raw)
            form = list(canonical_bisections(family).items())
            scanned = list(scanned_canonical_pieces(family).items())
            assert all(c for _, c in form) and len(form) <= len(scanned)
            for (p, _), (q, _) in itertools.combinations(form, 2):
                assert intersect_basic(p, q) is None
            for germ in GERMS:
                assert value_at(form, germ) == value_at(scanned, germ) == value_at(family, germ)

    CUT_TWO_WAYS = {
        "unit at e0": (
            [(unit_bisection(BQ.unit(), {BQ.edge(0)}), 1), (unit_bisection(BQ.path([0])), 1)],
            [(unit_bisection(BQ.unit()), 1)],
        ),
        "arrow at e0 and e2": (
            [
                (BasicBisection(BQ.path([1]), BQ.unit(), frozenset({BQ.edge(0), BQ.edge(2)})), 3),
                (BasicBisection(BQ.path([1, 0]), BQ.path([0])), 3),
                (BasicBisection(BQ.path([1, 2]), BQ.path([2])), 3),
            ],
            [(BasicBisection(BQ.path([1]), BQ.unit()), 3)],
        ),
        "a cylinder taken out": (
            [(unit_bisection(BQ.unit()), 2), (unit_bisection(BQ.path([1, 1])), -2)],
            [
                (unit_bisection(BQ.unit(), {BQ.edge(1)}), 2),
                (unit_bisection(BQ.path([1]), {BQ.edge(1)}), 2),
            ],
        ),
        "overlap against its split": (
            [(unit_bisection(BQ.unit()), 1), (unit_bisection(BQ.path([2])), 1)],
            [(unit_bisection(BQ.unit(), {BQ.edge(2)}), 1), (unit_bisection(BQ.path([2])), 2)],
        ),
    }

    @pytest.mark.parametrize("name", sorted(CUT_TWO_WAYS))
    def test_one_function_cut_two_ways(self, name):
        model = swap_model()
        g = (1, 0)
        cut, form = self.CUT_TWO_WAYS[name]
        x = SymbolicConvElement(model, {(b, g): gauss(c) for b, c in cut})
        y = SymbolicConvElement(model, {(b, g): gauss(c) for b, c in form})
        assert list(x.coeffs.items()) == list(y.coeffs.items())
        assert list(y.coeffs) == [(b, g) for b, _ in form]
        assert x == y and scanned_difference_is_zero(x, y)

    def test_the_benchmark_pair_cut_two_ways_collapses(self):
        # seed 3, triple 40: the splitting loop cuts (xy)z at (1, 0) into
        # Z(e2) and Z(v minus e2), both with 5-5i; the normal form is Z(v)
        inputs = bench_inputs()
        m, element_pieces = inputs.symbolic_triples(3)[40]
        model = bouquet_twisted_product(*inputs.shift_model_parts(m))
        x, y, z = (SymbolicConvElement(model, pieces) for pieces in element_pieces)
        left, right = convolve(convolve(x, y), z), convolve(x, convolve(y, z))
        at = (1, 0)
        scanned = paired_symbolic_convolve(convolve(x, y), z)
        units = sorted(b.range_word.edges for b, g in scanned if g == at and b.is_unit_set())
        assert units == [(), (BQ.edge(2),)]
        assert left.coeffs[(FULL_UNIT_BISECTION, at)] == gauss(5, -5)
        assert list(left.coeffs.items()) == list(right.coeffs.items())

    def test_pieces_off_the_bouquet_vertex_are_refused(self):
        # keyed by edges alone, Z(v) and Z(w) would share a tree and come
        # out as one piece Z(w) with coefficient 2; Z(v) and Z((f, f)), f a
        # loop at w, would share one too
        f = Edge(0, "w", "w")
        for other in (vertex_path("w"), PathWord((f,))):
            family = [(unit_bisection(BQ.unit()), gauss(1)), (unit_bisection(other), gauss(1))]
            for pieces in (family, family[::-1], family[1:]):
                with pytest.raises(StructuralError, match="bouquet vertex"):
                    canonical_bisections(pieces)

    def test_words_off_the_bouquet_are_refused(self):
        # read as labels, e, f: v -> w would be the bouquet's Z((e0, e1)),
        # and so would the loops a, b at w; a label that is not an int >= 0
        # names no bouquet edge (1.0 and True equal 1 but are not ints), and
        # Z(w) sits at another vertex
        e, f = Edge(0, "v", "w"), Edge(1, "v", "w")
        a, b = Edge(0, "w", "w"), Edge(1, "w", "w")
        loop = BQ.path([0])
        pieces = [
            BasicBisection(PathWord((e,)), PathWord((f,))),
            BasicBisection(PathWord((a,)), PathWord((b,))),
            unit_bisection(vertex_path("w")),
            BasicBisection(loop, loop, frozenset({Edge(-1, "v", "v")})),
            BasicBisection(PathWord((Edge("x", "v", "v"),)), BQ.unit()),
            BasicBisection(BQ.unit(), PathWord((Edge(1.0, "v", "v"),))),
            BasicBisection(BQ.unit(), PathWord((Edge(True, "v", "v"),))),
        ]
        model = swap_model()
        for piece in pieces:
            named = re.escape(render_bisection(piece)) + ".*bouquet vertex"
            with pytest.raises(StructuralError, match=named):
                SymbolicConvElement(model, {(piece, (0, 0)): 1})
            with pytest.raises(StructuralError, match=named):
                bisection_product(piece, piece.inverse())

    def test_keys_by_g_position_then_words_whatever_the_input_order(self):
        model = swap_model()
        position = model.g.position
        rng = rng_for(43)
        for x, y in pointwise_pairs(model):
            for element in (x, y, convolve(x, y), convolve(y, x), involution(x)):
                items = list(element.coeffs.items())
                rng.shuffle(items)
                assert list(SymbolicConvElement(model, dict(items)).coeffs.items()) == list(
                    element.coeffs.items()
                )
                assert list(element.coeffs) == sorted(
                    element.coeffs,
                    key=lambda k: (position(k[1]), k[0].range_word.edges, k[0].source_word.edges),
                )


class TestPairOrderOracles:
    """The label kernel against the object-level oracles: ``convolve``
    against the full double loop of ``bisection_product``, ``involution``
    against the swap of each piece, each oracle's disjoint form put in
    normal form by the constructor, and ``==`` against the scanned
    difference.  Same keys and values, in the same order: G position, then
    words."""

    @staticmethod
    def _check(x, y):
        model = x.model
        position = model.g.position
        xy, yx = convolve(x, y), convolve(y, x)
        for got, want in ((xy, paired_symbolic_convolve(x, y)), (involution(x), scanned_involution(x))):
            assert list(got.coeffs.items()) == list(SymbolicConvElement(model, want).coeffs.items())
            assert list(got.coeffs) == sorted(
                got.coeffs,
                key=lambda k: (position(k[1]), k[0].range_word.edges, k[0].source_word.edges),
            )
        assert (xy == yx) == scanned_difference_is_zero(xy, yx)

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_benchmark_triples(self, seed):
        inputs = bench_inputs()
        models = {m: bouquet_twisted_product(*inputs.shift_model_parts(m)) for m in (2, 3)}
        for m, element_pieces in inputs.symbolic_triples(seed):
            for pieces in element_pieces:
                by_g = {}
                for (b, g), c in pieces.items():
                    by_g.setdefault(g, []).append((b, c))
                for family in by_g.values():
                    want = canonical_bisections(scanned_canonical_pieces(family).items())
                    assert list(canonical_bisections(family).items()) == list(want.items())
            x, y, z = (SymbolicConvElement(models[m], pieces) for pieces in element_pieces)
            xy, yz = convolve(x, y), convolve(y, z)
            for left, right in ((x, y), (xy, z), (y, z), (x, yz), (involution(y), involution(x))):
                self._check(left, right)
            # the benchmark's two equalities
            for left, right in (
                (convolve(xy, z), convolve(x, yz)),
                (involution(xy), convolve(involution(y), involution(x))),
            ):
                assert (left == right) == scanned_difference_is_zero(left, right)

    def test_pointwise_grid(self):
        for x, y in pointwise_pairs(swap_model()):
            self._check(x, y)
            self._check(y, x)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3]), SHIFT_ROWS, SHIFT_ROWS)
    def test_drawn_shift_model_elements(self, m, rows_x, rows_y):
        model = shift_model(m)
        self._check(shift_element(model, rows_x), shift_element(model, rows_y))
