"""Exact convolution algebra: matrix-unit laws, the module identities, the
regular representation, and the symbolic backend against a germ-level
oracle."""

import itertools
from fractions import Fraction

import pytest

from groupoid_forge import convolution_algebra
from groupoid_forge.convolution_algebra import (
    FULL_UNIT_BISECTION,
    DisjointifyFuelExhausted,
    FiniteConvElement,
    SymbolicConvElement,
    canonical_pieces,
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
from groupoid_forge.gaussian import gauss
from groupoid_forge.graph_groupoid import BasicBisection, InfiniteBouquet, unit_bisection
from groupoid_forge.groupoid_core import (
    cyclic_group_groupoid,
    cyclic_multiplier_automorphism,
    full_relation,
    identity_automorphism,
    relation_automorphism,
)
from groupoid_forge.twisted_product import bouquet_twisted_product
from helpers import bouquet_germs, contains_germ, determinant, is_psd_hermitian

BQ = InfiniteBouquet()


def swap_model():
    G = full_relation(range(2))
    return bouquet_twisted_product(G, relation_automorphism(G, {0: 1, 1: 0}))


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
        rng = rng_for(31)
        universe = bouquet_germs(3, 2)
        words = None
        for trial in range(12):
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
            x = SymbolicConvElement(model, pieces_x)
            y = SymbolicConvElement(model, pieces_y)
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

    def test_fuel_exhaustion_names_the_cap(self, monkeypatch):
        # Z(e0), Z(e1), Z(e2) take a step each, and Z(v) four more: one per
        # overlap it is cut at, and one for the rest Z(v \ {e0, e1, e2})
        pieces = [(BasicBisection(BQ.unit(), BQ.unit()), gauss(1))]
        pieces += [(BasicBisection(BQ.path([i]), BQ.path([i])), gauss(1)) for i in range(3)]
        monkeypatch.setattr(convolution_algebra, "DISJOINTIFY_FUEL", 7)
        assert len(canonical_pieces(pieces)) == 4
        monkeypatch.setattr(convolution_algebra, "DISJOINTIFY_FUEL", 6)
        with pytest.raises(DisjointifyFuelExhausted, match="DISJOINTIFY_FUEL = 6"):
            canonical_pieces(pieces)

    def test_determinant_exact(self):
        rows = (
            (gauss(1), gauss(0, 1)),
            (gauss(0, -1), gauss(2)),
        )
        assert determinant(rows) == gauss(1)
