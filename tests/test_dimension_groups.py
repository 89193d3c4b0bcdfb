"""Direct-limit element arithmetic, verdict oracles, vertex classes and the
rank-2 matrix counts."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_forge.convolution_algebra import RegRepMatrix
from groupoid_forge.dimension_groups import (
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
from groupoid_forge.gaussian import ZERO, GaussianRational, gauss
from groupoid_forge.graph_model import BratteliDiagram, constant_diagram, telescope
from groupoid_forge.matrices import (
    as_matrix,
    column_rank,
    is_injective,
    mat_mul,
    repeat_index,
    shape,
    transpose,
)
from groupoid_forge.pipeline import unit_corner_spec
from groupoid_forge.rank2_diagrams import Rank2Data, Rank2Diagram, build_rank2, canonical_rank2
from groupoid_forge.validation import StructuralError

from helpers import looped_matmul, materialized_k_matrices

DOUBLING = DimensionGroupSpec((1, 1), (as_matrix([[2]]),), repeat_from=0)


class TestPush:
    def test_push_to_own_level(self):
        a = DimGroupElement(2, (5,))
        assert dg_push_to_level(DOUBLING, a, 2) == a

    def test_doubling_push(self):
        assert dg_push_to_level(DOUBLING, DimGroupElement(0, (1,)), 3) == DimGroupElement(3, (8,))

    def test_composite_pushes_agree(self):
        spec = DimensionGroupSpec(
            (2, 2, 2),
            (as_matrix([[1, 1], [0, 1]]), as_matrix([[2, 0], [1, 1]])),
            repeat_from=0,
        )
        for vec in [(1, 0), (0, 1), (3, -2)]:
            a = DimGroupElement(0, vec)
            assert dg_push_to_level(spec, dg_push_to_level(spec, a, 1), 4) == dg_push_to_level(spec, a, 4)

    def test_horizon_exceeded(self):
        spec = DimensionGroupSpec((1, 1), (as_matrix([[2]]),))
        with pytest.raises(StructuralError):
            dg_push_to_level(spec, DimGroupElement(0, (1,)), 5)
        # a negative level is never a stored level, with or without a rule
        for s in (spec, DOUBLING):
            with pytest.raises(StructuralError):
                s.size(-1)
            with pytest.raises(StructuralError):
                s.matrix(-1)
            with pytest.raises(StructuralError):
                dg_is_positive(s, DimGroupElement(-1, (1,)), 5)

    def test_repetition_rule_agrees_across_data_classes(self):
        # sizes 1, 2, 3, 2 with the matrices from level 1 on repeating
        # (period 2): past the horizon, sizes alternate 3, 2, 3, ...
        mult = (
            as_matrix([[1, 2]]),
            as_matrix([[1, 0, 1], [1, 1, 0]]),
            as_matrix([[1, 1], [2, 0], [0, 1]]),
        )
        d = BratteliDiagram((1, 2, 3, 2), mult, repeat_from=1)
        spec = dimension_group_of(d)
        up = tuple(transpose(m) for m in mult)
        data = Rank2Data(up, up, ((1,), (1, 1), (1, 1, 1), (1, 1)), repeat_from=1)
        expected_sizes = [1, 2, 3, 2] + [3, 2] * 3

        def b_at(n):
            return data.B[repeat_index(n, len(data.B), len(data.A), data.repeat_from)]

        for n, size in enumerate(expected_sizes):
            assert d.level_size(n) == spec.size(n) == len(data.t_at(n)) == size
            stored = n if n < 3 else 1 + (n - 1) % 2
            assert d.multiplicity_matrix(n) == mult[stored]
            assert spec.matrix(n) == data.a_at(n) == b_at(n) == up[stored]
        for level_of in (
            d.level_size, d.multiplicity_matrix, spec.size, spec.matrix,
            data.a_at, b_at, data.t_at,
        ):
            with pytest.raises(StructuralError):
                level_of(-1)


class TestEqual:
    def test_yes_across_levels(self):
        assert dg_equal(DOUBLING, DimGroupElement(0, (1,)), DimGroupElement(1, (2,)), 6).is_yes

    def test_no_with_injectivity_justification(self):
        v = dg_equal(DOUBLING, DimGroupElement(0, (1,)), DimGroupElement(0, (3,)), 6)
        assert v.value == "no"
        assert "column rank" in v.justification["reason"]

    def test_kernel_collapse_gives_yes(self):
        spec = DimensionGroupSpec(
            (2, 1, 1),
            (as_matrix([[1, 1]]), as_matrix([[1]])),
            repeat_from=1,
        )
        a = DimGroupElement(0, (1, 0))
        b = DimGroupElement(0, (0, 1))
        v = dg_equal(spec, a, b, 2)
        assert v.is_yes and v.level == 1

    def test_no_needs_the_stored_matrices_before_the_block(self):
        # [[1, 1]] at level 1 merges two classes that differ at levels 0
        # and 1; only the block [[1]] after it is injective
        spec = DimensionGroupSpec(
            (2, 2, 1, 1),
            (as_matrix([[1, 0], [0, 1]]), as_matrix([[1, 1]]), as_matrix([[1]])),
            repeat_from=2,
        )
        a, b = DimGroupElement(0, (1, 0)), DimGroupElement(0, (0, 1))
        for horizon in (0, 1):
            assert dg_equal(spec, a, b, horizon).value == "unknown"
        assert dg_equal(spec, a, b, 2) == Verdict("yes", level=2)

    def test_no_lists_every_matrix_acting_from_where_it_stopped(self):
        spec = DimensionGroupSpec((1, 1, 1), (as_matrix([[3]]), as_matrix([[2]])), repeat_from=1)
        a, b = DimGroupElement(0, (1,)), DimGroupElement(0, (2,))
        assert dg_equal(spec, a, b, 0).justification["tail_matrices"] == [[[3]], [[2]]]
        assert dg_equal(spec, a, b, 1).justification["tail_matrices"] == [[[2]]]
        assert dg_equal(spec, a, b, 5).justification["tail_matrices"] == [[[2]]]

    def test_unknown_without_repetition(self):
        spec = DimensionGroupSpec((1, 1), (as_matrix([[2]]),))
        v = dg_equal(spec, DimGroupElement(0, (1,)), DimGroupElement(0, (3,)), 1)
        assert v.value == "unknown"

    @pytest.mark.parametrize("horizon", [2, 12])
    def test_unknown_at_the_data_horizon(self, horizon):
        # the push stops at the last stored level instead of raising
        spec = DimensionGroupSpec((1, 1), (as_matrix([[2]]),))
        a, b = DimGroupElement(0, (1,)), DimGroupElement(0, (3,))
        for v in (dg_equal(spec, a, b, horizon), dg_is_positive(spec, DimGroupElement(0, (-1,)), horizon)):
            assert v == Verdict(
                "unknown", level=1, justification="data horizon reached: no repetition rule past level 1"
            )

    def test_verdicts_carry_the_level_compared(self):
        # both classes sit above the horizon: nothing is pushed, and level 3
        # is the level compared
        a, b = DimGroupElement(3, (1,)), DimGroupElement(3, (3,))
        v = dg_equal(DOUBLING, a, b, 1)
        assert (v.value, v.level) == ("no", 3)
        assert dg_is_positive(DOUBLING, DimGroupElement(3, (-1,)), 1).level == 3
        spec = DimensionGroupSpec((1, 1, 1), (as_matrix([[1]]), as_matrix([[0]])), repeat_from=1)
        assert dg_equal(spec, a, b, 1) == Verdict("unknown", level=3, justification="horizon reached")

    def test_two_by_two_tail_decides_by_its_rank(self):
        a, b = DimGroupElement(0, (1, 0)), DimGroupElement(0, (0, 1))
        full = DimensionGroupSpec((2, 2), (as_matrix([[1, 2], [3, 4]]),), repeat_from=0)
        v = dg_equal(full, a, b, 3)
        assert (v.value, v.level, v.justification["tail_matrices"]) == ("no", 3, [[[1, 2], [3, 4]]])
        # rank 1: a - b = (1, -1) stays outside the kernel, spanned by
        # (2, -1), but injectivity fails, so nothing is decided
        deficient = DimensionGroupSpec((2, 2), (as_matrix([[1, 2], [2, 4]]),), repeat_from=0)
        assert dg_equal(deficient, a, b, 3) == Verdict("unknown", level=3, justification="horizon reached")
        assert dg_equal(deficient, DimGroupElement(0, (2, 0)), b, 3) == Verdict("yes", level=1)

    def test_equivalence_on_decided(self):
        a, b, c = DimGroupElement(0, (1,)), DimGroupElement(1, (2,)), DimGroupElement(2, (4,))
        assert dg_equal(DOUBLING, a, b, 6).is_yes
        assert dg_equal(DOUBLING, b, c, 6).is_yes
        assert dg_equal(DOUBLING, a, c, 6).is_yes

    def test_push_preserves_verdicts(self):
        a = DimGroupElement(0, (1,))
        pushed = dg_push_to_level(DOUBLING, a, 3)
        assert dg_equal(DOUBLING, a, pushed, 6).is_yes
        assert dg_is_positive(DOUBLING, pushed, 6).value == dg_is_positive(DOUBLING, a, 6).value


def leibniz_det(m) -> int:
    """Determinant as the signed sum over permutations."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


def minor_rank(a) -> int:
    """The largest k with a nonzero k x k minor."""
    rows, cols = len(a), len(a[0])
    return max(
        (
            k
            for k in range(1, min(rows, cols) + 1)
            for r in itertools.combinations(range(rows), k)
            for c in itertools.combinations(range(cols), k)
            if leibniz_det([[a[i][j] for j in c] for i in r])
        ),
        default=0,
    )


class TestColumnRank:
    def test_elimination_matches_the_largest_nonzero_minor(self):
        deficient = 0
        for seed in range(200):
            rng = random.Random(seed)
            rows, cols, inner = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            # a product through `inner` dimensions has rank at most `inner`
            left = as_matrix([[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)])
            right = as_matrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)])
            a = mat_mul(left, right)
            rank = minor_rank(a)
            assert column_rank(a) == rank, (seed, a)
            assert is_injective(a) == (rank == cols), (seed, a)
            deficient += rank < min(rows, cols)
        assert deficient >= 20


ENTRY_KINDS = {
    "int": (0, st.integers(-9, 9)),
    "fraction": (Fraction(0), st.fractions(min_value=-5, max_value=5, max_denominator=7)),
    "gauss": (
        ZERO,
        st.builds(
            gauss,
            st.integers(-4, 4) | st.fractions(min_value=-3, max_value=3, max_denominator=5),
            st.integers(-4, 4),
        ),
    ),
}
KIND_PAIRS = [
    ("int", "int"),
    ("fraction", "fraction"),
    ("gauss", "gauss"),
    ("int", "gauss"),
    ("gauss", "int"),
    ("int", "fraction"),
]


@st.composite
def factor_pairs(draw):
    """(a, b, kinds): a of shape (ra, ca) and b of shape (ca, cb), each with
    entries of one kind, about half of them zero, some rows of a and some
    columns of b all zero.  An empty matrix has no columns, so a with no
    rows has none, and b with no rows has none."""
    kinds = draw(st.sampled_from(KIND_PAIRS))
    ra = draw(st.integers(0, 4))
    ca = draw(st.integers(0, 4)) if ra else 0
    cb = draw(st.integers(0, 4)) if ca else 0

    def matrix(kind, rows, cols):
        zero, values = ENTRY_KINDS[kind]
        return [[draw(st.just(zero) | values) for _ in range(cols)] for _ in range(rows)]

    a, b = matrix(kinds[0], ra, ca), matrix(kinds[1], ca, cb)
    for i in draw(st.sets(st.integers(0, ra - 1))) if ra else ():
        a[i] = [ENTRY_KINDS[kinds[0]][0]] * ca
    for j in draw(st.sets(st.integers(0, cb - 1))) if cb else ():
        for row in b:
            row[j] = ENTRY_KINDS[kinds[1]][0]
    return tuple(map(tuple, a)), tuple(map(tuple, b)), kinds


def dense_product(a, b):
    """a @ b by the triple loop over every entry, each sum from the int 0."""
    (ra, ca), cb = shape(a), shape(b)[1]
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(ca)) for j in range(cb)) for i in range(ra)
    )


def typed(m):
    return [[(type(x), x) for x in row] for row in m]


class TestMatMul:
    """The one matrix product skips the zero entries of its left factor;
    each entry keeps the value and the type of the dense triple sum, since
    a Gaussian rational never equals an int."""

    @settings(max_examples=300, deadline=None)
    @given(factor_pairs())
    def test_matches_the_dense_triple_sum(self, drawn):
        a, b, kinds = drawn
        product = mat_mul(a, b)
        assert type(product) is tuple and all(type(row) is tuple for row in product)
        assert typed(product) == typed(dense_product(a, b))
        if kinds == ("gauss", "gauss") and len(a) == len(b) == len(b[0] if b else ()):
            basis = tuple(range(len(a)))
            looped = looped_matmul(RegRepMatrix(basis, a), RegRepMatrix(basis, b))
            assert typed(product) == typed(looped)

    def test_an_all_zero_gaussian_entry_is_a_gaussian_zero(self):
        product = mat_mul(((0, 0), (0, 1)), ((gauss(1, 2), ZERO), (ZERO, ZERO)))
        assert all(type(x) is GaussianRational and not x for row in product for x in row)
        assert product == ((ZERO, ZERO), (ZERO, ZERO))

    def test_shapes_that_do_not_chain_are_refused(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mat_mul(((1, 2),), ((1, 2),))


class TestPositive:
    def test_positive_unit(self):
        assert dg_is_positive(DOUBLING, DimGroupElement(0, (1,)), 6).is_yes

    def test_negative_trapped(self):
        v = dg_is_positive(DOUBLING, DimGroupElement(0, (-1,)), 6)
        assert v.value == "no" and "proper" in v.justification["reason"]

    def test_mixed_recovers(self):
        spec = DimensionGroupSpec(
            (2, 2), (as_matrix([[2, 1], [1, 1]]),), repeat_from=0
        )
        v = dg_is_positive(spec, DimGroupElement(0, (1, -1)), 4)
        assert v.is_yes
        # one multiplication: (2,1;1,1) . (1,-1) = (1, 0) >= 0
        assert v.level == 1

    def test_zero_is_positive(self):
        assert dg_is_positive(DOUBLING, DimGroupElement(0, (0,)), 2).is_yes

    def test_no_requires_justification(self):
        with pytest.raises(ValueError):
            Verdict("no")


class TestDyadicEmbedding:
    """The decided fragment of the doubling limit is the dyadics with the
    usual order: verdicts must agree with exact rational arithmetic."""

    @given(
        st.integers(0, 6), st.integers(-20, 20), st.integers(0, 6), st.integers(-20, 20)
    )
    @settings(max_examples=120, deadline=None)
    def test_equality_matches_rationals(self, n, a, m, b):
        va = Fraction(a, 2**n)
        vb = Fraction(b, 2**m)
        verdict = dg_equal(DOUBLING, DimGroupElement(n, (a,)), DimGroupElement(m, (b,)), 16)
        assert verdict.value != "unknown"
        assert verdict.is_yes == (va == vb)

    @given(st.integers(0, 6), st.integers(-20, 20))
    @settings(max_examples=80, deadline=None)
    def test_positivity_matches_rationals(self, n, a):
        verdict = dg_is_positive(DOUBLING, DimGroupElement(n, (a,)), 16)
        assert verdict.value != "unknown"
        assert verdict.is_yes == (Fraction(a, 2**n) >= 0)


class TestVertexClasses:
    def test_single_vertex_level(self):
        d = constant_diagram(2)
        assert k0_vertex_class(d, (0, 0)) == DimGroupElement(0, (1,))

    def test_corner_vector(self):
        d = constant_diagram(2)
        # the planners' corner check gives the class of a corner vector
        assert unit_corner_spec(d, 0, [2]).k_class == DimGroupElement(0, (2,))
        with pytest.raises(ValueError):
            unit_corner_spec(d, 0, [-1])

    def test_corner_class_equals_pushed_value(self):
        d = constant_diagram(2)
        spec = dimension_group_of(d)
        v = dg_equal(spec, unit_corner_spec(d, 0, [2]).k_class, DimGroupElement(1, (4,)), 6)
        assert v.is_yes

    def test_telescoping_consistency(self):
        d = BratteliDiagram(
            (1, 2, 1, 2, 1),
            (
                as_matrix([[1, 2]]),
                as_matrix([[2], [1]]),
                as_matrix([[1, 1]]),
                as_matrix([[1], [3]]),
            ),
        )
        spec = dimension_group_of(d)
        sub = (0, 2, 4)
        tele = telescope(d, sub)
        for m in range(len(sub) - 1):
            for i in range(tele.level_size(m)):
                before = DimGroupElement(
                    sub[m], tuple(1 if k == i else 0 for k in range(tele.level_size(m)))
                )
                pushed = tuple(
                    transpose(tele.mult[m])[r][i]
                    for r in range(tele.level_size(m + 1))
                )
                assert dg_equal(spec, before, DimGroupElement(sub[m + 1], pushed), 4).is_yes


class TestRank2Matrices:
    def figure_data(self):
        return Rank2Data(
            A=(((3,),), ((4,),)),
            B=(((1,),), ((2,),)),
            T=((1,), (3,), (6,)),
        )

    def test_figure_counts(self):
        diagram = canonical_rank2(self.figure_data(), 3)
        A, B, T = rank2_k_matrices(diagram)
        assert A == (((3,),), ((4,),))
        assert B == (((1,),), ((2,),))
        assert T == (((1,),), ((3,),), ((6,),))
        # compatibility at both levels: 3*1 == 3*1 and 4*3 == 6*2
        assert A[0][0][0] * T[0][0][0] == T[1][0][0] * B[0][0][0]
        assert A[1][0][0] * T[1][0][0] == T[2][0][0] * B[1][0][0]
        # the same data recounted vertex by vertex on the built edges
        assert materialized_k_matrices(build_rank2(self.figure_data(), 3)) == (A, B, T)

    def test_representative_independence_multicycle(self):
        # two receiving cycles at level 1: A is 2x1, T_1 lists both cycles
        data = Rank2Data(
            A=(((2,), (2,)),),
            B=(((1,), (1,)),),
            T=((2,), (4, 4)),
        )
        A, B, T = rank2_k_matrices(canonical_rank2(data, 2))
        assert A[0] == ((2,), (2,))
        assert B[0] == ((1,), (1,))
        # the recount at every vertex of every cycle agrees
        assert materialized_k_matrices(build_rank2(data, 2)) == (A, B, T)

    def test_incompatible_data_rejected(self):
        with pytest.raises(StructuralError):
            Rank2Data(A=(((3,),),), B=(((1,),),), T=((1,), (2,)))

    def test_count_mutation_detected(self):
        # rewire one blue edge's source position: counts become vertex-dependent,
        # which the per-vertex recount of the materialized oracle must notice
        diagram = build_rank2(
            Rank2Data(A=(((2,),),), B=(((1,),),), T=((2,), (4,))), 2
        )
        from groupoid_forge.graph_model import Edge

        materialized_k_matrices(diagram)
        blue = list(diagram.blue)
        e = blue[0]
        blue[0] = Edge(e.label, e.range_vertex, (1, 0, (e.source_vertex[2] + 1) % 4))
        broken = Rank2Diagram(diagram.cycle_sizes, tuple(blue), dict(diagram.f_map))
        with pytest.raises(StructuralError, match="depends on the representative vertex"):
            materialized_k_matrices(broken)
