"""The AF realization route in closed form, against the generic derivation
and the edge-walk oracles of ``tests/helpers.py``: whole plans against
``generic_af_report``, the orbit-freeness certificate read off the growth
chains, the local-contraction entries read off the class sizes, and the
growth search with one running product per gap."""

import random

import pytest

from groupoid_forge.certificates import check_path_lc, shift_witness_levels
from groupoid_forge.graph_model import (
    BratteliDiagram,
    EdgeCycleAutomorphism,
    constant_diagram,
    edge_cycle_automorphism,
    iter_paths,
    path_count_matrix,
    telescope,
)
from groupoid_forge.matrices import as_matrix, transpose
from groupoid_forge.pipeline import PipelineInputError, first_wrong_field, plan_af_realization
from groupoid_forge.validation import StructuralError

from helpers import (
    SteppedEdgeCycle,
    af_growth_levels,
    generic_af_report,
    level_cap,
    rescanned_growth_subsequence,
    searched_shift_witnesses,
    walked_af_lc_lengths,
    walked_cycle_lengths_to_depth,
    walked_wfc_certificate,
)


def seeded_diagram(seed: int, size: int, levels: int, repeat_from, low: int = 1, high: int = 3):
    rng = random.Random(seed)
    mats = tuple(
        as_matrix([[rng.randint(low, high) for _ in range(size)] for _ in range(size)])
        for _ in range(levels - 1)
    )
    return BratteliDiagram((size,) * levels, mats, repeat_from)


# an all-zero level between two nonzero ones; validation rejects it
ZERO_LEVEL = BratteliDiagram(
    (1, 1, 1, 1), (as_matrix([[2]]), as_matrix([[0]]), as_matrix([[3]])), 0
)
# five stored matrices and no repetition rule
FINITE = BratteliDiagram((1,) * 6, tuple(as_matrix([[k]]) for k in (2, 3, 4, 6, 5)), None)

DIAGRAMS = {
    "constant1": constant_diagram(1),
    "constant2": constant_diagram(2),
    "constant3": constant_diagram(3),
    "zero_level": ZERO_LEVEL,
    "finite": FINITE,
    **{f"seeded2x2_{s}": seeded_diagram(s, 2, 3, 0, high=6) for s in range(3)},
    **{f"seeded3x3_{s}": seeded_diagram(10 + s, 3, 4, 1, high=5) for s in range(3)},
    **{f"finite2x2_{s}": seeded_diagram(20 + s, 2, 6, None, low=0, high=4) for s in range(2)},
}


def growth(d, levels, cap):
    """The growth search's levels and failure under the level cap ``cap``;
    the chain it returns for each gap must be the path counts between the
    gap's levels, transposed."""
    with level_cap(cap):
        found, chains, failure = af_growth_levels(d, levels)
    assert chains == [transpose(path_count_matrix(d, a, b)) for a, b in zip(found, found[1:])]
    return found, failure


def _growth_telescope(d, levels):
    sub, failure = growth(d, levels, 4096)
    return d if failure else telescope(d, sub)


def _outcome(plan, d, **options):
    """The report JSON, or the message of the input error that refuses it."""
    try:
        return plan(d, **options).to_json()
    except PipelineInputError as exc:
        return str(exc)


class TestReportsAgainstGenericDerivation:
    """Complete, incomplete (``constant1``, ``finite``) and refused
    (``zero_level``, ``finite2x2_1``) plans, with and without a unit class."""

    @pytest.mark.parametrize("lbound", [1, 2, 5, 12])
    @pytest.mark.parametrize("depth", [1, 3, 7])
    @pytest.mark.parametrize("name", sorted(DIAGRAMS))
    def test_grid(self, name, depth, lbound):
        d = DIAGRAMS[name]
        for unit in (None, (0, (1,) * d.level_size(0))):
            options = {"unit_class": unit, "depth": depth, "lbound": lbound}
            with level_cap(64):
                planned = _outcome(plan_af_realization, d, **options)
                assert planned == _outcome(generic_af_report, d, **options)
                assert isinstance(planned, str) or first_wrong_field(planned) is None

    def test_grid_covers_every_outcome(self):
        def outcome(d):
            with level_cap(64):
                planned = _outcome(plan_af_realization, d, depth=7, lbound=12)
            return "refused" if isinstance(planned, str) else planned["status"]

        seen = {name: outcome(d) for name, d in DIAGRAMS.items()}
        assert seen["constant1"] == seen["finite"] == "unknown"
        assert seen["zero_level"] == seen["finite2x2_1"] == "refused"
        assert seen["constant2"] == seen["seeded3x3_0"] == "ok"


def stepped(d, step):
    """The class-cycling automorphism to the power ``step``; step 1 is the
    library's own."""
    return edge_cycle_automorphism(d) if step == 1 else SteppedEdgeCycle(d, step)


def shortest_cycles(alpha, depth):
    """The shortest cycle of each level below ``depth`` that has edges, read
    off the closed-form cycle lengths up to the data horizon."""
    shortest = {}
    for p in range(depth):
        try:
            lengths = alpha.cycle_lengths(p)
        except StructuralError:
            break
        if lengths:
            shortest[p] = min(lengths)
    return shortest


class TestWfcAgainstEdgeWalk:
    """The planner's wfc block against the cycle walk: the witness sweep on
    every power of the class cycling, and whole certificates over the
    diagram telescoped along the growth condition."""

    @pytest.mark.parametrize("name", sorted(DIAGRAMS))
    @pytest.mark.parametrize("step", range(-3, 4))
    def test_steps_and_horizons(self, name, step):
        d = DIAGRAMS[name]
        alpha = stepped(d, step)
        for depth in (1, 3, 7):
            walked = walked_cycle_lengths_to_depth(d, alpha, depth)
            shortest = shortest_cycles(alpha, depth)
            assert shortest == {p: min(lengths) for p, lengths in walked.items()}
            for L in (1, 2, 5, 12):
                assert shift_witness_levels(shortest, L) == searched_shift_witnesses(shortest, L)

    @pytest.mark.parametrize("name", ["constant2", "constant3", "seeded2x2_0", "seeded3x3_1"])
    def test_telescoped_along_the_growth_condition(self, name):
        tele = _growth_telescope(DIAGRAMS[name], 14)
        alpha = edge_cycle_automorphism(tele)
        for L in (6, 12):
            expected = walked_wfc_certificate(tele, alpha, 13, L).to_json()
            assert plan_af_realization(DIAGRAMS[name], depth=13, lbound=L).wfc.to_json() == expected

    def test_walks_no_edge(self, monkeypatch):
        tele = _growth_telescope(constant_diagram(2), 22)
        expected = walked_wfc_certificate(tele, edge_cycle_automorphism(tele), 21, 20).to_json()

        def refuse(self, e):
            raise AssertionError("the planner walked an edge")

        monkeypatch.setattr(EdgeCycleAutomorphism, "edge_image", refuse)
        report = plan_af_realization(constant_diagram(2), lbound=20)
        assert report.status == "ok"
        assert report.wfc.to_json() == expected


class TestLcAgainstOrbitWalk:
    """Every path of length <= 3 from level 0: check_path_lc against the orbit
    walk of each path through the class-cycling automorphism."""

    def check(self, d):
        alpha = edge_cycle_automorphism(d)
        paths = []
        for v in d.vertices_at(0):
            for length in range(4):
                if not d.has_level(length):
                    break
                paths.extend(iter_paths(d, v, length))
        got = [e.l for e in check_path_lc(alpha, paths).entries]
        assert got == walked_af_lc_lengths(alpha, paths)
        return got

    @pytest.mark.parametrize("name", sorted(DIAGRAMS))
    def test_diagrams(self, name):
        self.check(DIAGRAMS[name])

    def test_seeded_with_and_without_repetition(self):
        seen = set()
        for seed in range(12):
            repeat = (None, 0, 1)[seed % 3]
            d = seeded_diagram(30 + seed, 1 + seed % 3, 4, repeat, low=0, high=4)
            seen.update(self.check(d))
        assert {1, 2, 3, 4, 6, 12} <= seen

    @pytest.mark.parametrize("name", ["constant2", "constant3", "seeded2x2_0", "seeded2x2_1"])
    def test_telescoped_along_the_growth_condition(self, name):
        assert max(self.check(_growth_telescope(DIAGRAMS[name], 14))) > 1


class TestGrowthSearchAgainstRescan:
    @pytest.mark.parametrize("name", sorted(DIAGRAMS))
    def test_matches_fresh_products(self, name):
        d = DIAGRAMS[name]
        for levels in (2, 6, 12):
            for cap in (1, 3, 9, 64):
                assert growth(d, levels, cap) == rescanned_growth_subsequence(d, levels, cap)

    def test_seeded_ladders(self):
        for seed in range(6):
            d = seeded_diagram(seed, 2 + seed % 2, 4, 1, low=0, high=3)
            for levels in (5, 11, 21):
                assert growth(d, levels, 128) == rescanned_growth_subsequence(d, levels, 128)

    def test_small_cap_and_finite_horizon_give_none(self):
        # no subsequence: the levels found and the failure naming the bound
        assert growth(constant_diagram(2), 12, 5) == (
            [0, 1, 2, 4],
            "no level within cap 5 has entries > 3 from level 4",
        )
        assert growth(FINITE, 6, 4096) == ([0, 1, 2, 3, 4, 5], None)
        failure = (
            "data horizon 5 reached (no repetition rule) before a level with entries > 5 "
            "from level 5"
        )
        assert growth(FINITE, 7, 4096) == ([0, 1, 2, 3, 4, 5], failure)
        assert rescanned_growth_subsequence(FINITE, 7, 4096) == ([0, 1, 2, 3, 4, 5], failure)
