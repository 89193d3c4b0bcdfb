"""The AF realization route in closed form, against the generic derivation
and the edge-walk oracles of ``tests/helpers.py``: whole plans against
``generic_af_report``, the orbit-freeness certificate read off the growth
chains, the local-contraction entries read off the class sizes, and the
growth search, whose resumed walks are checked against fresh products and
against mutants of the walk and of the witness sweep."""

import random
from unittest.mock import patch

import pytest

from groupoid_forge.certificates import af_lc_witness, check_path_lc, shift_witness_levels
from groupoid_forge.graph_model import (
    BratteliDiagram,
    EdgeCycleAutomorphism,
    constant_diagram,
    edge_cycle_automorphism,
    iter_paths,
    path_count_matrix,
    telescope,
)
from groupoid_forge.dimension_groups import dimension_group_of
from groupoid_forge.matrices import as_matrix, chain_product, growth_levels, min_entry, transpose
from groupoid_forge.pipeline import PipelineInputError, first_wrong_field, plan_af_realization
from groupoid_forge.validation import StructuralError

from helpers import (
    LabelledCycling,
    SteppedEdgeCycle,
    af_growth_levels,
    generic_af_report,
    level_cap,
    mutant,
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


def growth(d, levels, cap, search=growth_levels):
    """The growth search's levels and failure under the level cap ``cap``;
    the chain it returns for each gap must be the path counts between the
    gap's levels, transposed.  The cap is patched where ``search`` reads it:
    ``matrices.LEVEL_CAP``, or a mutant's copy of the module namespace."""
    with patch.dict(search.__globals__, LEVEL_CAP=cap):
        found, chains, failure = af_growth_levels(d, levels, search)
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


STEPS = range(-3, 4)


def witness_disagreements(name, step, sweep=shift_witness_levels) -> list:
    """The (depth, shift bound) pairs at which ``sweep``, on the shortest
    cycles of the ``step`` power of the class cycling of ``DIAGRAMS[name]``,
    disagrees with the searched witnesses."""
    alpha = stepped(DIAGRAMS[name], step)
    wrong = []
    for depth in (1, 3, 7):
        shortest = shortest_cycles(alpha, depth)
        for L in (1, 2, 5, 12):
            if sweep(shortest, L) != searched_shift_witnesses(shortest, L):
                wrong.append((depth, L))
    return wrong


class TestWfcAgainstEdgeWalk:
    """The planner's wfc block against the cycle walk: the witness sweep on
    every power of the class cycling, and whole certificates over the
    diagram telescoped along the growth condition."""

    @pytest.mark.parametrize("name", sorted(DIAGRAMS))
    @pytest.mark.parametrize("step", STEPS)
    def test_steps_and_horizons(self, name, step):
        d = DIAGRAMS[name]
        alpha = stepped(d, step)
        for depth in (1, 3, 7):
            walked = walked_cycle_lengths_to_depth(d, alpha, depth)
            assert shortest_cycles(alpha, depth) == {p: min(ls) for p, ls in walked.items()}
        assert witness_disagreements(name, step) == []

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
    """Every path of length <= 3 from level 0: the orbit length read back
    from a path word's labels, the oracle of the AF LC closed form, against
    the orbit walk of each path through the class-cycling automorphism; and
    ``af_lc_witness`` over every path of length <= 2 against the same walk."""

    def check(self, d):
        alpha = edge_cycle_automorphism(d)
        paths = []
        for v in d.vertices_at(0):
            for length in range(4):
                if not d.has_level(length):
                    break
                paths.extend(iter_paths(d, v, length))
        walked = walked_af_lc_lengths(alpha, paths)
        assert [e.l for e in check_path_lc(LabelledCycling(d), paths).entries] == walked
        sample = [(str(p), l) for p, l in zip(paths, walked) if len(p) <= 2]
        closed = af_lc_witness(d.level_size(0), d.multiplicity_matrix, len(sample))
        assert list(map(tuple, closed.entries)) == sample
        return walked

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


# Repeating families on which the walks resume: one stored position (the
# constants) and a period-3 tail (four stored matrices from repeat_from 1).
RESUMING = {
    "constant2": constant_diagram(2),
    "constant3": constant_diagram(3),
    **{f"period3_{s}": seeded_diagram(30 + s, 2, 5, 1) for s in range(3)},
}
# bounds for a direct search; each fall restarts the walk at its position
FALLING = (7, 1, 12, 0, 3, 30, 2, 2, 9, 1)


def cap_sweep_disagreements(search=growth_levels) -> list:
    """The (family, levels, cap) triples, caps 2 to 40, at which the search
    disagrees with the rescan.  Over 30 output levels every one of these caps
    stops the search, on constant-2 with a resumed walk that crosses it."""
    wrong = []
    for name, d in RESUMING.items():
        for levels in (8, 30):
            for cap in range(2, 41):
                try:
                    found = growth(d, levels, cap, search)
                except AssertionError:
                    found = None
                if found != rescanned_growth_subsequence(d, levels, cap):
                    wrong.append((name, levels, cap))
    return wrong


def rescanned_levels(spec, bounds, cap):
    """The levels, chains and failure of a search whose step n has the bound
    ``bounds[n]``, with one fresh chain product per candidate level."""
    levels, chains = [0], []
    for b in bounds:
        start = levels[-1]
        for m in range(start + 1, cap + 1):
            chain = chain_product([spec.matrix(k) for k in range(start, m)])
            if min_entry(chain) > b:
                levels.append(m)
                chains.append(chain)
                break
        else:
            return levels, chains, f"no level within cap {cap} has entries > {b} from level {start}"
    return levels, chains, None


def falling_bound_disagreements(search=growth_levels) -> list:
    """The (family, cap) pairs at which a direct search with the ``FALLING``
    bounds disagrees with ``rescanned_levels``."""
    wrong = []
    for name, d in RESUMING.items():
        spec = dimension_group_of(d)
        for cap in (12, 64):
            with patch.dict(search.__globals__, LEVEL_CAP=cap):
                found = search(
                    spec.matrices,
                    spec.repeat_from,
                    len(FALLING) + 1,
                    lambda n, *_: (FALLING[n], f"> {FALLING[n]}"),
                )
            if found != rescanned_levels(spec, FALLING, cap):
                wrong.append((name, cap))
    return wrong


class TestResumedWalks:
    """The walks resume across the cap and restart when the bound falls."""

    def test_every_cap_from_2_to_40_matches_the_rescan(self):
        assert cap_sweep_disagreements() == []
        # the walk of length 4 from level 38 crosses cap 40; 8 levels fit
        assert growth(constant_diagram(2), 30, 40) == (
            [0, 1, 2, 4, 6, 9, 12, 15, 18, 22, 26, 30, 34, 38],
            "no level within cap 40 has entries > 13 from level 38",
        )
        assert growth(constant_diagram(2), 8, 40) == ([0, 1, 2, 4, 6, 9, 12, 15], None)

    def test_a_falling_bound_restarts_the_walk(self):
        assert FALLING != tuple(sorted(FALLING))
        assert falling_bound_disagreements() == []
        # constant-2: bound 7 needs length 3, the fall to 1 length 1
        found = rescanned_levels(dimension_group_of(constant_diagram(2)), FALLING[:2], 64)
        assert found[0] == [0, 3, 4]


WALK_MUTANTS = {
    "resume whatever the bound": ("if low < last:", "if False:"),
    "no cap check on a resumed walk": (
        "chain is None or start + g > LEVEL_CAP or min_entry",
        "chain is None or min_entry",
    ),
    "resume one length past the walk's": (
        "g, chain = 0, None\n",
        "g, chain = 0, None\n"
        "            elif chain is not None:\n"
        "                step = mats[repeat_index(start + g, len(mats), len(mats), repeat_from)]\n"
        "                chain, g = mat_mul(step, chain), g + 1\n",
    ),
}


class TestWalkMutants:
    """A mutation gate for the resumed walk: each fixed mutant of
    ``growth_levels`` fails the comparisons of ``TestResumedWalks``."""

    def test_the_unmutated_source_passes(self):
        search = mutant(growth_levels, "if low < last:", "if low < last:")
        assert search is not growth_levels
        assert cap_sweep_disagreements(search) == falling_bound_disagreements(search) == []

    @pytest.mark.parametrize("name", sorted(WALK_MUTANTS))
    def test_each_mutant_is_killed(self, name):
        search = mutant(growth_levels, *WALK_MUTANTS[name])
        assert cap_sweep_disagreements(search) + falling_bound_disagreements(search)


SWEEP_MUTANTS = {
    "a tie witnesses the shift": ("l < shortest", "l <= shortest"),
    "the shift bound is left out": ("l <= shift_bound", "l < shift_bound"),
}


def sweep_disagreements(sweep) -> list:
    """The (diagram, step) pairs of ``test_steps_and_horizons`` at which
    ``sweep`` disagrees with the searched witnesses."""
    return [
        (name, step)
        for name in sorted(DIAGRAMS)
        for step in STEPS
        if witness_disagreements(name, step, sweep)
    ]


class TestWitnessSweepMutants:
    """A mutation gate for the witness sweep: each fixed mutant of
    ``certificates.shift_witness_levels`` fails the comparison of
    ``TestWfcAgainstEdgeWalk.test_steps_and_horizons``."""

    def test_the_unmutated_source_passes(self):
        sweep = mutant(shift_witness_levels, "l < shortest", "l < shortest")
        assert sweep is not shift_witness_levels
        assert sweep_disagreements(sweep) == []

    @pytest.mark.parametrize("name", sorted(SWEEP_MUTANTS))
    def test_each_mutant_is_killed(self, name):
        assert sweep_disagreements(mutant(shift_witness_levels, *SWEEP_MUTANTS[name]))
