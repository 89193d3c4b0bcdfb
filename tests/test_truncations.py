"""The groupoid toolkit checks the AF planner on finite truncations.

For every rung of the AF benchmark ladder, the level-2 truncation of the
report's telescoped diagram (its first three levels) is a finite groupoid
with the parallel-class cycling on it.  It must pass the axioms, with the
whole-table decision alone, and the cycling must be an automorphism.  Each
``lc`` entry of the report, the orbit length of a path mu from level 0, must
equal ``twisted_product.check_lc`` on the cylinder Z(mu): the units (x, x)
whose path x starts with mu.

The report's orbit-freeness certificate is checked on the same truncations:
each shift l witnessed at a level t below the truncation's depth n must
move, under ``alpha.power(l)``, the level-k edge of every unit's path for
every k from t to n - 1.  That runs at n = 2 on every rung and at n = 3 on
the constant-2 rungs, whose 256 elements are the only n = 3 truncations of
the ladder small enough to build.

Minimality is checked on the same rungs and depths through the orbits: the
telescope is cofinal to level n exactly when, for each level t < n, every
orbit of the truncation from level t (the paths from level t to level n,
x ~ y when they share a source) holds a path from every level-t vertex.
That must agree with ``minimality_verdict`` on every rung, where both say
cofinal, and on two diagrams where both say not.

The unit walks (``helpers.af_units``) ask the same three questions of the
truncation's units alone, as label tuples, so they reach n = 4 on every rung:
each LC entry, each shift witnessed below level 4 and cofinality to level 4.
Where the truncation is materialized they must agree with it on every unit,
cylinder, shift and level.
"""

import ast

import pytest

from groupoid_forge import groupoid_core
from groupoid_forge.certificates import minimality_verdict
from groupoid_forge.graph_model import BratteliDiagram, telescope
from groupoid_forge.groupoid_core import orbits, verify_groupoid_axioms
from groupoid_forge.matrices import as_matrix
from groupoid_forge.pipeline import plan_af_realization
from groupoid_forge.twisted_product import check_lc

from helpers import (
    af_truncation,
    af_units,
    bench_inputs,
    prefix_texts,
    walked_unit_cofinal,
    walked_unit_lc,
    walked_unit_moves,
)


def _refuse_walk(G):
    raise AssertionError(f"the naming walk ran on a truncation of {len(G)} elements")


def _planned_rungs(seed):
    """(rung, report) for each rung of the seed's AF ladder."""
    for rung in bench_inputs().af_ladder(seed):
        report = plan_af_realization(
            rung["diagram"], unit_class=rung["unit_class"], depth=rung["depth"], lbound=rung["lbound"]
        )
        assert report.ok, rung["name"]
        yield rung, report


@pytest.mark.parametrize("seed", range(5))
def test_af_truncations_agree_with_the_plan(seed, monkeypatch):
    monkeypatch.setattr(groupoid_core, "_axiom_violations", _refuse_walk)
    checked = 0
    for rung, report in _planned_rungs(seed):
        d = rung["diagram"]
        levels = report.telescoping["subsequence"]
        G, alpha = af_truncation(telescope(d, levels[:3]), 2)
        assert verify_groupoid_axioms(G).passed, rung["name"]
        assert alpha.validate().passed, rung["name"]
        prefixes = {u: prefix_texts(u[0]) for u in G.units}
        for entry in report.lc.entries:
            cylinder = frozenset(u for u in G.units if entry.element in prefixes[u])
            assert cylinder, (rung["name"], entry.element)
            (found,) = check_lc(G, alpha, [cylinder]).entries
            assert found.l == entry.l, (rung["name"], entry.element)
            checked += 1
    # every path of length at most 2 on the three constant-2 rungs (7 each)
    # and the two all-ones rungs (22 each), and the first 40 on the seeded one
    assert checked == 3 * 7 + 2 * 22 + 40


@pytest.mark.parametrize("seed", range(5))
def test_witnessed_shifts_move_every_unit_on_the_truncations(seed):
    checked = 0
    for rung, report in _planned_rungs(seed):
        levels = report.telescoping["subsequence"]
        witnesses = report.wfc.details["witness_level_per_shift"]
        for n in (2, 3) if rung["name"].startswith("const2") else (2,):
            G, alpha = af_truncation(telescope(rung["diagram"], levels[: n + 1]), n)
            for l, t in witnesses.items():
                power = alpha.power(int(l))
                for x, _ in G.units:
                    moved, _ = power((x, x))
                    for k in range(t, n):
                        assert moved.edges[k] != x.edges[k], (rung["name"], n, l, k, str(x))
                        checked += 1
    # shift 1 is witnessed at level 0 on constant-2 and at level 1 on the
    # 2x2 rungs, shifts 2 and 3 at level 2 on constant-2, and every other
    # shift at n or later.  Constant-2: 4 units x 2 levels at n = 2, 16 x 3
    # + 2 x 16 at n = 3; all-ones: 16 units; seeded: 34 units.
    assert checked == 3 * (8 + 80) + 2 * 16 + 34


def cofinal_by_orbits(d: BratteliDiagram, n: int) -> bool:
    """Whether every orbit of the truncation of ``d`` from each level t < n
    holds a path from every level-t vertex; the truncations' sizes are
    checked against the budget of about 2,000 elements."""
    for t in range(n):
        G, _ = af_truncation(d, n, start=t)
        assert len(G) <= 2000, (n, t, len(G))
        every = set(d.vertices_at(t))
        if any({x.range_vertex for x, _ in orbit} != every for orbit in orbits(G)):
            return False
    return True


@pytest.mark.parametrize("seed", range(5))
def test_minimality_agrees_with_the_truncation_orbits(seed):
    checked = 0
    for rung, report in _planned_rungs(seed):
        levels = report.telescoping["subsequence"]
        for n in (2, 3) if rung["name"].startswith("const2") else (2,):
            tele = telescope(rung["diagram"], levels[: n + 1])
            assert minimality_verdict(tele, n).is_yes, (rung["name"], n)
            assert cofinal_by_orbits(tele, n), (rung["name"], n)
            checked += 1
    assert checked == 3 * 2 + 3


IDENTITY = as_matrix([[1, 0], [0, 1]])
ONES = as_matrix([[1, 1], [1, 1]])


@pytest.mark.parametrize(
    "mult, short",
    [((IDENTITY, IDENTITY, IDENTITY), 0), ((ONES, IDENTITY), 1)],
    ids=["identity-blocks", "all-ones-above-identity"],
)
def test_a_non_cofinal_diagram_fails_both_checks(mult, short):
    # an identity block keeps the vertices above it apart: with identities
    # only no level reaches both top vertices, and the verdict names the
    # lowest, level 0; above one identity block, level 0 reaches both
    # through the all-ones block, and level 1 is named
    n = len(mult)
    d = BratteliDiagram((2,) * (n + 1), mult)
    verdict = minimality_verdict(d, n)
    assert verdict.justification == f"level {short} does not reach every level-{n} vertex"
    assert not verdict.is_yes
    assert not cofinal_by_orbits(d, n)


def _cylinder_key(text: str) -> tuple:
    """An LC entry's path text as its range vertex and edge labels."""
    pieces = [ast.literal_eval(piece) for piece in text.split(".")]
    if len(pieces[0]) == 2:
        return pieces[0], ()
    return (0, pieces[0][1]), tuple(pieces)


@pytest.mark.parametrize("seed", range(5))
def test_unit_walks_check_the_plan_at_level_four(seed):
    walked = {"lc": 0, "shifts": 0, "units": 0}
    for rung, report in _planned_rungs(seed):
        levels = report.telescoping["subsequence"]
        tele = telescope(rung["diagram"], levels[:5])
        units = af_units(tele, 4)
        for entry in report.lc.entries:
            assert walked_unit_lc(tele, units, _cylinder_key(entry.element)) == entry.l
            walked["lc"] += 1
        for l, t in report.wfc.details["witness_level_per_shift"].items():
            if t < 4:
                assert walked_unit_moves(tele, units, int(l), t), (rung["name"], l)
                walked["shifts"] += 1
        assert walked_unit_cofinal(tele, 4), rung["name"]
        walked["units"] += len(units)
    # 7 entries on each constant-2 rung, 22 on each all-ones rung and 40 on
    # the seeded one; 19 shifts witnessed below level 4 in all; 64 units on
    # each constant-2 rung, 1,024 on each all-ones rung and the rest on the
    # seeded one
    assert walked["lc"] == 3 * 7 + 2 * 22 + 40
    assert walked["shifts"] == 19
    assert walked["units"] == 13186


@pytest.mark.parametrize("seed", range(5))
def test_unit_walks_agree_with_the_truncations(seed):
    compared = 0
    for rung, report in _planned_rungs(seed):
        levels = report.telescoping["subsequence"]
        for n in (1, 2, 3) if rung["name"].startswith("const2") else (1, 2):
            tele = telescope(rung["diagram"], levels[: n + 1])
            G, alpha = af_truncation(tele, n)
            units = af_units(tele, n)
            paths = {x: (x.range_vertex, tuple(e.label for e in x.edges)) for x, _ in G.units}
            assert sorted(paths.values()) == sorted(key for key, _ in units)
            for entry in report.lc.entries:
                v, prefix = _cylinder_key(entry.element)
                if len(prefix) <= n:
                    cylinder = frozenset(u for u in G.units if entry.element in prefix_texts(u[0]))
                    (found,) = check_lc(G, alpha, [cylinder]).entries
                    assert walked_unit_lc(tele, units, (v, prefix)) == found.l
                    compared += 1
            for l in range(1, report.parameters["lbound"] + 1):
                power = alpha.power(l)
                for t in range(n):
                    moved = all(
                        power((x, x))[0].edges[k] != x.edges[k]
                        for x, _ in G.units
                        for k in range(t, n)
                    )
                    assert walked_unit_moves(tele, units, l, t) == moved, (rung["name"], l, t)
                    compared += 1
            assert walked_unit_cofinal(tele, n) == cofinal_by_orbits(tele, n)
    assert compared > 0


@pytest.mark.parametrize(
    "mult, short",
    [((IDENTITY, IDENTITY, IDENTITY), 0), ((ONES, IDENTITY), 1)],
    ids=["identity-blocks", "all-ones-above-identity"],
)
def test_a_non_cofinal_diagram_fails_the_unit_walk(mult, short):
    n = len(mult)
    assert not walked_unit_cofinal(BratteliDiagram((2,) * (n + 1), mult), n)
