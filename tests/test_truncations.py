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
"""

import pytest

from groupoid_forge import groupoid_core
from groupoid_forge.graph_model import telescope
from groupoid_forge.groupoid_core import verify_groupoid_axioms
from groupoid_forge.pipeline import plan_af_realization
from groupoid_forge.twisted_product import check_lc

from helpers import af_truncation, bench_inputs, is_prefix


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
        for entry in report.lc.entries:
            cylinder = frozenset(u for u in G.units if is_prefix(entry.element, u[0]))
            assert cylinder, (rung["name"], str(entry.element))
            (found,) = check_lc(G, alpha, [cylinder]).entries
            assert found.l == entry.l, (rung["name"], str(entry.element))
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
