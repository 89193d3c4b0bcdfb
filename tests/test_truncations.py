"""The groupoid toolkit checks the AF planner on finite truncations.

For every rung of the AF benchmark ladder, the level-2 truncation of the
report's telescoped diagram (its first three levels) is a finite groupoid
with the parallel-class cycling on it.  It must pass the axioms, with the
whole-table decision alone, and the cycling must be an automorphism.  Each
``lc`` entry of the report, the orbit length of a path mu from level 0, must
equal ``twisted_product.check_lc`` on the cylinder Z(mu): the units (x, x)
whose path x starts with mu.
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


@pytest.mark.parametrize("seed", range(5))
def test_af_truncations_agree_with_the_plan(seed, monkeypatch):
    monkeypatch.setattr(groupoid_core, "_axiom_violations", _refuse_walk)
    checked = 0
    for rung in bench_inputs().af_ladder(seed):
        d = rung["diagram"]
        report = plan_af_realization(
            d, unit_class=rung["unit_class"], depth=rung["depth"], lbound=rung["lbound"]
        )
        assert report.ok, rung["name"]
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
