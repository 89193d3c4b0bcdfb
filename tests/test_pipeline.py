"""The realization planners and their self-contained reports."""

import hashlib
import json
import random
from functools import cache

import pytest

from groupoid_forge import pipeline, rank2_diagrams
from groupoid_forge.certificates import af_lc_witness
from groupoid_forge.graph_model import BratteliDiagram, Edge, PathWord, constant_diagram, telescope
from groupoid_forge.matrices import as_matrix
from groupoid_forge.pipeline import (
    PipelineInputError,
    RealizationReport,
    first_wrong_field,
    plan_af_realization,
    plan_rank2_realization,
    plan_report,
    unit_corner_spec,
    verify_report_json,
)
from groupoid_forge.rank2_diagrams import Rank2Data, compute_orders
from groupoid_forge.validation import StructuralError

from families import CONSTANT2, FIGURE
from helpers import (
    af_growth_levels,
    af_lc_sample_paths,
    bench_inputs,
    enumerated_af_lc_witness,
    level_cap,
    mutant,
)


class TestAfPlan:
    def test_full_report_without_corner(self):
        report = plan_af_realization(constant_diagram(2), depth=5, lbound=8)
        assert report.ok
        assert report.wfc.is_certificate
        assert report.minimality.is_yes
        assert report.corner is None
        table = report.telescoping["min_multiplicity_per_level"]
        for n in range(6):
            assert table[str(n)] > n

    def test_corner_spec_with_unit(self):
        report = plan_af_realization(
            constant_diagram(2), unit_class=(0, [2]), depth=4, lbound=6
        )
        assert report.ok
        assert report.corner.cylinders == (
            {"vertex": [0, 0], "copies": [1, 2]},
        )
        assert report.ktheory["corner_class_positive"]["value"] == "yes"
        assert report.stabilization["full_relation_truncation"] == 2

    def test_invalid_diagram_rejected_without_report(self):
        bad = BratteliDiagram((1, 2), (as_matrix([[1, 0]]),))
        with pytest.raises(PipelineInputError):
            plan_af_realization(bad)

    def test_negative_unit_rejected(self):
        with pytest.raises(ValueError):
            plan_af_realization(constant_diagram(2), unit_class=(0, [-1]))

    def test_zero_corner_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            unit_corner_spec(constant_diagram(2), 0, [0])

    def test_single_vertex_corner_is_one_cylinder(self):
        from groupoid_forge.dimension_groups import k0_vertex_class

        d = constant_diagram(2)
        spec = unit_corner_spec(d, 0, [1])
        assert spec.cylinders == ({"vertex": [0, 0], "copies": [1]},)
        assert spec.k_class == k0_vertex_class(d, (0, 0))

    def test_horizon_exhaustion_gives_unknown(self):
        with level_cap(3):
            report = plan_af_realization(constant_diagram(2), depth=5, lbound=8)
        assert report.status == "unknown"
        assert report.parameters["source_cap"] == 3
        assert report.telescoping == {
            "complete": False,
            "failure": "no level within cap 3 has entries > 2 from level 2",
        }

    def test_hypothesis_list_is_fixed(self):
        report = plan_af_realization(constant_diagram(2), depth=3, lbound=4)
        names = [h["name"] for h in report.analytic_hypotheses]
        assert names == [h["name"] for h in RealizationReport.analytic_hypotheses]
        assert all(h["status"] == "NOT COMPUTED" for h in report.analytic_hypotheses)
        assert len(names) == 5

    def test_deterministic(self):
        r1 = plan_af_realization(constant_diagram(2), unit_class=(0, [1]), depth=4, lbound=5)
        r2 = plan_af_realization(constant_diagram(2), unit_class=(0, [1]), depth=4, lbound=5)
        assert r1.to_json() == r2.to_json()

    def test_report_reverifies_from_json(self):
        report = plan_af_realization(constant_diagram(2), unit_class=(0, [2]), depth=4, lbound=5)
        blob = json.loads(json.dumps(report.to_json()))
        assert verify_report_json(blob)

    def test_stabilization_truncation_reverifies(self):
        # the truncation is derived from the unit class, so an edited one fails
        report = plan_af_realization(constant_diagram(2), unit_class=(0, [2]), depth=4, lbound=5)
        blob = json.loads(json.dumps(report.to_json()))
        assert blob["stabilization"]["full_relation_truncation"] == 2
        assert verify_report_json(blob)
        blob["stabilization"]["full_relation_truncation"] = 9
        assert not verify_report_json(blob)

    def test_tampered_report_fails(self):
        report = plan_af_realization(constant_diagram(2), depth=4, lbound=5)
        blob = json.loads(json.dumps(report.to_json()))
        blob["wfc"]["details"]["witness_level_per_shift"]["1"] = 999
        assert not verify_report_json(blob)


def seeded_square(seed: int, size: int) -> BratteliDiagram:
    rng = random.Random(seed)
    m = as_matrix([[rng.randint(1, 3) for _ in range(size)] for _ in range(size)])
    return BratteliDiagram((size, size), (m,), 0)


def growth_telescope(d, levels):
    return telescope(d, af_growth_levels(d, levels)[0])


@cache
def lc_cases() -> dict:
    """The diagrams the AF LC closed form is checked on: the telescoped top
    (the first three levels of the subsequence) of every ``af_ladder`` rung
    of seeds 0-4, and six seeded squares telescoped along the growth
    condition, among them random 3x3 data at lbound 40 with 682 paths of
    length at most 2 from level 0."""
    cases = {}
    for seed in range(5):
        for rung in bench_inputs().af_ladder(seed):
            d = rung["diagram"]
            levels = af_growth_levels(d, max(rung["depth"], rung["lbound"] + 1) + 1)[0]
            cases[f"{rung['name']}_seed{seed}"] = telescope(d, levels[:3])
    for seed in range(6):
        cases[f"square{seed}"] = growth_telescope(seeded_square(seed, 2 + seed % 2), 8 + seed)
    cases["square3x3_lb40"] = growth_telescope(seeded_square(0, 3), 42)
    return cases


@cache
def lc_expected() -> dict:
    """The enumerated sample's entries at each (case, count), with counts 1,
    7, 40 and one past the last path."""
    return {
        (name, count): enumerated_af_lc_witness(d, count).to_json()
        for name, d in lc_cases().items()
        for count in (1, 7, 40, len(af_lc_sample_paths(d)) + 1)
    }


def lc_disagreements(witness) -> list:
    """The (case, count) pairs at which ``witness``, called as ``forge
    certify lc`` calls ``af_lc_witness``, differs from the enumeration."""
    cases = lc_cases()
    return [
        (name, count)
        for (name, count), expected in lc_expected().items()
        if witness(cases[name].level_size(0), cases[name].multiplicity_matrix, count).to_json()
        != expected
    ]


LC_MUTANTS = {
    "the class sizes multiply": ("l = lcm(k, k2)", "l = k * k2"),
    "a class loses its last copy": ("for t in range(k2):", "for t in range(k2 - 1):"),
}


class TestAfLcSample:
    """``certificates.af_lc_witness`` reads the sample off the multiplicities:
    the first ``count`` paths of length at most 2 from level 0, each entry
    the lcm of the class sizes along its path.  It must equal
    ``check_path_lc`` on the enumerated paths, with each path word's orbit
    length read back from its labels."""

    def test_agrees_with_the_enumerated_sample(self):
        assert lc_disagreements(af_lc_witness) == []
        assert len(af_lc_sample_paths(lc_cases()["square3x3_lb40"])) == 682

    def test_the_plan_lists_the_top_sample(self):
        for seed in range(5):
            for rung in bench_inputs().af_ladder(seed):
                report = plan_af_realization(
                    rung["diagram"], rung["unit_class"], rung["depth"], rung["lbound"]
                )
                expected = lc_expected()[(f"{rung['name']}_seed{seed}", 40)]
                assert report.lc.to_json() == expected, rung["name"]

    def test_builds_no_path_or_edge(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a path or an edge was built")

        monkeypatch.setattr(PathWord, "__init__", refuse)
        monkeypatch.setattr(Edge, "__new__", refuse)
        d = seeded_square(0, 3)
        report = plan_af_realization(d, depth=5, lbound=40)
        assert len(report.lc.entries) == 40
        assert verify_report_json(json.loads(json.dumps(report.to_json())))
        tele = lc_cases()["square3x3_lb40"]
        assert len(af_lc_witness(tele.level_size(0), tele.multiplicity_matrix).entries) == 40

    def test_the_unmutated_source_passes(self):
        witness = mutant(af_lc_witness, "l = lcm(k, k2)", "l = lcm(k, k2)")
        assert witness is not af_lc_witness
        assert lc_disagreements(witness) == []

    @pytest.mark.parametrize("name", sorted(LC_MUTANTS))
    def test_each_mutant_is_killed(self, name):
        assert lc_disagreements(mutant(af_lc_witness, *LC_MUTANTS[name]))


class TestNonpositiveLbound:
    # a plan certifies the shifts 1..lbound, so a bound below 1 certifies nothing
    @pytest.mark.parametrize("plan", [plan_af_realization, plan_rank2_realization])
    @pytest.mark.parametrize("lbound", [0, -2])
    def test_nonpositive_lbound_rejected(self, plan, lbound):
        data = constant_diagram(2) if plan is plan_af_realization else CONSTANT2
        with pytest.raises(PipelineInputError, match="lbound must be at least 1"):
            plan(data, depth=3, lbound=lbound)

    @pytest.mark.parametrize("plan", [plan_af_realization, plan_rank2_realization])
    def test_report_with_nonpositive_lbound_rejected(self, plan):
        data = constant_diagram(2) if plan is plan_af_realization else CONSTANT2
        blob = json.loads(json.dumps(plan(data, depth=3, lbound=4).to_json()))
        blob["parameters"]["lbound"] = 0
        with pytest.raises(PipelineInputError, match="lbound"):
            verify_report_json(blob)


class TestNonpositiveDepth:
    # a plan checks the levels below depth, so a depth below 1 checks nothing
    @pytest.mark.parametrize("plan", [plan_af_realization, plan_rank2_realization])
    @pytest.mark.parametrize("depth", [0, -2])
    def test_nonpositive_depth_rejected(self, plan, depth):
        data = constant_diagram(2) if plan is plan_af_realization else CONSTANT2
        with pytest.raises(PipelineInputError, match=f"depth must be at least 1, got {depth}"):
            plan(data, depth=depth, lbound=4)

    @pytest.mark.parametrize("plan", [plan_af_realization, plan_rank2_realization])
    @pytest.mark.parametrize("depth", [0, -2])
    def test_report_with_nonpositive_depth_rejected(self, plan, depth):
        data = constant_diagram(2) if plan is plan_af_realization else CONSTANT2
        blob = json.loads(json.dumps(plan(data, depth=3, lbound=4).to_json()))
        blob["parameters"]["depth"] = depth
        with pytest.raises(PipelineInputError, match="depth must be at least 1"):
            verify_report_json(blob)


class TestReportParameters:
    @pytest.mark.parametrize("plan", [plan_af_realization, plan_rank2_realization])
    def test_unknown_parameter_rejected(self, plan):
        # recorded parameters go back to the planner as keywords
        data = constant_diagram(2) if plan is plan_af_realization else CONSTANT2
        blob = json.loads(json.dumps(plan(data, depth=3, lbound=4).to_json()))
        blob["parameters"]["unit_class"] = [0, [1]]
        with pytest.raises(PipelineInputError, match="unit_class"):
            verify_report_json(blob)


class TestPlanReport:
    @pytest.mark.parametrize(
        "kind, plan, data",
        [
            ("af", plan_af_realization, constant_diagram(2)),
            ("rank2", plan_rank2_realization, CONSTANT2),
        ],
        ids=["af", "rank2"],
    )
    def test_reads_and_plans_each_kind(self, kind, plan, data):
        options = {"unit_class": (0, [1]), "depth": 4, "lbound": 6}
        expected = plan(data, **options).to_json()
        assert plan_report(kind, data.to_json(), **options).to_json() == expected

    @pytest.mark.parametrize("kind", ["AF", "rank-2", "", None, 2])
    def test_refuses_an_unknown_kind_as_the_checker_does(self, kind):
        # no other kind is planned as rank-2 data
        report = plan_af_realization(constant_diagram(2)).to_json() | {"kind": kind}
        with pytest.raises(PipelineInputError) as checked:
            first_wrong_field(report)
        with pytest.raises(PipelineInputError) as planned:
            plan_report(kind, report["input"])
        assert str(planned.value) == str(checked.value) == f"unknown report kind {kind!r}"


class TestLevelCap:
    """The growth searches stop at ``matrices.LEVEL_CAP``, read at each
    call; an AF report echoes it as ``source_cap``, a rank-2 report does
    not record it."""

    def test_both_kinds_stop_at_the_patched_cap_and_name_it(self):
        with level_cap(3):
            af = plan_af_realization(constant_diagram(2), depth=5, lbound=8)
            rank2 = plan_rank2_realization(CONSTANT2, depth=5, lbound=10)
        assert af.telescoping["failure"].startswith("no level within cap 3 ")
        assert rank2.telescoping["failure"].startswith("no level within cap 3 ")
        assert af.parameters["source_cap"] == 3
        assert "source_cap" not in rank2.parameters

    def test_constant2_crosses_the_cap_between_lbound_510_and_511(self):
        # lbound 511 needs a level whose entries pass 511 from level 4089; the
        # walk there has length 9 and would end past the cap at 4098
        failure = "no level within cap 4096 has entries > 511 from level 4089"
        for lbound, status in ((510, "ok"), (511, "unknown"), (640, "unknown")):
            report = plan_af_realization(constant_diagram(2), lbound=lbound)
            blob = json.loads(json.dumps(report.to_json()))
            assert blob["status"] == status
            assert blob["telescoping"].get("failure") == (None if status == "ok" else failure)
            assert verify_report_json(blob)

    def test_af_echo_reverifies_only_under_its_cap(self):
        with level_cap(64):
            report = plan_af_realization(constant_diagram(2), depth=5, lbound=8)
            blob = json.loads(json.dumps(report.to_json()))
            assert blob["status"] == "ok" and blob["parameters"]["source_cap"] == 64
            assert first_wrong_field(blob) is None
        assert first_wrong_field(blob) == "parameters.source_cap"
        blob["parameters"]["source_cap"] = 4096
        assert first_wrong_field(blob) is None

    def test_rank2_report_recording_a_cap_fails_there(self):
        blob = json.loads(json.dumps(plan_rank2_realization(CONSTANT2, depth=3).to_json()))
        assert first_wrong_field(blob) is None
        blob["parameters"]["source_cap"] = 4096
        assert first_wrong_field(blob) == "parameters.source_cap"


class TestRank2Plan:
    def test_full_report(self):
        report = plan_rank2_realization(CONSTANT2, depth=5, lbound=50)
        assert report.ok
        assert report.wfc.is_certificate
        assert report.ktheory["order_inequality_o_gt_n_m_n"]
        assert report.ktheory["order_formula_round_trip"]
        assert report.minimality.is_yes

    def test_figure_prefix_orders_in_report(self):
        # figure data extended by a doubling tail so the sequence continues
        data = Rank2Data(
            A=(((3,),), ((4,),), ((2,),)),
            B=(((1,),), ((2,),), ((2,),)),
            T=((1,), (3,), (6,), (6,)),
            repeat_from=2,
        )
        report = plan_rank2_realization(data, depth=2, lbound=5)
        orders = report.ktheory["orders_per_level"]
        assert orders["0"] == [3]
        assert orders["1"] == [12]

    def test_unit_corner(self):
        report = plan_rank2_realization(CONSTANT2, unit_class=(0, [2]), depth=4, lbound=10)
        assert report.corner is not None
        assert report.ktheory["corner_class_positive"]["value"] == "yes"

    def test_non_diagonal_or_incompatible_t_rejected(self):
        with pytest.raises(Exception):
            Rank2Data(A=(((2,),),), B=(((2,),),), T=((1,), (3,)))

    def test_report_reverifies_from_json(self):
        report = plan_rank2_realization(CONSTANT2, depth=3, lbound=6)
        blob = json.loads(json.dumps(report.to_json()))
        assert verify_report_json(blob)

    def test_stabilization_truncation_reverifies(self):
        report = plan_rank2_realization(CONSTANT2, unit_class=(0, [2]), depth=3, lbound=6)
        blob = json.loads(json.dumps(report.to_json()))
        assert blob["stabilization"]["full_relation_truncation"] == 2
        assert verify_report_json(blob)
        blob["stabilization"]["full_relation_truncation"] = 9
        assert not verify_report_json(blob)

    def test_one_plan_computes_the_orders_once(self, monkeypatch):
        calls = []

        def counted(diagram):
            calls.append(diagram)
            return compute_orders(diagram)

        monkeypatch.setattr(pipeline, "compute_orders", counted)
        monkeypatch.setattr(rank2_diagrams, "compute_orders", counted)
        report = plan_rank2_realization(CONSTANT2, depth=4, lbound=10)
        assert report.wfc.is_certificate
        assert len(calls) == 1

    def test_depth_six_report_is_pinned(self):
        # a million blue edges when materialized; the closed forms plan it at once
        report = plan_rank2_realization(CONSTANT2, depth=6, lbound=50)
        assert report.ok
        text = json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "75c38e62558f50c8eb5544c3d84088a9b1826ed2b17208dce7a126bfc3434184"
        assert verify_report_json(json.loads(text))

    def test_report_bytes_grow_linearly_in_lbound(self):
        # one residue class per shift: the depth-7 constant-2 report as
        # ``forge realize rank2`` writes it, at lbound 100, 200 and 400
        sizes = {}
        for lbound in (100, 200, 400):
            report = plan_rank2_realization(CONSTANT2, depth=7, lbound=lbound)
            assert report.ok
            sizes[lbound] = len(json.dumps(report.to_json(), indent=2, sort_keys=True))
        assert sizes[200] < 50_000
        # a doubled lbound doubles the growth (a quadratic map would quadruple it)
        assert 1.9 < (sizes[400] - sizes[200]) / (sizes[200] - sizes[100]) < 2.1

    def test_horizon_exhaustion(self):
        with level_cap(4):
            report = plan_rank2_realization(CONSTANT2, depth=5, lbound=10)
        assert report.status == "unknown"
        assert "no level within cap 4 has entries" in report.telescoping["failure"]

    @pytest.mark.parametrize(
        "vector, error, message",
        [
            ([-5], ValueError, "corner vector must be entrywise nonnegative"),
            ([0], ValueError, "corner must be nonzero"),
            ([-5, "x"], StructuralError, "corner.vector.1 must be an integer, got 'x'"),
        ],
        ids=["negative", "zero", "not-integers"],
    )
    def test_unit_class_checked_when_telescoping_stops_short(self, vector, error, message):
        # FIGURE has no repetition rule and ends at level 2, short of depth 5;
        # the AF planner refuses the same vectors
        with pytest.raises(error, match=message):
            plan_rank2_realization(FIGURE, unit_class=(0, vector), depth=5)
        with pytest.raises(error, match=message):
            plan_af_realization(constant_diagram(2), unit_class=(0, vector))

    @pytest.mark.parametrize(
        "unit_class, message",
        [
            ((0, [1, 1]), "corner vector length must match the level size"),
            ((9, [1]), "corner level 9 outside levels 0"),
        ],
        ids=["vector-length", "level"],
    )
    @pytest.mark.parametrize("depth", [1, 5])
    def test_unit_class_that_does_not_fit_is_refused(self, unit_class, message, depth):
        # FIGURE telescopes completely at depth 1 and stops short at depth 5;
        # level 0, the one this vector names, is reached either way
        with pytest.raises(ValueError, match=message):
            plan_rank2_realization(FIGURE, unit_class=unit_class, depth=depth)

    def test_incomplete_plan_echoes_its_corner(self):
        report = plan_rank2_realization(FIGURE, unit_class=(0, [2]), depth=5)
        assert report.status == "unknown" and not report.telescoping["complete"]
        assert report.corner.vector == (2,)
        assert report.ktheory == {} and report.stabilization == {}
        assert verify_report_json(json.loads(json.dumps(report.to_json())))

    @pytest.mark.parametrize("depth", [2, 3])
    def test_finite_data_past_its_last_level_is_unknown(self, depth):
        # no repetition rule: the data ends at level 2, as a truncated AF
        # diagram ends at its horizon
        data = Rank2Data((((2,),), ((2,),)), (((2,),), ((2,),)), ((1,), (1,), (1,)))
        report = plan_rank2_realization(data, depth=depth)
        assert report.status == "unknown"
        assert report.telescoping["failure"].startswith("data horizon 2 reached")
        assert verify_report_json(json.loads(json.dumps(report.to_json())))
