"""The report checker against the generic derivations.

``pipeline.first_wrong_field`` plans an AF report again in closed form, off
the chains of one growth search, and a rank-2 report with only the checks
its telescope leaves open; ``helpers.replayed_report_verdict`` derives
either kind with every generic check and compares.  Every planned report
passes both, and a tamper corpus (one field of each certificate block
changed) is rejected by both, the checker naming the changed field."""

import dataclasses
import json
import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_forge import certificates, dimension_groups, graph_model, pipeline, rank2_diagrams
from groupoid_forge.graph_model import BratteliDiagram, constant_diagram, validate_bratteli
from groupoid_forge.matrices import as_matrix
from groupoid_forge.pipeline import (
    first_wrong_field,
    plan_af_realization,
    plan_rank2_realization,
    verify_report_json,
)
from groupoid_forge.rank2_diagrams import Rank2Data

from families import (
    CONSTANT2,
    CONSTANT3,
    FIGURE,
    FIGURE_TAIL,
    TWO_CYCLE_MIXED,
    TWO_CYCLE_ONES,
    seeded_compatible_data,
)
from helpers import (
    bench_inputs,
    generic_af_report,
    generic_rank2_report,
    level_cap,
    replayed_report_verdict,
)


def _json(report) -> dict:
    return json.loads(json.dumps(report.to_json()))


def _random_square(seed: int, size: int) -> BratteliDiagram:
    rng = random.Random(seed)
    m = as_matrix([[rng.randint(1, 3) for _ in range(size)] for _ in range(size)])
    return BratteliDiagram((size, size), (m,), 0)


def planned_corpus() -> dict:
    """AF reports: the benchmark ladder at seeds 0-4, the random 3x3 rung at
    lbound 40, and one report whose growth search runs out of its cap."""
    inputs = bench_inputs()
    reports = {
        f"seed{seed}:{rung['name']}": _json(
            plan_af_realization(
                rung["diagram"],
                unit_class=rung["unit_class"],
                depth=rung["depth"],
                lbound=rung["lbound"],
            )
        )
        for seed in range(5)
        for rung in inputs.af_ladder(seed)
    }
    reports["random3x3_lb40"] = _json(
        plan_af_realization(_random_square(0, 3), unit_class=(0, [1, 0, 2]), lbound=40)
    )
    with level_cap(3):
        reports["capped"] = _json(
            plan_af_realization(constant_diagram(2), unit_class=(0, [3]), lbound=8)
        )
    return reports


def recorded_cap(report: dict):
    """The level cap an AF report echoes, patched in for checking it."""
    return level_cap(report["parameters"]["source_cap"])


corpus = cache(planned_corpus)


def mutations(report: dict) -> list[tuple[str, object]]:
    """(path, new value) pairs, one field of each block of the report."""
    if not report["telescoping"]["complete"]:
        failure = report["telescoping"]["failure"]
        return [
            ("status", "ok"),
            ("telescoping.failure", failure.replace("cap 3", "cap 4")),
            ("corner.k_class.level", 1),
            ("analytic_hypotheses.4.note", "cited"),
        ]
    tele, details = report["telescoping"], report["wfc"]["details"]
    subseq = tele["subsequence"]
    mid, last = len(subseq) // 2, len(subseq) - 1
    entries = report["lc"]["entries"]
    shifts = sorted(details["witness_level_per_shift"], key=int)
    out = [
        (f"telescoping.subsequence.{mid}", subseq[mid] + 1),
        (f"telescoping.subsequence.{last}", subseq[last] - 1),
        ("telescoping.min_multiplicity_per_level.3", tele["min_multiplicity_per_level"]["3"] - 1),
        ("wfc.details.min_cycle_length_per_level.2", details["min_cycle_length_per_level"]["2"] + 1),
    ]
    witness = details["witness_level_per_shift"]
    mid_shift, last_shift = shifts[len(shifts) // 2], shifts[-1]
    out += [
        (f"wfc.details.witness_level_per_shift.{mid_shift}", (witness[mid_shift] or 2) - 1),
        (f"wfc.details.witness_level_per_shift.{last_shift}", witness[last_shift] + 1),
        (f"lc.entries.{len(entries) - 1}.l", 2 * entries[-1]["l"]),
        ("lc.entries.5.element", entries[6]["element"]),
        ("minimality.justification", "cofinal at depth 99"),
        ("ktheory.checks", report["ktheory"]["checks"] + 1),
        ("ktheory.corner_class_positive.level", 1),
        ("status", "unknown"),
        ("stabilization.note", "product with the complete relation"),
        ("analytic_hypotheses.2.note", "cited"),
    ]
    return out


def _mutated(report: dict, path: str, value) -> dict:
    out = json.loads(json.dumps(report))
    *parents, leaf = path.split(".")
    node = out
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    if isinstance(node, list):
        node[int(leaf)] = value
    else:
        node[leaf] = value
    return out


@pytest.mark.parametrize("name", sorted(corpus()))
def test_planned_report_passes_checker_and_replay(name):
    report = corpus()[name]
    with recorded_cap(report):
        assert first_wrong_field(report) is None
        assert replayed_report_verdict(report) is True


@pytest.mark.parametrize("name", sorted(corpus()))
def test_tampered_reports_rejected_at_the_changed_field(name):
    report = corpus()[name]
    for path, value in mutations(report):
        tampered = _mutated(report, path, value)
        assert tampered != report, path
        with recorded_cap(report):
            assert first_wrong_field(tampered) == path
            assert verify_report_json(tampered) is replayed_report_verdict(tampered) is False, path


def test_corpus_covers_both_outcomes():
    statuses = [r["status"] for r in corpus().values()]
    assert statuses.count("unknown") == 1 and len(statuses) == 32


def test_checker_runs_no_planner_certificate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a planner called a check its derivation settles")

    # the AF LC witness is check_path_lc's closed form, as ``forge certify
    # lc`` writes it, so only check_path_lc stays callable
    with monkeypatch.context() as patch:
        for module, name in [
            (pipeline, "check_wfc"),
            (pipeline, "minimality_verdict"),
            (certificates, "check_wfc"),
            (certificates, "minimality_verdict"),
            (dimension_groups, "dg_equal"),
            (dimension_groups, "dg_is_positive"),
            (graph_model, "telescope"),
            (graph_model.EdgeCycleAutomorphism, "edge_image"),
        ]:
            patch.setattr(module, name, refuse)
        assert planned_corpus() == corpus()
        for report in corpus().values():
            with recorded_cap(report):
                assert verify_report_json(report) is True
    # a rank-2 plan runs only the checks that can fail; the pipeline module
    # is patched too, so that importing one of these back into it fails here
    with monkeypatch.context() as patch:
        for module, name in [
            (rank2_diagrams, "validate_rank2"),
            (rank2_diagrams, "reverify_telescope"),
            (rank2_diagrams, "rank2_automorphism"),
            (dimension_groups, "rank2_k_matrices"),
            (dimension_groups, "dg_is_positive"),
        ]:
            patch.setattr(module, name, refuse)
            patch.setattr(pipeline, name, refuse, raising=False)
        for seed in range(5):
            for rung in bench_inputs().rank2_ladder(seed):
                report = _json(
                    plan_rank2_realization(
                        rung["data"], unit_class=rung["unit_class"], depth=rung["depth"]
                    )
                )
                assert report["status"] == rung["expect"]
                assert verify_report_json(report) is True


class TestFirstWrongField:
    def test_missing_and_extra_keys_are_named(self):
        report = corpus()["seed0:const2_lb20"]
        missing = json.loads(json.dumps(report))
        del missing["lc"]["entries"][3]["l"]
        assert first_wrong_field(missing) == "lc.entries.3.l"
        extra = _mutated(report, "wfc.details.witness_level_per_shift.21", 9)
        assert first_wrong_field(extra) == "wfc.details.witness_level_per_shift.21"
        short = json.loads(json.dumps(report))
        short["lc"]["entries"].pop()
        assert first_wrong_field(short) == f"lc.entries.{len(short['lc']['entries'])}"

    def test_the_first_of_two_changes_in_key_order(self):
        report = corpus()["seed1:ones2x2_lb20"]
        tampered = _mutated(report, "ktheory.checks", 0)
        tampered = _mutated(tampered, "wfc.details.witness_level_per_shift.7", 0)
        assert first_wrong_field(tampered) == "wfc.details.witness_level_per_shift.7"

    def test_af_report_without_a_parameter(self):
        report = json.loads(json.dumps(corpus()["seed0:const2_lb20"]))
        del report["parameters"]["source_cap"]
        assert first_wrong_field(report) == "parameters.source_cap"
        assert replayed_report_verdict(report) is False

    def test_rank2_path_is_the_first_field_the_replay_changes(self):
        data = Rank2Data(A=(((2,),),), B=(((2,),),), T=((1,), (1,)), repeat_from=0)
        report = _json(plan_rank2_realization(data, unit_class=(0, [2]), depth=3, lbound=6))
        assert first_wrong_field(report) is None
        witness = "wfc.details.witness_level_per_shift_and_red_offset"
        tampered = _mutated(report, "stabilization.full_relation_truncation", 9)
        assert first_wrong_field(tampered) == "stabilization.full_relation_truncation"
        key = next(iter(report["wfc"]["details"]["witness_level_per_shift_and_red_offset"]))
        tampered["wfc"]["details"]["witness_level_per_shift_and_red_offset"][key] += 1
        assert first_wrong_field(tampered) == f"{witness}.{key}"
        assert verify_report_json(tampered) is False


@st.composite
def stationary_plans(draw):
    size = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 3), min_size=size, max_size=size),
            min_size=size,
            max_size=size,
        )
    )
    d = BratteliDiagram((size, size), (as_matrix(rows),), 0)
    vec = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    unit = (0, vec) if any(vec) else None
    options = {"depth": draw(st.integers(1, 6)), "lbound": draw(st.integers(1, 24))}
    cap = draw(st.sampled_from([8, 64, 4096]))
    return d, unit, cap, options


@settings(max_examples=60, deadline=None)
@given(stationary_plans())
def test_every_stationary_plan_passes_the_checker(plan):
    d, unit, cap, options = plan
    if not validate_bratteli(d).passed:
        return
    with level_cap(cap):
        report = _json(plan_af_realization(d, unit_class=unit, **options))
        assert first_wrong_field(report) is None
        # the generic derivation rescans every candidate level, so an unknown
        # plan is derived again only under the small caps
        if report["telescoping"]["complete"] or cap <= 64:
            assert report == _json(generic_af_report(d, unit_class=unit, **options))
    # every complete plan is ok, and only a complete one
    assert (report["status"] == "ok") is report["telescoping"]["complete"]


# ---------------------------------------------------------------------------
# Rank-2 plans against the generic derivation
# ---------------------------------------------------------------------------

NAMED_RANK2 = {
    "figure": FIGURE,
    "const2": CONSTANT2,
    "const3": CONSTANT3,
    "figure_tail": FIGURE_TAIL,
    "two_cycle_ones": TWO_CYCLE_ONES,
    "two_cycle_mixed": TWO_CYCLE_MIXED,
}


def rank2_grid():
    """(name, data, cap, options): the named data and seeds 0-19 of the
    seeded compatible data, both orientations, with and without a repetition
    rule, each planned with six seeded draws of the unit class (valid,
    negative, too long, or at a level the data lacks), depth 1-4, lbound and
    level cap."""
    inputs = {
        f"{name}{o:+d}": dataclasses.replace(data, orientation=o)
        for name, data in NAMED_RANK2.items()
        for o in (1, -1)
    }
    inputs.update(
        (f"seed{seed}{'r' if repeat else ''}{o:+d}", seeded_compatible_data(seed, repeat, o))
        for seed in range(20)
        for repeat in (False, True)
        for o in (1, -1)
    )
    rng = random.Random(0)
    for name, data in inputs.items():
        w = len(data.T[0])
        units = [None, (0, [1] * w), (0, [2] + [0] * (w - 1)), (0, [-5] * w), (0, [1] * (w + 1))]
        units.append((9, [1] * w))
        for draw in range(6):
            options = {
                "unit_class": rng.choice(units),
                "depth": rng.randint(1, 4),
                "lbound": rng.choice((1, 7, 30, 50)),
            }
            yield f"{name}#{draw}", data, rng.choice((3, 10, 4096)), options


def _outcome(plan, data, options):
    """The plan's report JSON, or the type and message of what it raised."""
    try:
        return _json(plan(data, **options))
    except Exception as exc:  # either derivation may refuse the input; compare how
        return type(exc), str(exc)


@cache
def rank2_outcomes() -> dict:
    """Each grid case's level cap, planned report and generic report."""
    plans = (plan_rank2_realization, generic_rank2_report)
    outcomes = {}
    for name, data, cap, options in rank2_grid():
        with level_cap(cap):
            outcomes[name] = (cap, *(_outcome(plan, data, options) for plan in plans))
    return outcomes


def _rank2_label(outcome) -> str:
    if not isinstance(outcome, dict):
        return "refused"
    tele = outcome["telescoping"]
    if not tele["complete"]:
        return "cap" if "within cap" in tele["failure"] else "data horizon"
    if outcome["status"] == "ok":
        return "ok"
    return "wfc unknown" if outcome["wfc"]["status"] != "certificate" else "minimality unknown"


def test_rank2_plans_match_the_generic_derivation():
    corners = 0
    for name, (_, planned, generic) in rank2_outcomes().items():
        assert planned == generic, name
        if isinstance(planned, dict) and planned["telescoping"]["complete"] and planned["corner"]:
            # the closed-form corner verdict against the push of dg_is_positive
            verdict = generic["ktheory"]["corner_class_positive"]
            assert planned["ktheory"]["corner_class_positive"] == verdict, name
            assert verdict == {"value": "yes", "level": planned["corner"]["level"], "justification": None}
            corners += 1
    assert corners


def test_rank2_grid_covers_every_outcome():
    reports = [r for _, r, _ in rank2_outcomes().values() if isinstance(r, dict)]
    labels = {_rank2_label(r) for _, r, _ in rank2_outcomes().values()}
    assert labels == {"ok", "wfc unknown", "minimality unknown", "cap", "data horizon", "refused"}
    # a report carries its corner whether or not its telescope completes
    corners = {(r["telescoping"]["complete"], r["corner"] is not None) for r in reports}
    assert corners == {(True, True), (True, False), (False, True), (False, False)}


def test_rank2_checker_agrees_with_the_replay():
    for name, (cap, report, _) in rank2_outcomes().items():
        if not isinstance(report, dict):
            continue
        with level_cap(cap):
            assert first_wrong_field(report) is None, name
            assert replayed_report_verdict(report) is True, name
            if report["telescoping"]["complete"]:
                tamper = ("ktheory.order_formula_round_trip", False)
            else:
                tamper = ("telescoping.failure", report["telescoping"]["failure"] + ".")
            flipped = "unknown" if report["status"] == "ok" else "ok"
            for path, value in [("status", flipped), tamper]:
                tampered = _mutated(report, path, value)
                assert first_wrong_field(tampered) == path, name
                assert replayed_report_verdict(tampered) is False, name
