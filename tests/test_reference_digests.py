"""The seed-0 pipeline reports keep their recorded digests: plan the seed-0
``af_realize`` and ``rank2_realize`` ladders of ``bench/inputs.py`` and
compare each report's sha256 with ``SCHEMA_2_DIGESTS``.

``reference_digests_seed0`` in ``bench/rationale.json`` holds the digests
the benchmark recorded when it was defined, under report schema 1.  Each
schema-2 report, with the schema-2 changes undone, must still hash to them:
an AF report differs in ``schema_version`` only; a rank-2 report also drops
the ``telescoping.source`` echo of its input, lists one modulus and a
residue per shift where the pair scan listed a witness level per (shift,
offset) and ``s_bound``, and extends its LC sample past levels 0 and 1."""

import hashlib
import json
from pathlib import Path

from groupoid_forge.pipeline import plan_af_realization, plan_rank2_realization
from groupoid_forge.rank2_diagrams import canonical_rank2, compute_orders, telescope_rank2

from helpers import bench_inputs, scanned_rank2_wfc_certificate

BENCH = Path(__file__).resolve().parents[1] / "bench"

SCHEMA_2_DIGESTS = {
    "af_realize": {
        "const2_lb20": "18315635917bef35d533bdf6ad005011a409e474a08de91f77e2714bac3ad17c",
        "const2_lb40": "31873bd61fcc0397ebf2edf1b04e2fea819d4f89f148e1d28a21e3a270457a6f",
        "const2_lb80": "73af75823ead75b40e9392b1fa257acdc1801c5b383e6c5f1ab634685917591d",
        "ones2x2_lb20": "6b26ee3a7a38093f0b16d77ccf493c96f3fa5f3718661dd607cc4e8887a1171a",
        "ones2x2_lb40": "389c787f80ea4f54dbe32bb3ea76249f04fa1e5fe164c528d1042e6066d4a027",
        "seeded2x2_lb20": "c977ba1477aec3dcc356656cf25e688beadfe74765df556f50bbbe81b48d52af",
    },
    "rank2_realize": {
        "const2_d5": "b90153d0d8bcad409faada2b5d089ffef15606f4e71bbd82227662e1589f4893",
        "const3_d5": "03b5a94fcbfa3b66b481e08a6a7faff2a4d6e343485f6039d76259d925284742",
        "figure_tail_d3": "9324f9d3527c417b94896fdfa838fc399f1c12c8f44a48464889a8aa43295246",
        "twocycle_ones_d2": "ad3106ba510fac42046972e41ae53261bdeefa93a903b481d71e744bdf3c0abd",
    },
}


def _digest(report_json: dict) -> str:
    """sha256 of the canonical JSON: sorted keys, no spaces."""
    canonical = json.dumps(report_json, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _seed0_reports() -> dict:
    """workload -> rung name -> (rung, report JSON)."""
    inputs = bench_inputs()
    return {
        "af_realize": {
            rung["name"]: (
                rung,
                plan_af_realization(
                    rung["diagram"],
                    unit_class=rung["unit_class"],
                    depth=rung["depth"],
                    lbound=rung["lbound"],
                ).to_json(),
            )
            for rung in inputs.af_ladder(0)
        },
        "rank2_realize": {
            rung["name"]: (
                rung,
                plan_rank2_realization(
                    rung["data"], unit_class=rung["unit_class"], depth=rung["depth"]
                ).to_json(),
            )
            for rung in inputs.rank2_ladder(0)
        },
    }


def _schema_1(rung: dict, report: dict) -> dict:
    """The report as schema 1 laid it out."""
    old = {**report, "schema_version": 1}
    if report["kind"] == "af" or not report["telescoping"]["complete"]:
        return old
    data = rung["data"]
    old["telescoping"] = {**report["telescoping"], "source": data.to_json()}
    levels = report["parameters"]["levels_out"]
    diagram = canonical_rank2(telescope_rank2(data, levels).telescoped, levels)
    old["wfc"] = scanned_rank2_wfc_certificate(compute_orders(diagram), 50).to_json()
    # schema 1 sampled the level-0 anchors and up to 4 edges at levels 0 and 1
    count = 2 * diagram.cycle_count(0)
    count += sum(min(4, len(list(diagram.blue_labels_at(n)))) for n in (0, 1))
    old["lc"] = {"entries": report["lc"]["entries"][:count]}
    return old


def test_seed0_report_digests_match_reference():
    found = {
        workload: {name: _digest(report) for name, (_, report) in rungs.items()}
        for workload, rungs in _seed0_reports().items()
    }
    assert found == SCHEMA_2_DIGESTS
    assert sum(map(len, found.values())) == 10


def test_seed0_reports_as_schema_1_match_the_benchmark_reference():
    reference = json.loads((BENCH / "rationale.json").read_text())["reference_digests_seed0"]
    found = {
        workload: {name: _digest(_schema_1(*pair)) for name, pair in rungs.items()}
        for workload, rungs in _seed0_reports().items()
    }
    assert found == {name: reference[name] for name in found}
