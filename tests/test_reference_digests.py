"""The seed-0 pipeline reports must keep the digests the benchmark recorded
when it was defined: plan the seed-0 ``af_realize`` and ``rank2_realize``
ladders of ``bench/inputs.py`` and compare each report's sha256 with
``reference_digests_seed0`` in ``bench/rationale.json``."""

import hashlib
import json
from pathlib import Path

from groupoid_forge.pipeline import plan_af_realization, plan_rank2_realization

from helpers import bench_inputs

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _digest(report_json: dict) -> str:
    """sha256 of the canonical JSON: sorted keys, no spaces."""
    canonical = json.dumps(report_json, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_seed0_report_digests_match_reference():
    inputs = bench_inputs()
    reference = json.loads((BENCH / "rationale.json").read_text())["reference_digests_seed0"]
    found = {
        "af_realize": {
            rung["name"]: _digest(
                plan_af_realization(
                    rung["diagram"],
                    unit_class=rung["unit_class"],
                    depth=rung["depth"],
                    lbound=rung["lbound"],
                ).to_json()
            )
            for rung in inputs.af_ladder(0)
        },
        "rank2_realize": {
            rung["name"]: _digest(
                plan_rank2_realization(
                    rung["data"], unit_class=rung["unit_class"], depth=rung["depth"]
                ).to_json()
            )
            for rung in inputs.rank2_ladder(0)
        },
    }
    assert found == {name: reference[name] for name in found}
    assert sum(map(len, found.values())) == 10
