#!/usr/bin/env python3
"""The full realization plan for rank-2 matrix data.

The bound recursion picks a level subsequence whose chained matrices outrun
the running product bound; the canonical diagram built on the telescoped
data then has blue-edge orders beating n * m_n at every level, which drives
both certificates.
"""

import json

from groupoid_forge import Rank2Data
from groupoid_forge.pipeline import plan_rank2_realization, verify_report_json

data = Rank2Data(A=(((2,),),), B=(((2,),),), T=((1,), (1,)), repeat_from=0)
report = plan_rank2_realization(data, unit_class=(0, [1]), depth=5, lbound=50)

print("status:", report.status)
print("\nchosen source levels:", report.telescoping["l"])
print("bound sequence M:", report.telescoping["M"])
print("entry-bound certificate:")
for entry in report.telescoping["certificate"]:
    print(f"  step {entry['step']}: level {entry['level']}, "
          f"min entry {entry['min_entry']} > {entry['strict_bound']}")

print("\norders per level:", report.ktheory["orders_per_level"])
print("m sequence:", report.ktheory["m_sequence"])
print("order inequality o(e) > n*m_n:", report.ktheory["order_inequality_o_gt_n_m_n"])
print("order formula round trip:", report.ktheory["order_formula_round_trip"])

print("\nfreeness certificate:", report.wfc.status)
print("  (per-level inequality; no pair open in the window 1 <= l, s <=",
      f"{report.wfc.shift_bound})")
r, M = report.wfc.details["open_class_per_shift"]["23"], report.wfc.details["open_class_modulus"]
print(f"  shift 23 leaves open exactly the offsets s = {r} mod {M}")

print("\nminimality of the blue skeleton:", report.minimality.to_json())
print("corner class positive:", report.ktheory["corner_class_positive"]["value"])

blob = json.loads(json.dumps(report.to_json()))
print("\nreport is self-contained and re-verifies:", verify_report_json(blob))
