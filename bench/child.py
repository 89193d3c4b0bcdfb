"""One process of one benchmark pass.

    python3 bench/child.py ROLE WORKLOAD SEED WORKDIR PASS_ID TRACE AS_LIMIT_MB

ROLE is ``plan`` or ``verify`` for the pipeline workloads and ``run`` for the
algebra workloads; ``warm`` only imports the package (it fills the bytecode
cache before timing starts).  The process caps its own address space at
AS_LIMIT_MB, so a regression that materializes too much raises MemoryError
inside an operation instead of exhausting the machine.

It writes JSON lines to standard output: ``{"ready": t}`` once inputs are
built (``t`` is ``time.monotonic()``, comparable with the parent's spawn
time), one record per operation, and ``{"done": t, "rss_kb": ...,
"reference_s": [[start, seconds], ...]}`` last: the samples of the
calibration computation, taken before the operations, between operations
whenever ``calibration.INTERVAL_S`` has passed, and after them.  Each
operation record carries the index of the sample that precedes it.
With TRACE 1 the spans are written to WORKDIR when the process ends.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    role, workload, seed, workdir, pass_id, trace, limit_mb = argv
    limit = int(limit_mb) * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, str(ROOT / "src"))

    import groupoid_forge

    if not Path(groupoid_forge.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"groupoid_forge imported from {groupoid_forge.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import calibration
    import workloads

    if role == "warm":
        return 0
    seed = int(seed)
    workdir = Path(workdir)
    report_path = workdir / f"reports-{pass_id}.json"

    if role == "plan":
        rungs = workloads.ladder(workload, seed)
        reports: dict = {r["name"]: None for r in rungs}
        ops = workloads.plan_ops(workload, rungs, reports)
    elif role == "verify":
        reports = json.loads(report_path.read_text())
        ops = workloads.verify_ops(reports)
    elif workload == "finite_twist":
        ops = workloads.finite_ops(workloads.finite_items(seed))
    else:
        ops = workloads.bouquet_ops(workloads.bouquet_items(seed))

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer(int(pass_id))
        tracer.install()

    _emit({"ready": time.monotonic()})
    calibration.sample()  # its first run is slower (cold code); not used
    reference = [calibration.sample()]
    for rec in ops:
        rec["segment"] = len(reference) - 1
        _emit(rec)
        if time.monotonic() - sum(reference[-1]) >= calibration.INTERVAL_S:
            reference.append(calibration.sample())
    reference.append(calibration.sample())
    end = time.monotonic()
    if role == "plan":
        report_path.write_text(json.dumps(reports))
    if tracer is not None:
        tracer.dump(str(workdir / f"spans-{pass_id}-{role}.bin"))
    _emit(
        {
            "done": end,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "reference_s": reference,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
