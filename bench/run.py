"""groupoid_forge benchmark: four workloads, end-to-end and traced per-layer runs.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --all [--seed N] [--seconds S]

Workloads: af_realize, rank2_realize, finite_twist, bouquet_symbolic (see
``bench/rationale.json`` for what each runs and why).  The library is
imported from ``src/`` next to this directory and driven only through its
public API; inputs are generated from the seed by ``bench/inputs.py``.

A pass runs in fresh interpreters, one process at a time, single-threaded:
the pipeline workloads plan every rung in one process (as ``forge realize``
would) and re-verify the reports from their JSON alone in a second process
(as ``forge verify-report`` would); the algebra workloads run in one process.
Each process caps its address space and has a wall timeout.  Passes repeat
until ``--seconds`` of passes have run (at least ``MIN_PASSES``), and every
metric is the median over passes.  Times are scaled to reference seconds by a
calibration computation sampled around the operations (``calibration.py``),
because the speed of a shared machine drifts by tens of percent.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics (setup_s, plan_s, verify_s, pass_s, peak_rss_mb).  With
``--trace 1`` untraced and traced passes alternate and the last line holds
the per-layer metrics: self time and call counts of the library's public
functions, size counters, and the tracing overhead.  An operation that
raises, times out, hits the memory cap, fails its exact oracle, or returns a
report whose digest differs between passes counts as failed; the run goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import calibration  # noqa: E402  (neither module imports groupoid_forge)
import tracer  # noqa: E402

WORKLOADS = ("af_realize", "rank2_realize", "finite_twist", "bouquet_symbolic")
PIPELINE = ("af_realize", "rank2_realize")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PROCESS_TIMEOUT_S = 60.0
# A run starts no pass after RUN_DEADLINE_S and kills any process still
# running at HARD_LIMIT_S, so that it ends, cleanup included, within three
# minutes.
RUN_DEADLINE_S = 150.0
HARD_LIMIT_S = 165.0
AS_LIMIT_MB = 1536

E2E_UNITS = {
    "setup_s": "s",
    "plan_s": "s",
    "verify_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}

# Spans reported by their own self time; the matrices functions and the
# GaussianRational dunders are reported as one sum per layer instead.
SELF_TIMED = [
    f"{module}.{name}"
    for module, names in tracer.FUNCTIONS.items()
    if module != "matrices"
    for name in names
] + [f"{module}.{cls}.{name}" for module, cls, name in tracer.METHODS if module != "gaussian"]

CALL_COUNTED = [
    "rank2_diagrams.compute_orders",
    "dimension_groups.dg_equal",
    "groupoid_core.GroupoidAutomorphism.power",
    "graph_groupoid.bisection_product",
    "graph_groupoid.intersect_basic",
    "graph_groupoid.difference_basic",
    "graph_groupoid.find_cylinder_inside",
]

# Per-layer metrics that are not span self times or call counts.
DERIVED_UNITS = {
    "rank2_diagrams.blue_edges": "count",
    "matrices.entry_bits": "bits",
    "matrices.self_s": "s",
    "groupoid_core.elements": "count",
    "convolution_algebra.pieces": "count",
    "convolution_algebra.merge_ratio": "1",
    "graph_model.growth_hit_ratio": "1",
    "gaussian.ops": "count",
    "gaussian.self_s": "s",
    "tracing_overhead_s": "s",
}


class Run:
    """Passes of one workload, their records and the failure tally."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.expected_ops: dict[str, int] = {}

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def _spawn(self, role: str, pass_id: int, trace: bool) -> dict:
        """Run one pass process to completion; returns its parsed output."""
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            role,
            self.workload,
            str(self.seed),
            str(self.workdir),
            str(pass_id),
            "1" if trace else "0",
            str(AS_LIMIT_MB),
        ]
        env = dict(os.environ, PYTHONHASHSEED="0")
        timeout = max(1.0, min(PROCESS_TIMEOUT_S, HARD_LIMIT_S - self.elapsed()))
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT
        )
        try:
            out, err = proc.communicate(timeout=timeout)
            timed_out = False
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            timed_out = True
        exited = time.monotonic()
        lines = []
        for line in out.splitlines():
            try:
                lines.append(json.loads(line))
            except json.JSONDecodeError:  # a line cut short by a kill
                pass
        records = [x for x in lines if "op" in x]
        ready = next((x["ready"] for x in lines if "ready" in x), None)
        samples = next((x["reference_s"] for x in lines if "reference_s" in x), None)
        if samples:
            scales = calibration.segment_scales(samples)
            setup_s, wall_s = calibration.scaled_wall(spawned, ready, samples, exited)
        else:  # the process died before reporting: its times stay unscaled
            scales = [1.0] * (1 + max((r["segment"] for r in records), default=0))
            setup_s = 0.0 if ready is None else ready - spawned
            wall_s = exited - spawned
        result = {
            "records": records,
            "rss_kb": next((x["rss_kb"] for x in lines if "rss_kb" in x), None),
            "setup_s": setup_s,
            "wall_s": wall_s,
            "duration_s": exited - spawned,
            "plan_s": sum(r["build_s"] * scales[r["segment"]] for r in records),
            "verify_s": sum(r["check_s"] * scales[r["segment"]] for r in records),
            "scale": statistics.median(scales),
            "complete": proc.returncode == 0 and not timed_out,
        }
        if not result["complete"]:
            why = "timed out" if timed_out else f"exit code {proc.returncode}"
            self.failures.append(f"{role} process of pass {pass_id} {why}: {err.strip()[-400:]}")
        return result

    def _tally(self, role: str, proc: dict) -> None:
        """Count the operations of one process; operations it never reported
        (it crashed, hit the memory cap or timed out) are failures."""
        records = proc["records"]
        if proc["complete"]:
            expected = self.expected_ops.setdefault(role, len(records))
        else:
            # at least the operation that was running when it died is lost
            expected = max(self.expected_ops.get(role, 0), len(records) + 1)
        self.attempted += expected
        bad = expected - len(records)
        for rec in records:
            ok = rec["ok"]
            if "digest" in rec:
                first = self.digests.setdefault(rec["op"], rec["digest"])
                if first != rec["digest"]:
                    ok = False
                    rec["error"] = f"report digest {rec['digest']} differs from {first}"
            if not ok:
                bad += 1
                self.failures.append(f"{rec['op']}: {rec.get('error', 'oracle disagreed')}")
        self.failed += bad

    def one_pass(self, pass_id: int, trace: bool) -> dict:
        roles = ("plan", "verify") if self.workload in PIPELINE else ("run",)
        procs = []
        for role in roles:
            proc = self._spawn(role, pass_id, trace)
            self._tally(role, proc)
            procs.append(proc)
        rss = [p["rss_kb"] for p in procs if p["rss_kb"] is not None]
        return {
            "pass_id": pass_id,
            "trace": trace,
            "complete": all(p["complete"] for p in procs),
            "setup_s": sum(p["setup_s"] for p in procs),
            "plan_s": sum(p["plan_s"] for p in procs),
            "verify_s": sum(p["verify_s"] for p in procs),
            "pass_s": sum(p["wall_s"] for p in procs),
            "duration_s": sum(p["duration_s"] for p in procs),
            "peak_rss_mb": max(rss, default=0) / 1024.0,
            "roles": roles,
            "scales": [p["scale"] for p in procs],
        }

    def warm(self) -> None:
        """Import the package once, untimed, so the bytecode cache is filled.
        A failure here shows again, and is counted, in the passes."""
        try:
            subprocess.run(
                [sys.executable, str(HERE / "child.py"), "warm", self.workload, "0",
                 str(self.workdir), "0", "0", str(AS_LIMIT_MB)],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=PROCESS_TIMEOUT_S,
                cwd=ROOT,
                check=False,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            pass

    def passes(self, traced: bool) -> list[dict]:
        """Run passes for ``seconds``; in a traced run, untraced and traced
        passes alternate."""
        self.warm()
        out: list[dict] = []
        begin = time.monotonic()
        while True:
            plain = [p for p in out if not p["trace"]]
            traced_done = [p for p in out if p["trace"]]
            enough = len(plain) >= MIN_PASSES and (
                not traced or len(traced_done) >= MIN_TRACED_PASSES
            )
            if out:
                typical = statistics.median(p["duration_s"] for p in out)
                if enough and time.monotonic() - begin + typical > self.seconds:
                    break
                if self.elapsed() + typical > RUN_DEADLINE_S:
                    break
            trace_this = traced and len(out) % 2 == 1
            out.append(self.one_pass(len(out), trace_this))
        return out


def end_to_end(passes: list[dict]) -> tuple[dict, int]:
    """Medians over the untraced passes, and their count."""
    plain = [p for p in passes if not p["trace"] and p["complete"]] or [
        p for p in passes if not p["trace"]
    ]
    return {
        name: {"value": statistics.median(p[name] for p in plain), "unit": unit}
        for name, unit in E2E_UNITS.items()
    }, len(plain)


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def pass_counts(calls: Counter, counters: Counter) -> dict:
    """Call counts and size counters of one traced pass; all repeat exactly
    for a fixed seed."""
    counts = {f"{n}.calls": calls[n] for n in CALL_COUNTED}
    counts["gaussian.ops"] = sum(v for k, v in calls.items() if k.startswith("gaussian."))
    for name in (
        "rank2_diagrams.blue_edges",
        "matrices.entry_bits",
        "groupoid_core.elements",
        "convolution_algebra.pieces",
    ):
        counts[name] = counters[name]
    pieces_in = counters["convolution_algebra.pieces_in"]
    counts["convolution_algebra.merge_ratio"] = (
        counters["convolution_algebra.pieces"] / pieces_in if pieces_in else 0.0
    )
    pcm = calls["graph_model.path_count_matrix"]
    counts["graph_model.growth_hit_ratio"] = (
        counters["graph_model.chosen_levels"] / pcm if pcm else 0.0
    )
    return counts


def per_layer(run: Run, passes: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes' span files; also returns the
    names of the counts that differed between traced passes."""
    traced = [p for p in passes if p["trace"] and p["complete"]]
    plain = [p for p in passes if not p["trace"] and p["complete"]]
    self_times, all_calls, all_counts = [], [], []
    for p in traced:
        self_s: Counter = Counter()
        calls: Counter = Counter()
        counters: Counter = Counter()
        for role, scale in zip(p["roles"], p["scales"]):
            s, c, k = tracer.summarize(str(run.workdir / f"spans-{p['pass_id']}-{role}.bin"))
            self_s.update({name: t * scale for name, t in s.items()})
            calls.update(c)
            bits = max(counters["matrices.entry_bits"], k.pop("matrices.entry_bits", 0))
            counters.update(k)
            counters["matrices.entry_bits"] = bits
        self_times.append(self_s)
        all_calls.append(calls)
        all_counts.append(pass_counts(calls, counters))

    def self_median(prefix: str) -> float:
        return median_or_zero(
            sum(t for k, t in s.items() if k == prefix or k.startswith(prefix + "."))
            for s in self_times
        )

    metrics: dict = {f"{name}.self_s": ("s", self_median(name)) for name in SELF_TIMED}
    counts = all_counts[0] if all_counts else pass_counts(Counter(), Counter())
    for key, value in counts.items():
        metrics[key] = ("count" if key.endswith(".calls") else DERIVED_UNITS[key], value)
    for layer in ("matrices", "gaussian"):
        metrics[f"{layer}.self_s"] = ("s", self_median(layer))
    overhead = 0.0
    if traced and plain:
        overhead = statistics.median(p["pass_s"] for p in traced) - statistics.median(
            p["pass_s"] for p in plain
        )
    metrics["tracing_overhead_s"] = ("s", overhead)
    differing = sorted({k for c in all_counts[1:] for k in c if c[k] != counts[k]})
    if any(c != all_calls[0] for c in all_calls[1:]):
        differing.append("span call counts")
    return {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()}, differing


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = ROOT / ".bench_out" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, seed, seconds, workdir)
        passes = run.passes(trace)
        e2e, n_plain = end_to_end(passes)
        differing: list[str] = []
        if trace:
            metrics, differing = per_layer(run, passes)
        else:
            metrics = e2e
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n_traced = sum(p["trace"] for p in passes)
    for line in run.failures[:20]:
        print(f"FAILED {workload}: {line}")
    if differing:
        print(f"NONDETERMINISTIC {workload}: traced passes disagree on {', '.join(differing)}")
    for op, sha in sorted(run.digests.items()):
        print(f"digest {workload} seed={seed} {op.split(':', 1)[1]} {sha}")
    print(
        f"{workload}: {len(passes)} passes ({n_plain} untraced, {n_traced} traced), "
        f"{run.attempted} operations attempted, {run.failed} failed, "
        f"fail_ratio {run.failed / max(run.attempted, 1):.4f}"
    )
    scales = [x for p in passes for x in p["scales"]]
    print(
        f"  times are reference seconds: wall seconds x ({calibration.REFERENCE_S} s / "
        f"the reference computation's time around them) ** {calibration.EXPONENT} "
        f"(process medians {min(scales):.3f}..{max(scales):.3f})"
    )
    for name, m in e2e.items():
        print(f"  {name:<12} {m['value']:.6g} {m['unit']}  (median of {n_plain} untraced passes)")
    if trace:
        for name, m in metrics.items():
            print(f"  {name:<58} {m['value']:.6g} {m['unit']}")
    return {
        "correct": run.failed == 0 and not differing,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    if not (ROOT / "src" / "groupoid_forge" / "__init__.py").is_file():
        print(f"no groupoid_forge sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not args.all:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    summary = {}
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        summary[workload] = dict(result, fail_ratio=result["failed"] / result["attempted"])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
