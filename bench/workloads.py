"""The operations each workload performs, one record per operation.

Every operation is split into a build phase (the construction a user asks
for) and a check phase (the exact oracle that decides whether the result is
right); the two are timed separately and summed per pass into ``plan_s`` and
``verify_s``.  Library calls go through module attributes (``pipeline.x``,
not a name imported into this file) so that the traced run, which replaces
those attributes, sees them.

A record is a dict with ``op`` (its name), ``ok`` (every oracle agreed),
``build_s`` and ``check_s``, and optionally ``digest`` (sha256 of a report's
canonical JSON) or ``error``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
import traceback
from typing import Callable, Iterator

import inputs

# The package re-exports a function named twisted_product, which shadows the
# submodule as a package attribute, so the modules come from importlib.
convolution_algebra, graph_groupoid, groupoid_core, pipeline, twisted_product = (
    importlib.import_module(f"groupoid_forge.{name}")
    for name in (
        "convolution_algebra",
        "graph_groupoid",
        "groupoid_core",
        "pipeline",
        "twisted_product",
    )
)

Record = dict


def digest(report_json: dict) -> str:
    canonical = json.dumps(report_json, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _operation(name: str, body: Callable[[Record], bool]) -> Record:
    """Run one operation; any exception, MemoryError included, is a failed
    operation, never the end of the pass."""
    rec: Record = {"op": name, "ok": False, "build_s": 0.0, "check_s": 0.0}
    try:
        rec["ok"] = bool(body(rec))
    except Exception as exc:  # the boundary that must keep the pass going
        rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["traceback"] = traceback.format_exc(limit=4)
    return rec


def _timed(rec: Record, phase: str, fn: Callable, *args):
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        rec[phase] += time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Pipeline workloads: plan in one process, verify in another
# ---------------------------------------------------------------------------


def ladder(workload: str, seed: int) -> list[dict]:
    return inputs.af_ladder(seed) if workload == "af_realize" else inputs.rank2_ladder(seed)


def plan_ops(workload: str, rungs: list[dict], reports: dict) -> Iterator[Record]:
    """Plan every rung; stores each report's JSON in ``reports``."""
    for rung in rungs:

        def body(rec, rung=rung):
            if workload == "af_realize":
                report = _timed(
                    rec,
                    "build_s",
                    lambda: pipeline.plan_af_realization(
                        rung["diagram"],
                        unit_class=rung["unit_class"],
                        depth=rung["depth"],
                        lbound=rung["lbound"],
                    ),
                )
            else:
                report = _timed(
                    rec,
                    "build_s",
                    lambda: pipeline.plan_rank2_realization(
                        rung["data"], unit_class=rung["unit_class"], depth=rung["depth"]
                    ),
                )
            report_json = report.to_json()
            reports[rung["name"]] = report_json
            rec["digest"] = digest(report_json)
            rec["status"] = report.status
            return report.status == rung["expect"]

        yield _operation(f"plan:{rung['name']}", body)


def verify_ops(reports: dict) -> Iterator[Record]:
    """Re-verify each report from its JSON alone; a missing report (its plan
    failed) is a failed verification."""
    for name, report_json in reports.items():

        def body(rec, report_json=report_json):
            if report_json is None:
                raise ValueError("no report: the plan of this rung failed")
            return _timed(rec, "check_s", pipeline.verify_report_json, report_json) is True

        yield _operation(f"verify:{name}", body)


# ---------------------------------------------------------------------------
# finite_twist
# ---------------------------------------------------------------------------


def finite_ops(items: dict) -> Iterator[Record]:
    for k, (H, c, G, alpha) in enumerate(items["twisted"]):

        def body(rec, H=H, c=c, G=G, alpha=alpha):
            tw = _timed(rec, "build_s", twisted_product.twisted_product, H, c, G, alpha)

            def check():
                axioms = groupoid_core.verify_groupoid_axioms(tw.finite_form)
                scanned = groupoid_core.is_principal(tw.finite_form)
                predicted, _ = twisted_product.principality_criterion(H, c, G, alpha)
                rec["principal"] = scanned
                return axioms.passed and scanned == predicted

            return _timed(rec, "check_s", check)

        yield _operation(f"twisted:{k}", body)

    for k, (G, u, cx, cy) in enumerate(items["regrep"]):

        def body(rec, G=G, u=u, cx=cx, cy=cy):
            def build():
                xi = convolution_algebra.FiniteConvElement(G, cx)
                eta = convolution_algebra.FiniteConvElement(G, cy)
                rep = convolution_algebra.regular_representation
                return (
                    rep(G, u, convolution_algebra.convolve(xi, eta)),
                    rep(G, u, xi),
                    rep(G, u, eta),
                    rep(G, u, convolution_algebra.involution(xi)),
                )

            m_xy, m_x, m_y, m_xs = _timed(rec, "build_s", build)

            def check():
                multiplicative = m_x.matmul(m_y).entries == m_xy.entries
                adjoint = m_xs.entries == m_x.dagger().entries
                return multiplicative and adjoint

            return _timed(rec, "check_s", check)

        yield _operation(f"regrep:{k}", body)


def finite_items(seed: int) -> dict:
    return {
        "twisted": inputs.twisted_instances(seed),
        "regrep": inputs.representation_pairs(seed),
    }


# ---------------------------------------------------------------------------
# bouquet_symbolic
# ---------------------------------------------------------------------------


def bouquet_items(seed: int) -> dict:
    models = {m: inputs.shift_model_parts(m) for m in (1, 2, 3)}
    return {
        "models": models,
        "triples": inputs.symbolic_triples(seed),
        "windows": inputs.bouquet_windows(seed),
        "witnesses": inputs.witness_windows(seed),
    }


def bouquet_ops(items: dict) -> Iterator[Record]:
    models = items["models"]
    for k, (m, element_pieces) in enumerate(items["triples"]):

        def body(rec, m=m, element_pieces=element_pieces):
            def build():
                model = twisted_product.bouquet_twisted_product(*models[m])
                return [
                    convolution_algebra.SymbolicConvElement(model, pieces)
                    for pieces in element_pieces
                ]

            x, y, z = _timed(rec, "build_s", build)

            def check():
                conv, inv = convolution_algebra.convolve, convolution_algebra.involution
                xy = conv(x, y)
                associative = conv(xy, z) == conv(x, conv(y, z))
                anti = inv(xy) == conv(inv(y), inv(x))
                return associative and anti

            return _timed(rec, "check_s", check)

        yield _operation(f"triple:{k}", body)

    for k, W in enumerate(items["windows"]):

        def body(rec, W=W):
            lam = _timed(rec, "build_s", graph_groupoid.find_cylinder_inside, W)

            def check():
                inside = graph_groupoid.basic_subset(graph_groupoid.unit_bisection(lam), W)
                if W.excluded:
                    n = max(e.label for e in W.excluded) + 1
                    expected = W.range_word.concat(inputs.BOUQUET.path([n]))
                else:
                    expected = W.range_word
                return inside and lam == expected

            return _timed(rec, "check_s", check)

        yield _operation(f"window:{k}", body)

    for k, (m, window_h) in enumerate(items["witnesses"]):

        def body(rec, m=m, window_h=window_h):
            G, alpha = models[m]
            window_g = frozenset(G.units)

            def build():
                model = twisted_product.bouquet_twisted_product(G, alpha)
                l = twisted_product.check_lc(G, alpha, [window_g]).entries[0].l
                return model, twisted_product.contracting_bisection_witness(
                    model, window_h, window_g, l
                )

            model, w = _timed(rec, "build_s", build)

            def check():
                subset = graph_groupoid.basic_subset
                contracts = graph_groupoid.basic_proper_subset(w.r_set[0], w.s_set[0]) or (
                    w.r_set[1] < w.s_set[1]
                )
                inside = subset(w.s_set[0], window_h) and w.s_set[1] <= window_g
                return (
                    contracts
                    and inside
                    and twisted_product.reverify_contracting_witness(model, w)
                )

            return _timed(rec, "check_s", check)

        yield _operation(f"witness:{k}", body)
