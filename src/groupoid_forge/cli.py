"""The ``forge`` command line: validation, telescoping, groupoid checks,
twists, certificates, convolution demos, K-theory queries, rank-2 tools and
the realization pipelines.

Exit codes: 0 success / all requested certificates succeed, 1 a check failed
or a verdict was not reached, 2 structural input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, islice

from .dimension_groups import (
    DimGroupElement,
    dg_equal,
    dg_is_positive,
    dimension_group_of,
    k0_vertex_class,
)
from .graph_model import (
    diagram_from_json,
    telescope,
    validate_bratteli,
)
from .pipeline import (
    PipelineInputError,
    af_lc_witness,
    first_wrong_field,
    plan_report,
    unit_corner_spec,
)
from .rank2_diagrams import (
    canonical_rank2,
    compute_orders,
    rank2_automorphism,
    rank2_data_from_json,
    telescope_rank2,
)
from .validation import StructuralError, json_int

# The groupoid toolkit (groupoid_core, graph_groupoid, twisted_product and
# convolution_algebra) is imported inside the commands that use it, so the
# diagram and planner commands never load it.


def _load_json(path: str, **options) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, **options)


def _dump(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_levels_vector(text: str) -> tuple[int, tuple[int, ...]]:
    level_str, _, vec_str = text.partition(":")
    vec = tuple(int(x) for x in vec_str.split(",") if x)
    if not vec:
        raise ValueError(f"expected level:v1,v2,..., got {text!r}")
    return int(level_str), vec


def _plan_options(args) -> dict:
    """The planner keywords given on the command line; the others keep the
    planner's own defaults."""
    given = {"depth": args.depth, "lbound": args.lbound}
    return {k: v for k, v in given.items() if v is not None}


def _alpha_for(spec: str, G):
    from .groupoid_core import (
        automorphism_from_json,
        cyclic_multiplier_automorphism,
        identity_automorphism,
        relation_automorphism,
    )

    if spec == "identity":
        return identity_automorphism(G)
    if spec.startswith("cycle"):
        shift = int(spec.partition(":")[2] or 1)
        if not all(
            isinstance(g, tuple) and len(g) == 2 and (G.r(g), G.s(g)) == ((g[0],) * 2, (g[1],) * 2)
            for g in G.elements
        ):
            raise ValueError(f"--alpha {spec} needs G to be a relation of pairs (a, b) on points")
        points = sorted({u[0] for u in G.units})
        n = len(points)
        return relation_automorphism(G, {p: points[(points.index(p) + shift) % n] for p in points})
    if spec.startswith("multiplier"):
        return cyclic_multiplier_automorphism(G, int(spec.partition(":")[2]))
    return automorphism_from_json(G, _load_json(spec))


def cmd_validate(args) -> int:
    d = diagram_from_json(_load_json(args.file))
    report = validate_bratteli(d)
    print(report.describe())
    return 0 if report.passed else 1


def cmd_telescope(args) -> int:
    d = diagram_from_json(_load_json(args.file))
    subsequence = tuple(int(x) for x in args.subsequence.split(","))
    result = telescope(d, subsequence)
    _dump(result.to_json(), args.out)
    return 0


def cmd_check_groupoid(args) -> int:
    from .groupoid_core import groupoid_from_json, verify_groupoid_axioms

    G = groupoid_from_json(_load_json(args.file))
    report = verify_groupoid_axioms(G)
    print(report.describe())
    return 0 if report.passed else 1


def _axiomatic_groupoid(path: str):
    """The groupoid of a dump; one failing an axiom is refused with its report."""
    from .groupoid_core import groupoid_from_json, verify_groupoid_axioms

    G = groupoid_from_json(_load_json(path))
    report = verify_groupoid_axioms(G)
    if not report.passed:
        raise StructuralError(f"{path} is not a groupoid: {report.describe()}")
    return G


# The options a command does not read, in the parser's order; each is refused.
_UNREAD = {
    "twist --H hinf": ("cocycle", "out"),
    "certify lc": ("depth", "lbound", "rank2"),
    "certify contract": ("input", "depth", "lbound", "rank2"),
}


def _refuse_unread(args, command: str) -> None:
    unread = [k for k in _UNREAD.get(command, ()) if getattr(args, k) not in (None, False)]
    if unread:
        raise ValueError(f"{command} does not read --{unread[0]}")


def cmd_twist(args) -> int:
    from .groupoid_core import cocycle_from_json, verify_groupoid_axioms, zero_cocycle
    from .twisted_product import bouquet_twisted_product, twisted_product

    if args.H == "hinf":
        _refuse_unread(args, "twist --H hinf")
    G = _axiomatic_groupoid(args.G)
    alpha = _alpha_for(args.alpha, G)
    if args.H == "hinf":
        model = bouquet_twisted_product(G, alpha)
        print(
            "symbolic twisted product over the infinite bouquet: "
            f"|G| = {len(G)}, degree cocycle, automorphism of order {alpha.order()}"
        )
        return 0
    H = _axiomatic_groupoid(args.H)
    if args.cocycle in (None, "zero"):
        c = zero_cocycle(H)
    else:
        c = cocycle_from_json(H, _load_json(args.cocycle))
    tw = twisted_product(H, c, G, alpha)
    report = verify_groupoid_axioms(tw.finite_form)
    print(f"twisted product with {len(tw.finite_form)} elements: {report.describe()}")
    if args.out:
        _dump(tw.finite_form.to_json(), args.out)
    return 0 if report.passed else 1


def cmd_certify(args) -> int:
    _refuse_unread(args, f"certify {args.what}")
    if args.what != "contract" and args.input is None:
        raise ValueError(f"certify {args.what} needs --input")
    if args.what == "wfc":
        # certify along the realization route: the planner telescopes until
        # its growth condition holds, builds the automorphism and checks wfc
        kind = "rank2" if args.rank2 else "af"
        report = plan_report(kind, _load_json(args.input), **_plan_options(args))
        if report.wfc is None:
            reason = report.telescoping["failure"]
            print(json.dumps({"status": "unknown", "reason": reason}))
            return 1
        _dump(report.wfc.to_json(), args.out)
        return 0 if report.wfc.is_certificate else 1
    if args.what == "lc":
        d = diagram_from_json(_load_json(args.input))
        witness = af_lc_witness(d)
        _dump(witness.to_json(), args.out)
        return 0
    # contract: build a demonstration witness over the bouquet with trivial G
    # inside the fixed window Z(e6.e0.e4 \ {e4, e6, e7}), and re-check it
    from .graph_groupoid import InfiniteBouquet, render_bisection, unit_bisection
    from .groupoid_core import full_relation, identity_automorphism
    from .twisted_product import (
        bouquet_twisted_product,
        contracting_bisection_witness,
        reverify_contracting_witness,
    )

    G = full_relation([0])
    model = bouquet_twisted_product(G, identity_automorphism(G))
    bouquet = InfiniteBouquet()
    window = unit_bisection(bouquet.path([6, 0, 4]), {bouquet.edge(i) for i in (4, 6, 7)})
    witness = contracting_bisection_witness(model, window, frozenset(G.units), l=1)
    if not reverify_contracting_witness(model, witness):
        print("contracting witness FAILED re-verification", file=sys.stderr)
        return 1
    _dump(
        {
            "window": render_bisection(window),
            "witness": witness.to_json(),
        },
        args.out,
    )
    return 0


def cmd_convolve_demo(args) -> int:
    from .convolution_algebra import (
        comp2_identity_sides,
        comp_identity_sides,
        delta,
        right_action_identity_sides,
    )
    from .groupoid_core import full_relation, relation_automorphism
    from .twisted_product import bouquet_twisted_product

    G = full_relation(range(2))
    alpha = relation_automorphism(G, {0: 1, 1: 0})
    model = bouquet_twisted_product(G, alpha)
    ok = True
    shown = 0
    for i, j in [(0, 0), (0, 1)]:
        for g in G.elements[:2]:
            for gp in G.elements[:2]:
                f, fp = delta(G, g), delta(G, gp)
                if args.identity == "comp":
                    lhs, rhs = comp_identity_sides(model, i, j, f, fp)
                elif args.identity == "comp2":
                    lhs, rhs = comp2_identity_sides(model, i, f, fp)
                else:
                    lhs, rhs = right_action_identity_sides(model, i, f, fp)
                same = lhs == rhs
                ok = ok and same
                if shown < 4:
                    print(f"i={i} j={j} f=delta{g} f'=delta{gp}")
                    print(f"  lhs = {lhs.describe()}")
                    print(f"  rhs = {rhs.describe()}")
                    print(f"  equal: {same}")
                    shown += 1
    print(f"identity '{args.identity}' holds on the sampled grid: {ok}")
    return 0 if ok else 1


def cmd_ktheory(args) -> int:
    d = diagram_from_json(_load_json(args.file))
    spec = dimension_group_of(d)
    if args.vertex_class:
        level, vec = _parse_levels_vector(args.vertex_class)
        element = k0_vertex_class(d, (level, vec[0]))
    elif args.corner:
        level, vec = _parse_levels_vector(args.corner)
        element = unit_corner_spec(d, level, vec).k_class
    else:
        raise ValueError("ktheory needs --class level:index or --corner level:vector")
    if args.op == "positive":
        verdict = dg_is_positive(spec, element, args.horizon)
    else:
        if not args.other:
            print("--op equal needs --other level:vector", file=sys.stderr)
            return 2
        lvl2, vec2 = _parse_levels_vector(args.other)
        verdict = dg_equal(spec, element, DimGroupElement(lvl2, vec2), args.horizon)
    _dump(verdict.to_json(), args.out)
    return 0 if verdict.is_yes else 1


def cmd_rank2(args) -> int:
    data, horizon = rank2_data_from_json(_load_json(args.input))
    levels = args.levels
    if levels is None:
        levels = len(data.T) if horizon is None else horizon
    if args.action == "build":
        diagram = canonical_rank2(data, levels)
        _dump(
            {
                "levels": [list(s) for s in diagram.cycle_sizes],
                "blue_edges": diagram.blue_count(),
            },
            args.out,
        )
        return 0
    if args.action == "orders":
        diagram = canonical_rank2(data, levels)
        orders = compute_orders(diagram)
        _dump(
            {
                "orders_per_level": {
                    str(n): list(orders.orders_at(n)) for n in range(levels - 1)
                },
                "level_lcm": list(orders.level_lcm),
                "m": list(orders.m),
            },
            args.out,
        )
        return 0
    if args.action == "telescope":
        result = telescope_rank2(data, levels)
        _dump(result.to_json(), args.out)
        return 0 if result.complete else 1
    diagram = canonical_rank2(data, levels)
    orders = rank2_automorphism(diagram)
    labels = chain.from_iterable(diagram.blue_labels_at(n) for n in range(levels - 1))
    _dump(
        {
            "m_sequence": list(orders.m),
            "sample": {str(label): str(orders.blue_image(label)) for label in islice(labels, 8)},
        },
        args.out,
    )
    return 0


def cmd_realize(args) -> int:
    unit = _parse_levels_vector(args.unit) if args.unit else None
    source = _load_json(args.input)
    report = plan_report(args.target, source, unit_class=unit, **_plan_options(args))
    _dump(report.to_json(), args.out)
    return 0 if report.ok else 1


def _refuse_floats(value, path: str = "") -> None:
    """Raise ``StructuralError`` at the first float of a JSON value, in file
    order, naming its field as the input readers do."""
    if isinstance(value, float):
        json_int(value, path)
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            _refuse_floats(child, f"{path}.{key}" if path else str(key))


class _FloatMet(Exception):
    """The text of a JSON float, met while a report is read."""


def _stop_at_float(text: str):
    raise _FloatMet(text)


def _read_report(path: str) -> dict:
    """A report file, every number in it a JSON integer.  A derived field is
    compared by value, where 20.0 would pass for 20, so a float anywhere (or
    NaN, or infinity) is refused.  The parser stops at the first one, and
    the file is read again to name its field as the input readers do."""
    try:
        return _load_json(path, parse_float=_stop_at_float, parse_constant=_stop_at_float)
    except _FloatMet as met:
        _refuse_floats(_load_json(path))
        raise StructuralError(f"report holds the float {met}") from None


def cmd_verify_report(args) -> int:
    wrong = first_wrong_field(_read_report(args.file))
    print("report re-verifies" if wrong is None else f"report FAILED re-verification at {wrong}")
    return 0 if wrong is None else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="forge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a diagram file")
    v.add_argument("file")
    v.set_defaults(fn=cmd_validate)

    t = sub.add_parser("telescope", help="telescope a diagram along a level subsequence")
    t.add_argument("file")
    t.add_argument("--subsequence", required=True)
    t.add_argument("--out")
    t.set_defaults(fn=cmd_telescope)

    g = sub.add_parser("check-groupoid", help="verify groupoid axioms on a dump")
    g.add_argument("file")
    g.set_defaults(fn=cmd_check_groupoid)

    tw = sub.add_parser("twist", help="form a twisted product")
    tw.add_argument("--H", required=True, help="groupoid file or the literal 'hinf'")
    tw.add_argument("--G", required=True)
    tw.add_argument("--alpha", required=True, help="identity | cycle[:k] | multiplier:a | file")
    tw.add_argument("--cocycle", help="zero (the default) | file")
    tw.add_argument("--out")
    tw.set_defaults(fn=cmd_twist)

    c = sub.add_parser("certify", help="produce wfc/lc/contract certificates")
    c.add_argument("what", choices=["wfc", "lc", "contract"])
    c.add_argument("--input")
    c.add_argument("--depth", type=int)
    c.add_argument("--lbound", type=int)
    c.add_argument("--rank2", action="store_true")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_certify)

    cv = sub.add_parser("convolve-demo", help="print both sides of a module identity")
    cv.add_argument("--identity", choices=["comp", "comp2", "right-action"], required=True)
    cv.set_defaults(fn=cmd_convolve_demo)

    k = sub.add_parser("ktheory", help="equality/positivity queries on diagram classes")
    k.add_argument("file")
    k.add_argument("--class", dest="vertex_class", help="level:index of a vertex class")
    k.add_argument("--corner", help="level:a1,a2,... corner vector")
    k.add_argument("--other", help="level:vector comparand for --op equal")
    k.add_argument("--op", choices=["equal", "positive"], required=True)
    k.add_argument("--horizon", type=int, default=12)
    k.add_argument("--out")
    k.set_defaults(fn=cmd_ktheory)

    r2 = sub.add_parser("rank2", help="rank-2 diagram tools")
    r2.add_argument("action", choices=["build", "orders", "telescope", "automorphism"])
    r2.add_argument("--input", required=True)
    r2.add_argument("--levels", type=int)
    r2.add_argument("--out")
    r2.set_defaults(fn=cmd_rank2)

    rz = sub.add_parser("realize", help="run a realization pipeline")
    rz.add_argument("target", choices=["af", "rank2"])
    rz.add_argument("input")
    rz.add_argument("--unit", help="level:vector unit class")
    rz.add_argument("--depth", type=int)
    rz.add_argument("--lbound", type=int)
    rz.add_argument("--out")
    rz.set_defaults(fn=cmd_realize)

    vr = sub.add_parser("verify-report", help="re-verify an emitted report")
    vr.add_argument("file")
    vr.set_defaults(fn=cmd_verify_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("depth", "lbound"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            print(f"error: --{flag} must be at least 1, got {value}", file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except StructuralError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return 2
    except PipelineInputError as exc:
        print(f"input rejected: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
