"""End-to-end realization planners.

Given diagram data for a target K-theory, these orchestrate telescoping,
automorphism construction, freeness/contraction certificates, stabilization
parameters and the unit-corner computation, and emit a self-contained,
machine-readable report.  The AF planner reads every certificate off the
chains of one growth search in closed form; the rank-2 planner runs only
the checks its telescope does not settle (freeness, contraction and
minimality) and writes the rest in closed form.  One assembly lays out the
reports of both kinds.  A report is checked by planning its echoed input
again and naming the first field that differs.
The pipeline never claims to output an operator algebra: it outputs the
groupoid data plus certificates; the analytic steps are listed as
hypotheses, flagged NOT COMPUTED.
"""

from __future__ import annotations

from itertools import islice, zip_longest
from typing import NamedTuple, Sequence

from . import matrices
from .certificates import (
    LcWitness,
    WfcCertificate,
    check_path_lc,
    check_wfc,
    minimality_verdict,
    shift_witness_levels,
)
from .dimension_groups import DimGroupElement, Verdict, dimension_group_of
from .graph_model import (
    BratteliDiagram,
    EdgeCycleAutomorphism,
    PathWord,
    diagram_from_json,
    iter_paths,
    validate_bratteli,
)
from .matrices import growth_levels, min_entry, transpose
from .rank2_diagrams import (
    Rank2Data,
    Rank2Path,
    TelescopeResult,
    blue_skeleton,
    canonical_rank2,
    compute_orders,
    rank2_data_from_json,
    telescope_rank2,
)
from .validation import StructuralError, json_int, json_ints


class PipelineInputError(ValueError):
    """Input a planner, or the report checker, refuses."""


def _check_bounds(depth: int, lbound: int) -> None:
    """A plan checks levels below depth and certifies the shifts 1..lbound,
    so it needs at least one of each."""
    if depth < 1:
        raise PipelineInputError(f"depth must be at least 1, got {depth}")
    if lbound < 1:
        raise PipelineInputError(f"lbound must be at least 1, got {lbound}")


class CornerSpec(NamedTuple):
    """The compact open corner cut out by a nonnegative vertex vector."""

    level: int
    vector: tuple[int, ...]
    cylinders: tuple[dict, ...]

    @property
    def k_class(self) -> DimGroupElement:
        """The corner's class in K_0: its vector at its level."""
        return DimGroupElement(self.level, self.vector)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "vector": list(self.vector),
            "cylinders": list(self.cylinders),
            "k_class": {"level": self.k_class.level, "vector": list(self.k_class.vector)},
            "window": "bouquet unit space x V, with V the union of the listed "
            "cylinder copies; the realized groupoid is the restriction to "
            "elements with range and source in that window",
        }


def _corner_spec(level: int, vec, size: int | None, vertex, **extra) -> CornerSpec:
    """Corner data for a unit class: ``vec[i]`` cylinder copies at the
    vertex laid out as ``vertex(i)``, each entry carrying ``extra``.  The
    vector is of JSON integers, entrywise nonnegative, nonzero and, when its
    level's ``size`` is known, one entry per vertex."""
    vec = json_ints(vec, "corner.vector")
    if any(x < 0 for x in vec):
        raise ValueError("corner vector must be entrywise nonnegative")
    if not any(vec):
        raise ValueError("corner must be nonzero (full-corner hypothesis)")
    if size is not None and len(vec) != size:
        raise ValueError("corner vector length must match the level size")
    cylinders = tuple(
        {"vertex": vertex(i), "copies": list(range(1, vec[i] + 1)), **extra}
        for i in range(len(vec))
        if vec[i]
    )
    return CornerSpec(level, vec, cylinders)


def unit_corner_spec(d: BratteliDiagram, level: int, a: Sequence[int]) -> CornerSpec:
    """Corner data for a unit class: a(v) cylinder copies per level vertex."""
    return _corner_spec(level, a, d.level_size(level), lambda i: [level, i])


class RealizationReport(NamedTuple):
    kind: str
    status: str
    input_echo: dict
    parameters: dict
    telescoping: dict
    automorphism: dict
    wfc: WfcCertificate | None
    lc: LcWitness | None
    minimality: Verdict | None
    stabilization: dict
    corner: CornerSpec | None
    ktheory: dict

    # The analytic steps the certificates feed into: cited, never computed here.
    analytic_hypotheses = (
        {
            "name": "amenability",
            "status": "NOT COMPUTED",
            "note": "the twisted product is amenable exactly when the input groupoid is",
        },
        {
            "name": "simplicity via minimal + principal",
            "status": "NOT COMPUTED",
            "note": "minimal, principal, amenable groupoids have simple algebras (Renault; "
            "Brown-Clark-Farthing-Sims)",
        },
        {
            "name": "pure infiniteness",
            "status": "NOT COMPUTED",
            "note": "locally contracting groupoids have purely infinite algebras "
            "(Anantharaman-Delaroche)",
        },
        {
            "name": "K-theory transfer",
            "status": "NOT COMPUTED",
            "note": "the canonical embedding induces a KK-equivalence (Pimsner)",
        },
        {
            "name": "classification",
            "status": "NOT COMPUTED",
            "note": "Kirchberg-Phillips classification identifies the target algebra",
        },
    )
    schema_version = 1

    def to_json(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "status": self.status,
            "input": self.input_echo,
            "parameters": self.parameters,
            "telescoping": self.telescoping,
            "automorphism": self.automorphism,
            "wfc": None if self.wfc is None else self.wfc.to_json(),
            "lc": None if self.lc is None else self.lc.to_json(),
            "minimality": None if self.minimality is None else self.minimality.to_json(),
            "stabilization": self.stabilization,
            "corner": None if self.corner is None else self.corner.to_json(),
            "ktheory": self.ktheory,
            "analytic_hypotheses": list(self.analytic_hypotheses),
        }

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# ---------------------------------------------------------------------------
# AF pipeline
# ---------------------------------------------------------------------------


def _lc_sample(d: BratteliDiagram, count: int) -> list[PathWord]:
    """The first ``count`` paths over the level-0 vertices and the lengths
    0, 1, 2, each length in label order, built no further than needed."""
    every = (p for v in d.vertices_at(0) for length in range(3) for p in iter_paths(d, v, length))
    return list(islice(every, count))


def af_lc_witness(d: BratteliDiagram) -> LcWitness:
    """The LC witness of a diagram under parallel-class cycling, on the
    first 40 paths of length at most 2 from level 0: the AF plan's ``lc``
    block (of its telescoped diagram) and ``forge certify lc``."""
    return check_path_lc(EdgeCycleAutomorphism(d), _lc_sample(d, 40))


_AF_AUTOMORPHISM = {
    "kind": "parallel-class cycling",
    "description": "fixes every vertex; cycles the edges of each "
    "parallel class in label order",
}
_AF_STABILIZATION_NOTE = (
    "product with the complete relation on {-N..N}; certificates "
    "transfer because the extra factor is principal, minimal and carries "
    "the identity automorphism"
)


def _report(
    kind, echo, params, telescoping, corner, automorphism=None, note=None, wfc=None, lc=None,
    minimality=None, ktheory=None,
) -> RealizationReport:
    """A realization report of either kind around its telescoping.  An
    incomplete telescope carries no automorphism, stabilization or K-theory;
    the report is ``ok`` exactly when the telescope completed, ``wfc`` is a
    certificate and minimality is yes, so an absent certificate leaves it
    ``unknown``.  A complete telescope's corner is positive at its own
    level, its vector being nonnegative and checked against that level's
    length, so its verdict is written as yes, the last K-theory key."""
    complete = telescoping["complete"]
    certified = wfc is not None and wfc.is_certificate
    certified = certified and minimality is not None and minimality.is_yes
    stabilization = {}
    if complete:
        stabilization = {
            "full_relation_truncation": max(corner.vector) if corner is not None else 1,
            "note": note,
        }
        if corner is not None:
            yes = Verdict("yes", level=corner.level).to_json()
            ktheory = {**ktheory, "corner_class_positive": yes}
    return RealizationReport(
        kind=kind,
        status="ok" if complete and certified else "unknown",
        input_echo=echo,
        parameters=params,
        telescoping=telescoping,
        automorphism=automorphism or {},
        wfc=wfc,
        lc=lc,
        minimality=minimality,
        stabilization=stabilization,
        corner=corner,
        ktheory=ktheory or {},
    )


def plan_af_realization(
    d: BratteliDiagram,
    unit_class: tuple[int, Sequence[int]] | None = None,
    depth: int = 5,
    lbound: int = 20,
) -> RealizationReport:
    """Realization plan for a diagram target: telescope until multiplicities
    outgrow the level index, cycle the parallel edges, certify freeness and
    contraction, stabilize, and cut the requested unit corner.

    One growth search over the K0 connecting matrices (the transposed
    multiplicities) picks the levels t_0 = 0 < t_1 < ... up to
    levels_out = max(depth, lbound + 1) + 1: t_{m+1} is the first level
    whose chain from t_m has every entry above m.  The chains are the
    telescoped multiplicities, transposed, and every one is positive.  The
    certificates are read off them in closed form:

    * with step-1 class cycling a level's shortest cycle is its least
      multiplicity, and shift l is witnessed at the first level whose least
      entry exceeds l (the growth condition puts it at or below l);
    * an LC entry's l is the lcm of the class sizes along its path;
    * positive chains make the telescoped diagram cofinal;
    * the rows of a gap's chain are its pushed basis vectors, so every
      telescope consistency check is yes;
    * the corner vector is nonnegative, so it is positive at its own level.

    A complete plan is therefore ``ok``; an incomplete one is ``unknown``
    and names the cap or data horizon at which the search stopped.  The
    report echoes the cap, ``matrices.LEVEL_CAP``, as ``source_cap``.
    """
    _check_bounds(depth, lbound)
    check = validate_bratteli(d)
    if not check.passed:
        raise PipelineInputError(f"input diagram fails validation:\n{check.describe()}")
    corner = None if unit_class is None else unit_corner_spec(d, *unit_class)
    params = {"depth": depth, "lbound": lbound, "source_cap": matrices.LEVEL_CAP}
    spec = dimension_group_of(d)
    levels_out = max(depth, lbound + 1) + 1
    levels, chains, failure = growth_levels(spec.matrix, levels_out, lambda n, *_: (n, f"> {n}"))
    if failure is not None:
        return _report("af", d.to_json(), params, {"complete": False, "failure": failure}, corner)
    least = [min_entry(c) for c in chains]
    telescoping = {
        "complete": True,
        "subsequence": levels,
        "min_multiplicity_per_level": {str(n): k for n, k in enumerate(least)},
        "growth_condition": "every entry at level n exceeds n",
    }
    witness = shift_witness_levels(dict(enumerate(least)), lbound)
    wfc = WfcCertificate(
        "certificate",
        "bratteli",
        len(chains),
        lbound,
        {
            "kind": "class-cycle-lengths",
            "min_cycle_length_per_level": {str(n): k for n, k in enumerate(least)},
            "witness_level_per_shift": {str(l): t for l, t in witness.items()},
        },
    )
    # the LC sample reaches levels 0..2 of the telescoped diagram
    top = BratteliDiagram(tuple(map(d.level_size, levels[:3])), tuple(map(transpose, chains[:2])))
    lc = af_lc_witness(top)
    ktheory = {
        "telescope_class_consistency": "yes",
        "checks": sum(d.level_size(t) for t in levels[:-1]),
    }
    minimality = Verdict("yes", justification=f"cofinal at depth {depth}")
    automorphism = dict(_AF_AUTOMORPHISM)
    return _report(
        "af", d.to_json(), params, telescoping, corner, automorphism, _AF_STABILIZATION_NOTE,
        wfc, lc, minimality, ktheory,
    )


# ---------------------------------------------------------------------------
# Rank-2 pipeline
# ---------------------------------------------------------------------------


def rank2_corner_spec(tele: TelescopeResult, level: int, vec: Sequence[int]) -> CornerSpec:
    """Corner data at a telescoped level, its length checked if it was reached."""
    size = len(tele.source.t_at(tele.l[level])) if level < len(tele.l) else None
    return _corner_spec(
        level, vec, size, lambda j: [level, j, 0],
        note="first vertex of the cycle chosen as representative",
    )


def plan_rank2_realization(
    data: Rank2Data,
    unit_class: tuple[int, Sequence[int]] | None = None,
    depth: int = 5,
    lbound: int = 50,
) -> RealizationReport:
    """Realization plan for rank-2 matrix data: telescope with the bound
    recursion, build the canonical diagram and its power automorphism,
    certify freeness, contraction and minimality, and cut the requested
    corner.

    The telescope picks levels l_0 < l_1 < ... up to levels_out = depth + 2
    whose chained A matrices are positive, the chain at step n >= 2 having
    every entry above n * M_n.  The plan runs only the checks that can fail
    (``check_wfc`` and ``minimality_verdict``); the rest hold by
    construction on the telescoped data, after Pask-Raeburn-Rordam-Sims:

    * the canonical diagram is valid: compatibility A_n T_n = T_{n+1} B_n
      makes every count A(i,j) * T_n(j) divisible by both cycle sizes, and
      positive chains are proper, so every position of every cycle is a
      blue endpoint;
    * the edge orders are o(e) = A(i,j) * T_n(j), the counts
      ``canonical_rank2`` built, so the order formula round-trips;
    * the telescope's entry bounds are those its search just checked;
    * o(e) > n * m_n: below level 2, n * m_n = 0; from level 2 on, the orders
      at level n are at least the chain's least entry, which exceeds n * M_n,
      and M_n >= m_n because the recursion for M adds the product of the
      level's counts where the one for m adds their lcm.  The ``inequality``
      rows of the wfc certificate cover the same levels 0..levels_out - 2,
      so the report reads the inequality off them;
    * the F^{m_n} automorphism is well defined: a receiving cycle's length
      divides each count through it, hence the level lcm O_n and
      m_{n+1} - m_n = n * O_n;
    * the corner vector is nonnegative and one entry per cycle of its
      telescoped level, so it is positive at its own level.

    A complete telescope with a wfc certificate and a minimality yes is
    ``ok``; anything else is ``unknown``.  The unit class is checked whether
    or not the telescope completes, so an incomplete plan echoes its corner.
    """
    _check_bounds(depth, lbound)
    levels_out = depth + 2
    if unit_class is not None and not 0 <= unit_class[0] < levels_out:
        raise StructuralError(f"corner level {unit_class[0]} outside levels 0..{levels_out - 1}")
    params = {"depth": depth, "lbound": lbound, "levels_out": levels_out}
    tele = telescope_rank2(data, levels_out)
    corner = None if unit_class is None else rank2_corner_spec(tele, *unit_class)
    if not tele.complete:
        return _report("rank2", data.to_json(), params, tele.to_json(), corner)
    diagram = canonical_rank2(tele.telescoped, levels_out)
    orders = compute_orders(diagram)
    wfc = check_wfc(orders, shift_bound=lbound)

    sample: list[Rank2Path] = []
    for j in range(diagram.cycle_count(0)):
        sample.append(Rank2Path((), 0, (0, j, 0)))
        sample.append(Rank2Path((), 1, (0, j, 0)))
    for label in islice(diagram.blue_labels_at(0), 4):
        sample.append(Rank2Path((label,), 0))
    for label in islice(diagram.blue_labels_at(1), 4):
        sample.append(Rank2Path((label,), 1))
    lc = check_path_lc(orders, sample)

    minimality = minimality_verdict(blue_skeleton(diagram), levels_out - 1)
    inequality = wfc.details["inequality"].values()
    ktheory = {
        "order_inequality_o_gt_n_m_n": all(row["holds"] for row in inequality),
        "order_formula_round_trip": True,
        "orders_per_level": {str(n): list(orders.orders_at(n)) for n in range(levels_out - 1)},
        "m_sequence": list(orders.m),
    }
    automorphism = {
        "kind": "factorization-permutation power",
        "description": "blue edges at level n map through the m_n-th power "
        "of the factorization permutation; vertices rotate inside their "
        "red cycles",
        "m_sequence": list(orders.m),
    }
    note = "product with the complete relation on {-N..N}"
    return _report(
        "rank2", data.to_json(), params, tele.to_json(), corner, automorphism, note,
        wfc, lc, minimality, ktheory,
    )


def plan_report(kind: str, source: dict, **options) -> RealizationReport:
    """Read the JSON input of an ``"af"`` or ``"rank2"`` report and plan it
    with the planner's keyword ``options``; another kind is refused."""
    if kind == "af":
        return plan_af_realization(diagram_from_json(source), **options)
    if kind == "rank2":
        return plan_rank2_realization(rank2_data_from_json(source)[0], **options)
    raise PipelineInputError(f"unknown report kind {kind!r}")


# ---------------------------------------------------------------------------
# Report re-verification
# ---------------------------------------------------------------------------


# Report parameters the checks take back as keywords; ``levels_out`` is
# derived from ``depth`` and the AF ``source_cap`` echoes ``matrices.LEVEL_CAP``,
# so both are checked through the report comparison.
PLAN_PARAMETERS = ("depth", "lbound")

_MISSING = object()
def _first_difference(fresh, given, path: str) -> str | None:
    """The path of the first field, in the key order of ``fresh`` and then
    of ``given``, where two JSON values differ; None when they are equal.
    Equal values are compared whole, so only a difference is descended."""
    if fresh == given:
        return None
    if type(fresh) is not type(given) or not isinstance(fresh, (dict, list)):
        return path
    if isinstance(fresh, dict):
        keys = [*fresh, *(k for k in given if k not in fresh)]
        pairs = ((k, fresh.get(k, _MISSING), given.get(k, _MISSING)) for k in keys)
    else:
        pairs = enumerate(zip_longest(fresh, given, fillvalue=_MISSING))
        pairs = ((i, a, b) for i, (a, b) in pairs)
    return next(
        _first_difference(a, b, f"{path}.{key}" if path else str(key))
        for key, a, b in pairs
        if a != b
    )


def first_wrong_field(report_json: dict) -> str | None:
    """The path of the first report field that does not check, such as
    ``wfc.details.witness_level_per_shift.7`` or ``lc.entries.3.l``; None
    when every field checks.

    Both kinds take one path: ``plan_report`` reads and plans the echoed
    input with the recorded parameters, and the first field, in key order,
    where the fresh report and the given one differ is named.  An AF plan is one growth search
    with every other field read off its chains in closed form (see
    ``plan_af_realization``), so an AF report is checked from its witnesses;
    a rank-2 plan runs only the checks its telescope leaves open (see
    ``plan_rank2_realization``).

    The recorded ``depth`` and ``lbound`` go back as keywords, so one the
    report leaves out takes the planner's default and the comparison names
    the first field that moves; the stabilization truncation is derived from
    the unit class.  A report of unknown kind, one missing a field the check
    needs, or one recording a parameter no plan takes raises
    ``PipelineInputError``; a parameter or corner entry that is not a JSON
    integer, or input no plan accepts, raises as reading or planning would.
    """
    kind = report_json.get("kind") if isinstance(report_json, dict) else None
    if kind not in ("af", "rank2"):
        raise PipelineInputError(f"unknown report kind {kind!r}")
    try:
        source = report_json["input"]
        params = report_json.get("parameters", {})
        unknown = sorted(set(params) - {"levels_out", "source_cap", *PLAN_PARAMETERS})
        if unknown:
            raise PipelineInputError(f"report parameter {unknown[0]!r} is not a plan parameter")
        params = {k: json_int(v, f"parameters.{k}") for k, v in params.items()}
        corner = report_json.get("corner")
        level = json_int(corner["level"], "corner.level") if corner else None
        options = {"unit_class": (level, corner["vector"]) if corner else None}
        options.update((k, params[k]) for k in PLAN_PARAMETERS if k in params)
    except (KeyError, TypeError, AttributeError) as exc:
        raise PipelineInputError(f"report field {exc} is missing or malformed") from exc
    return _first_difference(plan_report(kind, source, **options).to_json(), report_json, "")


def verify_report_json(report_json: dict) -> bool:
    """True exactly when every field of the report checks; see
    ``first_wrong_field``, which names the first one that does not."""
    return first_wrong_field(report_json) is None
