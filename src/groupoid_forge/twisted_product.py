"""Twisted products of groupoids and their structural certificates.

The twisted product of a groupoid H carrying an integer cocycle c with a
groupoid G carrying an automorphism a has elements (h, g),

    r(h, g) = (r(h), r(g)),          s(h, g) = (s(h), a^{c(h)}(s(g))),
    (h1, g1)(h2, g2) = (h1 h2, g1 a^{-c(h1)}(g2)),
    (h, g)^{-1} = (h^{-1}, a^{c(h)}(g^{-1})).

Finite x finite instances are computed on element positions, from the
factors' integer structure maps and composition rows straight into the
product's.
The twisted product of the infinite bouquet groupoid (with its degree
cocycle) and a finite G is never materialized: elements are (germ, element)
pairs, and set-level claims are decided by the basic-bisection calculus.
"""

from __future__ import annotations

from itertools import accumulate, product
from typing import Mapping, NamedTuple, Sequence

from .dimension_groups import Verdict
from .graph_model import (
    BratteliDiagram,
    PathWord,
    path_from_edges,
)
from .graph_groupoid import (
    BasicBisection,
    InfiniteBouquet,
    basic_proper_subset,
    basic_subset,
    bisection_product,
    find_cylinder_inside,
    render_bisection,
    render_path,
    repeat_word,
)
from .groupoid_core import (
    Cocycle,
    FiniteGroupoid,
    GroupoidAutomorphism,
    is_principal,
    orbits,
)
from .matrices import mat_mul
from .rank2_diagrams import CanonicalOrders, Rank2Path
from .validation import StructuralError

# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


class TwistedProduct(NamedTuple):
    h: FiniteGroupoid
    cocycle: Cocycle
    g: FiniteGroupoid
    alpha: GroupoidAutomorphism
    finite_form: FiniteGroupoid


def _on_positions(X: FiniteGroupoid, name: str) -> list[dict[int, int]]:
    """X's products on positions: for each x, {pos(y): pos(xy)} over the y
    with r(y) = s(x).  An id outside X's elements, in a map or the table, or
    a missing product raises ``StructuralError`` naming X."""
    els, by_range = X.elements, X._index.by_range
    if X.strays:
        raise StructuralError(f"factor {name} has no element or product {X.strays[0]!r}")
    products = [
        {j: row.get(j, -1) for j in by_range.get(t, ())} for row, t in zip(X.rows, X.source_of)
    ]
    missing = [(els[i], els[j]) for i, row in enumerate(products) for j, k in row.items() if k < 0]
    if missing:
        raise StructuralError(f"factor {name} has no element or product {missing[0]!r}")
    return products


def twisted_product(
    H: FiniteGroupoid, c: Cocycle, G: FiniteGroupoid, alpha: GroupoidAutomorphism
) -> TwistedProduct:
    """Materialize the twisted product of two finite groupoids.

    It is built on element positions: (h, g) sits at pos_H(h)·|G| + pos_G(g).
    The factors' maps, and alpha^k for each distinct exponent k = c(h), are
    position lists; the product's range, source and inverse are sums of
    them, such as pos_H(s(h))·|G| + pos_G(alpha^k(s(g))).  The G-part
    g1·alpha^{-k}(g2) of a product is tabulated once per k as position
    pairs, and each composition row is one comprehension over its h1's
    (h2, h1h2) offsets and those pairs, columns in increasing position.  A
    factor whose maps leave its elements raises ``StructuralError`` naming
    it.
    """
    h_products = _on_positions(H, "H")
    g_products = _on_positions(G, "G")
    for what, check in (("cocycle", c.validate), ("automorphism", alpha.validate)):
        report = check()
        if not report.passed:
            raise ValueError(f"invalid {what}:\n{report.describe()}")

    m, at, gs, ginv = len(G.elements), G._code, G.source_of, G.inverse_of
    exponents = list(map(c, H.elements))
    s_twist, inv_twist, g_part = {}, {}, {}  # by exponent k
    for k in set(exponents):
        maps = alpha.power(k).mapping, alpha.power(-k).mapping
        power, back = ([at[a[g]] for g in G.elements] for a in maps)
        s_twist[k], inv_twist[k] = [power[q] for q in gs], [power[q] for q in ginv]
        g_part[k] = [[(p2, row[q]) for p2, q in enumerate(back) if q in row] for row in g_products]

    rng = [i * m + p for i in H.range_of for p in G.range_of]
    src = [i * m + p for i, k in zip(H.source_of, exponents) for p in s_twist[k]]
    inv = [i * m + p for i, k in zip(H.inverse_of, exponents) for p in inv_twist[k]]
    offsets = [[(j * m, k * m) for j, k in row.items()] for row in h_products]
    rows = [
        {o2 + p2: o12 + p12 for o2, o12 in offs for p2, p12 in pairs}
        for offs, k in zip(offsets, exponents)
        for pairs in g_part[k]
    ]
    elements = tuple(product(H.elements, G.elements))
    units = frozenset(product(H.units, G.units))
    return TwistedProduct(H, c, G, alpha, FiniteGroupoid(elements, units, rng, src, inv, rows))


class BouquetTwistedProduct(NamedTuple):
    """The twisted product of the bouquet groupoid (degree cocycle) with a
    finite G; elements are (germ, g) pairs, never materialized as a table."""

    g: FiniteGroupoid
    alpha: GroupoidAutomorphism


def bouquet_twisted_product(G: FiniteGroupoid, alpha: GroupoidAutomorphism) -> BouquetTwistedProduct:
    report = alpha.validate()
    if not report.passed:
        raise ValueError(f"invalid automorphism:\n{report.describe()}")
    return BouquetTwistedProduct(G, alpha)


# ---------------------------------------------------------------------------
# Freeness on the orbit space
# ---------------------------------------------------------------------------


class WfcCertificate(NamedTuple):
    """Outcome of the bounded orbit-freeness check.

    status is "certificate" or "unknown".  The details are JSON-ready and
    re-verifiable: per-shift witness levels with the bound they certify, or
    the shifts left undecided.
    """

    status: str
    backend: str
    depth: int
    shift_bound: int
    details: dict

    @property
    def is_certificate(self) -> bool:
        return self.status == "certificate"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "backend": self.backend,
            "depth": self.depth,
            "shift_bound": self.shift_bound,
            "details": self.details,
        }


def shift_witness_levels(shortest_cycle: Mapping[int, int], shift_bound: int) -> dict[int, int]:
    """The witness level of each shift 1..shift_bound of a class-cycling
    automorphism, from the shortest cycle at each level: shift l is witnessed
    by the first level whose shortest cycle exceeds l.  Shifts that no level
    exceeds are left out.  The witness never moves back to an earlier level
    as l grows, so one sweep over the levels assigns every shift."""
    witnesses: dict[int, int] = {}
    l = 1
    for level, shortest in sorted(shortest_cycle.items()):
        while l < shortest and l <= shift_bound:
            witnesses[l] = level
            l += 1
    return witnesses


def check_wfc(orders: CanonicalOrders, shift_bound: int) -> WfcCertificate:
    """Bounded check that orbit collisions [x] = [alpha^l(x)] force l = 0
    on a rank-2 diagram, for the F^{m_n} automorphism its ``orders`` are,
    through the order inequality and bounded congruences at every edge
    level.  It covers shifts 1 <= l <= L and red offsets 0 <= s <= L, L the
    shift bound; negative offsets and offsets past L, such as (23, 734) on
    constant-2 at depth 5, are not checked.  The certificate's depth is the
    last edge level, ``orders.max_edge_level()``.  (The AF planner reads its
    certificate off the growth chains in closed form.)  A shift bound below
    1 certifies nothing and raises ``ValueError``.
    """
    if shift_bound < 1:
        raise ValueError(f"shift bound must be at least 1, got {shift_bound}")
    L = S = shift_bound  # red offsets 0..S are checked for every shift 1..L
    depth = orders.max_edge_level()

    def certificate(status: str, details: dict) -> WfcCertificate:
        return WfcCertificate(status, "rank2", depth, L, details)

    inequality = {}
    for n in range(depth + 1):
        o_min = orders.min_order_at(n)
        bound = n * orders.m[n]
        inequality[str(n)] = {
            "min_order": o_min,
            "n_times_m_n": bound,
            "holds": o_min > bound,
        }
    if not all(row["holds"] for row in inequality.values()):
        return certificate(
            "unknown", {"note": "order inequality o(e) > n*m_n fails", "inequality": inequality}
        )
    # Level t witnesses (l, s) unless s = l*m_t (mod o) for an order o at t,
    # so the offsets a level misses are one arithmetic progression per order.
    # Offsets 0..S are the bits of an int: combs[o] holds the bits 0, o, 2o,
    # ... up to S (a geometric series in 2^o), and shifted to the start
    # l*m_t mod o it is one progression.  open_ holds the offsets no level
    # has witnessed yet; each level takes the open offsets it does not miss.
    levels = [(orders.m[t], orders.orders_at(t)) for t in range(depth + 1)]
    combs = {
        o: ((1 << (o * (S // o + 1))) - 1) // ((1 << o) - 1) if o <= S else 1
        for _, level_orders in levels
        for o in level_orders
    }
    offsets = [str(s) for s in range(S + 1)]
    witness: dict[str, int] = {}
    undecided = []
    for l in range(1, L + 1):
        level_of = [None] * (S + 1)
        open_ = (1 << (S + 1)) - 1
        for t, (m_t, level_orders) in enumerate(levels):
            missed = 0
            for o in level_orders:
                start = l * m_t % o
                if start <= S:
                    missed |= combs[o] << start
            taken = open_ & ~missed
            open_ &= missed
            while taken:
                low = taken & -taken
                level_of[low.bit_length() - 1] = t
                taken ^= low
            if not open_:
                break
        if open_:
            undecided.extend([l, s] for s, t in enumerate(level_of) if t is None)
        elif not undecided:  # the witness map is reported only if none is undecided
            witness.update(zip(map(f"{l},".__add__, offsets), level_of))
    if undecided:
        return certificate("unknown", {"inequality": inequality, "undecided_pairs": undecided})
    return certificate(
        "certificate",
        {
            "kind": "order-inequality+bounded-congruences",
            "inequality": inequality,
            "s_bound": S,
            "witness_level_per_shift_and_red_offset": witness,
        },
    )


# ---------------------------------------------------------------------------
# Local contraction witnesses
# ---------------------------------------------------------------------------


class LcEntry(NamedTuple):
    element: object
    l: int


class LcWitness(NamedTuple):
    entries: tuple[LcEntry, ...]

    def to_json(self) -> dict:
        return {
            "entries": [{"element": str(e.element), "l": e.l} for e in self.entries]
        }


def check_lc(backend, alpha, basis_sample: Sequence) -> LcWitness:
    """Per basis element, the least l >= 1 with alpha^{-l}(V) inside V.

    On a cylinder of a path word or rank-2 path, l is the orbit length of
    the path, read in closed form from the automorphism's cycle lengths.
    On a finite groupoid V is a set of units, and the search walks the
    automorphism, whose order bounds it.
    """
    entries = []
    for V in basis_sample:
        if isinstance(backend, FiniteGroupoid):
            l = _lc_finite(backend, alpha, frozenset(V))
        elif isinstance(V, (PathWord, Rank2Path)):
            l = alpha.orbit_length(V)
        else:
            raise TypeError(f"unsupported basis element {V!r}")
        entries.append(LcEntry(V, l))
    return LcWitness(tuple(entries))


def _lc_finite(G: FiniteGroupoid, alpha: GroupoidAutomorphism, V: frozenset) -> int:
    if not V <= G.units:
        raise ValueError("finite basis elements must be unit subsets")
    back = alpha.power(-1)
    current = V
    for l in range(1, alpha.order() + 1):
        current = frozenset(back(u) for u in current)
        if current <= V:
            return l
    raise AssertionError("orbit search exceeded the automorphism order")


class ContractingWitness(NamedTuple):
    """B = U x S with U = Z(lam^{2l}, lam^l), S = alpha^{-Nl}(V_G) and
    N = |lam|, inside the unit window W = V_H x V_G; the witness satisfies
    r(B) properly inside s(B) inside W.  The sets r_set and s_set are
    (H-side unit set, set of units of G) pairs."""

    bisection: BasicBisection
    g_part: frozenset
    lam: PathWord
    l: int
    window_h: BasicBisection
    window_g: frozenset
    r_set: tuple[BasicBisection, frozenset]
    s_set: tuple[BasicBisection, frozenset]

    def to_json(self) -> dict:
        return {
            "lambda": render_path(self.lam),
            "l": self.l,
            "bisection_h": render_bisection(self.bisection),
            "bisection_g": sorted(map(str, self.g_part)),
            "window_h": render_bisection(self.window_h),
            "window_g": sorted(map(str, self.window_g)),
        }


def _twist_units(model: BouquetTwistedProduct, k: int, units: frozenset) -> frozenset:
    """alpha^k of a set of units of G."""
    a = model.alpha.power(k)
    return frozenset(a(u) for u in units)


def _properly_inside(r_set, s_set) -> bool:
    """r_set properly inside s_set as product unit sets.  The H-sides of a
    witness differ (their words lam^{2l} and lam^l do), so the H-side
    inclusion must be proper and the G-side one need not."""
    return basic_proper_subset(r_set[0], s_set[0]) and r_set[1] <= s_set[1]


def contracting_bisection_witness(
    model: BouquetTwistedProduct,
    window_h: BasicBisection,
    window_g: frozenset,
    l: int | None,
) -> ContractingWitness:
    """Build and verify the contracting bisection inside W = V_H x V_G,
    where V_G is a set of units of G."""
    if l is None:
        raise ValueError("V_G carries no inclusion witness: run check_lc first")
    if l < 1:
        raise ValueError("the inclusion witness must satisfy l >= 1")
    if not window_h.is_unit_set():
        raise ValueError("the H-window must be a unit-space basic open")
    if not window_g <= model.g.units:
        raise ValueError("the G-window must be a set of units of G")
    lam = find_cylinder_inside(window_h)
    if len(lam) == 0:
        # every Z(lam.e) refines Z(lam), so a length-one extension is free
        one = InfiniteBouquet().edge(1)
        lam = lam.concat(path_from_edges((one,)))
    N = len(lam)
    U = BasicBisection(repeat_word(lam, 2 * l), repeat_word(lam, l))
    S = _twist_units(model, -N * l, window_g)
    r_set = (U.range_set(), S)
    s_set = (U.source_set(), _twist_units(model, U.degree, S))
    if not _properly_inside(r_set, s_set):
        raise AssertionError("witness failed: r(B) is not properly inside s(B)")
    if not (basic_subset(s_set[0], window_h) and s_set[1] <= window_g):
        raise AssertionError("witness failed: s(B) escapes the window")
    return ContractingWitness(U, S, lam, l, window_h, window_g, r_set, s_set)


def reverify_contracting_witness(
    model: BouquetTwistedProduct, w: ContractingWitness
) -> bool:
    """Independent re-check: on the H-side r(B) and s(B) must be U U^{-1}
    and U^{-1} U through the bisection product; on the G-side S, re-derived
    from the window as alpha^{-Nl}(V_G), must be the recorded units."""
    U, S = w.bisection, w.g_part
    return (
        bisection_product(U, U.inverse()) == w.r_set[0]
        and bisection_product(U.inverse(), U) == w.s_set[0]
        and S <= model.g.units
        and _twist_units(model, -len(w.lam) * w.l, w.window_g) == S == w.r_set[1]
        and _twist_units(model, U.degree, S) == w.s_set[1]
        and _properly_inside(w.r_set, w.s_set)
        and basic_subset(w.s_set[0], w.window_h)
        and w.s_set[1] <= w.window_g
    )


# ---------------------------------------------------------------------------
# Minimality and the finite principality oracle
# ---------------------------------------------------------------------------


def minimality_verdict(d: BratteliDiagram, depth: int) -> Verdict:
    """Cofinality of a Bratteli diagram to the requested depth: every level
    below ``depth`` must reach every level-``depth`` vertex.  It answers yes
    or unknown, never no; any other backend raises ``TypeError``."""
    if not isinstance(d, BratteliDiagram):
        raise TypeError(f"unsupported backend {type(d).__name__}")
    # The path counts from level t to ``depth`` are M_t times those from
    # t + 1: one running product from the top, and the lowest short level
    # is named.
    levels = range(depth - 1, -1, -1)
    tops = accumulate(map(d.multiplicity_matrix, levels), lambda above, m: mat_mul(m, above))
    short = [t for t, counts in zip(levels, tops) if not all(map(all, counts))]
    if short:
        return Verdict(
            "unknown",
            justification=f"level {short[-1]} does not reach every level-{depth} vertex",
        )
    return Verdict("yes", justification=f"cofinal at depth {depth}")


def principality_criterion(
    H: FiniteGroupoid, c: Cocycle, G: FiniteGroupoid, alpha: GroupoidAutomorphism
) -> tuple[bool, dict]:
    """Exact finite-scale principality criterion for the twisted product.

    The product is principal iff the zero-cocycle isotropy of H is trivial,
    G is principal, and no orbit collision [x] = [alpha^l(x)] occurs for a
    nonzero l in the cocycle's isotropy value range.  On a finite H every
    cocycle vanishes on isotropy (finite subgroups of Z are trivial), so the
    collision clause is vacuous there; it is kept for fidelity to the
    infinite-bouquet criterion, where the isotropy realizes every integer.
    The first collision is reported, shifts in increasing order and units
    in repr order.
    """
    zero_fiber_trivial = all(
        g in H.units
        for g in H.elements
        if H.r(g) == H.s(g) and c(g) == 0
    )
    g_principal = is_principal(G)
    iso_values = sorted(c.isotropy_value_range() - {0})
    orbit_id = {u: idx for idx, o in enumerate(orbits(G)) for u in o}
    units = sorted(G.units, key=repr)
    collision = None
    for l in iso_values:
        power = alpha.power(l)
        x = next((x for x in units if orbit_id[x] == orbit_id[power(x)]), None)
        if x is not None:
            collision = [repr(x), l]
            break
    verdict = zero_fiber_trivial and g_principal and collision is None
    return verdict, {
        "zero_fiber_isotropy_trivial": zero_fiber_trivial,
        "g_principal": g_principal,
        "isotropy_cocycle_values": iso_values,
        "collision": collision,
    }
