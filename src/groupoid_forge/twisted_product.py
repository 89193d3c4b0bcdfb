"""Twisted products of groupoids and the certificates that need them.

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

The certificates here are the ones that need a groupoid: local contraction
on unit sets of a finite G, the contracting bisection of a bouquet product
and the finite principality criterion.  The planners' certificates, read
from diagram data alone, are in ``certificates``.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Sequence

# bench/tracer.py times check_wfc and minimality_verdict under this module
from .certificates import LcEntry, LcWitness, check_wfc, minimality_verdict  # noqa: F401
from .graph_model import PathWord, path_from_edges
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
# Local contraction on a finite groupoid
# ---------------------------------------------------------------------------


def check_lc(G: FiniteGroupoid, alpha: GroupoidAutomorphism, basis_sample: Sequence) -> LcWitness:
    """Per set V of units of G in the sample, the least l >= 1 with
    alpha^{-l}(V) inside V.  The search walks the automorphism, whose order
    bounds it.  (Path cylinders are ``certificates.check_path_lc``.)"""
    return LcWitness(tuple(LcEntry(V, _lc_finite(G, alpha, frozenset(V))) for V in basis_sample))


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
# The finite principality oracle
# ---------------------------------------------------------------------------


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
