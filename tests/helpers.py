"""Independent brute-force oracles shared across the test suite.

Everything here recomputes expected values from first principles (path
enumeration, germ membership, orbit walking) without touching the code
paths under test.
"""

from __future__ import annotations

import __future__
import importlib.util
import inspect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from textwrap import dedent
from typing import Mapping
from unittest.mock import patch

from groupoid_forge import matrices
from groupoid_forge.certificates import (
    LcEntry,
    LcWitness,
    WfcCertificate,
    check_path_lc,
    check_wfc,
    minimality_verdict,
)
from groupoid_forge.convolution_algebra import RegRepMatrix, SymbolicConvElement, canonical_pieces
from groupoid_forge.dimension_groups import (
    DimensionGroupSpec,
    DimGroupElement,
    Verdict,
    dg_equal,
    dg_is_positive,
    dimension_group_of,
    rank2_k_matrices,
)
from groupoid_forge.gaussian import ONE, ZERO, GaussianRational
from groupoid_forge.graph_groupoid import (
    BasicBisection,
    InfiniteBouquet,
    bisection_product,
    bouquet_bisection,
    bouquet_labels,
    difference_basic,
    intersect_basic,
)
from groupoid_forge.graph_model import (
    BratteliDiagram,
    Edge,
    EdgeCycleAutomorphism,
    PathWord,
    diagram_from_json,
    edge_cycle_automorphism,
    enumerate_paths,
    iter_paths,
    path_count_matrix,
    path_from_edges,
    telescope,
    validate_bratteli,
)
from groupoid_forge.groupoid_core import (
    FiniteGroupoid,
    GroupoidAutomorphism,
    build_groupoid,
    full_relation,
    orbits,
)
from groupoid_forge.matrices import (
    as_matrix,
    chain_product,
    diagonal,
    growth_levels,
    mat_mul,
    min_entry,
    repeat_index,
)
from groupoid_forge.pipeline import (
    _AF_AUTOMORPHISM,
    _AF_STABILIZATION_NOTE,
    PipelineInputError,
    RealizationReport,
    _check_bounds,
    _report,
    rank2_corner_spec,
    unit_corner_spec,
)
from groupoid_forge.rank2_diagrams import (
    CanonicalRank2Diagram,
    Rank2Data,
    Rank2Diagram,
    Rank2Path,
    TelescopeResult,
    blue_skeleton,
    canonical_rank2,
    rank2_automorphism,
    rank2_data_from_json,
    reverify_telescope,
    telescope_rank2,
    validate_rank2,
)
from groupoid_forge.validation import (
    StructuralError,
    ValidationReport,
    Violation,
    report_from,
)


def bouquet_words(n: int, max_len: int) -> list[PathWord]:
    """Every bouquet word over the loops e_0..e_{n-1}, lengths 0..max_len,
    shortest first and each length in label order."""
    bouquet = InfiniteBouquet()
    return [bouquet.path(w) for k in range(max_len + 1) for w in itertools.product(range(n), repeat=k)]


def bouquet_germs(n: int, max_len: int):
    """All candidate germ triples (x, |x|-|y|, y) over ``bouquet_words``;
    every pair of bouquet words shares the one vertex, so every pair is a
    genuine germ of the shift space."""
    words = bouquet_words(n, max_len)
    return [(x, len(x) - len(y), y) for x in words for y in words]


def is_prefix(p: PathWord, q: PathWord) -> bool:
    """Whether the word p starts the word q; an empty p starts every word
    at its vertex."""
    if not p.edges:
        return p.anchor == q.range_vertex
    return q.edges[:len(p.edges)] == p.edges


def contains_germ(b: BasicBisection, triple: tuple[PathWord, int, PathWord]) -> bool:
    """Germ membership in a basic bisection, by prefix comparison."""
    x, p, y = triple
    if p != b.degree:
        return False
    if not is_prefix(b.range_word, x) or not is_prefix(b.source_word, y):
        return False
    tx = x.edges[len(b.range_word.edges):]
    ty = y.edges[len(b.source_word.edges):]
    if tx != ty:
        return False
    return not tx or tx[0] not in b.excluded


def prefix_basic_subset(a: BasicBisection, b: BasicBisection) -> bool:
    """a <= b by the prefix criterion ``basic_subset`` used before it became
    an intersection test: equal degrees, one common suffix mu taking b's
    words to a's, and mu's first edge outside b's excluded set (for mu
    empty, b's excluded set inside a's)."""
    if a.degree != b.degree:
        return False
    if not (is_prefix(b.range_word, a.range_word) and is_prefix(b.source_word, a.source_word)):
        return False
    mu_r = a.range_word.edges[len(b.range_word.edges):]
    mu_s = a.source_word.edges[len(b.source_word.edges):]
    if mu_r != mu_s:
        return False
    if not mu_r:
        return b.excluded <= a.excluded
    return mu_r[0] not in b.excluded


def product_member_oracle(a: BasicBisection, b: BasicBisection, candidate) -> bool:
    """Membership of a germ in the set product a.b, decided by factoring
    through a (unique since a is a bisection)."""
    x, p, y = candidate
    if p != a.degree + b.degree:
        return False
    if not is_prefix(a.range_word, x):
        return False
    tail = x.edges[len(a.range_word):]
    if tail and tail[0] in a.excluded:
        return False
    middle = a.source_word if not tail else a.source_word.concat(path_from_edges(tail))
    return contains_germ(b, (middle, b.degree, y))


def sum_contains(piece: BasicBisection | None, candidate) -> bool:
    """Germ membership in a product result; None is the empty set."""
    return piece is not None and contains_germ(piece, candidate)


def label_family(pieces) -> list:
    """(bisection, coefficient) pairs as the (labels, Gaussian rational)
    pairs that ``canonical_pieces`` reads."""
    return [(bouquet_labels(b), GaussianRational.of(c)) for b, c in pieces]


def canonical_bisections(pieces) -> dict:
    """``canonical_pieces`` on a family of (bisection, coefficient) pairs:
    the normal form, in its order, with its pieces built back as
    bisections."""
    return {bouquet_bisection(p): c for p, c in canonical_pieces(label_family(pieces)).items()}


def scanned_difference_is_zero(a: SymbolicConvElement, b: SymbolicConvElement) -> bool:
    """Whether a - b is the zero function: the coefficients merged by key,
    then each G-element's pieces put in disjoint form by
    ``scanned_canonical_pieces``, which leaves no nonzero piece exactly
    when the difference vanishes (the oracle for
    ``SymbolicConvElement.__eq__``)."""
    merged = dict(a.coeffs)
    for key, c in b.coeffs.items():
        merged[key] = merged.get(key, ZERO) - c
    by_g = {}
    for (piece, g), c in merged.items():
        by_g.setdefault(g, []).append((piece, c))
    return not any(scanned_canonical_pieces(family) for family in by_g.values())


# Splitting steps scanned_canonical_pieces takes before it gives up.
SCAN_STEPS = 20000


def scanned_canonical_pieces(pieces) -> dict:
    """A disjoint form by the splitting loop: each piece is offered to
    ``intersect_basic`` against every kept piece, and on the first overlap
    both are cut by ``difference_basic``, the common part carrying the sum
    of both coefficients.  Zero pieces are dropped at the end.  The result
    is disjoint and sums to the input's function, but how it is cut depends
    on the input; ``canonical_pieces`` gives the normal form."""
    result = []
    queue = [(b, GaussianRational.of(c)) for b, c in pieces]
    steps = 0
    while queue:
        steps += 1
        if steps > SCAN_STEPS:
            raise AssertionError(f"the splitting loop took more than SCAN_STEPS = {SCAN_STEPS} steps")
        p, c = queue.pop()
        for idx, (q, kept) in enumerate(result):
            inter = intersect_basic(p, q)
            if inter is not None:
                break
        else:
            result.append((p, c))
            continue
        replacement = [(piece, kept) for piece in difference_basic(q, inter)]
        replacement.append((inter, kept + c))
        result[idx:idx + 1] = replacement
        queue.extend((piece, c) for piece in difference_basic(p, inter))
    return {b: c for b, c in result if c}


def paired_symbolic_convolve(x: SymbolicConvElement, y: SymbolicConvElement) -> dict:
    """The coefficient map of the symbolic convolution x * y by the double
    loop over every pair of pieces, each key's sum started at ZERO, then
    each G-element's pieces put in disjoint form by
    ``scanned_canonical_pieces``."""
    model = x.model
    G, power = model.g, model.alpha.power
    pieces = {}
    for (b1, g1), c1 in x.coeffs.items():
        back = power(-b1.degree)
        meets = power(b1.degree)(G.s(g1))
        for (b2, g2), c2 in y.coeffs.items():
            if meets != G.r(g2):
                continue
            piece = bisection_product(b1, b2)
            if piece is not None:
                key = (piece, G.mul(g1, back(g2)))
                pieces[key] = pieces.get(key, ZERO) + c1 * c2
    by_g = {}
    for (b, g), c in pieces.items():
        by_g.setdefault(g, []).append((b, c))
    return {
        (b, g): c for g, family in by_g.items() for b, c in scanned_canonical_pieces(family).items()
    }


def scanned_involution(x: SymbolicConvElement) -> dict:
    """The coefficient map of x* on objects: each piece (b, g) goes to
    (b.inverse(), alpha^{deg b}(g^{-1})) with the conjugate coefficient,
    then each G-element's pieces are put in disjoint form by
    ``scanned_canonical_pieces``."""
    model = x.model
    by_g = {}
    for (b, g), c in x.coeffs.items():
        key = model.alpha.power(b.degree)(model.g.inv(g))
        by_g.setdefault(key, []).append((b.inverse(), c.conjugate()))
    return {
        (b, g): c for g, family in by_g.items() for b, c in scanned_canonical_pieces(family).items()
    }


def label_cycles(mapping: Mapping) -> list[tuple]:
    """The cycles of a permutation given as a mapping onto its own keys, in
    the order of their first key, each starting at that key and following
    the mapping."""
    seen: set = set()
    out = []
    for start in mapping:
        if start not in seen:
            cycle = brute_orbit(mapping.__getitem__, start)
            seen.update(cycle)
            out.append(tuple(cycle))
    return out


def brute_orbit(apply_fn, start) -> list:
    """The orbit of ``start`` under ``apply_fn``, in walking order."""
    orbit = [start]
    x = apply_fn(start)
    while x != start:
        orbit.append(x)
        x = apply_fn(x)
        assert len(orbit) < 10**6
    return orbit


def brute_orbit_length(apply_fn, start) -> int:
    return len(brute_orbit(apply_fn, start))


def label_tables(G: FiniteGroupoid) -> dict:
    """G's range, source and inverse maps and its composition table as label
    dicts, under the keywords ``build_groupoid`` takes: the dict tables, read
    back from G's codes.  Corrupted copies start from them, and the label
    accessors and the axiom oracle read G through them."""
    ids = G.elements + G.strays
    label = ids.__getitem__
    return {
        "range_map": dict(zip(G.elements, map(label, G.range_of))),
        "source_map": dict(zip(G.elements, map(label, G.source_of))),
        "composition": {
            (ids[i], ids[j]): ids[k] for i, row in enumerate(G.rows) for j, k in row.items()
        },
        "inverse_map": dict(zip(G.elements, map(label, G.inverse_of))),
    }


def brute_groupoid_axioms(G) -> ValidationReport:
    """The groupoid axioms checked by an n^2 scan over all element pairs and
    tuple-keyed lookups in the dict tables of ``label_tables`` (the oracle
    for ``verify_groupoid_axioms``)."""
    v = []
    eset = set(G.elements)
    tables = label_tables(G)
    r, s = tables["range_map"].__getitem__, tables["source_map"].__getitem__
    inv, comp = tables["inverse_map"].__getitem__, tables["composition"]

    for u in G.units:
        if r(u) != u or s(u) != u:
            v.append(Violation("unit fixed by r and s", f"unit {u!r}"))
    for g in G.elements:
        if r(g) not in G.units or s(g) not in G.units:
            v.append(Violation("r,s land in units", f"element {g!r}"))
        if inv(g) not in eset:
            v.append(Violation("inverse closed", f"element {g!r}"))
        elif r(inv(g)) != s(g) or s(inv(g)) != r(g):
            v.append(Violation("r(g^{-1}) = s(g), s(g^{-1}) = r(g)", f"element {g!r}"))

    composable = {(g, h) for g in G.elements for h in G.elements if s(g) == r(h)}
    defined = set(comp)
    for pair in defined - composable:
        v.append(Violation("composition only on s(g)=r(h)", f"pair {pair!r}"))
    for pair in composable - defined:
        v.append(Violation("composition total on composable pairs", f"pair {pair!r}"))

    for g, h in composable & defined:
        gh = comp[g, h]
        if gh not in eset:
            v.append(Violation("composition closed", f"pair {(g, h)!r}"))
            continue
        if r(gh) != r(g):
            v.append(Violation("r(gh) = r(g)", f"pair {(g, h)!r}"))
        if s(gh) != s(h):
            v.append(Violation("s(gh) = s(h)", f"pair {(g, h)!r}"))

    for g in G.elements:
        ru, su = r(g), s(g)
        if (ru, g) in defined and comp[ru, g] != g:
            v.append(Violation("r(g)g = g", f"element {g!r}"))
        if (g, su) in defined and comp[g, su] != g:
            v.append(Violation("gs(g) = g", f"element {g!r}"))
        gi = inv(g)
        if (gi, g) in defined and comp[gi, g] != su:
            v.append(Violation("g^{-1}g = s(g)", f"element {g!r}"))
        if (g, gi) in defined and comp[g, gi] != ru:
            v.append(Violation("gg^{-1} = r(g)", f"element {g!r}"))

    # Associativity over all composable triples.
    by_range: dict = {}
    for h in G.elements:
        by_range.setdefault(r(h), []).append(h)
    for g in G.elements:
        for h in by_range.get(s(g), ()):
            gh = comp.get((g, h))
            if gh is None:
                continue
            for k in by_range.get(s(h), ()):
                hk = comp.get((h, k))
                left = comp.get((gh, k))
                right = comp.get((g, hk)) if hk is not None else None
                if left != right or left is None:
                    v.append(Violation("associativity", f"triple {(g, h, k)!r}"))

    return report_from(v)


def dict_twisted_product(H, c, G, alpha):
    """The finite twisted product built as a tuple-keyed dict straight from
    the formulas, with no integer positions (the oracle for
    ``twisted_product``)."""
    elements = tuple((h, g) for h in H.elements for g in G.elements)
    units = frozenset((u, w) for u in H.units for w in G.units)
    rng = {(h, g): (H.r(h), G.r(g)) for (h, g) in elements}
    src = {(h, g): (H.s(h), alpha.power(c(h))(G.s(g))) for (h, g) in elements}
    inv = {(h, g): (H.inv(h), alpha.power(c(h))(G.inv(g))) for (h, g) in elements}
    comp = {}
    for h1 in H.elements:
        for h2 in H.elements:
            if not H.composable(h1, h2):
                continue
            back = alpha.power(-c(h1))
            h12 = H.mul(h1, h2)
            for g1 in G.elements:
                for g2 in G.elements:
                    g2_back = back(g2)
                    if G.composable(g1, g2_back):
                        comp[((h1, g1), (h2, g2))] = (h12, G.mul(g1, g2_back))
    return build_groupoid(elements, units, rng, src, comp, inv)


# ---------------------------------------------------------------------------
# Materialized rank-2 oracles
#
# The per-edge algorithms on a ``Rank2Diagram``, the record of every blue
# edge that ``build_rank2`` (or ``materialize_rank2`` below) returns: the
# orbit walk over F, the per-edge F and degree scans, the per-edge
# automorphism check, the per-edge skeleton count and the per-vertex recount
# of the matrix data.  The closed forms of ``rank2_diagrams`` and
# ``rank2_k_matrices`` are tested against them.
# ---------------------------------------------------------------------------


def materialize_rank2(d):
    """Every blue edge of a canonical rank-2 diagram, laid out one by one as
    its class describes: edge k of a pair ranges at k mod T_n(j), sources at
    k mod T_{n+1}(i), and F adds the orientation modulo the count.  Unlike
    ``build_rank2`` this accepts counts that are not multiples of their cycle
    lengths, which no matrix data produces."""
    blue, f_map = [], {}
    for n, counts in enumerate(d.counts):
        for i, row in enumerate(counts):
            for j, c in enumerate(row):
                for k in range(c):
                    label = (n, j, i, k)
                    low = (n, j, k % d.cycle_size(n, j))
                    high = (n + 1, i, k % d.cycle_size(n + 1, i))
                    blue.append(Edge(label, low, high))
                    f_map[label] = (n, j, i, (k + d.orientation) % c)
    return Rank2Diagram(d.cycle_sizes, tuple(blue), f_map, d.orientation)


def blue_edges_at(d: Rank2Diagram, n: int) -> tuple[Edge, ...]:
    """The stored blue edges with range at level ``n``."""
    return tuple(e for e in d.blue if e.range_vertex[0] == n)


def blue_by_label(d: Rank2Diagram) -> Mapping:
    """The stored blue edges by label."""
    return {e.label: e for e in d.blue}


def _levels(d) -> int:
    return len(d.cycle_sizes)


def _vertices_at(d, n: int) -> tuple:
    return tuple((n, j, p) for j, size in enumerate(d.cycle_sizes[n]) for p in range(size))


def _red_walk(d, v, steps: int):
    n, j, p = v
    return (n, j, (p + d.orientation * steps) % d.cycle_sizes[n][j])


@dataclass(frozen=True)
class OrderData:
    """Orders o(e) of the blue edges under F, level lcms O_n, and the
    recursion m_0 = 0, m_{n+1} = m_n + n * O_n, read off the orbits of F."""

    edge_orders: Mapping
    level_lcm: tuple[int, ...]
    m: tuple[int, ...]
    orbit_position: Mapping

    @cached_property
    def _level_orders(self) -> Mapping[int, tuple[int, ...]]:
        buckets: dict[int, set[int]] = {}
        for label, o in self.edge_orders.items():
            buckets.setdefault(label[0], set()).add(o)
        return {n: tuple(sorted(v)) for n, v in buckets.items()}

    def orders_at(self, n: int) -> tuple[int, ...]:
        return self._level_orders.get(n, ())

    def min_order_at(self, n: int) -> int:
        return self._level_orders[n][0]

    def max_edge_level(self) -> int:
        return max(self._level_orders)

    def f_power(self, label, k: int):
        orbit, pos = self.orbit_position[label]
        return orbit[(pos + k) % len(orbit)]


def materialized_orders(d: Rank2Diagram) -> OrderData:
    """The orbit walk over ``f_map`` (the oracle for ``compute_orders``)."""
    orbit_position = {}
    edge_orders = {}
    level_lcm = [1] * (_levels(d) - 1)
    for orbit in label_cycles(d.f_map):
        for pos, label in enumerate(orbit):
            orbit_position[label] = (orbit, pos)
            edge_orders[label] = len(orbit)
        # F shifts both endpoints along red edges, so an orbit stays in its level
        n = orbit[0][0]
        level_lcm[n] = math.lcm(level_lcm[n], len(orbit))
    m = [0]
    for n, o in enumerate(level_lcm):
        m.append(m[-1] + n * o)
    return OrderData(edge_orders, tuple(level_lcm), tuple(m), orbit_position)


def materialized_validation(d: Rank2Diagram) -> ValidationReport:
    """The per-edge F and degree scans (the oracle for ``validate_rank2``)."""
    v: list[Violation] = []
    by_label = blue_by_label(d)
    for e in d.blue:
        img = by_label[d.f_map[e.label]]
        if img.range_vertex != _red_walk(d, e.range_vertex, 1):
            v.append(
                Violation("F shifts the range to its red predecessor", f"edge {e.label}")
            )
        if img.source_vertex != _red_walk(d, e.source_vertex, 1):
            v.append(
                Violation("F shifts the source to its red predecessor", f"edge {e.label}")
            )
    for n in range(_levels(d) - 1):
        received = {e.range_vertex for e in blue_edges_at(d, n)}
        for vertex in _vertices_at(d, n):
            if vertex not in received:
                v.append(Violation("blue graph has no sources", f"vertex {vertex}"))
    for n in range(1, _levels(d)):
        emitted = {e.source_vertex for e in blue_edges_at(d, n - 1)}
        for vertex in _vertices_at(d, n):
            if vertex not in emitted:
                v.append(
                    Violation("blue sinks only at level 0", f"vertex {vertex}")
                )
    return report_from(v)


@dataclass(frozen=True)
class MaterializedAutomorphism:
    """Blue edges at level n map through F^{m_n}, walked along the orbits."""

    orders: OrderData

    def blue_image(self, label):
        return self.orders.f_power(label, self.orders.m[label[0]])


def materialized_automorphism(d: Rank2Diagram, orders=None) -> MaterializedAutomorphism:
    """The per-edge check that the image of each blue edge's source matches
    the rotation of the next level (the oracle for ``rank2_automorphism``)."""
    orders = orders or materialized_orders(d)
    auto = MaterializedAutomorphism(orders)
    by_label = blue_by_label(d)
    for e in d.blue:
        n = e.range_vertex[0]
        if n + 1 >= _levels(d):
            continue
        expected = _red_walk(d, e.source_vertex, orders.m[n + 1])
        got = by_label[auto.blue_image(e.label)].source_vertex
        if got != expected:
            raise StructuralError(
                f"order automorphism ill-defined at edge {e.label}: source "
                f"rotation mismatch (F inconsistency)"
            )
    return auto


def materialized_skeleton(d: Rank2Diagram) -> BratteliDiagram:
    """The blue graph counted edge by edge (the oracle for ``blue_skeleton``)."""
    flat_index = {}
    sizes = []
    for n in range(_levels(d)):
        verts = _vertices_at(d, n)
        sizes.append(len(verts))
        for idx, v in enumerate(verts):
            flat_index[v] = idx
    tables = []
    for n in range(_levels(d) - 1):
        table = [[0] * sizes[n + 1] for _ in range(sizes[n])]
        for e in blue_edges_at(d, n):
            table[flat_index[e.range_vertex]][flat_index[e.source_vertex]] += 1
        tables.append(as_matrix(table))
    return BratteliDiagram(tuple(sizes), tuple(tables), None)


def materialized_k_matrices(d: Rank2Diagram):
    """(A_n, B_n, T_n) recounted at every vertex of every cycle, then the
    compatibility A_n T_n = T_{n+1} B_n (the oracle for ``rank2_k_matrices``)."""
    T_list = [diagonal(sizes) for sizes in d.cycle_sizes]
    A_list, B_list = [], []
    for n in range(_levels(d) - 1):
        cn, cn1 = len(d.cycle_sizes[n]), len(d.cycle_sizes[n + 1])
        per_v: dict[tuple[int, int], dict] = {}
        per_w: dict[tuple[int, int], dict] = {}
        for i in range(cn1):
            for j in range(cn):
                per_v[(i, j)] = {(n, j, p): 0 for p in range(d.cycle_sizes[n][j])}
                per_w[(i, j)] = {(n + 1, i, q): 0 for q in range(d.cycle_sizes[n + 1][i])}
        for e in blue_edges_at(d, n):
            key = (e.source_vertex[1], e.range_vertex[1])
            per_v[key][e.range_vertex] += 1
            per_w[key][e.source_vertex] += 1
        A = [[0] * cn for _ in range(cn1)]
        B = [[0] * cn for _ in range(cn1)]
        for (i, j), counts in per_v.items():
            values = set(counts.values())
            values_w = set(per_w[(i, j)].values())
            if len(values) != 1 or len(values_w) != 1:
                raise StructuralError(
                    f"blue-edge count between cycles ({n},{j}) and ({n + 1},{i}) "
                    "depends on the representative vertex"
                )
            A[i][j] = values.pop()
            B[i][j] = values_w.pop()
        A_list.append(as_matrix(A))
        B_list.append(as_matrix(B))
    for n in range(len(A_list)):
        if mat_mul(A_list[n], T_list[n]) != mat_mul(T_list[n + 1], B_list[n]):
            raise StructuralError(
                f"compatibility A_n T_n = T_(n+1) B_n fails at level {n}"
            )
    return tuple(A_list), tuple(B_list), tuple(T_list)


def materialized_path_range(d: Rank2Diagram, p: Rank2Path):
    """Range of a path, read off its first stored blue edge; an unknown
    label raises KeyError (the oracle for ``path_range``)."""
    return blue_by_label(d)[p.blue[0]].range_vertex if p.blue else p.anchor


def materialized_path_source(d: Rank2Diagram, p: Rank2Path):
    last = blue_by_label(d)[p.blue[-1]].source_vertex if p.blue else p.anchor
    return _red_walk(d, last, -p.red_degree)


def materialized_make_path(d: Rank2Diagram, blue, red_degree=0, anchor=None) -> Rank2Path:
    by_label = blue_by_label(d)
    for a, b in zip(blue, blue[1:]):
        if by_label[a].source_vertex != by_label[b].range_vertex:
            raise StructuralError(f"blue edges do not compose: {a} then {b}")
    return Rank2Path(tuple(blue), red_degree, anchor)


def materialized_compose_paths(d: Rank2Diagram, orders: OrderData, p, q) -> Rank2Path:
    """Normal-form concatenation over stored edges and orbits (the oracle
    for ``compose_paths``)."""
    if materialized_path_source(d, p) != materialized_path_range(d, q):
        raise ValueError("paths do not compose")
    shifted = tuple(orders.f_power(label, p.red_degree) for label in q.blue)
    return materialized_make_path(
        d,
        p.blue + shifted,
        p.red_degree + q.red_degree,
        anchor=materialized_path_range(d, p) if not (p.blue or shifted) else None,
    )


def red_blue_cofinal(d: CanonicalRank2Diagram, depth: int) -> bool:
    """Cofinality of the 2-graph to ``depth`` with red and blue edges both
    walked: every vertex of levels 0..depth-1 reaches every level-``depth``
    vertex.  Red edges join every position of a cycle, so the walk runs on
    cycle pairs: a cycle reaches each cycle of the next level it shares a
    nonzero count with (the oracle for rank-2 minimality; ``blue_skeleton``
    forgets the red edges)."""
    for start in range(depth):
        for cycle in range(d.cycle_count(start)):
            reached = {cycle}
            for n in range(start, depth):
                counts = d.counts[n]
                reached = {
                    i
                    for i in range(d.cycle_count(n + 1))
                    if any(counts[i][j] for j in reached)
                }
            if len(reached) < d.cycle_count(depth):
                return False
    return True


def per_level_minimality_verdict(d: BratteliDiagram, depth: int) -> Verdict:
    """Cofinality to ``depth`` with a fresh ``path_count_matrix`` for every
    level, stopping at the first level that misses a level-``depth`` vertex
    (the oracle for ``certificates.minimality_verdict``, which keeps one
    running product from the top)."""
    for t in range(depth):
        counts = path_count_matrix(d, t, depth)
        if any(not all(row) for row in counts):
            return Verdict(
                "unknown",
                justification=f"level {t} does not reach every level-{depth} vertex",
            )
    return Verdict("yes", justification=f"cofinal at depth {depth}")


# ---------------------------------------------------------------------------
# Edge-walk AF oracles
#
# The Bratteli orbit-freeness check as it walked every edge of a level
# through the automorphism and collected the cycles of each parallel class,
# and the growth search that rebuilt the path-count matrix from scratch for
# every candidate level.  ``pipeline.plan_af_realization`` reads the class-cycle
# lengths off the growth chains and assigns the witness levels with
# ``certificates.shift_witness_levels``, and ``matrices.growth_levels``
# resumes one chain walk per stored position; all are tested against these.
# ---------------------------------------------------------------------------

_NOT_VERTEX_FIXING = "bratteli orbit-freeness check needs a vertex-fixing automorphism"


@dataclass(frozen=True)
class SteppedEdgeCycle(EdgeCycleAutomorphism):
    """The class-cycling automorphism raised to the power ``step``: copy t of
    a class of k copies maps to copy (t + step) mod k, so the class splits
    into gcd(k, step) cycles of length k / gcd(k, step).  The witness sweep
    reads only the shortest cycles, so the powers give it every cycle
    structure (step 0 fixes every edge)."""

    step: int = 1

    def edge_image(self, e: Edge) -> Edge:
        n, i, j, t = e.label
        t2 = (t + self.step) % self.diagram.multiplicity_matrix(n)[i][j]
        return Edge((n, i, j, t2), e.range_vertex, e.source_vertex)

    def cycle_lengths(self, level: int) -> set[int]:
        m = self.diagram.multiplicity_matrix(level)
        return {k // math.gcd(k, self.step) for row in m for k in row if k}


def walked_class_cycle_lengths(d: BratteliDiagram, alpha, level: int) -> list[int]:
    """Cycle lengths of the automorphism on the edges ranging at each vertex
    of a level; a vertex-fixing automorphism cycles each parallel class."""
    lengths = []
    for v in d.vertices_at(level):
        images = {e.label: alpha.edge_image(e).label for e in d.edges_with_range(v)}
        if set(images.values()) != images.keys():
            raise ValueError(_NOT_VERTEX_FIXING)
        lengths.extend(map(len, label_cycles(images)))
    return lengths


def walked_cycle_lengths_to_depth(d: BratteliDiagram, alpha, depth: int) -> dict[int, list[int]]:
    """The walked cycle lengths of each level below ``depth`` that has
    edges, up to the data horizon."""
    lengths_at: dict[int, list[int]] = {}
    for p in range(depth):
        try:
            lengths = walked_class_cycle_lengths(d, alpha, p)
        except StructuralError:
            break
        if lengths:
            lengths_at[p] = lengths
    return lengths_at


def searched_shift_witnesses(min_cycle: Mapping[int, int], L: int) -> dict[int, int]:
    """Each shift 1..L that some level's shortest cycle exceeds, mapped to the
    first such level, found by a fresh search per shift."""
    witnesses = {}
    for l in range(1, L + 1):
        p = next((p for p in sorted(min_cycle) if min_cycle[p] > l), None)
        if p is not None:
            witnesses[l] = p
    return witnesses


def walked_wfc_certificate(d: BratteliDiagram, alpha, depth: int, L: int) -> WfcCertificate:
    """The Bratteli orbit-freeness certificate from the per-edge cycle walk."""
    lengths_at = walked_cycle_lengths_to_depth(d, alpha, depth)
    min_cycle = {p: min(lengths) for p, lengths in lengths_at.items()}
    witnesses = searched_shift_witnesses(min_cycle, L)
    missing = [l for l in range(1, L + 1) if l not in witnesses]
    if not missing:
        return WfcCertificate(
            "certificate",
            "bratteli",
            depth,
            L,
            {
                "kind": "class-cycle-lengths",
                "min_cycle_length_per_level": {str(k): v for k, v in min_cycle.items()},
                "witness_level_per_shift": {str(l): p for l, p in witnesses.items()},
            },
        )
    if d.repeat_from is not None and min_cycle:
        order = math.lcm(*(ln for lengths in lengths_at.values() for ln in lengths))
        for l in missing:
            if l % order == 0:
                return WfcCertificate(
                    "counterexample",
                    "bratteli",
                    depth,
                    L,
                    {
                        "l": l,
                        "note": "automorphism power acts as the identity on all "
                        "edges within the horizon and the diagram repeats",
                    },
                )
    return WfcCertificate(
        "unknown",
        "bratteli",
        depth,
        L,
        {
            "undecided_shifts": missing,
            "min_cycle_length_per_level": {str(k): v for k, v in min_cycle.items()},
        },
    )


def rescanned_growth_subsequence(d: BratteliDiagram, levels_out: int, cap: int):
    """The growth search with one fresh ``path_count_matrix`` per candidate
    level (the oracle for ``matrices.growth_levels``): the levels found
    and the failure text, None when the search completes."""
    chosen = [0]
    for n in range(levels_out - 1):
        found = None
        q = chosen[-1] + 1
        while q <= cap:
            try:
                prod = path_count_matrix(d, chosen[-1], q)
            except StructuralError:
                return chosen, (
                    f"data horizon {d.horizon} reached (no repetition rule) before a "
                    f"level with entries > {n} from level {chosen[-1]}"
                )
            if min_entry(prod) > n:
                found = q
                break
            q += 1
        if found is None:
            return chosen, f"no level within cap {cap} has entries > {n} from level {chosen[-1]}"
        chosen.append(found)
    return chosen, None


def level_cap(cap: int):
    """Patch ``matrices.LEVEL_CAP``, the cap every growth search reads."""
    return patch.object(matrices, "LEVEL_CAP", cap)


def mutant(function, old: str, new: str):
    """``function`` with one fixed textual edit of its source, run in a copy
    of its module's namespace: the mutation gates' mutants."""
    source = dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = dict(function.__globals__)
    flags = __future__.annotations.compiler_flag
    exec(compile(source.replace(old, new), "<mutant>", "exec", flags, True), namespace)
    return namespace[function.__name__]


def af_growth_levels(d: BratteliDiagram, count: int, search=growth_levels):
    """``matrices.growth_levels`` over the K0 matrices of ``d`` with the AF
    planner's bound, every entry of step n's chain above n, called exactly
    as ``pipeline.plan_af_realization`` calls it; ``search`` stands in for
    ``growth_levels``, as a mutant of it does."""
    spec = dimension_group_of(d)
    return search(spec.matrices, spec.repeat_from, count, lambda n, *_: (n, f"> {n}"))


# ---------------------------------------------------------------------------
# Rescanned rank-2 telescope
#
# The rank-2 telescope as it recomputed every chain it needed from the
# stored A's (for M, for each certificate entry and for the output A) and
# built each output B as the chain product of the stored B matrices, with
# separate seed and bound searches.  ``rank2_diagrams.telescope_rank2``
# multiplies each chain once and reads B off A_n T_n = T_{n+1} B_n; it is
# tested against this.
# ---------------------------------------------------------------------------


class _SearchStopped(Exception):
    pass


def _a_chain(data: Rank2Data, top: int, bottom: int):
    """A_{top-1} ... A_{bottom}, mapping level ``bottom`` to ``top``."""
    return chain_product([data.a_at(n) for n in range(bottom, top)])


def _rescanned_level(data: Rank2Data, start: int, bound: int, cap: int, strict: bool) -> int:
    relation = ">" if strict else ">="
    acc = None
    for m in range(start + 1, cap + 1):
        try:
            acc = data.a_at(m - 1) if acc is None else mat_mul(data.a_at(m - 1), acc)
        except StructuralError as exc:
            raise _SearchStopped(
                f"data horizon {len(data.A)} reached (no repetition rule) before a "
                f"level with entries {relation} {bound} from level {start}"
            ) from exc
        low = min_entry(acc)
        if (low > bound) if strict else (low >= bound):
            return m
    raise _SearchStopped(
        f"no level within cap {cap} has entries {relation} {bound} from level {start}"
    )


def rescanned_telescope_rank2(data: Rank2Data, levels_out: int, cap: int) -> TelescopeResult:
    """The rank-2 telescope with every chain recomputed (the oracle for
    ``rank2_diagrams.telescope_rank2``)."""
    l_prime = [0]
    try:
        for i in range(1, 3):
            l_prime.append(_rescanned_level(data, l_prime[-1], i, cap, strict=False))
    except _SearchStopped as exc:
        return TelescopeResult(tuple(l_prime), (0, 0), None, (), data, str(exc))
    l = list(l_prime)
    M = [0, 0]
    certificate = []
    for step in range(2, levels_out - 1):
        chained = _a_chain(data, l[step], l[step - 1])
        t_vec = data.t_at(l[step - 1])
        prod = 1
        for i in range(len(chained)):
            for j in range(len(chained[0])):
                prod *= chained[i][j] * t_vec[j]
        M.append(M[-1] + (step - 1) * prod)
        bound = step * M[step]
        try:
            nxt = _rescanned_level(data, l[step], bound, cap, strict=True)
        except _SearchStopped as exc:
            return TelescopeResult(tuple(l), tuple(M), None, tuple(certificate), data, str(exc))
        l.append(nxt)
        certificate.append(
            {
                "step": step,
                "level": nxt,
                "min_entry": min_entry(_a_chain(data, nxt, l[step])),
                "strict_bound": bound,
            }
        )
    A_out = tuple(_a_chain(data, l[n + 1], l[n]) for n in range(levels_out - 1))

    def b_at(k):
        return data.B[repeat_index(k, len(data.B), len(data.A), data.repeat_from)]

    B_out = tuple(
        chain_product([b_at(k) for k in range(l[n], l[n + 1])]) for n in range(levels_out - 1)
    )
    T_out = tuple(tuple(data.t_at(l[n])) for n in range(levels_out))
    telescoped = Rank2Data(A_out, B_out, T_out, None, data.orientation)
    return TelescopeResult(tuple(l), tuple(M), telescoped, tuple(certificate), data)


# ---------------------------------------------------------------------------
# Walked LC oracles
#
# The local-contraction entries of path cylinders as ``check_lc`` found them,
# by walking each path through the automorphism until it closed.  On a
# cylinder Z(mu), alpha^{-l}(Z(mu)) = Z(alpha^{-l}(mu)) lies inside Z(mu)
# exactly when alpha^{-l}(mu) = mu, so the entry is the orbit length of mu,
# which is the same under alpha as under its inverse.
# ``certificates.check_path_lc`` reads it off the cycle lengths and is tested
# against these walks, and so is ``LabelledCycling``, the oracle for the AF
# closed form ``certificates.af_lc_witness``.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelledCycling(EdgeCycleAutomorphism):
    """Parallel-class cycling with the orbit length of a path word read back
    from its edge labels: the lcm of the multiplicities of its edge classes
    (1 for an empty path)."""

    def orbit_length(self, p: PathWord) -> int:
        mult = self.diagram.multiplicity_matrix
        return math.lcm(*(mult(n)[i][j] for n, i, j, _ in (e.label for e in p.edges)))


def af_lc_sample_paths(d: BratteliDiagram) -> list[PathWord]:
    """Every path of length at most 2 from level 0, enumerated: the level-0
    vertices in order, below each the lengths 0, 1 and 2 in label order."""
    return [p for v in d.vertices_at(0) for n in range(3) for p in enumerate_paths(d, v, n)]


def enumerated_af_lc_witness(d: BratteliDiagram, count: int) -> LcWitness:
    """The first ``count`` entries of the AF LC sample as the walk found
    them: each path built as a ``PathWord`` and its orbit length read back
    from its labels (the oracle for ``certificates.af_lc_witness``)."""
    return check_path_lc(LabelledCycling(d), af_lc_sample_paths(d)[:count])


def prefix_texts(p: PathWord) -> set[str]:
    """The texts of the prefixes of a path, the empty one at its range
    included: the LC entries whose cylinders hold the path."""
    return {str(p.range_vertex), *(str(PathWord(p.edges[:k])) for k in range(1, len(p) + 1))}


def af_path_image(alpha, p: PathWord) -> PathWord:
    """The image of a path under the class-cycling automorphism, edge by edge."""
    if not p.edges:
        return p
    return PathWord(tuple(alpha.edge_image(e) for e in p.edges))


def rank2_path_image(orders, p: Rank2Path) -> Rank2Path:
    """The image of a blue-red path under the order automorphism: a blue edge
    at level n moves by F^{m_n}, a blueless anchor at level n moves m_n steps
    along its red cycle, and the red degree is kept."""
    m = orders.m
    if p.blue:
        return Rank2Path(tuple(orders.f_power(b, m[b[0]]) for b in p.blue), p.red_degree)
    return Rank2Path((), p.red_degree, orders.diagram.red_walk(p.anchor, m[p.anchor[0]]))


def walked_lc_lengths(image, paths) -> list[int]:
    """The LC entry of each path's cylinder, found by walking the path
    through ``image`` until it closes; each orbit is walked once, and its
    length serves every path on it."""
    lengths: dict = {}
    for p in paths:
        if p not in lengths:
            orbit = brute_orbit(image, p)
            lengths.update(dict.fromkeys(orbit, len(orbit)))
    return [lengths[p] for p in paths]


def walked_af_lc_lengths(alpha, paths) -> list[int]:
    return walked_lc_lengths(lambda p: af_path_image(alpha, p), paths)


def walked_rank2_lc_lengths(orders, paths) -> list[int]:
    return walked_lc_lengths(lambda p: rank2_path_image(orders, p), paths)


# ---------------------------------------------------------------------------
# Finite truncations
#
# The AF groupoid of a Bratteli diagram is the increasing union of the finite
# equivalence relations "x ~ y when the length-n paths x and y from level 0
# share a source" (Renault, LNM 793).  Its level-n truncation is a finite
# groupoid, so the groupoid toolkit checks the planner's claims on it.
# ---------------------------------------------------------------------------


def af_truncation(
    d: BratteliDiagram, n: int, start: int = 0
) -> tuple[FiniteGroupoid, GroupoidAutomorphism]:
    """The level-n truncation of the AF groupoid of ``d`` from level
    ``start``, built with ``build_groupoid``: the pairs (x, y) of paths from
    level ``start`` to level n that share a source, in the order of the
    paths, and the parallel-class cycling acting on both paths edge by edge,
    as a ``GroupoidAutomorphism``."""
    classes: dict = {}
    for v in d.vertices_at(start):
        for p in iter_paths(d, v, n - start):
            classes.setdefault(p.source_vertex, []).append(p)
    pairs = [(x, y) for c in classes.values() for x in c for y in c]
    G = build_groupoid(
        pairs,
        [(x, x) for c in classes.values() for x in c],
        {(x, y): (x, x) for x, y in pairs},
        {(x, y): (y, y) for x, y in pairs},
        {((x, y), (y, z)): (x, z) for c in classes.values() for x in c for y in c for z in c},
        {(x, y): (y, x) for x, y in pairs},
    )
    cycling = EdgeCycleAutomorphism(d)
    image = {p: af_path_image(cycling, p) for c in classes.values() for p in c}
    return G, GroupoidAutomorphism(G, {(x, y): (image[x], image[y]) for x, y in pairs})


# ---------------------------------------------------------------------------
# Unit-space truncations
#
# Every question the AF checks ask of a truncation is about its units: the
# orbits, the automorphism's action and cylinder inclusion.  So the walks
# below list the units of the level-n truncation as label tuples, with no
# pair, PathWord or Edge built, and reach n = 4 on every ``af_ladder`` rung,
# where ``af_truncation`` materializes up to 63,245,986 pairs.
# ---------------------------------------------------------------------------


def af_units(d: BratteliDiagram, n: int, start: int = 0) -> list[tuple[tuple, tuple]]:
    """The units of the level-n truncation from level ``start``: each path
    from a level-``start`` vertex down to level n as its range vertex and its
    edge labels (k, i, j, copy), in label order, with its orbit key, the
    level-n vertex it ends at."""
    units = [(((start, i), ()), (start, i)) for i in range(d.level_size(start))]
    for k in range(start, n):
        m = d.multiplicity_matrix(k)
        units = [
            ((v, labels + ((k, i, j, t),)), (k + 1, j))
            for (v, labels), (_, i) in units
            for j, copies in enumerate(m[i])
            for t in range(copies)
        ]
    return units


def cycled(d: BratteliDiagram, labels: tuple, l: int) -> tuple:
    """alpha^l on a label tuple, edge by edge: parallel-class cycling moves
    copy t of a class of c parallel edges to copy t + l mod c.  The levels
    are those ``d`` stores, as on a telescoped diagram."""
    return tuple((k, i, j, (t + l) % d.mult[k][i][j]) for k, i, j, t in labels)


def walked_unit_lc(d: BratteliDiagram, units, mu: tuple) -> int:
    """The least l >= 1 with alpha^{-l}(Z(mu)) inside Z(mu), Z(mu) the
    units (range vertex v, labels) that start with mu = (v, prefix): every
    unit of the cylinder is moved, the next l tried at the first one that
    leaves it."""
    v, prefix = mu
    cylinder = [labels for (w, labels), _ in units if w == v and labels[: len(prefix)] == prefix]
    assert cylinder, mu
    l = 1
    while any(cycled(d, labels, -l)[: len(prefix)] != prefix for labels in cylinder):
        l += 1
    return l


def walked_unit_moves(d: BratteliDiagram, units, l: int, t: int) -> bool:
    """Whether alpha^l moves the level-k edge of every unit for every k
    from t on."""
    return all(
        all(a != b for a, b in zip(cycled(d, labels, l)[t:], labels[t:]))
        for (_, labels), _ in units
    )


def walked_unit_cofinal(d: BratteliDiagram, n: int) -> bool:
    """Whether, for each level t < n, the orbit of each level-n vertex among
    the units from level t (the paths that end at it) holds a path from
    every level-t vertex."""
    ends = d.level_size(n)
    for t in range(n):
        # the (start, end) pairs the units join, among the |V_t| x |V_n|
        joined = {(v, end) for (v, _), end in af_units(d, n, start=t)}
        if len(joined) < d.level_size(t) * ends:
            return False
    return True


# ---------------------------------------------------------------------------
# Pair-scan rank-2 oracle
#
# The rank-2 orbit-freeness check as it tested every shift and red offset
# (l, s) on its own, level by level, with one congruence per edge order.
# ``certificates.check_wfc`` reads the window off one residue class per shift
# and a bit sweep instead, and its status and undecided pairs are tested
# against this; ``scanned_open_offsets`` scans one shift's offsets over any
# range, the oracle of its classes.
# ---------------------------------------------------------------------------


def scanned_rank2_wfc_certificate(orders, L: int) -> WfcCertificate:
    """The rank-2 orbit-freeness certificate from the per-pair scan, red
    offsets 0..L, over the given orders at every edge level."""
    depth = orders.max_edge_level()
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
        return WfcCertificate(
            "unknown",
            "rank2",
            depth,
            L,
            {"note": "order inequality o(e) > n*m_n fails", "inequality": inequality},
        )
    S = L
    witness: dict[str, int] = {}
    undecided = []
    for l in range(1, L + 1):
        for s in range(0, S + 1):
            t = next(
                (
                    t
                    for t in range(depth + 1)
                    if all((l * orders.m[t] - s) % o != 0 for o in orders.orders_at(t))
                ),
                None,
            )
            if t is None:
                undecided.append([l, s])
            else:
                witness[f"{l},{s}"] = t
    if undecided:
        return WfcCertificate(
            "unknown",
            "rank2",
            depth,
            L,
            {"inequality": inequality, "undecided_pairs": undecided},
        )
    return WfcCertificate(
        "certificate",
        "rank2",
        depth,
        L,
        {
            "kind": "order-inequality+bounded-congruences",
            "inequality": inequality,
            "s_bound": S,
            "witness_level_per_shift_and_red_offset": witness,
        },
    )


def scanned_open_offsets(orders, l: int, lo: int, hi: int) -> list[int]:
    """The red offsets lo <= s <= hi that no edge level witnesses for shift
    l, scanned one offset at a time: level t witnesses s when no edge order
    at t divides l*m_t - s, so a level with the order 1 witnesses none and
    is skipped."""
    levels = [(l * orders.m[t], orders.orders_at(t)) for t in range(orders.max_edge_level() + 1)]
    levels = [(lm, level_orders) for lm, level_orders in levels if 1 not in level_orders]
    return [
        s
        for s in range(lo, hi + 1)
        if all(any((lm - s) % o == 0 for o in level_orders) for lm, level_orders in levels)
    ]


@dataclass(frozen=True)
class FractionGaussian:
    """A Gaussian rational kept as two ``Fraction`` parts, each operation
    written out on the parts (the oracle for ``gaussian.GaussianRational``)."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value) -> "FractionGaussian":
        if isinstance(value, FractionGaussian):
            return value
        return FractionGaussian(Fraction(value), Fraction(0))

    def __add__(self, other) -> "FractionGaussian":
        o = FractionGaussian.of(other)
        return FractionGaussian(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "FractionGaussian":
        return FractionGaussian(-self.re, -self.im)

    def __sub__(self, other) -> "FractionGaussian":
        return self + (-FractionGaussian.of(other))

    def __rsub__(self, other) -> "FractionGaussian":
        return FractionGaussian.of(other) - self

    def __mul__(self, other) -> "FractionGaussian":
        o = FractionGaussian.of(other)
        return FractionGaussian(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FractionGaussian":
        o = FractionGaussian.of(other)
        denom = o.re * o.re + o.im * o.im
        if denom == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return FractionGaussian(
            (self.re * o.re + self.im * o.im) / denom,
            (self.im * o.re - self.re * o.im) / denom,
        )

    def conjugate(self) -> "FractionGaussian":
        return FractionGaussian(self.re, -self.im)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def fraction_gauss(re=0, im=0) -> FractionGaussian:
    return FractionGaussian(Fraction(re), Fraction(im))


# ---------------------------------------------------------------------------
# Reference checks only the tests use: minimality and stabilization of
# finite groupoids, and positivity of regular-representation matrices
# ---------------------------------------------------------------------------


def is_minimal(G: FiniteGroupoid) -> bool:
    """Single orbit (density in a finite discrete unit space)."""
    return len(orbits(G)) == 1


def cartesian_product(G1: FiniteGroupoid, G2: FiniteGroupoid) -> FiniteGroupoid:
    """Componentwise product groupoid."""
    elements = tuple((g, k) for g in G1.elements for k in G2.elements)
    units = frozenset((u, w) for u in G1.units for w in G2.units)
    rng = {(g, k): (G1.r(g), G2.r(k)) for (g, k) in elements}
    src = {(g, k): (G1.s(g), G2.s(k)) for (g, k) in elements}
    comp = {}
    table2 = label_tables(G2)["composition"]
    for (g1, g2), gp in label_tables(G1)["composition"].items():
        for (k1, k2), kp in table2.items():
            comp[((g1, k1), (g2, k2))] = (gp, kp)
    inv = {(g, k): (G1.inv(g), G2.inv(k)) for (g, k) in elements}
    return build_groupoid(elements, units, rng, src, comp, inv)


def product_with_full_relation(G: FiniteGroupoid, N: int) -> FiniteGroupoid:
    """Stabilization at desk scale: G x (full relation on {-N..N})."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    K = full_relation(range(-N, N + 1))
    return cartesian_product(G, K)


def determinant(entries):
    """Exact determinant over the Gaussian rationals."""
    n = len(entries)
    rows = [list(r) for r in entries]
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = det * GaussianRational.of(-1)
        det = det * rows[col][col]
        inv = rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = rows[r][col] / inv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def looped_matmul(m: RegRepMatrix, other: RegRepMatrix) -> tuple:
    """The entries of m @ other by the triple loop ``RegRepMatrix.matmul``
    ran before it called ``matrices.mat_mul``: each sum starts at ZERO."""
    a, b, n = m.entries, other.entries, len(m.basis)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), ZERO) for j in range(n)) for i in range(n)
    )


def looped_dagger(m: RegRepMatrix) -> tuple:
    """The entries of the conjugate transpose, by index."""
    n = len(m.basis)
    return tuple(tuple(m.entries[j][i].conjugate() for j in range(n)) for i in range(n))


def is_psd_hermitian(m: RegRepMatrix) -> bool:
    """All principal minors of a Hermitian matrix are real and nonnegative."""
    n = len(m.basis)
    if m.dagger().entries != m.entries:
        return False
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            sub = tuple(
                tuple(m.entries[i][j] for j in subset) for i in subset
            )
            d = determinant(sub)
            if d.im != 0 or d.re < 0:
                return False
    return True


# ---------------------------------------------------------------------------
# Generic AF report
#
# The AF report as the planner derived it before its closed form: rescan the
# growth levels, telescope along them, walk the class-cycling automorphism's
# cycles for the wfc certificate and its orbits for the LC entries, check
# cofinality, push every telescoped basis vector through ``dg_equal`` and ask
# ``dg_is_positive`` about the corner class.  ``pipeline.plan_af_realization``
# reads every field off its growth chains instead, and both it and
# ``pipeline.first_wrong_field`` are tested against this derivation.  Only
# the report assembly (``pipeline._report``) and the AF automorphism and
# stabilization texts are shared.
# ---------------------------------------------------------------------------


def generic_af_report(d: BratteliDiagram, unit_class=None, depth=5, lbound=20):
    """The AF report from the generic certificate functions, with the
    planner's signature and its input errors, searching up to
    ``matrices.LEVEL_CAP``."""
    check = validate_bratteli(d)
    if not check.passed:
        raise PipelineInputError(f"input diagram fails validation:\n{check.describe()}")
    corner = None if unit_class is None else unit_corner_spec(d, *unit_class)
    params = {"depth": depth, "lbound": lbound, "source_cap": matrices.LEVEL_CAP}
    levels_out = max(depth, lbound + 1) + 1
    levels, failure = rescanned_growth_subsequence(d, levels_out, matrices.LEVEL_CAP)
    if failure is not None:
        return _report("af", d.to_json(), params, {"complete": False, "failure": failure}, corner)
    tele = telescope(d, levels)
    alpha = edge_cycle_automorphism(tele)
    wfc = walked_wfc_certificate(tele, alpha, tele.horizon, lbound)
    paths = (p for v in tele.vertices_at(0) for n in range(3) for p in iter_paths(tele, v, n))
    sample = list(itertools.islice(paths, 40))
    lc = LcWitness(tuple(map(LcEntry, sample, walked_af_lc_lengths(alpha, sample))))
    minimality = minimality_verdict(tele, depth)
    spec = dimension_group_of(d)
    checks = [
        dg_equal(
            spec,
            DimGroupElement(levels[m], tuple(int(k == i) for k in range(tele.level_size(m)))),
            DimGroupElement(levels[m + 1], tele.mult[m][i]),
            horizon=levels[-1],
        )
        for m in range(tele.horizon)
        for i in range(tele.level_size(m))
    ]
    consistent = all(v.is_yes for v in checks)
    ktheory = {"telescope_class_consistency": "yes" if consistent else "FAIL", "checks": len(checks)}
    if corner is not None:
        positive = dg_is_positive(spec, corner.k_class, horizon=levels[-1])
        ktheory["corner_class_positive"] = positive.to_json()
    status = "ok"
    if not (wfc.is_certificate and minimality.is_yes and consistent):
        status = "unknown" if wfc.status != "counterexample" else "failed"
    telescoping = {
        "complete": True,
        "subsequence": levels,
        "min_multiplicity_per_level": {str(n): min_entry(m) for n, m in enumerate(tele.mult)},
        "growth_condition": "every entry at level n exceeds n",
    }
    report = _report(
        "af", d.to_json(), params, telescoping, corner, dict(_AF_AUTOMORPHISM),
        _AF_STABILIZATION_NOTE, wfc, lc, minimality, ktheory,
    )
    return report._replace(status=status)


# ---------------------------------------------------------------------------
# Generic rank-2 report
#
# The rank-2 report as the planner derived it before it dropped the checks
# its telescope settles: validate the canonical diagram, round-trip the
# edge orders through ``rank2_k_matrices``, check the order inequality level
# by level, build the automorphism through ``rank2_automorphism``,
# re-multiply the telescope's chains in ``reverify_telescope`` and push the
# corner class through ``dg_is_positive``.  The unit
# class is checked as in the planner: its level before telescoping, its
# vector against the levels the telescope reached.  The report is laid out
# here, not through ``pipeline._report``.
# ---------------------------------------------------------------------------


def generic_rank2_report(data: Rank2Data, unit_class=None, depth=5, lbound=50):
    """The rank-2 report from every check, with the planner's signature and
    its input errors."""
    _check_bounds(depth, lbound)
    levels_out = depth + 2
    if unit_class is not None and not 0 <= unit_class[0] < levels_out:
        raise StructuralError(f"corner level {unit_class[0]} outside levels 0..{levels_out - 1}")
    params = {"depth": depth, "lbound": lbound, "levels_out": levels_out}
    tele = telescope_rank2(data, levels_out)
    corner = None if unit_class is None else rank2_corner_spec(tele, *unit_class)
    if not tele.complete:
        return RealizationReport(
            kind="rank2",
            status="unknown",
            input_echo=data.to_json(),
            parameters=params,
            telescoping=tele.to_json(),
            automorphism={},
            wfc=None,
            lc=None,
            minimality=None,
            stabilization={},
            corner=corner,
            ktheory={},
        )
    diagram = canonical_rank2(tele.telescoped, levels_out)
    structural = validate_rank2(diagram)
    if not structural.passed:
        raise PipelineInputError(f"built diagram fails validation:\n{structural.describe()}")
    orders = rank2_automorphism(diagram)

    inequality_ok = all(
        orders.min_order_at(n) > n * orders.m[n] for n in range(levels_out - 1)
    )
    a_mats, b_mats, t_mats = rank2_k_matrices(diagram)
    round_trip_ok = all(
        orders.edge_order((n, j, i, 0)) == a_mats[n][i][j] * t_mats[n][j][j]
        for n in range(levels_out - 1)
        for j, i, _ in diagram.pairs_at(n)
    )

    wfc = check_wfc(orders, shift_bound=lbound)

    sample: list[Rank2Path] = []
    for j in range(diagram.cycle_count(0)):
        sample.append(Rank2Path((), 0, (0, j, 0)))
        sample.append(Rank2Path((), 1, (0, j, 0)))
    for label in itertools.islice(diagram.blue_labels_at(0), 4):
        sample.append(Rank2Path((label,), 0))
    for label in itertools.islice(diagram.blue_labels_at(1), 4):
        sample.append(Rank2Path((label,), 1))
    for n in range(2, levels_out - 1):
        if orders.m[n] > 0:
            for label in itertools.islice(diagram.blue_labels_at(n), 4):
                sample.append(Rank2Path((label,), 0))
    lc = check_path_lc(orders, sample)

    skeleton = blue_skeleton(diagram)
    minimality = minimality_verdict(skeleton, levels_out - 1)

    ktheory = {
        "order_inequality_o_gt_n_m_n": inequality_ok,
        "order_formula_round_trip": round_trip_ok,
        "orders_per_level": {
            str(n): list(orders.orders_at(n)) for n in range(levels_out - 1)
        },
        "m_sequence": list(orders.m),
    }
    if unit_class is not None:
        k_spec = DimensionGroupSpec(
            tuple(len(t) for t in tele.telescoped.T),
            tele.telescoped.A,
        )
        positivity = dg_is_positive(k_spec, corner.k_class, levels_out - 1)
        ktheory["corner_class_positive"] = positivity.to_json()

    stabilization = {
        "full_relation_truncation": max(corner.vector) if corner is not None else 1,
        "note": "product with the complete relation on {-N..N}",
    }

    status = "ok"
    if not (
        wfc.is_certificate
        and inequality_ok
        and round_trip_ok
        and minimality.is_yes
        and reverify_telescope(tele)
    ):
        status = "unknown"
    return RealizationReport(
        kind="rank2",
        status=status,
        input_echo=data.to_json(),
        parameters=params,
        telescoping=tele.to_json(),
        automorphism={
            "kind": "factorization-permutation power",
            "description": "blue edges at level n map through the m_n-th power "
            "of the factorization permutation; vertices rotate inside their "
            "red cycles",
            "m_sequence": list(orders.m),
        },
        wfc=wfc,
        lc=lc,
        minimality=minimality,
        stabilization=stabilization,
        corner=corner,
        ktheory=ktheory,
    )


def replayed_report_verdict(report_json: dict) -> bool:
    """True when the generic derivation of the report's kind, from the echoed
    input, the recorded parameters and the corner's unit class, under the
    current level cap, reproduces the report exactly."""
    corner = report_json["corner"]
    unit_class = (corner["level"], corner["vector"]) if corner else None
    params = dict(report_json["parameters"])
    # the cap is matrices.LEVEL_CAP, which an AF report echoes
    params.pop("source_cap", None)
    if report_json["kind"] == "rank2":
        params.pop("levels_out", None)
        data = rank2_data_from_json(report_json["input"])[0]
        fresh = generic_rank2_report(data, unit_class=unit_class, **params)
    else:
        fresh = generic_af_report(
            diagram_from_json(report_json["input"]), unit_class=unit_class, **params
        )
    return fresh.to_json() == report_json


def bench_inputs():
    """``bench/inputs.py`` as a module; executing it only defines its
    generators and constants."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
