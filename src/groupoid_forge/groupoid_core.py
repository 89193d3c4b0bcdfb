"""Finite discrete groupoids with complete verification.

Elements are opaque hashable ids and composition is a table, not a formula;
twisted products, restrictions and stabilizations all reuse this single
backend.  A ``FiniteGroupoid`` holds one representation: the element labels,
and on element positions the range, source and inverse lists and the
composition rows.  Label maps are encoded once, by ``build_groupoid``, which
``groupoid_from_json`` calls; the factories and twisted products fill the
lists straight from positions.  Labels come back only in dumps, in messages
and through the accessors ``r``, ``s``, ``inv``, ``mul``, ``composable`` and
``elements_with_source``.
Everything is immutable and every check is complete: each axiom is decided
for every element, pair and triple.  The axiom check decides the whole table
at once (associativity by Light's test on a generating set), and walks only
a table that fails, element by element, to name every offender.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Hashable, Iterable, Mapping, NamedTuple

from .validation import StructuralError, ValidationReport, Violation, json_int, report_from

El = Hashable


class _Index(NamedTuple):
    """For each code, the positions of the elements with that range (source),
    in element order."""

    by_range: dict[int, list[int]]
    by_source: dict[int, list[int]]


@dataclass(frozen=True)
class FiniteGroupoid:
    """A finite groupoid on element positions: ``elements[i]`` is the label
    at position i, ``range_of[i]``, ``source_of[i]`` and ``inverse_of[i]``
    are the codes of its range, source and inverse, and ``rows[i][j] = k``
    says that elements[i]·elements[j] is the id of code k.  An element's code
    is its position; an id outside the elements, which only malformed input
    holds, is ``strays[c - len(elements)]`` at code c and has a row too, so
    the axiom check can name it.  Each row lists its keys in increasing code
    order, as ``build_groupoid``, the factories, ``disjoint_union`` and
    twisted products all build them; the axiom check's whole-table decision
    reads that order, and walks a table that breaks it."""

    elements: tuple[El, ...]
    units: frozenset
    range_of: list[int]
    source_of: list[int]
    inverse_of: list[int]
    rows: list[dict[int, int]]
    strays: tuple[El, ...] = ()

    @cached_property
    def _ids(self) -> tuple[El, ...]:
        """The label of each code."""
        return self.elements + self.strays

    @cached_property
    def _code(self) -> dict[El, int]:
        return dict(zip(self._ids, range(len(self._ids))))

    def r(self, g: El) -> El:
        return self._ids[self.range_of[self._code[g]]]

    def s(self, g: El) -> El:
        return self._ids[self.source_of[self._code[g]]]

    def inv(self, g: El) -> El:
        return self._ids[self.inverse_of[self._code[g]]]

    def mul(self, g: El, h: El) -> El:
        code = self._code
        return self._ids[self.rows[code[g]][code[h]]]

    def composable(self, g: El, h: El) -> bool:
        code = self._code
        return self.source_of[code[g]] == self.range_of[code[h]]

    @cached_property
    def _index(self) -> _Index:
        """Built on first use: a groupoid that is only constructed and
        serialized never pays for it."""
        by_range: dict[int, list[int]] = {}
        by_source: dict[int, list[int]] = {}
        for i, (r, s) in enumerate(zip(self.range_of, self.source_of)):
            by_range.setdefault(r, []).append(i)
            by_source.setdefault(s, []).append(i)
        return _Index(by_range, by_source)

    def elements_with_source(self, u: El) -> tuple[El, ...]:
        bucket = self._index.by_source.get(self._code.get(u), ())
        return tuple(map(self.elements.__getitem__, bucket))

    def __len__(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        name = list(map(repr, self._ids))
        own = name[: len(self.elements)]
        return {
            "elements": own,
            "units": sorted(map(repr, self.units)),
            "range": dict(zip(own, map(name.__getitem__, self.range_of))),
            "source": dict(zip(own, map(name.__getitem__, self.source_of))),
            "inverse": dict(zip(own, map(name.__getitem__, self.inverse_of))),
            "compose": sorted(
                [name[i], name[j], name[k]]
                for i, row in enumerate(self.rows)
                for j, k in row.items()
            ),
        }


def build_groupoid(
    elements: Iterable[El],
    units: Iterable[El],
    range_map: Mapping[El, El],
    source_map: Mapping[El, El],
    composition: Mapping[tuple[El, El], El],
    inverse_map: Mapping[El, El],
) -> FiniteGroupoid:
    """The groupoid of label maps and a composition table.  Each element is
    coded by its position, and every other id by the next code from
    ``len(elements)`` on, in order of first appearance: in the range, source
    and inverse maps, then in the table.  Each row lists its keys in
    increasing code order, whatever the order of the table."""
    elements = tuple(elements)
    code = dict(zip(elements, range(len(elements))))
    if len(code) != len(elements):
        raise StructuralError("duplicate elements")
    units = frozenset(units)
    if not units <= code.keys():
        raise StructuralError("units not contained in elements")
    for m, name in ((range_map, "range"), (source_map, "source"), (inverse_map, "inverse")):
        if code.keys() != set(m):
            raise StructuralError(f"{name} map not total on elements")
    n = len(elements)
    maps = [
        [code.setdefault(m[g], len(code)) for g in elements]
        for m in (range_map, source_map, inverse_map)
    ]
    rows: list[dict[int, int]] = [{} for _ in elements]
    stray_rows: dict[int, dict[int, int]] = {}
    for (g, h), k in composition.items():
        gc = code.setdefault(g, len(code))
        hc = code.setdefault(h, len(code))
        row = rows[gc] if gc < n else stray_rows.setdefault(gc, {})
        row[hc] = code.setdefault(k, len(code))
    rows += [stray_rows.get(c, {}) for c in range(n, len(code))]
    rows = [dict(sorted(row.items())) for row in rows]
    return FiniteGroupoid(elements, units, *maps, rows, tuple(code)[n:])


def _revive(name: str):
    """Element names in dumps are strings, the elements' reprs; hashable
    literals come back as their Python values so rebuilt groupoids support
    structured tooling."""
    import ast

    if not isinstance(name, str):
        raise StructuralError(f"element names must be strings, got {name!r}")
    try:
        value = ast.literal_eval(name)
        hash(value)
        return value
    except (ValueError, SyntaxError, TypeError, RecursionError, MemoryError):
        # a name too deeply nested for the parser is a name, not a literal
        return name


def groupoid_from_json(data: dict) -> FiniteGroupoid:
    """Inverse of ``FiniteGroupoid.to_json``; a dump whose maps are not
    objects or whose names are not strings, or whose table lists a pair
    twice, is refused."""
    try:
        elements = tuple(_revive(g) for g in data["elements"])
        units = frozenset(_revive(u) for u in data["units"])
        rng, src, inv = (
            {_revive(g): _revive(u) for g, u in data[key].items()}
            for key in ("range", "source", "inverse")
        )
        table = [((_revive(g), _revive(h)), _revive(k)) for g, h, k in data["compose"]]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise StructuralError(f"malformed groupoid dump: {exc}") from exc
    composition = dict(table)
    G = build_groupoid(elements, units, rng, src, composition, inv)
    if len(composition) < len(table):
        seen: set = set()
        twice = next(pair for pair, _ in table if pair in seen or seen.add(pair))
        raise StructuralError(f"pair {twice!r} listed twice")
    return G


def _generators(rows: list[dict[int, int]], rng: list[int], src: list[int]) -> list[int]:
    """Positions of a generating set of a table whose rows are all closed.
    In element order, each element that the set so far does not reach joins
    it, and the reached set is kept closed under right multiplication by the
    set, so every element is a product of generators, read left to right."""
    reached = [False] * len(rng)
    gens: list[int] = []
    by_range: dict[int, list[int]] = {}
    by_source: dict[int, list[int]] = {}
    for e in range(len(rng)):
        if reached[e]:
            continue
        gens.append(e)
        by_range.setdefault(rng[e], []).append(e)
        todo = [e] + [rows[x][e] for x in by_source.get(rng[e], ())]
        while todo:
            x = todo.pop()
            if not reached[x]:
                reached[x] = True
                by_source.setdefault(src[x], []).append(x)
                todo += map(rows[x].__getitem__, by_range.get(src[x], ()))
    return gens


def verify_groupoid_axioms(G: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom completely; name each offender.

    ``_satisfies_axioms`` decides the whole table at once, and passes it only
    when the element-wise walk ``_axiom_violations`` would find nothing; any
    table it refuses is walked, so the report is the walk's either way.
    """
    return report_from([] if _satisfies_axioms(G) else _axiom_violations(G))


def _satisfies_axioms(G: FiniteGroupoid) -> bool:
    """Whether G passes every axiom, decided on whole lists built with
    ``map`` and ``chain``: units fixed by r and s; r and s in the units,
    inverses inside the elements with swapped range and source; each row's
    keys, in order, the range bucket of its source (per-row lengths and the
    concatenation), and empty rows for ids outside the elements; the
    products' ranges and sources; the four identity laws.

    Associativity is decided on the rows of a generating set.  ``lam[g]``,
    the values of row g, lists gk over the bucket of s(g); row g is
    associative when ``lam[gh]`` chained over h equals ``lam[h]`` chained
    over h and translated by row g.  In a closed table the associative rows
    are closed under products: for associative g1, g2 and composable h, k,
    ((g1g2)h)k = (g1(g2h))k = g1((g2h)k) = g1(g2(hk)) = (g1g2)(hk).  Every
    element is a product of the generators ``_generators`` picks, so their
    rows decide all rows (Light's test: F. W. Light, 1949; Clifford &
    Preston, *The Algebraic Theory of Semigroups* I, section 1.2)."""
    n = len(G.elements)
    rng, src, inv, rows = G.range_of, G.source_of, G.inverse_of, G.rows
    own, positions, bucket = rows[:n], list(range(n)), G._index.by_range
    units = set(map(G._code.__getitem__, G.units))
    unit_codes = sorted(units)
    partners = [bucket.get(s, ()) for s in src]
    lengths = list(map(len, partners))
    partner_keys = list(chain.from_iterable(partners))
    if not (
        list(map(rng.__getitem__, unit_codes)) == unit_codes
        and list(map(src.__getitem__, unit_codes)) == unit_codes
        and units.issuperset(rng)
        and units.issuperset(src)
        and max(inv, default=-1) < n
        and list(map(rng.__getitem__, inv)) == src
        and list(map(src.__getitem__, inv)) == rng
        and not any(rows[n:])
        and list(map(len, own)) == lengths
        and list(chain.from_iterable(own)) == partner_keys
    ):
        return False
    # an id outside the elements reads range and source -1: no element's range
    pad = [-1] * (len(rows) - n)
    lam = list(map(dict.values, own))
    products = list(chain.from_iterable(lam))
    if not (
        list(map((rng + pad).__getitem__, products))
        == list(chain.from_iterable(map(repeat, rng, lengths)))
        and list(map((src + pad).__getitem__, products))
        == list(map(src.__getitem__, partner_keys))
        and list(map(dict.get, map(rows.__getitem__, rng), positions, positions)) == positions
        and list(map(dict.get, rows, src, positions)) == positions
        and list(map(dict.get, map(rows.__getitem__, inv), positions, src)) == src
        and list(map(dict.get, rows, inv, rng)) == rng
    ):
        return False
    joined = {c: list(chain.from_iterable(map(lam.__getitem__, b))) for c, b in bucket.items()}
    return all(
        list(chain.from_iterable(map(lam.__getitem__, lam[g])))
        == list(map(rows[g].__getitem__, joined[src[g]]))
        for g in _generators(rows, rng, src)
    )


def _axiom_violations(G: FiniteGroupoid) -> list[Violation]:
    """Every violation of the element-wise definition, in an order that does
    not depend on hashing.  Elements are read by their codes, and ids outside
    the elements (a stray range, inverse, factor or product) by the codes
    from ``len(G.elements)`` on.  Products on pairs that are not composable
    come row by row in code order, each row in its key order; every other
    kind comes in element order, with pairs and triples over range buckets."""
    v: list[Violation] = []
    els = G.elements
    n = len(els)
    ids, rng, src, inv, rows = G._ids, G.range_of, G.source_of, G.inverse_of, G.rows
    units = set(map(G._code.__getitem__, G.units))
    bucket = G._index.by_range
    partners = [bucket.get(s, ()) for s in src]
    for i, g in enumerate(els):
        if i in units and (rng[i] != i or src[i] != i):
            v.append(Violation("unit fixed by r and s", f"unit {g!r}"))
    for i, g in enumerate(els):
        if rng[i] not in units or src[i] not in units:
            v.append(Violation("r,s land in units", f"element {g!r}"))
        if inv[i] >= n:
            v.append(Violation("inverse closed", f"element {g!r}"))
        elif rng[inv[i]] != src[i] or src[inv[i]] != rng[i]:
            # the inverse laws below only test products the table holds
            v.append(Violation("r(g^{-1}) = s(g), s(g^{-1}) = r(g)", f"element {g!r}"))
    allowed = {c: set(b) for c, b in bucket.items()}
    for i, row in enumerate(rows):
        ok = allowed.get(src[i], ()) if i < n else ()  # a stray's row is all loose
        for j in row:
            if j not in ok:
                v.append(Violation("composition only on s(g)=r(h)", f"pair {(ids[i], ids[j])!r}"))
    for i, g in enumerate(els):
        for j in partners[i]:
            k = rows[i].get(j)
            if k is not None and k < n and rng[k] == rng[i] and src[k] == src[j]:
                continue
            pair = f"pair {(g, els[j])!r}"
            if k is None:
                v.append(Violation("composition total on composable pairs", pair))
            elif k >= n:
                v.append(Violation("composition closed", pair))
            else:
                if rng[k] != rng[i]:
                    v.append(Violation("r(gh) = r(g)", pair))
                if src[k] != src[j]:
                    v.append(Violation("s(gh) = s(h)", pair))
    for i, g in enumerate(els):
        ru, su, gi, row = rng[i], src[i], inv[i], rows[i]
        laws = (
            ("r(g)g = g", rows[ru].get(i, i) != i),
            ("gs(g) = g", row.get(su, i) != i),
            ("g^{-1}g = s(g)", rows[gi].get(i, su) != su),
            ("gg^{-1} = r(g)", row.get(gi, ru) != ru),
        )
        v += [Violation(law, f"element {g!r}") for law, broken in laws if broken]
    for i, g in enumerate(els):
        row_g = rows[i]
        for j in partners[i]:
            gh = row_g.get(j)
            if gh is None:
                continue
            row_h, row_gh = rows[j], rows[gh]
            for k in partners[j]:
                left = row_gh.get(k)  # a missing hk reads None, which no row holds
                if left is None or left != row_g.get(row_h.get(k)):
                    v.append(Violation("associativity", f"triple {(g, els[j], els[k])!r}"))
    return v


def _unit_code(G: FiniteGroupoid, u: El) -> int:
    if u not in G.units:
        raise ValueError(f"{u!r} is not a unit")
    return G._code[u]


def isotropy_group(G: FiniteGroupoid, u: El) -> frozenset:
    """All g with r(g) = s(g) = u; trivial for principal groupoids."""
    c = _unit_code(G, u)
    rng = G.range_of
    return frozenset(G.elements[i] for i in G._index.by_source.get(c, ()) if rng[i] == c)


def orbit(G: FiniteGroupoid, u: El) -> frozenset:
    """The orbit r(G_u) of a unit."""
    ids, rng = G._ids, G.range_of
    return frozenset(ids[rng[i]] for i in G._index.by_source.get(_unit_code(G, u), ()))


def orbits(G: FiniteGroupoid) -> tuple[frozenset, ...]:
    seen: set = set()
    parts = []
    for u in sorted(G.units, key=repr):
        if u in seen:
            continue
        o = orbit(G, u)
        seen |= o
        parts.append(o)
    return tuple(parts)


def is_principal(G: FiniteGroupoid) -> bool:
    return all(isotropy_group(G, u) == {u} for u in G.units)


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------


def full_relation(points: Iterable[Hashable]) -> FiniteGroupoid:
    """The complete equivalence relation: elements (a, b), units (a, a).
    (a, b) sits at position a·m + b over the m points' positions."""
    pts = tuple(points)
    m = len(pts)
    if len(set(pts)) != m:
        raise StructuralError("duplicate elements")
    return FiniteGroupoid(
        tuple((a, b) for a in pts for b in pts),
        frozenset((a, a) for a in pts),
        [a * m + a for a in range(m) for _ in range(m)],
        [b * m + b for _ in range(m) for b in range(m)],
        [b * m + a for a in range(m) for b in range(m)],
        [{b * m + c: a * m + c for c in range(m)} for a in range(m) for b in range(m)],
    )


def cyclic_group_groupoid(n: int) -> FiniteGroupoid:
    """Z/n as a groupoid with a single unit 0."""
    if n < 1:
        raise ValueError("n must be positive")
    elements = tuple(range(n))
    return FiniteGroupoid(
        elements,
        frozenset({0}),
        [0] * n,
        [0] * n,
        [(-a) % n for a in elements],
        [{b: (a + b) % n for b in elements} for a in elements],
    )


def group_bundle(fibers: Mapping[Hashable, int]) -> FiniteGroupoid:
    """Disjoint union of cyclic groups: fiber Z/k at each base point, the
    fibers in order of their items' reprs and (u, t) at its fiber's offset
    plus t."""
    if any(k < 1 for k in fibers.values()):
        raise StructuralError("units not contained in elements")
    elements, rng, inv, rows = [], [], [], []
    for u, k in sorted(fibers.items(), key=repr):
        o = len(elements)
        elements += [(u, t) for t in range(k)]
        rng += [o] * k
        inv += [o + (-t) % k for t in range(k)]
        rows += [{o + b: o + (a + b) % k for b in range(k)} for a in range(k)]
    units = frozenset((u, 0) for u in fibers)
    return FiniteGroupoid(tuple(elements), units, rng, list(rng), inv, rows)


def disjoint_union(G1: FiniteGroupoid, G2: FiniteGroupoid) -> FiniteGroupoid:
    """Elements (0, g) for g in G1, then (1, g) for g in G2.  Each side's
    codes move by one list lookup: its elements to theirs, and its stray
    ids, if any, past all elements, G1's first."""
    sides, n1, s1 = (G1, G2), len(G1.elements), len(G1.strays)
    n, end = n1 + len(G2.elements), n1 + len(G2.elements) + s1 + len(G2.strays)
    moves = ([*range(n1), *range(n, n + s1)], [*range(n1, n), *range(n + s1, end)])
    rows: list = [None] * end
    for G, move in zip(sides, moves):
        for c, row in zip(move, G.rows):
            rows[c] = {move[j]: move[k] for j, k in row.items()}
    return FiniteGroupoid(
        tuple((t, g) for t, G in enumerate(sides) for g in G.elements),
        frozenset({(0, u) for u in G1.units} | {(1, u) for u in G2.units}),
        *(
            [move[c] for G, move in zip(sides, moves) for c in getattr(G, field)]
            for field in ("range_of", "source_of", "inverse_of")
        ),
        rows,
        tuple((t, x) for t, G in enumerate(sides) for x in G.strays),
    )


# ---------------------------------------------------------------------------
# Cocycles and automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cocycle:
    groupoid: FiniteGroupoid
    values: Mapping[El, int]

    def __post_init__(self):
        if set(self.values) != set(self.groupoid.elements):
            raise StructuralError("cocycle not total on elements")

    def __call__(self, g: El) -> int:
        return self.values[g]

    def validate(self) -> ValidationReport:
        G = self.groupoid
        els = G.elements
        c = list(map(self.values.__getitem__, els))
        v = [
            Violation("c(gh) = c(g) + c(h)", f"pair {(els[i], els[j])!r}")
            for i, row in enumerate(G.rows)
            for j, k in row.items()
            if c[k] != c[i] + c[j]
        ]
        for u in els:
            if u in G.units and self.values[u] != 0:
                v.append(Violation("c vanishes on units", f"unit {u!r}"))
        return report_from(v)

    def value_range(self) -> frozenset:
        return frozenset(self.values.values())

    def isotropy_value_range(self) -> frozenset:
        """Cocycle values attained on isotropy elements.

        Finite subgroups of the integers are trivial, so a valid cocycle
        vanishes on all isotropy: this is {0} whenever the cocycle validates.
        """
        G = self.groupoid
        return frozenset(
            self.values[g] for g in G.elements if G.r(g) == G.s(g)
        )


def cocycle_from_json(G: FiniteGroupoid, data: dict) -> Cocycle:
    """The cocycle on ``G`` of a file ``{"values": {element name: integer}}``."""
    try:
        values = data["values"].items()
        return Cocycle(G, {_revive(g): json_int(c, f"values.{g}") for g, c in values})
    except (KeyError, TypeError, AttributeError) as exc:
        raise StructuralError(f"malformed cocycle: {exc}") from exc


def automorphism_from_json(G: FiniteGroupoid, data: dict) -> GroupoidAutomorphism:
    """The automorphism of ``G`` of a file ``{"map": {element name: element
    name}}``; a map that is not an object, or not a bijection of G's
    elements, is refused."""
    try:
        pairs = data["map"].items()
        return GroupoidAutomorphism(G, {_revive(g): _revive(h) for g, h in pairs})
    except (KeyError, TypeError, AttributeError) as exc:
        raise StructuralError(f"malformed automorphism: {exc}") from exc


def zero_cocycle(G: FiniteGroupoid) -> Cocycle:
    return Cocycle(G, {g: 0 for g in G.elements})


def weight_cocycle(G: FiniteGroupoid, weights: Mapping[El, int]) -> Cocycle:
    """The coboundary c(g) = w(r(g)) - w(s(g)) of a unit weighting."""
    if set(weights) != set(G.units):
        raise StructuralError("weights must be given on exactly the units")
    return Cocycle(G, {g: weights[G.r(g)] - weights[G.s(g)] for g in G.elements})


def cycles(mapping: Mapping[El, El]) -> list[tuple[El, ...]]:
    """Cycle decomposition of a permutation given as a mapping onto its own
    keys.  Cycles appear in the order of their first key, each starting at
    that key and following the mapping."""
    seen: set = set()
    out = []
    for start in mapping:
        if start in seen:
            continue
        cycle = [start]
        x = mapping[start]
        while x != start:
            cycle.append(x)
            x = mapping[x]
        seen.update(cycle)
        out.append(tuple(cycle))
    return out


@dataclass(frozen=True)
class GroupoidAutomorphism:
    groupoid: FiniteGroupoid
    mapping: Mapping[El, El]

    def __post_init__(self):
        eset = set(self.groupoid.elements)
        if set(self.mapping) != eset or set(self.mapping.values()) != eset:
            raise StructuralError("automorphism mapping is not a bijection")

    def __call__(self, g: El) -> El:
        return self.mapping[g]

    def validate(self) -> ValidationReport:
        v = []
        G = self.groupoid
        a = self.mapping
        els, code, rows = G.elements, G._code, G.rows
        for u in els:
            if u in G.units and a[u] not in G.units:
                v.append(Violation("units preserved", f"unit {u!r}"))
        # at[i] is the position of alpha(elements[i])
        at = [code[a[g]] for g in els]
        for i, g in enumerate(els):
            for name, m in (("r", G.range_of), ("s", G.source_of), ("inverse", G.inverse_of)):
                if at[m[i]] != m[at[i]]:
                    v.append(Violation(f"{name} equivariance", f"element {g!r}"))
        for i, ai in enumerate(at):
            image = rows[ai]
            for j, k in rows[i].items():
                if image.get(at[j]) != at[k]:
                    v.append(Violation("multiplicativity", f"pair {(els[i], els[j])!r}"))
        return report_from(v)

    @cached_property
    def _positions(self) -> dict:
        """Each element's cycle and its position there, in element order."""
        where = {x: (cycle, pos) for cycle in cycles(self.mapping) for pos, x in enumerate(cycle)}
        return {x: where[x] for x in self.groupoid.elements}

    @cached_property
    def _powers(self) -> dict[int, "GroupoidAutomorphism"]:
        return {}

    @cached_property
    def _order(self) -> int:
        return math.lcm(*{len(cycle) for cycle, _ in self._positions.values()})

    def power(self, k: int) -> "GroupoidAutomorphism":
        """alpha^k, built once per residue of ``k`` modulo the order and
        kept: ``power(k) is power(k + order())``."""
        k %= self._order
        power = self._powers.get(k)
        if power is None:
            rotated = {x: c[(pos + k) % len(c)] for x, (c, pos) in self._positions.items()}
            power = self._powers[k] = GroupoidAutomorphism(self.groupoid, rotated)
        return power

    def order(self) -> int:
        return self._order


def identity_automorphism(G: FiniteGroupoid) -> GroupoidAutomorphism:
    return GroupoidAutomorphism(G, {g: g for g in G.elements})


def relation_automorphism(
    G: FiniteGroupoid, point_map: Mapping[Hashable, Hashable]
) -> GroupoidAutomorphism:
    """Automorphism of a full relation induced by a permutation of points:
    (a, b) -> (pi(a), pi(b))."""
    return GroupoidAutomorphism(
        G, {(a, b): (point_map[a], point_map[b]) for (a, b) in G.elements}
    )


def cyclic_multiplier_automorphism(G: FiniteGroupoid, a: int) -> GroupoidAutomorphism:
    """k -> a*k mod n on a cyclic group groupoid; needs gcd(a, n) = 1 and
    the elements 0..n-1."""
    n = len(G.elements)
    if set(G.elements) != set(range(n)):
        raise ValueError("a multiplier automorphism needs G's elements to be 0..n-1")
    if math.gcd(a, n) != 1:
        raise ValueError("multiplier must be invertible mod n")
    return GroupoidAutomorphism(G, {k: (a * k) % n for k in G.elements})
