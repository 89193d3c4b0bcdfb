"""Finite discrete groupoids with complete verification.

Elements are opaque hashable ids and composition is a table, not a formula;
twisted products, restrictions and stabilizations all reuse this single
backend.  A ``FiniteGroupoid`` holds one representation: the element labels,
and on element positions the range, source and inverse lists and the
composition rows.  Label maps are encoded once, by ``build_groupoid`` and
``groupoid_from_json``; twisted products fill the lists straight from their
factors' positions.  Labels come back only in dumps, in messages and through
the accessors ``r``, ``s``, ``inv``, ``mul``, ``composable`` and
``elements_with_source``.
Everything is immutable and every check is complete: each axiom is decided
for every element, pair and triple.  Associativity of a table whose products
all exist with the right range and source is decided on the rows of a
generating set (Light's test; see ``verify_groupoid_axioms``), and any other
table is walked triple by triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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
    the axiom check can name it."""

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


def _encoded(
    elements: Iterable[El],
    units: Iterable[El],
    range_map: Mapping[El, El],
    source_map: Mapping[El, El],
    inverse_map: Mapping[El, El],
    table: Iterable[tuple[tuple[El, El], El]],
) -> FiniteGroupoid:
    """The groupoid of label maps and a table of ((g, h), gh) items.  Each
    element is coded by its position, and every other id by the next code
    from ``len(elements)`` on, in order of first appearance: in the range,
    source and inverse maps, then in the table.  A pair the table lists
    twice raises ``StructuralError`` naming it."""
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
    for (g, h), k in table:
        gc = code.setdefault(g, len(code))
        hc = code.setdefault(h, len(code))
        row = rows[gc] if gc < n else stray_rows.setdefault(gc, {})
        if hc in row:
            raise StructuralError(f"pair {(g, h)!r} listed twice")
        row[hc] = code.setdefault(k, len(code))
    rows += [stray_rows.get(c, {}) for c in range(n, len(code))]
    return FiniteGroupoid(elements, units, *maps, rows, tuple(code)[n:])


def build_groupoid(
    elements: Iterable[El],
    units: Iterable[El],
    range_map: Mapping[El, El],
    source_map: Mapping[El, El],
    composition: Mapping[tuple[El, El], El],
    inverse_map: Mapping[El, El],
) -> FiniteGroupoid:
    return _encoded(elements, units, range_map, source_map, inverse_map, composition.items())


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
    return _encoded(elements, units, rng, src, inv, table)


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

    It reads G's codes: elements by their position, and ids outside the
    elements (a stray range, inverse, factor or product) from
    ``len(G.elements)`` on.  Composable pairs come from the range buckets.
    The order of the violations does not depend on hashing: products on
    pairs that are not composable come row by row in code order, each row in
    table order, and every other kind in element order.

    Closure and associativity are decided a row at a time.  For each
    element g, ``lam[g]`` lists the codes of gk for k in the range bucket of
    s(g) (``None`` if a product is missing).  Row g passes closure when the
    ranges of ``lam[g]`` all equal r(g) and its sources run as the bucket's.
    It then passes associativity for every composable (h, k) at once when
    ``lam[gh]``, chained over h, equals ``lam[h]``, chained over h and
    translated by row g.

    Once every row is closed, the rows that pass associativity are closed
    under products: for passing g1, g2 and composable h, k,
    ((g1g2)h)k = (g1(g2h))k = g1((g2h)k) = g1(g2(hk)) = (g1g2)(hk).  Every
    element is a product of the generators ``_generators`` picks, so their
    rows decide associativity for all rows (Light's associativity test:
    F. W. Light, 1949; Clifford & Preston, *The Algebraic Theory of
    Semigroups* I, section 1.2).  When a row is not closed or a generator
    row fails, every row is compared, and a row that fails either comparison
    (a missing product, a product outside, a wrong range or source, a failed
    equation) is checked pair by pair or triple by triple instead, so the
    violations and their order are exactly those of the element-wise
    definition.
    """
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
        if not ok or not ok.issuperset(row):
            for j in row:
                if j not in ok:
                    pair = f"pair {(ids[i], ids[j])!r}"
                    v.append(Violation("composition only on s(g)=r(h)", pair))

    # Ids outside the elements have range and source -1, which no element's
    # range equals, so a product outside fails the row comparison.
    pad = [-1] * (len(rows) - n)
    rng_of = (rng + pad).__getitem__
    src_of = (src + pad).__getitem__
    bucket_src = {c: list(map(src.__getitem__, b)) for c, b in bucket.items()}
    lam: list[list[int] | None] = []
    closed: list[bool] = []
    for i, g in enumerate(els):
        row = rows[i]
        prods = list(map(row.get, partners[i]))
        ok = None not in prods
        lam.append(prods if ok else None)
        ok = ok and (
            list(map(rng_of, prods)) == [rng[i]] * len(prods)
            and list(map(src_of, prods)) == bucket_src.get(src[i], [])
        )
        closed.append(ok)
        if ok:
            continue
        for j in partners[i]:
            k = row.get(j)
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
        ru, su, gi = rng[i], src[i], inv[i]
        row = rows[i]
        if rows[ru].get(i, i) != i:
            v.append(Violation("r(g)g = g", f"element {g!r}"))
        if row.get(su, i) != i:
            v.append(Violation("gs(g) = g", f"element {g!r}"))
        if rows[gi].get(i, su) != su:
            v.append(Violation("g^{-1}g = s(g)", f"element {g!r}"))
        if row.get(gi, ru) != ru:
            v.append(Violation("gg^{-1} = r(g)", f"element {g!r}"))

    # Associativity.  joined[c] chains lam[h] over the bucket of range c;
    # for a closed g every gh has the source of its h, so chaining lam[gh]
    # over lam[g] lines up with it pair by pair.
    joined: dict[int, list[int] | None] = {}
    for c, b in bucket.items():
        parts = list(map(lam.__getitem__, b))
        joined[c] = None if None in parts else list(chain.from_iterable(parts))

    def associative_row(i: int) -> bool:
        right = joined.get(src[i]) if closed[i] else None
        if right is None:
            return False
        parts = list(map(lam.__getitem__, lam[i]))
        try:
            return None not in parts and list(chain.from_iterable(parts)) == list(
                map(rows[i].__getitem__, right)
            )
        except KeyError:
            return False

    if all(closed) and all(map(associative_row, _generators(rows, rng, src))):
        return report_from(v)
    for i, g in enumerate(els):
        if associative_row(i):
            continue
        row_g = rows[i]
        for j in partners[i]:
            gh = row_g.get(j)
            if gh is None:
                continue
            row_h = rows[j]
            row_gh = rows[gh]
            for k in partners[j]:
                hk = row_h.get(k)
                left = row_gh.get(k)
                right = row_g.get(hk) if hk is not None else None
                if left != right or left is None:
                    v.append(Violation("associativity", f"triple {(g, els[j], els[k])!r}"))

    return report_from(v)


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
    """The complete equivalence relation: elements (a, b), units (a, a)."""
    pts = tuple(points)
    elements = tuple((a, b) for a in pts for b in pts)
    units = frozenset((a, a) for a in pts)
    rng = {(a, b): (a, a) for a, b in elements}
    src = {(a, b): (b, b) for a, b in elements}
    comp = {
        ((a, b), (b2, c)): (a, c)
        for a, b in elements
        for b2, c in elements
        if b == b2
    }
    inv = {(a, b): (b, a) for a, b in elements}
    return build_groupoid(elements, units, rng, src, comp, inv)


def cyclic_group_groupoid(n: int) -> FiniteGroupoid:
    """Z/n as a groupoid with a single unit 0."""
    if n < 1:
        raise ValueError("n must be positive")
    elements = tuple(range(n))
    comp = {(a, b): (a + b) % n for a in elements for b in elements}
    return build_groupoid(
        elements,
        {0},
        {a: 0 for a in elements},
        {a: 0 for a in elements},
        comp,
        {a: (-a) % n for a in elements},
    )


def group_bundle(fibers: Mapping[Hashable, int]) -> FiniteGroupoid:
    """Disjoint union of cyclic groups: fiber Z/k at each base point."""
    elements = tuple((u, t) for u, k in sorted(fibers.items(), key=repr) for t in range(k))
    units = frozenset((u, 0) for u in fibers)
    rng = {(u, t): (u, 0) for (u, t) in elements}
    comp = {
        ((u, a), (u2, b)): (u, (a + b) % fibers[u])
        for (u, a) in elements
        for (u2, b) in elements
        if u == u2
    }
    inv = {(u, t): (u, (-t) % fibers[u]) for (u, t) in elements}
    return build_groupoid(elements, units, rng, dict(rng), comp, inv)


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
