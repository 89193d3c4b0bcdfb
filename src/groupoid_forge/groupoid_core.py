"""Finite discrete groupoids with complete verification.

Elements are opaque hashable ids and composition is a table, not a formula;
twisted products, restrictions and stabilizations all reuse this single
backend.  The table is any mapping (g, h) -> gh: factories hand over dicts,
and twisted products, built on element positions, hand over a ``RowTable``
of integer rows, which the axiom check reads without re-encoding.
Everything is immutable and every check is complete: each axiom is decided
for every element, pair and triple.  Associativity of a table whose products
all exist with the right range and source is decided on the rows of a
generating set (Light's test; see ``verify_groupoid_axioms``), and any other
table is walked triple by triple.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Hashable, Iterable, NamedTuple

from .validation import StructuralError, ValidationReport, Violation, json_int, report_from

El = Hashable


class _Index(NamedTuple):
    """Integer index of a finite groupoid: each element's position in
    ``elements``, and for each range (source) value the positions of the
    elements with that range (source), in element order.  Values outside the
    elements get buckets like any other, so lookups never raise."""

    position: dict[El, int]
    by_range: dict[El, list[int]]
    by_source: dict[El, list[int]]


class RowTable(Mapping):
    """A read-only composition table on element positions: ``rows[i][j] = k``
    means ``elements[i]·elements[j] = elements[k]``, and ``position`` maps
    each element to its index.  It reads like the dict {(g, h): gh} it
    replaces; iteration runs row by row, each row in insertion order."""

    __slots__ = ("elements", "position", "rows")

    def __init__(
        self, elements: tuple[El, ...], position: Mapping[El, int], rows: list[dict[int, int]]
    ):
        self.elements = elements
        self.position = position
        self.rows = rows

    def __getitem__(self, pair):
        if isinstance(pair, tuple) and len(pair) == 2:
            pos = self.position
            try:
                return self.elements[self.rows[pos[pair[0]]][pos[pair[1]]]]
            except (KeyError, TypeError):  # a missing pair or an unhashable id
                pass
        raise KeyError(pair)

    def __iter__(self):
        els = self.elements
        for g, row in zip(els, self.rows):
            for j in row:
                yield (g, els[j])

    def __len__(self) -> int:
        return sum(map(len, self.rows))


@dataclass(frozen=True)
class FiniteGroupoid:
    elements: tuple[El, ...]
    units: frozenset
    range_map: Mapping[El, El]
    source_map: Mapping[El, El]
    composition: Mapping[tuple[El, El], El]
    inverse_map: Mapping[El, El]

    def __post_init__(self):
        eset = set(self.elements)
        if len(eset) != len(self.elements):
            raise StructuralError("duplicate elements")
        if not self.units <= eset:
            raise StructuralError("units not contained in elements")
        for m, name in (
            (self.range_map, "range"),
            (self.source_map, "source"),
            (self.inverse_map, "inverse"),
        ):
            if set(m) != eset:
                raise StructuralError(f"{name} map not total on elements")

    def r(self, g: El) -> El:
        return self.range_map[g]

    def s(self, g: El) -> El:
        return self.source_map[g]

    def inv(self, g: El) -> El:
        return self.inverse_map[g]

    def mul(self, g: El, h: El) -> El:
        return self.composition[(g, h)]

    def composable(self, g: El, h: El) -> bool:
        return self.s(g) == self.r(h)

    @cached_property
    def _index(self) -> _Index:
        """Built on first use: a groupoid that is only constructed and
        serialized never pays for it."""
        by_range: dict[El, list[int]] = {}
        by_source: dict[El, list[int]] = {}
        for i, g in enumerate(self.elements):
            by_range.setdefault(self.range_map[g], []).append(i)
            by_source.setdefault(self.source_map[g], []).append(i)
        if _row_table_over(self.composition, self.elements):
            position = self.composition.position
        else:
            position = {g: i for i, g in enumerate(self.elements)}
        return _Index(position, by_range, by_source)

    def elements_with_source(self, u: El) -> tuple[El, ...]:
        return tuple(self.elements[i] for i in self._index.by_source.get(u, ()))

    def __len__(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        key = {g: repr(g) for g in self.elements}
        return {
            "elements": [key[g] for g in self.elements],
            "units": sorted(key[u] for u in self.units),
            "range": {key[g]: key[self.r(g)] for g in self.elements},
            "source": {key[g]: key[self.s(g)] for g in self.elements},
            "inverse": {key[g]: key[self.inv(g)] for g in self.elements},
            "compose": sorted(
                [key[g], key[h], key[k]] for (g, h), k in self.composition.items()
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
    return FiniteGroupoid(
        tuple(elements),
        frozenset(units),
        dict(range_map),
        dict(source_map),
        dict(composition),
        dict(inverse_map),
    )


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
    objects or whose names are not strings is refused."""
    try:
        elements = tuple(_revive(g) for g in data["elements"])
        units = frozenset(_revive(u) for u in data["units"])
        rng = {_revive(g): _revive(u) for g, u in data["range"].items()}
        src = {_revive(g): _revive(u) for g, u in data["source"].items()}
        inv = {_revive(g): _revive(u) for g, u in data["inverse"].items()}
        comp = {(_revive(g), _revive(h)): _revive(k) for g, h, k in data["compose"]}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise StructuralError(f"malformed groupoid dump: {exc}") from exc
    return build_groupoid(elements, units, rng, src, comp, inv)


def _row_table_over(comp: Mapping, elements: tuple[El, ...]) -> bool:
    """Whether ``comp`` is a ``RowTable`` over exactly ``elements``, so that
    its positions and rows can be used as they are."""
    return isinstance(comp, RowTable) and comp.elements == elements


def _table_rows(
    G: FiniteGroupoid, code: dict, rng: list[int], src: list[int], partners: list
) -> tuple[list[dict[int, int]], list[tuple[El, El]]]:
    """The composition table as integer rows, ``rows[c][d] = e``, with one
    row for every code in ``code``, and the pairs it holds that are not
    composable, in table order.  A ``RowTable`` over the same elements hands
    its rows over; any other mapping is encoded in one pass, in which ids
    outside the elements get new codes."""
    els = G.elements
    n = len(els)
    comp = G.composition
    loose: list[tuple[El, El]] = []
    if _row_table_over(comp, els):
        rows = comp.rows
        allowed: dict[int, set[int]] = {}
        for i, row in enumerate(rows):
            ok = allowed.get(src[i])
            if ok is None:
                ok = allowed[src[i]] = set(partners[i])
            if not ok.issuperset(row):
                loose += [(els[i], els[j]) for j in row if j not in ok]
        return rows + [{}] * (len(code) - n), loose
    rows = [{} for _ in els]
    stray: dict[int, dict[int, int]] = {}
    for (g, h), k in comp.items():
        gc = code.setdefault(g, len(code))
        hc = code.setdefault(h, len(code))
        row = rows[gc] if gc < n else stray.setdefault(gc, {})
        row[hc] = code.setdefault(k, len(code))
        if gc >= n or hc >= n or src[gc] != rng[hc]:
            loose.append((g, h))
    rows += [stray.get(c, {}) for c in range(n, len(code))]
    return rows, loose


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

    Every id is coded as an integer first: elements by their position, and
    ids outside the elements (a stray range, inverse or product) by codes
    from ``len(G.elements)`` on.  The composition table becomes integer rows
    and composable pairs come from the range buckets.  The order of the
    violations does not depend on hashing: products on pairs that are not
    composable come in composition-table order, every other kind in
    element order.

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
    index = G._index
    code = dict(index.position)
    rng = [code.setdefault(G.range_map[g], len(code)) for g in els]
    src = [code.setdefault(G.source_map[g], len(code)) for g in els]
    inv = [code.setdefault(G.inverse_map[g], len(code)) for g in els]
    units = {code[u] for u in G.units}
    bucket = {code[u]: b for u, b in index.by_range.items()}
    partners = [bucket.get(s, ()) for s in src]
    rows, loose = _table_rows(G, code, rng, src, partners)

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

    for pair in loose:
        v.append(Violation("composition only on s(g)=r(h)", f"pair {pair!r}"))

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


def isotropy_group(G: FiniteGroupoid, u: El) -> frozenset:
    """All g with r(g) = s(g) = u; trivial for principal groupoids."""
    if u not in G.units:
        raise ValueError(f"{u!r} is not a unit")
    return frozenset(g for g in G.elements_with_source(u) if G.r(g) == u)


def orbit(G: FiniteGroupoid, u: El) -> frozenset:
    """The orbit r(G_u) of a unit."""
    if u not in G.units:
        raise ValueError(f"{u!r} is not a unit")
    return frozenset(map(G.r, G.elements_with_source(u)))


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
    elements = tuple((0, g) for g in G1.elements) + tuple((1, g) for g in G2.elements)
    units = frozenset({(0, u) for u in G1.units} | {(1, u) for u in G2.units})
    rng = {(t, g): (t, (G1 if t == 0 else G2).r(g)) for (t, g) in elements}
    src = {(t, g): (t, (G1 if t == 0 else G2).s(g)) for (t, g) in elements}
    comp = {}
    for (g, h), k in G1.composition.items():
        comp[((0, g), (0, h))] = (0, k)
    for (g, h), k in G2.composition.items():
        comp[((1, g), (1, h))] = (1, k)
    inv = {(t, g): (t, (G1 if t == 0 else G2).inv(g)) for (t, g) in elements}
    return build_groupoid(elements, units, rng, src, comp, inv)


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
        v = []
        G = self.groupoid
        for (g, h), k in G.composition.items():
            if self.values[k] != self.values[g] + self.values[h]:
                v.append(Violation("c(gh) = c(g) + c(h)", f"pair {(g, h)!r}"))
        for u in G.units:
            if self.values[u] != 0:
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
        for u in G.units:
            if a[u] not in G.units:
                v.append(Violation("units preserved", f"unit {u!r}"))
        for g in G.elements:
            if a[G.r(g)] != G.r(a[g]):
                v.append(Violation("r equivariance", f"element {g!r}"))
            if a[G.s(g)] != G.s(a[g]):
                v.append(Violation("s equivariance", f"element {g!r}"))
            if a[G.inv(g)] != G.inv(a[g]):
                v.append(Violation("inverse equivariance", f"element {g!r}"))
        for (g, h), k in G.composition.items():
            if G.composition.get((a[g], a[h])) != a[k]:
                v.append(Violation("multiplicativity", f"pair {(g, h)!r}"))
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
