"""Independent brute-force oracles shared across the test suite.

Everything here recomputes expected values from first principles (path
enumeration, germ membership, orbit walking) without touching the code
paths under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from groupoid_forge.graph_groupoid import BasicBisection, BisectionSum
from groupoid_forge.graph_model import Edge, path_from_edges, vertex_path
from groupoid_forge.groupoid_core import build_groupoid
from groupoid_forge.rank2_diagrams import Rank2Diagram
from groupoid_forge.validation import ValidationReport, Violation, report_from


def all_words(graph, anchor, max_len: int, edge_bound=None):
    """Every path word with the given range, lengths 0..max_len, by direct
    recursive extension (independent of enumerate_paths)."""
    words = [vertex_path(anchor)]
    frontier = [vertex_path(anchor)]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            if edge_bound is not None:
                outgoing = graph.edges_with_range(w.source_vertex, edge_bound)
            else:
                outgoing = graph.edges_with_range(w.source_vertex)
            for e in outgoing:
                nxt.append(w.concat(path_from_edges((e,))))
        words.extend(nxt)
        frontier = nxt
    return words


def germ_universe(graph, anchor, max_len: int, edge_bound=None):
    """All candidate germ triples (x, |x|-|y|, y) with word lengths bounded.

    Single-anchor graphs only: every pair of words shares the terminal
    vertex, so every pair is a genuine germ of the shift space.
    """
    words = all_words(graph, anchor, max_len, edge_bound)
    return [
        (x, len(x) - len(y), y)
        for x in words
        for y in words
        if x.source_vertex == y.source_vertex
    ]


def product_member_oracle(a: BasicBisection, b: BasicBisection, candidate) -> bool:
    """Membership of a germ in the set product a.b, decided by factoring
    through a (unique since a is a bisection)."""
    x, p, y = candidate
    if p != a.degree + b.degree:
        return False
    if not a.range_word.is_prefix_of(x):
        return False
    tail = x.edges[len(a.range_word):]
    if tail and tail[0] in a.excluded:
        return False
    middle = a.source_word if not tail else a.source_word.concat(path_from_edges(tail))
    return b.contains_germ((middle, b.degree, y))


def sum_contains(s: BisectionSum, candidate) -> bool:
    return any(p.contains_germ(candidate) for p in s.pieces)


def brute_orbit_length(apply_fn, start) -> int:
    x = apply_fn(start)
    n = 1
    while x != start:
        x = apply_fn(x)
        n += 1
        assert n < 10**6
    return n


def brute_groupoid_axioms(G) -> ValidationReport:
    """The groupoid axioms checked by an n^2 scan over all element pairs and
    tuple-keyed lookups in the composition table (the oracle for
    ``verify_groupoid_axioms``)."""
    v = []
    eset = set(G.elements)

    for u in G.units:
        if G.r(u) != u or G.s(u) != u:
            v.append(Violation("unit fixed by r and s", f"unit {u!r}"))
    for g in G.elements:
        if G.r(g) not in G.units or G.s(g) not in G.units:
            v.append(Violation("r,s land in units", f"element {g!r}"))
        if G.inv(g) not in eset:
            v.append(Violation("inverse closed", f"element {g!r}"))
        elif G.r(G.inv(g)) != G.s(g) or G.s(G.inv(g)) != G.r(g):
            v.append(Violation("r(g^{-1}) = s(g), s(g^{-1}) = r(g)", f"element {g!r}"))

    composable = {(g, h) for g in G.elements for h in G.elements if G.composable(g, h)}
    defined = set(G.composition)
    for pair in defined - composable:
        v.append(Violation("composition only on s(g)=r(h)", f"pair {pair!r}"))
    for pair in composable - defined:
        v.append(Violation("composition total on composable pairs", f"pair {pair!r}"))

    for g, h in composable & defined:
        gh = G.mul(g, h)
        if gh not in eset:
            v.append(Violation("composition closed", f"pair {(g, h)!r}"))
            continue
        if G.r(gh) != G.r(g):
            v.append(Violation("r(gh) = r(g)", f"pair {(g, h)!r}"))
        if G.s(gh) != G.s(h):
            v.append(Violation("s(gh) = s(h)", f"pair {(g, h)!r}"))

    for g in G.elements:
        ru, su = G.r(g), G.s(g)
        if (ru, g) in defined and G.mul(ru, g) != g:
            v.append(Violation("r(g)g = g", f"element {g!r}"))
        if (g, su) in defined and G.mul(g, su) != g:
            v.append(Violation("gs(g) = g", f"element {g!r}"))
        gi = G.inv(g)
        if (gi, g) in defined and G.mul(gi, g) != su:
            v.append(Violation("g^{-1}g = s(g)", f"element {g!r}"))
        if (g, gi) in defined and G.mul(g, gi) != ru:
            v.append(Violation("gg^{-1} = r(g)", f"element {g!r}"))

    # Associativity over all composable triples.
    by_range: dict = {}
    for h in G.elements:
        by_range.setdefault(G.r(h), []).append(h)
    for g in G.elements:
        for h in by_range.get(G.s(g), ()):
            gh = G.composition.get((g, h))
            if gh is None:
                continue
            for k in by_range.get(G.s(h), ()):
                hk = G.composition.get((h, k))
                left = G.composition.get((gh, k))
                right = G.composition.get((g, hk)) if hk is not None else None
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
