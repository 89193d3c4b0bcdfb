"""The infinite bouquet's groupoid: basic bisections and their exact calculus.

A basic compact open bisection ``Z((a, b) \\ F)`` collects the germs
``(a.t, |a|-|b|, b.t)`` over all tails ``t`` whose first edge avoids the
finite excluded set ``F``.  Products, intersections and differences of such
sets are decided purely by prefix comparison of the words involved, with
exclusion sets propagated; no infinite path is ever materialized.

The one graph here is the *infinite bouquet*: one vertex with countably
many loops.  Its path space has every finite path as a unit, so the empty
tail is always admissible; all word-level reasoning below includes the
empty tail, which is exact for the bouquet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from .graph_model import Edge, PathWord, path_from_edges, vertex_path
from .validation import StructuralError

# ---------------------------------------------------------------------------
# The infinite bouquet (one vertex, loops e_0, e_1, ...)
# ---------------------------------------------------------------------------

BOUQUET_VERTEX = "v"


class InfiniteBouquet:
    """The vertex BOUQUET_VERTEX with lazily indexed loop edges e_i, i in N.

    The receiver set of the vertex is infinite, so every finite path is a
    unit of the associated groupoid.
    """

    def edge(self, i: int) -> Edge:
        if i < 0:
            raise ValueError("edge index must be nonnegative")
        return Edge(i, BOUQUET_VERTEX, BOUQUET_VERTEX)

    def path(self, indices: Sequence[int]) -> PathWord:
        if not indices:
            return vertex_path(BOUQUET_VERTEX)
        return path_from_edges([self.edge(i) for i in indices])

    def unit(self) -> PathWord:
        return vertex_path(BOUQUET_VERTEX)


# ---------------------------------------------------------------------------
# Basic bisections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasicBisection:
    """Z((range_word, source_word) \\ excluded); the degree |range_word| -
    |source_word| is kept from construction."""

    range_word: PathWord
    source_word: PathWord
    excluded: frozenset = frozenset()
    degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.range_word.source_vertex != self.source_word.source_vertex:
            raise StructuralError("bisection words must share their source vertex")
        for e in self.excluded:
            if e.range_vertex != self.range_word.source_vertex:
                raise StructuralError(
                    "excluded edges must extend the shared source vertex"
                )
        object.__setattr__(
            self, "degree", len(self.range_word.edges) - len(self.source_word.edges)
        )

    def inverse(self) -> "BasicBisection":
        return BasicBisection(self.source_word, self.range_word, self.excluded)

    def is_unit_set(self) -> bool:
        return self.range_word == self.source_word

    def range_set(self) -> "BasicBisection":
        return BasicBisection(self.range_word, self.range_word, self.excluded)

    def source_set(self) -> "BasicBisection":
        return BasicBisection(self.source_word, self.source_word, self.excluded)


def unit_bisection(word: PathWord, excluded: Iterable[Edge] = ()) -> BasicBisection:
    """Z(u \\ F) viewed inside the groupoid (a unit-space basic open)."""
    return BasicBisection(word, word, frozenset(excluded))


# A bouquet piece as edge labels (range word, source word, excluded edges).
Labels = tuple[tuple[int, ...], tuple[int, ...], frozenset]
_LABEL = itemgetter(0)  # an edge's label


def bouquet_labels(b: BasicBisection) -> Labels:
    """The edge labels of a piece of the bouquet.  An edge that is not a
    loop e_i at BOUQUET_VERTEX with i a nonnegative int, or an empty word
    anchored elsewhere, raises StructuralError naming the piece."""
    r, s, x = b.range_word.edges, b.source_word.edges, b.excluded
    for label, head, tail in r + s + tuple(x) if x else r + s:
        if head != BOUQUET_VERTEX or tail != BOUQUET_VERTEX or type(label) is not int or label < 0:
            break
    else:
        if r or s or b.range_word.anchor == BOUQUET_VERTEX:  # two empty words share one anchor
            r, s = r and tuple(map(_LABEL, r)), s and tuple(map(_LABEL, s))  # () passes as it is
            return r, s, x and frozenset(map(_LABEL, x))
    raise StructuralError(f"{render_bisection(b)} is not made of loops at the bouquet vertex")


def bouquet_bisection(labels: Labels) -> BasicBisection:
    """The basic bisection of the bouquet with these edge labels."""
    r, s, f = labels
    bouquet = InfiniteBouquet()
    return BasicBisection(bouquet.path(r), bouquet.path(s), frozenset(map(bouquet.edge, f)))


def label_product(a: Labels, b: Labels) -> Labels | None:
    """The product rule Z((ar, as) \\ af) . Z((br, bs) \\ bf) on labels: equal
    middle words join the exclusions; else one extends the other by a tail
    mu, which must avoid the shorter side's exclusions and extends its outer word."""
    (ar, a_s, af), (br, bs, bf) = a, b
    n, m = len(a_s), len(br)
    if n == m:
        return (ar, bs, af | bf) if a_s == br else None
    if n < m:
        return (ar + br[n:], bs, bf) if br[:n] == a_s and br[n] not in af else None
    return (ar, bs + a_s[m:], af) if a_s[:m] == br and a_s[m] not in bf else None


def bisection_product(a: BasicBisection, b: BasicBisection) -> BasicBisection | None:
    """The exact set product {gh : g in a, h in b, s(g) = r(h)}: a single
    basic bisection or empty (None), by ``label_product``."""
    piece = label_product(bouquet_labels(a), bouquet_labels(b))
    return None if piece is None else bouquet_bisection(piece)


def intersect_basic(a: BasicBisection, b: BasicBisection) -> BasicBisection | None:
    """Intersection of two basic bisections: basic or empty (None).  One
    must extend both words of the other by a tail mu; the meet is that
    deeper one unless mu starts in the other's exclusions."""
    if a.degree != b.degree:
        return None
    for shallow, deep in ((a, b), (b, a)):
        sr, ss = shallow.range_word.edges, shallow.source_word.edges
        dr, ds = deep.range_word.edges, deep.source_word.edges
        mu = dr[len(sr):]
        # an empty range word sits at its anchor, which also places ss
        at = sr or shallow.range_word.anchor == deep.range_word.range_vertex
        if dr == sr + mu and ds == ss + mu and at:
            if not mu:
                return BasicBisection(a.range_word, a.source_word, a.excluded | b.excluded)
            return None if mu[0] in shallow.excluded else deep
    return None


def basic_subset(a: BasicBisection, b: BasicBisection) -> bool:
    """Decide a <= b: exactly when a meets b in all of a."""
    return intersect_basic(a, b) == a


def basic_proper_subset(a: BasicBisection, b: BasicBisection) -> bool:
    return basic_subset(a, b) and not basic_subset(b, a)


def difference_basic(a: BasicBisection, b: BasicBisection) -> tuple[BasicBisection, ...]:
    """a minus b as a finite disjoint list of basic bisections."""
    inter = intersect_basic(a, b)
    if inter is None:
        return (a,)
    if inter == a:
        return ()
    mu = inter.range_word.edges[len(a.range_word.edges):]  # inter lies inside a
    out: list[BasicBisection] = []
    if len(mu) == 0:
        # Same words, excluded set grew: peel the newly excluded edges.
        for e in sorted(inter.excluded - a.excluded):
            out.append(
                BasicBisection(
                    a.range_word.concat(path_from_edges((e,))),
                    a.source_word.concat(path_from_edges((e,))),
                    frozenset(),
                )
            )
        return tuple(out)
    # Tails losing the mu-prefix at each position.
    first = mu[0]
    out.append(BasicBisection(a.range_word, a.source_word, a.excluded | {first}))
    for r in range(1, len(mu)):
        pre = path_from_edges(mu[:r])
        out.append(
            BasicBisection(
                a.range_word.concat(pre),
                a.source_word.concat(pre),
                frozenset({mu[r]}),
            )
        )
    # Full mu-prefix tails that land in the deeper excluded set.
    pre = path_from_edges(mu)
    for e in sorted(inter.excluded):
        out.append(
            BasicBisection(
                a.range_word.concat(pre).concat(path_from_edges((e,))),
                a.source_word.concat(pre).concat(path_from_edges((e,))),
                frozenset(),
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# The cylinder finder
# ---------------------------------------------------------------------------


def find_cylinder_inside(W: BasicBisection) -> PathWord:
    """A word whose full cylinder sits inside the basic open unit set ``W``.

    For ``W = Z(u \\ F)`` over the bouquet: ``u`` itself when ``F`` is empty,
    else ``u.e_n`` with ``n = max{j : e_j in F} + 1``.
    """
    if not W.is_unit_set():
        raise ValueError("find_cylinder_inside expects a unit-space basic open")
    u = W.range_word
    if not W.excluded:
        return u
    indices = [e.label for e in W.excluded]
    if not all(isinstance(i, int) for i in indices):
        raise ValueError("cylinder finder needs integer-indexed edge families")
    n = max(indices) + 1
    fresh = Edge(n, u.source_vertex, u.source_vertex)
    return u.concat(path_from_edges((fresh,)))


def repeat_word(word: PathWord, times: int) -> PathWord:
    """word^times; needs s(word) = r(word) (automatic on the bouquet)."""
    if times < 0:
        raise ValueError("repeat count must be nonnegative")
    out = vertex_path(word.range_vertex)
    for _ in range(times):
        out = out.concat(word)
    return out


# ---------------------------------------------------------------------------
# Text notation
# ---------------------------------------------------------------------------


def render_edge_label(label) -> str:
    if isinstance(label, int):
        return f"e{label}"
    return str(label)


def render_path(p: PathWord) -> str:
    if not p.edges:
        return str(p.range_vertex)
    return ".".join(render_edge_label(e.label) for e in p.edges)


def render_bisection(b: BasicBisection) -> str:
    excl = ""
    if b.excluded:
        labels = sorted(b.excluded, key=lambda e: repr(e.label))
        excl = "∖{" + ",".join(render_edge_label(e.label) for e in labels) + "}"
    if b.is_unit_set():
        return f"Z({render_path(b.range_word)}{excl})"
    return f"Z(({render_path(b.range_word)}, {render_path(b.source_word)}){excl})"
