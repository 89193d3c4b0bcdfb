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
    """Z((range_word, source_word) \\ excluded).

    The degree |range_word| - |source_word| is kept from construction and
    the hash (the dataclass hash of the fields) from its first use."""

    range_word: PathWord
    source_word: PathWord
    excluded: frozenset = frozenset()
    degree: int = field(init=False, repr=False, compare=False)

    _hash = None

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

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.range_word, self.source_word, self.excluded))
            object.__setattr__(self, "_hash", h)
        return h

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


def _suffix(longer: PathWord, shorter: PathWord) -> tuple[Edge, ...] | None:
    """Edges of ``longer`` past ``shorter`` if ``shorter`` is a prefix."""
    if not shorter.is_prefix_of(longer):
        return None
    return longer.edges[len(shorter.edges):]


def bisection_product(a: BasicBisection, b: BasicBisection) -> BasicBisection | None:
    """The exact set product {gh : g in a, h in b, s(g) = r(h)}.

    Decided by prefix comparison of b's range word against a's source word;
    the result is a single basic bisection or empty (None).  The extended
    word is one ``PathWord`` on the joined edges, which checks every
    consecutive pair; the prefix test has already made the suffix start
    where the word it extends ends.
    """
    mu = _suffix(b.range_word, a.source_word)
    if mu is not None:
        if len(mu) == 0:
            return BasicBisection(a.range_word, b.source_word, a.excluded | b.excluded)
        if mu[0] in a.excluded:
            return None
        return BasicBisection(PathWord(a.range_word.edges + mu), b.source_word, b.excluded)
    nu = _suffix(a.source_word, b.range_word)
    if nu is not None and len(nu) >= 1:
        if nu[0] in b.excluded:
            return None
        return BasicBisection(a.range_word, PathWord(b.source_word.edges + nu), a.excluded)
    return None


def intersect_basic(a: BasicBisection, b: BasicBisection) -> BasicBisection | None:
    """Intersection of two basic bisections: basic or empty (None)."""
    if a.degree != b.degree:
        return None
    for shallow, deep in ((a, b), (b, a)):
        mu_r = _suffix(deep.range_word, shallow.range_word)
        mu_s = _suffix(deep.source_word, shallow.source_word)
        if mu_r is None or mu_s is None or mu_r != mu_s:
            continue
        if len(mu_r) == 0:
            return BasicBisection(a.range_word, a.source_word, a.excluded | b.excluded)
        if mu_r[0] in shallow.excluded:
            return None
        return deep
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
    mu = _suffix(inter.range_word, a.range_word)
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
