"""Rank-2 Bratteli diagrams: red cycles, blue edges, the factorization
permutation, edge orders and the telescoping algorithm.

Vertices are triples ``(level, cycle, position)``.  Each level is a disjoint
union of red cycles; the red edge sourced at position ``p`` ranges at the
cyclic predecessor ``p + orientation``.  Blue edges connect consecutive
levels (range above, source below) and carry the factorization permutation
``F``, which shifts both endpoints to their red predecessors.

The canonical layout built from matrix data (A, B, T) indexes the blue edges
of a cycle pair 0..A(i,j)*T(j)-1, anchors endpoint positions by reduction
mod the cycle lengths and lets F add one; its single F-orbit per cycle pair
gives the order formula o(e) = A(i,j)*T(j) exactly.  There is one diagram
type, ``CanonicalRank2Diagram``, which keeps that layout as one count per
cycle pair; its orders, validation, automorphism and blue skeleton are
computed in closed form.  ``build_rank2`` materializes every blue edge as a
``Rank2Diagram`` record, the reference the closed forms are tested against;
no function here accepts that record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, Sequence

from .graph_model import BratteliDiagram, Edge
from .matrices import (
    IntMatrix,
    as_matrix,
    chain_product,
    check_repeat_rule,
    growth_levels,
    identity,
    is_proper,
    min_entry,
    repeat_index,
    shape,
)
from .validation import StructuralError, ValidationReport, Violation, report_from
from .validation import json_int, json_ints

Vertex = tuple[int, int, int]
BlueLabel = tuple[int, int, int, int]  # (level, range cycle, source cycle, index)


class Rank2Diagram(NamedTuple):
    """The canonical layout with every blue edge stored, as ``build_rank2``
    returns it: ``cycle_sizes`` per level, the blue edges and F as a map
    on their labels.  It checks nothing itself: ``build_rank2`` builds it
    from checked ``Rank2Data``."""

    cycle_sizes: tuple[tuple[int, ...], ...]
    blue: tuple[Edge, ...]
    f_map: Mapping[BlueLabel, BlueLabel]
    orientation: int = 1


@dataclass(frozen=True)
class CanonicalRank2Diagram:
    """The canonical layout of matrix data, one blue-edge count per cycle pair.

    ``cycle_sizes`` holds, per level, the length of each red cycle, and red
    edges step by ``orientation`` (+1 or -1).  ``counts[n][i][j]`` =
    A_n(i,j) * T_n(j) edges join cycle j at level n to cycle i at level n+1.
    They are the labels (n, j, i, k), 0 <= k < count: edge k ranges at
    (n, j, k mod T_n(j)), sources at (n+1, i, k mod T_{n+1}(i)), and F sends
    k to k + orientation mod count -- the diagram ``build_rank2``
    materializes, with no edge stored.  It checks nothing itself:
    ``canonical_rank2`` builds it from checked ``Rank2Data``.
    """

    cycle_sizes: tuple[tuple[int, ...], ...]
    counts: tuple[IntMatrix, ...]
    orientation: int = 1

    def levels(self) -> int:
        return len(self.cycle_sizes)

    def cycle_count(self, n: int) -> int:
        return len(self.cycle_sizes[n])

    def cycle_size(self, n: int, j: int) -> int:
        return self.cycle_sizes[n][j]

    def vertices_at(self, n: int) -> tuple[Vertex, ...]:
        return tuple(
            (n, j, p)
            for j in range(self.cycle_count(n))
            for p in range(self.cycle_size(n, j))
        )

    def red_walk(self, v: Vertex, steps: int) -> Vertex:
        n, j, p = v
        return (n, j, (p + self.orientation * steps) % self.cycle_size(n, j))

    def red_path_source(self, range_vertex: Vertex, degree: int) -> Vertex:
        """Source of the unique red path of the given degree ranging here."""
        return self.red_walk(range_vertex, -degree)

    def pairs_at(self, n: int) -> Iterator[tuple[int, int, int]]:
        """(j, i, count) for each pair of cycles (n, j), (n+1, i) joined by
        blue edges, in the order ``build_rank2`` lays them out."""
        for i, row in enumerate(self.counts[n]):
            for j, c in enumerate(row):
                if c:
                    yield j, i, c

    def blue_labels_at(self, n: int) -> Iterator[BlueLabel]:
        """The labels of the blue edges ranging at level n, in build order."""
        for j, i, c in self.pairs_at(n):
            for k in range(c):
                yield (n, j, i, k)

    def blue_count(self) -> int:
        return sum(c for counts in self.counts for row in counts for c in row)

    def blue_ends(self, label: BlueLabel) -> tuple[Vertex, Vertex]:
        """(range, source) of blue edge (n, j, i, k): (n, j, k mod T_n(j))
        and (n+1, i, k mod T_{n+1}(i)).  An unknown label raises KeyError."""
        n, j, i, k = label
        if not (
            0 <= n < len(self.counts)
            and 0 <= i < len(self.counts[n])
            and 0 <= j < len(self.counts[n][i])
            and 0 <= k < self.counts[n][i][j]
        ):
            raise KeyError(label)
        low, high = self.cycle_size(n, j), self.cycle_size(n + 1, i)
        return (n, j, k % low), (n + 1, i, k % high)


def validate_rank2(d: CanonicalRank2Diagram) -> ValidationReport:
    """Factorization consistency plus the blue-skeleton degree conditions."""
    v: list[Violation] = []
    for n in range(d.levels() - 1):
        for j, i, c in d.pairs_at(n):
            # Only the edge whose F-image wraps round to the other end of the
            # pair can miss its red predecessor, and it does so exactly when
            # the cycle length does not divide the count.
            wrap = (n, j, i, c - 1 if d.orientation == 1 else 0)
            if c % d.cycle_size(n, j):
                v.append(Violation("F shifts the range to its red predecessor", f"edge {wrap}"))
            if c % d.cycle_size(n + 1, i):
                v.append(Violation("F shifts the source to its red predecessor", f"edge {wrap}"))
    # The edges of a pair reach positions 0..count-1 of either cycle, so
    # position p is an endpoint exactly when some count through its cycle
    # exceeds p.
    for n in range(d.levels() - 1):
        reach = [max(column) for column in zip(*d.counts[n])]
        for vertex in d.vertices_at(n):
            if vertex[2] >= reach[vertex[1]]:
                v.append(Violation("blue graph has no sources", f"vertex {vertex}"))
    for n in range(1, d.levels()):
        reach = [max(row) for row in d.counts[n - 1]]
        for vertex in d.vertices_at(n):
            if vertex[2] >= reach[vertex[1]]:
                v.append(Violation("blue sinks only at level 0", f"vertex {vertex}"))
    return report_from(v)


def require_valid(d: CanonicalRank2Diagram) -> CanonicalRank2Diagram:
    """``d`` when ``validate_rank2`` passes it; otherwise a StructuralError
    listing the violations."""
    report = validate_rank2(d)
    if not report.passed:
        raise StructuralError(f"rank-2 layout fails validation:\n{report.describe()}")
    return d


# ---------------------------------------------------------------------------
# Matrix data and the canonical builder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rank2Data:
    """Input sequences: A_n, B_n of shape (c_{n+1}, c_n) and diagonal vectors
    T_n; an optional repetition rule extends them periodically.

    This is the one check of rank-2 input: T is positive, A_n T_n =
    T_{n+1} B_n holds, every stored A_n is nonnegative and proper (so B_n,
    with the signs and zero pattern compatibility gives it, is too, and a
    repetition rule only repeats stored matrices), and the orientation is
    +1 or -1.  Every diagram built from the data may rely on these.
    """

    A: tuple[IntMatrix, ...]
    B: tuple[IntMatrix, ...]
    T: tuple[tuple[int, ...], ...]
    repeat_from: int | None = None
    orientation: int = 1

    def __post_init__(self):
        if len(self.T) != len(self.A) + 1 or len(self.A) != len(self.B):
            raise StructuralError("need T_0..T_N and matching A_0..A_{N-1}, B_0..B_{N-1}")
        if any(t <= 0 for vec in self.T for t in vec):
            raise StructuralError("T must be diagonal with positive entries")
        for n, (a, b) in enumerate(zip(self.A, self.B)):
            want = (len(self.T[n + 1]), len(self.T[n]))
            if shape(a) != want or shape(b) != want:
                raise StructuralError(f"matrices at level {n} must have shape {want}")
            for i in range(want[0]):
                for j in range(want[1]):
                    if a[i][j] * self.T[n][j] != self.T[n + 1][i] * b[i][j]:
                        raise StructuralError(
                            f"compatibility A_n T_n = T_(n+1) B_n fails at "
                            f"level {n}, entry ({i},{j})"
                        )
        check_repeat_rule(self.T, self.repeat_from)
        for n, a in enumerate(self.A):
            if any(x < 0 for row in a for x in row):
                raise StructuralError(f"A_{n} must be nonnegative")
            if not is_proper(a):
                raise StructuralError(f"matrices at level {n} must be proper")
        if self.orientation not in (1, -1):
            raise StructuralError("orientation must be +1 or -1")

    def a_at(self, n: int) -> IntMatrix:
        return self.A[repeat_index(n, len(self.A), len(self.A), self.repeat_from)]

    def t_at(self, n: int) -> tuple[int, ...]:
        return self.T[repeat_index(n, len(self.T), len(self.A), self.repeat_from)]

    def a_chain(self, top: int, bottom: int) -> IntMatrix:
        """A_{top-1} ... A_{bottom} mapping level ``bottom`` to ``top``."""
        if top < bottom:
            raise ValueError("top must be >= bottom")
        if top == bottom:
            return identity(len(self.t_at(bottom)))
        return chain_product([self.a_at(n) for n in range(bottom, top)])

    def to_json(self) -> dict:
        out = {
            "A": [list(map(list, m)) for m in self.A],
            "B": [list(map(list, m)) for m in self.B],
            "T": [list(v) for v in self.T],
            "orientation": "+1" if self.orientation == 1 else "-1",
        }
        if self.repeat_from is not None:
            out["repeat_from"] = self.repeat_from
        return out


def rank2_data_from_json(data: dict) -> tuple[Rank2Data, int | None]:
    """Parse the rank-2 schema; returns the data and the optional horizon hint."""
    try:
        A, B = (tuple(map(as_matrix, json_ints(data[key], key, 3))) for key in "AB")
        T = json_ints(data["T"], "T", 2)
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"malformed rank-2 data: {exc}") from exc
    sign = data.get("orientation", "+1")
    if sign not in ("+1", "-1"):
        raise StructuralError(f"orientation must be '+1' or '-1', got {sign!r}")
    repeat_from, horizon = (
        None if data.get(key) is None else json_int(data[key], key)
        for key in ("repeat_from", "horizon")
    )
    return Rank2Data(A, B, T, repeat_from, 1 if sign == "+1" else -1), horizon


def _cycle_sizes(data: Rank2Data, levels: int) -> tuple[tuple[int, ...], ...]:
    """The red cycle lengths of the canonical layout."""
    if levels < 1:
        raise ValueError("need at least one level")
    return tuple(tuple(data.t_at(n)) for n in range(levels))


def canonical_rank2(data: Rank2Data, levels: int) -> CanonicalRank2Diagram:
    """The canonical diagram for the matrix data, kept per cycle pair."""
    counts = tuple(
        tuple(tuple(a * t for a, t in zip(row, data.t_at(n))) for row in data.a_at(n))
        for n in range(levels - 1)
    )
    return CanonicalRank2Diagram(_cycle_sizes(data, levels), counts, data.orientation)


def build_rank2(data: Rank2Data, levels: int) -> Rank2Diagram:
    """Materialize the canonical diagram for the matrix data.

    Between cycle j at level n and cycle i at level n+1 there are
    A_n(i,j) * T_n(j) blue edges; edge k ranges at position k mod T_n(j),
    sources at position k mod T_{n+1}(i), and F advances k by the
    orientation, cyclically.
    """
    blue: list[Edge] = []
    f_map: dict[BlueLabel, BlueLabel] = {}
    for n in range(levels - 1):
        a = data.a_at(n)
        t_low, t_high = data.t_at(n), data.t_at(n + 1)
        for i in range(len(t_high)):
            for j in range(len(t_low)):
                count = a[i][j] * t_low[j]
                for k in range(count):
                    label: BlueLabel = (n, j, i, k)
                    blue.append(
                        Edge(label, (n, j, k % t_low[j]), (n + 1, i, k % t_high[i]))
                    )
                    f_map[label] = (n, j, i, (k + data.orientation) % count)
    return Rank2Diagram(_cycle_sizes(data, levels), tuple(blue), f_map, data.orientation)


# ---------------------------------------------------------------------------
# Orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalOrders:
    """The order data of a canonical diagram in closed form: the edges of a
    cycle pair form one F-orbit, so each has the pair's count as its order.
    ``level_lcm`` holds the level lcms O_n and ``m`` the recursion m_0 = 0,
    m_{n+1} = m_n + n * O_n.

    The orders are also the order automorphism: blue edges at level n map
    through F^{m_n}, vertices rotate inside their red cycles accordingly,
    and red segments re-anchor by degree.  It is well defined on every
    layout ``validate_rank2`` passes; ``rank2_automorphism`` checks that."""

    diagram: CanonicalRank2Diagram
    level_lcm: tuple[int, ...]
    m: tuple[int, ...]

    @cached_property
    def _level_orders(self) -> Mapping[int, tuple[int, ...]]:
        d = self.diagram
        out = {n: sorted({c for _, _, c in d.pairs_at(n)}) for n in range(d.levels() - 1)}
        return {n: tuple(v) for n, v in out.items() if v}

    def orders_at(self, n: int) -> tuple[int, ...]:
        return self._level_orders.get(n, ())

    def min_order_at(self, n: int) -> int:
        return self._level_orders[n][0]

    def max_edge_level(self) -> int:
        return max(self._level_orders)

    def edge_order(self, label: BlueLabel) -> int:
        n, j, i, _ = label
        return self.diagram.counts[n][i][j]

    def f_power(self, label: BlueLabel, k: int) -> BlueLabel:
        n, j, i, e = label
        return (n, j, i, (e + self.diagram.orientation * k) % self.edge_order(label))

    def blue_image(self, label: BlueLabel) -> BlueLabel:
        return self.f_power(label, self.m[label[0]])

    def orbit_length(self, p: Rank2Path) -> int:
        """The orbit length of a path under F^{m_n}.  It splits the o edges
        of a cycle pair into cycles of length o / gcd(o, m_n), so a path's
        orbit is the lcm of those over its blue edges; a blueless path
        rotates its anchor inside a red cycle of length t, with orbit
        t / gcd(t, m_n).  The red degree is fixed."""
        if not p.blue:
            n, j, _ = p.anchor
            return _cycle_length(self.diagram.cycle_size(n, j), self.m[n])
        return math.lcm(*(_cycle_length(self.edge_order(b), self.m[b[0]]) for b in p.blue))


def compute_orders(d: CanonicalRank2Diagram) -> CanonicalOrders:
    level_lcm = tuple(
        math.lcm(1, *(c for _, _, c in d.pairs_at(n))) for n in range(d.levels() - 1)
    )
    m = [0]
    for n, o in enumerate(level_lcm):
        m.append(m[-1] + n * o)
    return CanonicalOrders(d, level_lcm, tuple(m))


# ---------------------------------------------------------------------------
# Telescoping (subsequence + bound bookkeeping)
# ---------------------------------------------------------------------------


class TelescopeResult(NamedTuple):
    complete: bool
    l_prime: tuple[int, ...]
    l: tuple[int, ...]
    M: tuple[int, ...]
    telescoped: Rank2Data | None
    certificate: tuple[dict, ...]
    source: Rank2Data
    failure: str | None = None

    def to_json(self) -> dict:
        return {
            "complete": self.complete,
            "l_prime": list(self.l_prime),
            "l": list(self.l),
            "M": list(self.M),
            "certificate": list(self.certificate),
            "telescoped": None if self.telescoped is None else self.telescoped.to_json(),
            "source": self.source.to_json(),
            "failure": self.failure,
        }


def telescope_rank2(data: Rank2Data, levels_out: int) -> TelescopeResult:
    """Choose the level subsequence making edge orders outrun the m-recursion.

    Seed levels come from a subsequence along which every entry of the
    chained matrices reaches n; then M_0 = M_1 = 0 and each further level is
    the first whose chained matrix has every entry above (n+1) * M_{n+1},
    where M_{n+1} = M_n + n * prod(A_chain(i,j) * T(j)).  The levels come
    from one ``growth_levels`` search with these bounds, which multiplies
    each chain once; the B chains follow from A_n T_n = T_{n+1} B_n.
    """
    if levels_out < 3:
        raise ValueError("telescoping needs at least three output levels")
    M = [0, 0]

    def bound(step: int, l: list[int], chains: list[IntMatrix]) -> tuple[int, str]:
        if step < 2:
            return step, f">= {step + 1}"
        t_vec = data.t_at(l[step - 1])
        prod = math.prod(a * t for row in chains[-1] for a, t in zip(row, t_vec))
        M.append(M[-1] + (step - 1) * prod)
        return step * M[step], f"> {step * M[step]}"

    l, chains, failure = growth_levels(data.a_at, levels_out, bound)
    certificate = tuple(
        {"step": n, "level": l[n + 1], "min_entry": min_entry(chain), "strict_bound": n * M[n]}
        for n, chain in enumerate(chains)
        if n >= 2
    )
    if failure:
        return TelescopeResult(
            False, tuple(l[:3]), tuple(l), tuple(M), None, certificate, data, failure
        )
    T_out = tuple(tuple(data.t_at(n)) for n in l)
    # A_chain T_low = T_high B_chain with T diagonal, entry by entry
    B_out = tuple(
        tuple(tuple(a * t // top for a, t in zip(row, low)) for row, top in zip(chain, high))
        for chain, low, high in zip(chains, T_out, T_out[1:])
    )
    telescoped = Rank2Data(tuple(chains), B_out, T_out, None, data.orientation)
    return TelescopeResult(True, tuple(l[:3]), tuple(l), tuple(M), telescoped, certificate, data)


def reverify_telescope(result: TelescopeResult) -> bool:
    """Re-check every recorded entry bound from the embedded source data."""
    if not result.complete:
        return False
    data = result.source
    for entry in result.certificate:
        step, nxt, bound = entry["step"], entry["level"], entry["strict_bound"]
        chained = data.a_chain(nxt, result.l[step])
        if min_entry(chained) <= bound:
            return False
        if bound != step * result.M[step]:
            return False
    return True


# ---------------------------------------------------------------------------
# Blue-red paths and the order automorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rank2Path:
    """A path in blue-red normal form: descending blue edges, then a red
    segment given by its degree (the red part is determined by its range
    vertex and degree)."""

    blue: tuple[BlueLabel, ...]
    red_degree: int
    anchor: Vertex | None = None

    def __post_init__(self):
        if not self.blue and self.anchor is None:
            raise StructuralError("a blueless path needs an anchor vertex")
        if self.red_degree < 0:
            raise StructuralError("red degree must be nonnegative")
        if self.blue and self.anchor is not None:
            object.__setattr__(self, "anchor", None)


def path_range(d: CanonicalRank2Diagram, p: Rank2Path) -> Vertex:
    if p.blue:
        return d.blue_ends(p.blue[0])[0]
    return p.anchor


def path_source(d: CanonicalRank2Diagram, p: Rank2Path) -> Vertex:
    last = d.blue_ends(p.blue[-1])[1] if p.blue else p.anchor
    return d.red_path_source(last, p.red_degree)


def make_path(
    d: CanonicalRank2Diagram,
    blue: Sequence[BlueLabel],
    red_degree: int = 0,
    anchor: Vertex | None = None,
) -> Rank2Path:
    for a, b in zip(blue, blue[1:]):
        if d.blue_ends(a)[1] != d.blue_ends(b)[0]:
            raise StructuralError(f"blue edges do not compose: {a} then {b}")
    return Rank2Path(tuple(blue), red_degree, anchor)


def compose_paths(
    d: CanonicalRank2Diagram, orders: CanonicalOrders, p: Rank2Path, q: Rank2Path
) -> Rank2Path:
    """Concatenate in normal form: the leading red part of degree s passes
    through each following blue edge as F^s."""
    if path_source(d, p) != path_range(d, q):
        raise ValueError("paths do not compose")
    shifted = tuple(orders.f_power(label, p.red_degree) for label in q.blue)
    return make_path(
        d,
        p.blue + shifted,
        p.red_degree + q.red_degree,
        anchor=path_range(d, p) if not (p.blue or shifted) else None,
    )


def blue_skeleton(d: CanonicalRank2Diagram):
    """The blue graph as an ordinary leveled diagram (forgetting red data).

    Vertices (n, j, p) flatten to a per-level index; multiplicities count the
    blue edges between vertex pairs.  They follow from the Chinese remainder
    theorem: the count c of a cycle pair with lengths t, u puts c // lcm(t, u)
    edges between positions p and q when p = q mod gcd(t, u), and none
    otherwise; the c mod lcm(t, u) edges left over (none on a layout matrix
    data gives) are added one by one.
    """
    flat_index: dict[Vertex, int] = {}
    sizes = []
    for n in range(d.levels()):
        verts = d.vertices_at(n)
        sizes.append(len(verts))
        for idx, v in enumerate(verts):
            flat_index[v] = idx
    tables = []
    for n in range(d.levels() - 1):
        table = [[0] * sizes[n + 1] for _ in range(sizes[n])]
        for j, i, c in d.pairs_at(n):
            t, u = d.cycle_size(n, j), d.cycle_size(n + 1, i)
            g, (per, left) = math.gcd(t, u), divmod(c, math.lcm(t, u))
            for p in range(t):
                row = table[flat_index[(n, j, p)]]
                for q in range(p % g, u, g):
                    row[flat_index[(n + 1, i, q)]] += per
            for k in range(left):
                table[flat_index[(n, j, k % t)]][flat_index[(n + 1, i, k % u)]] += 1
        tables.append(as_matrix(table))
    return BratteliDiagram(tuple(sizes), tuple(tables), None)


def _cycle_length(size: int, shift: int) -> int:
    """The cycle length of a rotation by ``shift`` on a cycle of ``size``."""
    return size // math.gcd(size, shift)


def rank2_automorphism(d: CanonicalRank2Diagram) -> CanonicalOrders:
    """The orders of ``d``, which are its F^{m_n} automorphism, once
    ``validate_rank2`` passes the layout.

    Well-definedness needs every receiving red cycle's length to divide
    n * O_n, and a valid layout gives it: that length divides the count of
    each pair it receives, and the count divides the level lcm O_n.
    """
    return compute_orders(require_valid(d))
