"""Path words, Bratteli diagrams and the parallel-class cycling automorphism.

Conventions (kept throughout the package):

* an edge ``e`` has a *range* vertex ``r(e)`` and a *source* vertex ``s(e)``;
  a path ``p = e_1 ... e_n`` requires ``s(e_i) = r(e_{i+1})``, its range is
  ``r(e_1)`` and its source ``s(e_n)``;
* a Bratteli diagram is leveled: an edge at level ``n`` has its range in
  level ``n`` and its source in level ``n+1``, so paths run downward;
* diagram vertices are pairs ``(level, index)``; diagram edge labels are
  ``(level, range_index, source_index, copy)`` with 0-based copies.

Diagrams carry an explicit horizon.  An optional ``repeat_from`` index
declares an eventually-periodic continuation of the multiplicity matrices;
anything beyond the horizon without that rule is an error, never a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterator, NamedTuple, Sequence

from .matrices import (
    IntMatrix,
    as_matrix,
    capped_level,
    chain_product,
    check_repeat_rule,
    identity,
    repeat_index,
    shape,
)
from .validation import StructuralError, ValidationReport, Violation, json_int, report_from

Vertex = Hashable


class Edge(NamedTuple):
    label: Hashable
    range_vertex: Vertex
    source_vertex: Vertex


@dataclass(frozen=True)
class PathWord:
    """A finite path; the empty path is anchored at a vertex.

    Words are dictionary keys all through the bisection calculus, so the
    hash (the dataclass hash of the fields) is computed on first use and
    kept."""

    edges: tuple[Edge, ...] = ()
    anchor: Vertex | None = None

    _hash = None

    def __post_init__(self):
        if not self.edges and self.anchor is None:
            raise StructuralError("empty path needs an anchor vertex")
        for a, b in zip(self.edges, self.edges[1:]):
            if a.source_vertex != b.range_vertex:
                raise StructuralError(f"edges do not compose: {a} then {b}")
        if self.edges and self.anchor is not None:
            # the anchor is redundant on nonempty paths; normalize so that
            # structural equality of paths is equality of edge sequences
            object.__setattr__(self, "anchor", None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.edges, self.anchor))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def range_vertex(self) -> Vertex:
        return self.edges[0].range_vertex if self.edges else self.anchor

    @property
    def source_vertex(self) -> Vertex:
        return self.edges[-1].source_vertex if self.edges else self.anchor

    def __len__(self) -> int:
        return len(self.edges)

    def concat(self, other: "PathWord") -> "PathWord":
        if self.source_vertex != other.range_vertex:
            raise ValueError(f"paths do not compose: {self} . {other}")
        if not other.edges:
            return self
        return PathWord(self.edges + other.edges, self.anchor)

    def __str__(self) -> str:
        if not self.edges:
            return str(self.anchor)
        return ".".join(str(e.label) for e in self.edges)


def vertex_path(v: Vertex) -> PathWord:
    return PathWord((), v)


def path_from_edges(edges: Sequence[Edge]) -> PathWord:
    return PathWord(tuple(edges))


# ---------------------------------------------------------------------------
# Bratteli diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BratteliDiagram:
    """Leveled multiplicity data.  ``mult[n][i][j]`` is the number of edges
    with range ``(n, i)`` and source ``(n+1, j)``."""

    level_sizes: tuple[int, ...]
    mult: tuple[IntMatrix, ...]
    repeat_from: int | None = None

    def __post_init__(self):
        if not self.level_sizes:
            raise StructuralError("diagram needs at least one level")
        if any(c <= 0 for c in self.level_sizes):
            raise StructuralError("level sizes must be positive")
        if len(self.mult) != len(self.level_sizes) - 1:
            raise StructuralError(
                f"expected {len(self.level_sizes) - 1} multiplicity matrices, "
                f"got {len(self.mult)}"
            )
        for n, m in enumerate(self.mult):
            if shape(m) != (self.level_sizes[n], self.level_sizes[n + 1]):
                raise StructuralError(f"matrix at level {n} has wrong shape")
            if any(x < 0 for row in m for x in row):
                raise StructuralError(f"negative multiplicity at level {n}")
        check_repeat_rule(self.level_sizes, self.repeat_from)

    @property
    def horizon(self) -> int:
        return len(self.level_sizes) - 1

    def has_level(self, n: int) -> bool:
        return 0 <= n and (n <= self.horizon or self.repeat_from is not None)

    def level_size(self, n: int) -> int:
        return self.level_sizes[
            repeat_index(n, len(self.level_sizes), self.horizon, self.repeat_from)
        ]

    def multiplicity_matrix(self, n: int) -> IntMatrix:
        """Matrix for edges between levels ``n`` and ``n+1``."""
        return self.mult[repeat_index(n, len(self.mult), self.horizon, self.repeat_from)]

    def vertices_at(self, n: int) -> tuple[Vertex, ...]:
        return tuple((n, i) for i in range(self.level_size(n)))

    def edges_between(self, n: int) -> tuple[Edge, ...]:
        return tuple(e for v in self.vertices_at(n) for e in self.edges_with_range(v))

    def edges_with_range(self, v: Vertex) -> tuple[Edge, ...]:
        n, i = v
        m = self.multiplicity_matrix(n)
        return tuple(
            Edge((n, i, j, t), (n, i), (n + 1, j))
            for j, k in enumerate(m[i])
            for t in range(k)
        )

    def to_json(self) -> dict:
        edges = []
        for n, m in enumerate(self.mult):
            for i, row in enumerate(m):
                for j, k in enumerate(row):
                    if k:
                        edges.append({"level": n, "range": i, "source": j, "mult": k})
        out = {
            "levels": [{"size": c} for c in self.level_sizes],
            "edges": edges,
        }
        if self.repeat_from is not None:
            out["repeat_from"] = self.repeat_from
        return out


def constant_diagram(k: int, levels: int = 2) -> BratteliDiagram:
    """Single vertex per level, ``k`` parallel edges, repeating forever."""
    return BratteliDiagram(
        tuple(1 for _ in range(levels)),
        tuple(as_matrix([[k]]) for _ in range(levels - 1)),
        repeat_from=0,
    )


def diagram_from_json(data: dict) -> BratteliDiagram:
    try:
        levels = enumerate(data["levels"])
        sizes = tuple(json_int(entry["size"], f"levels.{n}.size") for n, entry in levels)
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"malformed levels: {exc}") from exc
    tables = [[[0] * b for _ in range(a)] for a, b in zip(sizes, sizes[1:])]
    edges = data.get("edges", [])
    if not isinstance(edges, (list, tuple)):
        raise StructuralError(f"edges must be a list of edge entries, got {edges!r}")
    seen, keys = set(), ("level", "range", "source", "mult")
    for e, entry in enumerate(edges):
        try:
            n, i, j, k = (json_int(entry[key], f"edges.{e}.{key}") for key in keys)
            source_level = json_int(entry.get("source_level", n + 1), f"edges.{e}.source_level")
        except (KeyError, TypeError) as exc:
            raise StructuralError(f"malformed edge entry {entry}") from exc
        if source_level != n + 1:
            raise StructuralError(
                f"edge at level {n} must have its source at level {n + 1}"
            )
        if not 0 <= n < len(tables):
            raise StructuralError(f"edge level {n} out of range")
        if not 0 <= i < sizes[n]:
            raise StructuralError(f"range index {i} out of range at level {n}")
        if not 0 <= j < sizes[n + 1]:
            raise StructuralError(f"source index {j} out of range at level {n + 1}")
        if (n, i, j) in seen:
            raise StructuralError(f"duplicate edge entry for {(n, i, j)}")
        seen.add((n, i, j))
        tables[n][i][j] = k
    repeat_from = data.get("repeat_from")
    if repeat_from is not None:
        repeat_from = json_int(repeat_from, "repeat_from")
    return BratteliDiagram(sizes, tuple(as_matrix(t) for t in tables), repeat_from)


def validate_bratteli(d: BratteliDiagram) -> ValidationReport:
    """Check the leveled-graph invariants on the stored data.

    The receiver condition ``r^{-1}(v) != empty`` is checked wherever the
    diagram has the next level (stored or via the repetition rule); a
    truncated final level is not a violation.
    """
    violations = []
    for n in range(len(d.level_sizes)):
        if d.has_level(n + 1):
            m = d.multiplicity_matrix(n)
            for i in range(d.level_size(n)):
                if not any(m[i]):
                    violations.append(
                        Violation(
                            "receiver (vE^1 nonempty: vertex must receive from the "
                            "next level)",
                            f"vertex ({n}, {i})",
                        )
                    )
        if n >= 1:
            prev = d.multiplicity_matrix(n - 1)
            for j in range(d.level_size(n)):
                if not any(prev[i][j] for i in range(len(prev))):
                    violations.append(
                        Violation(
                            "emitter (E^1v nonempty for v outside level 0)",
                            f"vertex ({n}, {j})",
                        )
                    )
    return report_from(violations)


def telescope(d: BratteliDiagram, subsequence: Sequence[int]) -> BratteliDiagram:
    """Collapse levels along ``subsequence``; new multiplicities count paths
    between the chosen levels (product of the intermediate matrices)."""
    if len(subsequence) < 2:
        raise ValueError("subsequence needs at least two levels")
    if subsequence[0] != 0:
        raise ValueError("subsequence must start at level 0")
    if any(a >= b for a, b in zip(subsequence, subsequence[1:])):
        raise ValueError("subsequence must be strictly increasing")
    if not d.has_level(subsequence[-1]):
        raise ValueError("subsequence exceeds the diagram horizon")
    sizes = tuple(d.level_size(t) for t in subsequence)
    mats = tuple(path_count_matrix(d, a, b) for a, b in zip(subsequence, subsequence[1:]))
    return BratteliDiagram(sizes, mats, None)


def path_count_matrix(d: BratteliDiagram, from_level: int, to_level: int) -> IntMatrix:
    """Number of paths between two levels (an adjacency power), up to the cap."""
    if capped_level(to_level) < from_level:
        raise ValueError("to_level must be >= from_level")
    if to_level == from_level:
        return identity(d.level_size(from_level))
    # The tables are (upper level) x (lower level), so the level-to-level
    # product M_from ... M_(to-1) is the chain applied from the deepest level up.
    return chain_product(
        [d.multiplicity_matrix(n) for n in range(to_level - 1, from_level - 1, -1)]
    )


def iter_paths(d: BratteliDiagram, anchor: Vertex, length: int) -> Iterator[PathWord]:
    """The paths of ``length`` edges with range ``anchor``, built lazily.  A
    vertex lists its edges in label order, so extending the prefixes in
    order yields the paths sorted lexicographically by label sequence."""
    if length == 0:
        yield vertex_path(anchor)
        return
    for p in iter_paths(d, anchor, length - 1):
        for e in d.edges_with_range(p.source_vertex):
            yield p.concat(PathWord((e,)))


def enumerate_paths(d: BratteliDiagram, anchor: Vertex, depth: int) -> tuple[PathWord, ...]:
    """All paths of the given length with range ``anchor``, sorted
    lexicographically by edge label sequence."""
    if not isinstance(d, BratteliDiagram):
        raise TypeError(f"enumerate_paths needs a BratteliDiagram, got {type(d).__name__}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    n, i = anchor
    if not (d.has_level(n) and 0 <= i < d.level_size(n)):
        raise ValueError(f"anchor {anchor} not in diagram")
    return tuple(iter_paths(d, anchor, depth))


# ---------------------------------------------------------------------------
# The diagram automorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeCycleAutomorphism:
    """Vertex-fixing diagram automorphism cycling each parallel-edge class:
    the edge copy ``t`` of a ``(level, i, j)`` class with multiplicity ``k``
    maps to copy ``(t + 1) mod k``, so every edge lies on a cycle of length
    k."""

    diagram: BratteliDiagram

    def edge_image(self, e: Edge) -> Edge:
        n, i, j, t = e.label
        t2 = (t + 1) % self.diagram.multiplicity_matrix(n)[i][j]
        return Edge((n, i, j, t2), e.range_vertex, e.source_vertex)

    def cycle_lengths(self, level: int) -> set[int]:
        """The distinct cycle lengths on the edges between ``level`` and
        ``level + 1``: the nonzero multiplicities."""
        return {k for row in self.diagram.multiplicity_matrix(level) for k in row if k}

    def order(self, max_level: int) -> int:
        """lcm of the cycle lengths over levels 0..max_level-1."""
        return math.lcm(*(n for lvl in range(max_level) for n in self.cycle_lengths(lvl)))


def edge_cycle_automorphism(d: BratteliDiagram) -> EdgeCycleAutomorphism:
    """The automorphism fixing every vertex and cycling each parallel class."""
    return EdgeCycleAutomorphism(d)
