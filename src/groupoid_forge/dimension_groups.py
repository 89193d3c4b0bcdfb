"""Direct limits of integer lattices as ordered groups, at a finite horizon.

Elements are (level, vector) representatives; equality and positivity are
decided by pushing along the connecting matrices.  Verdicts are tri-state:
a No always carries a recorded justification (injectivity of the tail for
equality, properness trapping for positivity), and a horizon exhausted
without a decision is an explicit Unknown, never a silent pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graph_model import BratteliDiagram
from .matrices import (
    IntMatrix,
    IntVector,
    as_matrix,
    capped_level,
    check_repeat_rule,
    diagonal,
    is_injective,
    is_proper,
    mat_vec,
    repeat_index,
    shape,
    transpose,
)
from .rank2_diagrams import CanonicalRank2Diagram, require_valid
from .validation import StructuralError


@dataclass(frozen=True)
class Verdict:
    value: str
    level: int | None = None
    justification: object | None = None

    def __post_init__(self):
        if self.value not in ("yes", "no", "unknown"):
            raise ValueError(f"bad verdict {self.value!r}")
        if self.value == "no" and self.justification is None:
            raise ValueError("a No verdict requires a recorded justification")

    @property
    def is_yes(self) -> bool:
        return self.value == "yes"

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "level": self.level,
            "justification": self.justification,
        }


@dataclass(frozen=True)
class DimensionGroupSpec:
    """Sizes c_n and connecting matrices of shape (c_{n+1}, c_n); an optional
    repetition rule declares an eventually periodic tail."""

    sizes: tuple[int, ...]
    matrices: tuple[IntMatrix, ...]
    repeat_from: int | None = None

    def __post_init__(self):
        if len(self.matrices) != len(self.sizes) - 1:
            raise StructuralError("need one connecting matrix per consecutive pair")
        for n, m in enumerate(self.matrices):
            if shape(m) != (self.sizes[n + 1], self.sizes[n]):
                raise StructuralError(f"matrix {n} has shape {shape(m)}")
            if any(x < 0 for row in m for x in row):
                raise StructuralError("connecting matrices must be nonnegative")
        check_repeat_rule(self.sizes, self.repeat_from)

    @property
    def horizon(self) -> int:
        return len(self.sizes) - 1

    def size(self, n: int) -> int:
        return self.sizes[repeat_index(n, len(self.sizes), self.horizon, self.repeat_from)]

    def matrix(self, n: int) -> IntMatrix:
        return self.matrices[
            repeat_index(n, len(self.matrices), self.horizon, self.repeat_from)
        ]

    def tail_matrices(self, level: int) -> tuple[IntMatrix, ...] | None:
        """The matrices acting from ``level`` on: the stored ones from there
        while ``level`` is stored, then the repeating block; None without a
        repetition rule, when the tail is not known."""
        if self.repeat_from is None:
            return None
        return self.matrices[min(level, self.repeat_from):]


class DimGroupElement(NamedTuple):
    level: int
    vector: IntVector


def dg_push_to_level(
    spec: DimensionGroupSpec, a: DimGroupElement, m: int
) -> DimGroupElement:
    """Representative of the same limit element at a deeper level."""
    if m < a.level:
        raise ValueError("cannot push to a shallower level")
    *_, (level, v) = _pushes(spec, a, m)
    if level < m:
        spec.matrix(level)  # past the stored data with no repetition rule: raises
    return DimGroupElement(m, v)


def _pushes(spec: DimensionGroupSpec, a: DimGroupElement, horizon: int):
    """(level, vector) for ``a`` and for each push of it, down to the horizon
    or the last stored level of data that has no repetition rule, whichever
    comes first; a walk to a level past the cap is refused."""
    if len(a.vector) != spec.size(a.level):
        raise ValueError("vector length does not match its level")
    end = capped_level(horizon if spec.repeat_from is not None else min(horizon, spec.horizon))
    level, v = a
    yield level, v
    while level < end:
        v = mat_vec(spec.matrix(level), v)
        level += 1
        yield level, v


def _unknown(spec: DimensionGroupSpec, level: int, horizon: int) -> Verdict:
    """Unknown at ``level``, naming the horizon the push stopped at."""
    if level >= horizon:
        return Verdict("unknown", level=level, justification="horizon reached")
    return Verdict(
        "unknown",
        level=level,
        justification=f"data horizon reached: no repetition rule past level {spec.horizon}",
    )


def dg_equal(
    spec: DimensionGroupSpec, a: DimGroupElement, b: DimGroupElement, horizon: int
) -> Verdict:
    """Yes when the pushed images coincide at some level within the horizon;
    No when they differ there and every matrix acting from there on is
    injective over Q.  Pushes are linear, so the images coincide exactly
    where the pushed difference a - b is zero.  Each verdict carries the
    level last compared."""
    start = max(a.level, b.level)
    va = dg_push_to_level(spec, a, start).vector
    vb = dg_push_to_level(spec, b, start).vector
    diff = DimGroupElement(start, tuple(x - y for x, y in zip(va, vb)))
    for level, v in _pushes(spec, diff, horizon):
        if not any(v):
            return Verdict("yes", level=level)
    tail = spec.tail_matrices(level)
    if tail is not None and all(is_injective(m) for m in tail):
        return Verdict(
            "no",
            level=level,
            justification={
                "reason": "images differ at the horizon and every repeating tail "
                "matrix has full column rank over Q",
                "tail_matrices": [list(map(list, m)) for m in tail],
            },
        )
    return _unknown(spec, level, horizon)


def dg_is_positive(
    spec: DimensionGroupSpec, a: DimGroupElement, horizon: int
) -> Verdict:
    """Yes when some push is entrywise nonnegative; No when a push is
    entrywise negative and all tail matrices are proper (the image then stays
    entrywise negative forever)."""
    for level, v in _pushes(spec, a, horizon):
        if all(x >= 0 for x in v):
            return Verdict("yes", level=level)
        if all(x < 0 for x in v):
            tail = spec.tail_matrices(level)
            if tail is not None and all(is_proper(m) for m in tail):
                return Verdict(
                    "no",
                    level=level,
                    justification={
                        "reason": "entrywise negative image and proper tail "
                        "matrices keep every later image entrywise negative",
                        "vector": list(v),
                    },
                )
    return _unknown(spec, level, horizon)


# ---------------------------------------------------------------------------
# K-theory data of Bratteli diagrams
# ---------------------------------------------------------------------------


def dimension_group_of(d: BratteliDiagram) -> DimensionGroupSpec:
    """The ordered K0 data of a Bratteli diagram: connecting matrix entries
    (w, v) count the edges from v down to w."""
    return DimensionGroupSpec(
        d.level_sizes,
        tuple(transpose(m) for m in d.mult),
        d.repeat_from,
    )


def k0_vertex_class(d: BratteliDiagram, v) -> DimGroupElement:
    """The class of the vertex projection: the standard basis vector at the
    vertex's level."""
    n, i = v
    size = d.level_size(n)
    if not 0 <= i < size:
        raise ValueError(f"unknown vertex {v!r}")
    return DimGroupElement(n, tuple(1 if j == i else 0 for j in range(size)))


# ---------------------------------------------------------------------------
# K-theory matrices of rank-2 diagrams
# ---------------------------------------------------------------------------


def rank2_k_matrices(
    diagram: CanonicalRank2Diagram,
) -> tuple[tuple[IntMatrix, ...], tuple[IntMatrix, ...], tuple[IntMatrix, ...]]:
    """Read the (A_n, B_n, T_n) matrix data off a rank-2 diagram that
    ``validate_rank2`` passes.

    The count c of a cycle pair gives A(i,j) = c / T_n(j) and B(i,j) =
    c / T_{n+1}(i).  A valid layout makes both divisions exact, so the
    counts do not depend on the representative vertex, and A(i,j) T_n(j) =
    c = T_{n+1}(i) B(i,j) is the compatibility A_n T_n = T_{n+1} B_n.
    """
    require_valid(diagram)
    T_list = [diagonal(sizes) for sizes in diagram.cycle_sizes]
    A_list, B_list = [], []
    for n, counts in enumerate(diagram.counts):
        A = [[c // diagram.cycle_size(n, j) for j, c in enumerate(row)] for row in counts]
        B = [[c // diagram.cycle_size(n + 1, i) for c in row] for i, row in enumerate(counts)]
        A_list.append(as_matrix(A))
        B_list.append(as_matrix(B))
    return tuple(A_list), tuple(B_list), tuple(T_list)
