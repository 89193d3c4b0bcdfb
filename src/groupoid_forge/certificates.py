"""The planners' certificates, read from diagram data alone: orbit freeness
(``check_wfc``, with the shift sweep ``shift_witness_levels`` the AF planner
shares), local contraction on path cylinders (``check_path_lc``) and
cofinality (``minimality_verdict``).

None of them builds a groupoid, so this module imports no finite-groupoid,
bisection, convolution or scalar code.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

from .dimension_groups import Verdict
from .graph_model import BratteliDiagram
from .matrices import mat_mul
from .rank2_diagrams import CanonicalOrders


class WfcCertificate(NamedTuple):
    """Outcome of the bounded orbit-freeness check.

    status is "certificate" or "unknown".  The details are JSON-ready and
    re-verifiable: per-shift witness levels with the bound they certify, or
    the shifts left undecided.
    """

    status: str
    backend: str
    depth: int
    shift_bound: int
    details: dict

    @property
    def is_certificate(self) -> bool:
        return self.status == "certificate"

    def to_json(self) -> dict:
        return self._asdict()


def shift_witness_levels(shortest_cycle: Mapping[int, int], shift_bound: int) -> dict[int, int]:
    """The witness level of each shift 1..shift_bound of a class-cycling
    automorphism, from the shortest cycle at each level: shift l is witnessed
    by the first level whose shortest cycle exceeds l.  Shifts that no level
    exceeds are left out.  The witness never moves back to an earlier level
    as l grows, so one sweep over the levels assigns every shift."""
    witnesses: dict[int, int] = {}
    l = 1
    for level, shortest in sorted(shortest_cycle.items()):
        while l < shortest and l <= shift_bound:
            witnesses[l] = level
            l += 1
    return witnesses


def check_wfc(orders: CanonicalOrders, shift_bound: int) -> WfcCertificate:
    """Bounded check that orbit collisions [x] = [alpha^l(x)] force l = 0
    on a rank-2 diagram, for the F^{m_n} automorphism its ``orders`` are,
    through the order inequality and bounded congruences at every edge
    level.  It covers shifts 1 <= l <= L and red offsets 0 <= s <= L, L the
    shift bound; negative offsets and offsets past L, such as (23, 734) on
    constant-2 at depth 5, are not checked.  The certificate's depth is the
    last edge level, ``orders.max_edge_level()``.  (The AF planner reads its
    certificate off the growth chains in closed form.)  A shift bound below
    1 certifies nothing and raises ``ValueError``.
    """
    if shift_bound < 1:
        raise ValueError(f"shift bound must be at least 1, got {shift_bound}")
    L = S = shift_bound  # red offsets 0..S are checked for every shift 1..L
    depth = orders.max_edge_level()

    def certificate(status: str, details: dict) -> WfcCertificate:
        return WfcCertificate(status, "rank2", depth, L, details)

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
        return certificate(
            "unknown", {"note": "order inequality o(e) > n*m_n fails", "inequality": inequality}
        )
    # Level t witnesses (l, s) unless s = l*m_t (mod o) for an order o at t,
    # so the offsets a level misses are one arithmetic progression per order.
    # Offsets 0..S are the bits of an int: combs[o] holds the bits 0, o, 2o,
    # ... up to S (a geometric series in 2^o), and shifted to the start
    # l*m_t mod o it is one progression.  open_ holds the offsets no level
    # has witnessed yet; each level takes the open offsets it does not miss.
    levels = [(orders.m[t], orders.orders_at(t)) for t in range(depth + 1)]
    combs = {
        o: ((1 << (o * (S // o + 1))) - 1) // ((1 << o) - 1) if o <= S else 1
        for _, level_orders in levels
        for o in level_orders
    }
    offsets = [str(s) for s in range(S + 1)]
    witness: dict[str, int] = {}
    undecided = []
    for l in range(1, L + 1):
        level_of = [None] * (S + 1)
        open_ = (1 << (S + 1)) - 1
        for t, (m_t, level_orders) in enumerate(levels):
            missed = 0
            for o in level_orders:
                start = l * m_t % o
                if start <= S:
                    missed |= combs[o] << start
            taken = open_ & ~missed
            open_ &= missed
            while taken:
                low = taken & -taken
                level_of[low.bit_length() - 1] = t
                taken ^= low
            if not open_:
                break
        if open_:
            undecided.extend([l, s] for s, t in enumerate(level_of) if t is None)
        elif not undecided:  # the witness map is reported only if none is undecided
            witness.update(zip(map(f"{l},".__add__, offsets), level_of))
    if undecided:
        return certificate("unknown", {"inequality": inequality, "undecided_pairs": undecided})
    return certificate(
        "certificate",
        {
            "kind": "order-inequality+bounded-congruences",
            "inequality": inequality,
            "s_bound": S,
            "witness_level_per_shift_and_red_offset": witness,
        },
    )


class LcEntry(NamedTuple):
    element: object
    l: int


class LcWitness(NamedTuple):
    entries: tuple[LcEntry, ...]

    def to_json(self) -> dict:
        return {
            "entries": [{"element": str(e.element), "l": e.l} for e in self.entries]
        }


def check_path_lc(alpha, paths: Sequence) -> LcWitness:
    """Per path mu of the sample, the least l >= 1 with alpha^{-l}(Z(mu))
    inside the cylinder Z(mu).  That holds exactly when alpha^{-l}(mu) = mu,
    so l is the orbit length of mu, which ``alpha.orbit_length`` reads in
    closed form from the automorphism's cycle lengths: a class-cycling
    automorphism on path words, the F^{m_n} automorphism on rank-2 paths."""
    return LcWitness(tuple(LcEntry(p, alpha.orbit_length(p)) for p in paths))


def minimality_verdict(d: BratteliDiagram, depth: int) -> Verdict:
    """Cofinality of a Bratteli diagram to the requested depth: every level
    below ``depth`` must reach every level-``depth`` vertex.  It answers yes
    or unknown, never no; any other backend raises ``TypeError``."""
    if not isinstance(d, BratteliDiagram):
        raise TypeError(f"unsupported backend {type(d).__name__}")
    # The path counts from level t to ``depth`` are M_t times those from
    # t + 1: one running product from the top, and the lowest short level
    # is named.
    levels = range(depth - 1, -1, -1)
    tops = accumulate(map(d.multiplicity_matrix, levels), lambda above, m: mat_mul(m, above))
    short = [t for t, counts in zip(levels, tops) if not all(map(all, counts))]
    if short:
        return Verdict(
            "unknown",
            justification=f"level {short[-1]} does not reach every level-{depth} vertex",
        )
    return Verdict("yes", justification=f"cofinal at depth {depth}")
