"""The planners' certificates, read from diagram data alone: orbit freeness
(``check_wfc``, with the shift sweep ``shift_witness_levels`` the AF planner
shares), local contraction on path cylinders (``check_path_lc`` on rank-2
paths, ``af_lc_witness`` off the AF multiplicities) and cofinality
(``minimality_verdict``).

None of them builds a groupoid, so this module imports no finite-groupoid,
bisection, convolution or scalar code.
"""

from __future__ import annotations

from itertools import accumulate, islice, starmap
from math import gcd, lcm
from typing import Callable, Mapping, NamedTuple, Sequence

from .dimension_groups import Verdict
from .graph_model import BratteliDiagram
from .matrices import IntMatrix, mat_mul
from .rank2_diagrams import CanonicalOrders


class WfcCertificate(NamedTuple):
    """Outcome of the bounded orbit-freeness check.

    status is "certificate" or "unknown".  The details are JSON-ready and
    re-verifiable: per-shift witness levels (AF) or open offset classes
    (rank-2, one residue per shift under one modulus) with the bound they
    certify, or the pairs left undecided.
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
    """Orbit freeness of the F^{m_n} automorphism that a rank-2 diagram's
    ``orders`` are.  A collision [x] = [alpha^l(x)] with red offset s
    survives edge level t only when s = l*m_t (mod o) for an edge order o at
    t, so the check runs the order inequality o(e) > n*m_n and these
    congruences over the edge levels 0..``orders.max_edge_level()``, its
    depth.  A shift bound L below 1 certifies nothing: ``ValueError``.

    * ``open_class_per_shift`` gives each shift 1 <= l <= L one residue r,
      0 <= r < M, or null, and ``open_class_modulus`` the one modulus M,
      the lcm of the g_t.  The class r mod M holds every offset s in Z, of
      either sign and any size, that no level witnesses: such an s is
      l*m_t mod g_t at each level t, g_t the gcd of the orders at t, and one
      CRT walk over the levels solves that system.  When each level has one
      order the class is exactly that open set, and null means that every
      offset is witnessed; with several orders at a level it is an outer
      bound.  On constant-2 at depth 5, shift 23's class holds s = 734.
    * The status reads the window 1 <= l <= L, 0 <= s <= L (L is the
      certificate's ``shift_bound``): a certificate when no pair of it is
      open, else ``unknown`` with the open pairs as ``undecided_pairs``.
      Only a class that meets the window is swept, as one int with a bit
      per offset.
    """
    if shift_bound < 1:
        raise ValueError(f"shift bound must be at least 1, got {shift_bound}")
    L = shift_bound
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
    levels = [(orders.m[t], orders.orders_at(t)) for t in range(depth + 1)]
    # The CRT moduli do not depend on l: level t meets the class r mod M of
    # the levels below in r + M*k, k = (l*m_t - r)/d times the inverse of M/d
    # mod g/d, with g = g_t and d = gcd(M, g), and leaves M = lcm(M, g).
    steps, M = [], 1
    for m_t, level_orders in levels:
        g = gcd(*level_orders)
        d = gcd(M, g)
        steps.append((m_t, d, M, pow(M // d, -1, g // d), g // d))
        M = M // d * g
    # combs[o] has the bits 0, o, 2o, ... up to L; shifted to l*m_t mod o it
    # is the progression of window offsets that the order o at t misses
    small = {o for _, level_orders in levels for o in level_orders if o <= L}
    combs = {o: ((1 << o * (L // o + 1)) - 1) // ((1 << o) - 1) for o in small}
    classes, undecided = {}, []
    for l in range(1, L + 1):
        r = 0
        for m_t, d, below, inverse, q in steps:
            a = l * m_t - r
            if a % d:
                r = None
                break
            r += below * (a // d * inverse % q)
        classes[str(l)] = r
        if r is None or r > L:
            continue
        open_ = (1 << (L + 1)) - 1
        for m_t, level_orders in levels:
            missed = 0
            for o in level_orders:
                start = l * m_t % o
                if start <= L:
                    missed |= combs.get(o, 1) << start
            open_ &= missed
        undecided.extend([l, s] for s in range(r, L + 1) if open_ >> s & 1)
    details = {
        "kind": "order-inequality+residue-classes",
        "inequality": inequality,
        "open_class_modulus": M,
        "open_class_per_shift": classes,
    }
    if undecided:
        return certificate("unknown", {**details, "undecided_pairs": undecided})
    return certificate("certificate", details)


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
    closed form from the automorphism's cycle lengths: on a rank-2 path under
    the F^{m_n} automorphism, the lcm of o/gcd(o, m_n) over its blue edges.
    The AF sample under parallel-class cycling is ``af_lc_witness``, which
    reads the same rule off the multiplicities with no path built."""
    return LcWitness(tuple(LcEntry(p, alpha.orbit_length(p)) for p in paths))


def af_lc_witness(
    size: int, multiplicity: Callable[[int], IntMatrix], count: int = 40
) -> LcWitness:
    """The LC witness of parallel-class cycling on a Bratteli diagram with
    ``size`` vertices at level 0 and level-n multiplicity matrix
    ``multiplicity(n)``: the AF plan's ``lc`` block (of its telescoped
    diagram) and ``forge certify lc``.

    The sample is the first ``count`` paths of length at most 2 from level 0:
    the level-0 vertices in order, below each its empty path, then its paths
    of length 1 and 2, each length in label order.  Under the cycling, copy t
    of a class of k parallel edges goes to copy t + 1 mod k, so a path's
    entry is the lcm of the class sizes along it (1 for an empty path).
    Each entry's element is the path's text, labels joined by ``.``.  The
    level-1 matrix is read only when the sample first reaches a path of
    length 2, so a diagram that ends at level 1 is refused only then."""

    def sample():
        for i in range(size):
            yield f"(0, {i})", 1
            row = enumerate(multiplicity(0)[i])
            # past ``count`` length-1 paths the sample ends among them
            ones = ((f"(0, {i}, {j}, {t})", j, k) for j, k in row for t in range(k))
            ones = list(islice(ones, count))
            yield from ((text, k) for text, _, k in ones)
            second = multiplicity(1) if ones else ()
            for text, j, k in ones:
                for j2, k2 in enumerate(second[j]):
                    l = lcm(k, k2)
                    for t in range(k2):
                        yield f"{text}.(1, {j}, {j2}, {t})", l

    return LcWitness(tuple(starmap(LcEntry, islice(sample(), count))))


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
