"""Seeded benchmark inputs, built only from public groupoid_forge constructors.

Every generator takes the workload seed and returns plain values; the library
only ever sees what these functions hand it.  Sizes are fixed per workload so
that a seed changes the content of an input, never the amount of work: the
seed picks corner vectors, orientations, permutations, cocycle weights,
supports, coefficients and words, while the ladder of rungs and the size
schedule of the algebra items are the same for every seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from groupoid_forge import (
    BasicBisection,
    GroupoidAutomorphism,
    InfiniteBouquet,
    Rank2Data,
    constant_diagram,
    cyclic_group_groupoid,
    diagram_from_json,
    full_relation,
    gauss,
    group_bundle,
    identity_automorphism,
    unit_bisection,
    weight_cocycle,
    zero_cocycle,
)
from groupoid_forge.groupoid_core import disjoint_union, relation_automorphism

BOUQUET = InfiniteBouquet()


def _rng(seed: int, stream: str) -> random.Random:
    """One independent random stream per input family."""
    return random.Random(f"{seed}:{stream}")


# ---------------------------------------------------------------------------
# Pipeline ladders
# ---------------------------------------------------------------------------


def square_diagram(m) -> object:
    """The stationary two-vertex Bratteli diagram with multiplicity matrix m."""
    return diagram_from_json(
        {
            "levels": [{"size": 2}, {"size": 2}],
            "edges": [
                {"level": 0, "range": i, "source": j, "mult": m[i][j]}
                for i in range(2)
                for j in range(2)
            ],
            "repeat_from": 0,
        }
    )


# Two-by-two matrices with entries in {1, 2}: three equal entries, the odd
# one on the diagonal.  Their plans cost the same within timing noise, so the
# seeded rung changes the diagram but not the size of the pass.
SEEDED_SQUARES = (
    ((1, 1), (1, 2)),
    ((2, 1), (1, 1)),
    ((1, 2), (2, 2)),
    ((2, 2), (2, 1)),
)


def af_ladder(seed: int) -> list[dict]:
    """Rungs of the AF workload: name, diagram, unit class, depth, lbound and
    the status the plan must reach."""
    rng = _rng(seed, "af")
    const2 = constant_diagram(2)
    ones = square_diagram(((1, 1), (1, 1)))
    seeded = rng.choice(SEEDED_SQUARES)
    rungs = [
        ("const2_lb20", const2, 1, 20),
        ("const2_lb40", const2, 1, 40),
        ("const2_lb80", const2, 1, 80),
        ("ones2x2_lb20", ones, 2, 20),
        ("ones2x2_lb40", ones, 2, 40),
        ("seeded2x2_lb20", square_diagram(seeded), 2, 20),
    ]
    out = []
    for name, d, width, lbound in rungs:
        vec = [0] * width
        while not any(vec):
            vec = [rng.randint(0, 3) for _ in range(width)]
        out.append(
            {
                "name": name,
                "diagram": d,
                "unit_class": (0, vec),
                "depth": 5,
                "lbound": lbound,
                "expect": "ok",
            }
        )
    return out


def rank2_ladder(seed: int) -> list[dict]:
    """Rungs of the rank-2 workload.  Two constant rungs certify (`ok`); the
    figure data with a doubling tail and the 2-cycle all-ones data stop at the
    source horizon or the certificate and must come back `unknown`."""
    rng = _rng(seed, "rank2")
    specs = [
        ("const2_d5", (((2,),),), (((2,),),), ((1,), (1,)), 0, 5, "ok"),
        ("const3_d5", (((3,),),), (((3,),),), ((1,), (1,)), 0, 5, "ok"),
        (
            "figure_tail_d3",
            (((3,),), ((4,),), ((2,),)),
            (((1,),), ((2,),), ((2,),)),
            ((1,), (3,), (6,), (6,)),
            2,
            3,
            "unknown",
        ),
        (
            "twocycle_ones_d2",
            (((1, 1), (1, 1)),),
            (((1, 1), (1, 1)),),
            ((1, 1), (1, 1)),
            0,
            2,
            "unknown",
        ),
    ]
    out = []
    for name, A, B, T, repeat_from, depth, expect in specs:
        orientation = rng.choice((1, -1))
        width = len(T[0])
        vec = [0] * width
        while not any(vec):
            vec = [rng.randint(0, 2) for _ in range(width)]
        out.append(
            {
                "name": name,
                "data": Rank2Data(A, B, T, repeat_from=repeat_from, orientation=orientation),
                "unit_class": (0, vec),
                "depth": depth,
                "expect": expect,
            }
        )
    return out


# ---------------------------------------------------------------------------
# Finite layer
# ---------------------------------------------------------------------------

# (shape, size parameters) of H; every H here is at most 18 elements.
H_SCHEDULE = (
    ("relation", 2),
    ("relation", 3),
    ("relation", 4),
    ("two_relations", (2, 3)),
    ("two_relations", (3, 3)),
    ("bundle_mix", (3, 2)),
    ("bundle_mix", (2, 3)),
    ("cyclic", 4),
    ("cyclic", 6),
)
# (shape, size parameters) of G, with its automorphism picked by the seed.
G_SCHEDULE = (
    ("relation", 3),
    ("relation", 4),
    ("cyclic", 5),
    ("cyclic", 6),
    ("two_orbits", (2, 3)),
    ("swap", 2),
    ("swap", 3),
    ("relation", 2),
)
TWISTED_COUNT = 100


def _h_with_cocycle(rng: random.Random, shape: str, size):
    if shape == "relation":
        H = full_relation(range(size))
    elif shape == "two_relations":
        H = disjoint_union(full_relation(range(size[0])), full_relation(range(size[1])))
    elif shape == "bundle_mix":
        H = disjoint_union(group_bundle({0: size[0]}), full_relation(range(size[1])))
    else:
        H = cyclic_group_groupoid(size)
        return H, zero_cocycle(H)
    weights = {u: rng.randint(-3, 3) for u in sorted(H.units, key=repr)}
    return H, weight_cocycle(H, weights)


def _g_with_automorphism(rng: random.Random, shape: str, size):
    if shape == "relation":
        G = full_relation(range(size))
        points = list(range(size))
        rng.shuffle(points)
        return G, relation_automorphism(G, dict(zip(range(size), points)))
    if shape == "cyclic":
        G = cyclic_group_groupoid(size)
        a = rng.choice([a for a in range(1, size) if math.gcd(a, size) == 1])
        return G, GroupoidAutomorphism(G, {k: (a * k) % size for k in G.elements})
    if shape == "two_orbits":
        G = disjoint_union(full_relation(range(size[0])), full_relation(range(size[1])))
        return G, identity_automorphism(G)
    G = disjoint_union(full_relation(range(size)), full_relation(range(size)))
    return G, GroupoidAutomorphism(G, {(tag, g): (1 - tag, g) for (tag, g) in G.elements})


def twisted_instances(seed: int) -> list[tuple]:
    """(H, c, G, alpha) quadruples; the sizes follow the fixed schedules, the
    seed picks cocycle weights, automorphisms and the order of the items."""
    rng = _rng(seed, "twisted")
    out = []
    for i in range(TWISTED_COUNT):
        h_shape, h_size = H_SCHEDULE[i % len(H_SCHEDULE)]
        g_shape, g_size = G_SCHEDULE[(3 * i + i // len(H_SCHEDULE)) % len(G_SCHEDULE)]
        H, c = _h_with_cocycle(rng, h_shape, h_size)
        G, alpha = _g_with_automorphism(rng, g_shape, g_size)
        out.append((H, c, G, alpha))
    rng.shuffle(out)
    return out


REP_SCHEDULE = (
    ("relation", 2),
    ("relation", 3),
    ("cyclic", 5),
    ("cyclic", 8),
    ("mixed", 2),
    ("mixed", 4),
)
REP_COUNT = 100


def _random_gaussian(rng: random.Random):
    return gauss(
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
    )


def representation_pairs(seed: int) -> list[tuple]:
    """(G, unit, xi coefficients, eta coefficients) on groupoids of at most
    12 elements; support sizes follow the schedule, the seed picks the unit,
    the support and the Gaussian-rational coefficients."""
    rng = _rng(seed, "regrep")
    out = []
    for i in range(REP_COUNT):
        shape, size = REP_SCHEDULE[i % len(REP_SCHEDULE)]
        if shape == "relation":
            G = full_relation(range(size))
        elif shape == "cyclic":
            G = cyclic_group_groupoid(size)
        else:
            G = disjoint_union(full_relation(range(2)), cyclic_group_groupoid(size))
        support = 1 + i % 4
        u = rng.choice(sorted(G.units, key=repr))
        coeffs = []
        for _ in range(2):
            picked = rng.sample(list(G.elements), k=min(len(G.elements), support))
            coeffs.append({g: _random_gaussian(rng) for g in picked})
        out.append((G, u, coeffs[0], coeffs[1]))
    return out


# ---------------------------------------------------------------------------
# Bouquet symbolic layer
# ---------------------------------------------------------------------------

TRIPLE_COUNT = 100
PIECES_PER_ELEMENT = 8
WINDOW_COUNT = 100
WITNESS_COUNT = 50


def shift_model_parts(m: int):
    """G = full relation on m points with the cyclic shift of the points."""
    G = full_relation(range(m))
    points = list(range(m))
    return G, relation_automorphism(G, dict(zip(points, points[1:] + points[:1])))


def _word(rng: random.Random, max_index: int, max_len: int):
    return BOUQUET.path([rng.randint(0, max_index) for _ in range(rng.randint(0, max_len))])


def symbolic_triples(seed: int) -> list[tuple]:
    """(points, [pieces of x, y, z]) with 8 (bisection, g) -> coefficient
    pieces per element over the shift model on 2 or 3 points (alternating).

    How the pieces overlap sets the work (canonical_pieces scans for
    overlaps), so the word and G-element pattern of each triple comes from a
    fixed stream, and the seed applies an isomorphism to it: a permutation of
    the edge labels 0..2 and a rotation of the points, which commutes with
    the shift.  The seed also picks every coefficient.
    """
    shapes = _rng(0, "triple-shapes")
    rng = _rng(seed, "triples")
    out = []
    for i in range(TRIPLE_COUNT):
        m = 2 + i % 2
        relabel = rng.sample(range(3), 3)
        turn = rng.randrange(m)

        def word():
            letters = [shapes.randint(0, 2) for _ in range(shapes.randint(0, 2))]
            return BOUQUET.path([relabel[x] for x in letters])

        elements = []
        for _ in range(3):
            pieces = {}
            while len(pieces) < PIECES_PER_ELEMENT:
                bisection = BasicBisection(word(), word())
                a, b = shapes.randrange(m), shapes.randrange(m)
                key = (bisection, ((a + turn) % m, (b + turn) % m))
                if key not in pieces:
                    pieces[key] = gauss(rng.randint(-2, 2) or 1, rng.randint(-1, 1))
            elements.append(pieces)
        out.append((m, elements))
    return out


def bouquet_windows(seed: int) -> list:
    """Unit-space basic opens Z(u minus F) over the bouquet."""
    rng = _rng(seed, "windows")
    out = []
    for _ in range(WINDOW_COUNT):
        u = _word(rng, 9, 4)
        f_size = rng.choice([0, 1, 1, 2, 3])
        excluded = {BOUQUET.edge(i) for i in rng.sample(range(10), k=f_size)}
        out.append(unit_bisection(u, excluded))
    return out


def witness_windows(seed: int) -> list[tuple]:
    """(points, H-window) pairs for contracting-bisection witnesses."""
    rng = _rng(seed, "witnesses")
    out = []
    for i in range(WITNESS_COUNT):
        u = _word(rng, 8, 4)
        f_size = rng.choice([0, 1, 2, 3])
        excluded = frozenset(BOUQUET.edge(j) for j in rng.sample(range(9), k=f_size))
        out.append((1 + i % 3, unit_bisection(u, excluded)))
    return out

