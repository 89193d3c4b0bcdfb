"""Deterministic seeded families of small groupoids, cocycles,
automorphisms and rank-2 matrix data, shared by the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from groupoid_forge.convolution_algebra import FiniteConvElement
from groupoid_forge.gaussian import GaussianRational
from groupoid_forge.graph_groupoid import InfiniteBouquet, unit_bisection
from groupoid_forge.groupoid_core import (
    FiniteGroupoid,
    GroupoidAutomorphism,
    cyclic_group_groupoid,
    cyclic_multiplier_automorphism,
    disjoint_union,
    full_relation,
    group_bundle,
    identity_automorphism,
    relation_automorphism,
    weight_cocycle,
    zero_cocycle,
)
from groupoid_forge.rank2_diagrams import Rank2Data
from groupoid_forge.twisted_product import (
    bouquet_twisted_product,
    check_lc,
    contracting_bisection_witness,
)


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def random_h_with_cocycle(rng: random.Random, max_size: int = 24):
    """A finite groupoid with a validated integer cocycle (weight cocycles
    vanish on isotropy, which is the only option on a finite groupoid)."""
    shape = rng.choice(["relation", "two_relations", "bundle_mix", "cyclic"])
    if shape == "relation":
        m = rng.randint(2, 4)
        H = full_relation(range(m))
    elif shape == "two_relations":
        m1, m2 = rng.randint(2, 3), rng.randint(2, 3)
        H = disjoint_union(full_relation(range(m1)), full_relation(range(m2)))
    elif shape == "bundle_mix":
        H = disjoint_union(
            group_bundle({0: rng.randint(2, 3)}), full_relation(range(rng.randint(2, 3)))
        )
    else:
        H = cyclic_group_groupoid(rng.randint(2, 6))
        return H, zero_cocycle(H)
    # drawn in element order, so the draws do not follow the unit set's
    # iteration order
    weights = {u: rng.randint(-3, 3) for u in H.elements if u in H.units}
    return H, weight_cocycle(H, weights)


def random_g_with_automorphism(rng: random.Random, max_size: int = 24):
    """A finite groupoid together with a validated automorphism."""
    shape = rng.choice(["relation", "cyclic", "two_orbits", "swap"])
    if shape == "relation":
        m = rng.randint(2, 4)
        G = full_relation(range(m))
        points = list(range(m))
        rng.shuffle(points)
        return G, relation_automorphism(G, dict(zip(range(m), points)))
    if shape == "cyclic":
        n = rng.randint(2, 6)
        G = cyclic_group_groupoid(n)
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        return G, cyclic_multiplier_automorphism(G, rng.choice(units))
    if shape == "two_orbits":
        m1, m2 = rng.randint(2, 3), rng.randint(2, 3)
        G = disjoint_union(full_relation(range(m1)), full_relation(range(m2)))
        return G, identity_automorphism(G)
    m = rng.randint(2, 3)
    G = disjoint_union(full_relation(range(m)), full_relation(range(m)))
    mapping = {}
    for (tag, g) in G.elements:
        mapping[(tag, g)] = (1 - tag, g)
    return G, GroupoidAutomorphism(G, mapping)


def seeded_twisted_instances(count: int, seed: int, max_size: int = 24):
    rng = rng_for(seed)
    out = []
    while len(out) < count:
        H, c = random_h_with_cocycle(rng, max_size)
        G, alpha = random_g_with_automorphism(rng, max_size)
        if len(H) <= max_size and len(G) <= max_size:
            out.append((H, c, G, alpha))
    return out


def random_gaussian(rng: random.Random) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
    )


def random_conv_element(rng: random.Random, G: FiniteGroupoid):
    support = rng.sample(list(G.elements), k=min(len(G.elements), rng.randint(1, 4)))
    return FiniteConvElement(G, {g: random_gaussian(rng) for g in support})


def seeded_groupoids_for_representation(count: int, seed: int, max_size: int = 12):
    """(groupoid, unit, element, element) quadruples for matrix checks."""
    rng = rng_for(seed)
    out = []
    while len(out) < count:
        shape = rng.choice(["relation", "cyclic", "two"])
        if shape == "relation":
            G = full_relation(range(rng.randint(2, 3)))
        elif shape == "cyclic":
            G = cyclic_group_groupoid(rng.randint(2, 8))
        else:
            G = disjoint_union(
                full_relation(range(2)), cyclic_group_groupoid(rng.randint(2, 4))
            )
        if len(G) > max_size:
            continue
        u = rng.choice(sorted(G.units, key=repr))
        out.append((G, u, random_conv_element(rng, G), random_conv_element(rng, G)))
    return out


def seeded_bouquet_windows(count: int, seed: int, max_index: int = 9, max_len: int = 4):
    """Unit-space basic opens Z(u \\ F) over the bouquet."""
    rng = rng_for(seed)
    bouquet = InfiniteBouquet()
    out = []
    for _ in range(count):
        u = bouquet.path([rng.randint(0, max_index) for _ in range(rng.randint(0, max_len))])
        f_size = rng.choice([0, 1, 1, 2, 3])
        excluded = {bouquet.edge(i) for i in rng.sample(range(max_index + 1), k=f_size)}
        out.append(unit_bisection(u, excluded))
    return out


def seeded_contracting_witnesses(
    count: int, seed: int, edges: int, max_len: int, max_excluded: int
):
    """(model, witness) pairs: the bouquet twisted with a cyclic shift of
    the full relation on 1-3 points, each witness built on a unit window
    Z(u \\ F) x G^0 with the inclusion witness of check_lc."""
    rng = rng_for(seed)
    bouquet = InfiniteBouquet()
    out = []
    for _ in range(count):
        m = rng.randint(1, 3)
        G = full_relation(range(m))
        points = list(range(m))
        alpha = relation_automorphism(G, dict(zip(points, points[1:] + points[:1])))
        model = bouquet_twisted_product(G, alpha)
        u = bouquet.path([rng.randint(0, edges - 1) for _ in range(rng.randint(0, max_len))])
        excluded = frozenset(
            bouquet.edge(i)
            for i in rng.sample(range(edges), k=rng.choice(range(max_excluded + 1)))
        )
        window_g = frozenset(G.units)
        l = check_lc(G, alpha, [window_g]).entries[0].l
        w = contracting_bisection_witness(model, unit_bisection(u, excluded), window_g, l)
        out.append((model, w))
    return out


# ---------------------------------------------------------------------------
# Rank-2 matrix data
# ---------------------------------------------------------------------------

FIGURE = Rank2Data(A=(((3,),), ((4,),)), B=(((1,),), ((2,),)), T=((1,), (3,), (6,)))
CONSTANT2 = Rank2Data(A=(((2,),),), B=(((2,),),), T=((1,), (1,)), repeat_from=0)
CONSTANT3 = Rank2Data(A=(((3,),),), B=(((3,),),), T=((1,), (1,)), repeat_from=0)
FIGURE_TAIL = Rank2Data(
    A=(((3,),), ((4,),), ((2,),)),
    B=(((1,),), ((2,),), ((2,),)),
    T=((1,), (3,), (6,), (6,)),
    repeat_from=2,
)
TWO_CYCLE_ONES = Rank2Data(
    A=(((1, 1), (1, 1)),), B=(((1, 1), (1, 1)),), T=((1, 1), (1, 1)), repeat_from=0
)
# two cycles per level whose T entries differ: A(i,j) T0(j) = B(i,j) T1(i)
TWO_CYCLE_MIXED = Rank2Data(
    A=(((2, 1), (1, 1)), ((1, 1), (1, 2))),
    B=(((1, 1), (1, 2)), ((2, 1), (1, 1))),
    T=((1, 2), (2, 1), (1, 2)),
)


def seeded_compatible_data(seed: int, repeat: bool, orientation: int) -> Rank2Data:
    """Random data with 1-2 cycles per level and T entries in {1, 2, 3}; each
    A entry is a multiple of T_{n+1}(i) / gcd(T_n(j), T_{n+1}(i)), so B_n =
    T_{n+1}^{-1} A_n T_n is integral."""
    rng = random.Random(seed)
    stored = rng.randint(1, 4)
    T = [tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2))) for _ in range(stored + 1)]
    repeat_from = rng.randrange(stored) if repeat else None
    if repeat:
        T[-1] = T[repeat_from]
    A, B = [], []
    for low, high in zip(T, T[1:]):
        a = [[rng.randint(1, 2) * ti // math.gcd(ti, tj) for tj in low] for ti in high]
        A.append(tuple(map(tuple, a)))
        B.append(tuple(tuple(x * tj // ti for x, tj in zip(row, low)) for row, ti in zip(a, high)))
    return Rank2Data(tuple(A), tuple(B), tuple(T), repeat_from, orientation)
