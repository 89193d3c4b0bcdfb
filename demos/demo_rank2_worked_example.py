#!/usr/bin/env python3
"""A rank-2 diagram worked end to end: red cycles, blue edges, the
factorization permutation, edge orders and the power automorphism.

The data: a single vertex at level 0 (a red loop), a red 3-cycle at level 1
receiving three blue edges, and a red 6-cycle at level 2 sending twelve blue
edges up -- so the two blue orders are 3 and 12.
"""

from groupoid_forge import (
    Rank2Data,
    canonical_rank2,
    rank2_automorphism,
    rank2_k_matrices,
    validate_rank2,
)
from groupoid_forge.rank2_diagrams import Rank2Path, compose_paths, path_source

data = Rank2Data(
    A=(((3,),), ((4,),)),
    B=(((1,),), ((2,),)),
    T=((1,), (3,), (6,)),
)
diagram = canonical_rank2(data, 3)
print("levels (cycle sizes):", diagram.cycle_sizes)
print("blue edges:", diagram.blue_count())
print("validation:", validate_rank2(diagram).describe())

# The orders are the power automorphism too; rank2_automorphism returns
# them once validate_rank2 passes the layout, which makes it well defined.
orders = rank2_automorphism(diagram)
print("\nblue-edge orders at level 0:", orders.orders_at(0))
print("blue-edge orders at level 1:", orders.orders_at(1))
print("level lcms:", orders.level_lcm)
print("m recursion (m_{n+1} = m_n + n * O_n):", orders.m)

A, B, T = rank2_k_matrices(diagram)
print("\ncounted matrix data: A =", A, " B =", B, " T =", T)
print("compatibility A_n T_n = T_(n+1) B_n:",
      all(A[n][0][0] * T[n][0][0] == T[n + 1][0][0] * B[n][0][0] for n in range(2)))

# Walking the factorization permutation around a level-1 blue edge returns
# after exactly its order; the range vertex already returns after each lcm.
e = next(diagram.blue_labels_at(1))
print(f"\norbit of {e}:")
for k in [1, 3, 12]:
    moved = orders.f_power(e, k)
    print(f"  F^{k}: {moved}, range {diagram.blue_ends(moved)[0]}")

print("\nautomorphism powers per level (m_n):", orders.m)
print("level-0 and level-1 blue edges are fixed (m = 0):",
      all(orders.blue_image(x) == x for x in diagram.blue_labels_at(0)))

# Blue-red normal form: a red segment crossing a blue edge twists it by F.
# Anchor the degree-1 red segment so its source meets the blue edge's range.
red = Rank2Path((), 1, diagram.red_walk(diagram.blue_ends(e)[0], 1))
crossed = compose_paths(diagram, orders, red, Rank2Path((e,), 0))
print("\nred then blue normalizes to blue", crossed.blue[0],
      "then red of degree", crossed.red_degree)
print("source of the composite:", path_source(diagram, crossed))
