#!/usr/bin/env python3
"""The groupoid of the infinite bouquet (one vertex, loops e0, e1, ...):
germs, basic bisections, their exact product calculus, and the cylinder
finder.

Every finite path is a unit here, so the word-level calculus with empty
tails is exact; nothing infinite is ever materialized.
"""

from groupoid_forge import (
    BasicBisection,
    InfiniteBouquet,
    bisection_product,
    find_cylinder_inside,
    render_bisection,
    unit_bisection,
)
from groupoid_forge.graph_groupoid import render_path

bq = InfiniteBouquet()
v = bq.unit()


def render_product(a, b):
    """The product of two basic bisections: one basic bisection or empty."""
    piece = bisection_product(a, b)
    return "∅" if piece is None else render_bisection(piece)


# The generator bisections behave like a family of isometries: composing
# the transpose of one against another is diagonal.
for i, j in [(0, 0), (0, 1)]:
    a = BasicBisection(v, bq.path([i]))     # Z(v, e_i)
    b = BasicBisection(bq.path([j]), v)     # Z(e_j, v)
    print(f"Z(v,e{i}) . Z(e{j},v) = {render_product(a, b)}")

# Overlapping words compose by prefix absorption.
a = BasicBisection(bq.path([0, 1]), bq.path([2]))
b = BasicBisection(bq.path([2, 5]), bq.path([7]))
print(f"\n{render_bisection(a)} . {render_bisection(b)} =",
      render_product(a, b))

# Excluded edges survive the product when they constrain the open tail.
a = BasicBisection(bq.path([0]), bq.path([1]), frozenset({bq.edge(3)}))
b = BasicBisection(bq.path([1]), bq.path([2]))
print(f"{render_bisection(a)} . {render_bisection(b)} =",
      render_product(a, b))

# Inside any basic open unit set lives a full cylinder: take the word
# itself, or step past the largest excluded index.
for excl in [(), (0, 2), (5,)]:
    W = unit_bisection(bq.path([4]), {bq.edge(i) for i in excl})
    lam = find_cylinder_inside(W)
    print(f"\nwindow {render_bisection(W)}  ->  cylinder Z({render_path(lam)})")
