#!/usr/bin/env python3
"""Dimension groups as direct limits at a finite horizon: pushing
representatives, equality and positivity verdicts, and the dyadic example.

Verdicts are tri-state; a No always records why it is safe (injective or
proper tails), and an exhausted horizon is an explicit Unknown.
"""

from fractions import Fraction

from groupoid_forge import (
    DimensionGroupSpec,
    DimGroupElement,
    constant_diagram,
    dg_equal,
    dg_is_positive,
    dg_push_to_level,
    dimension_group_of,
    k0_vertex_class,
    unit_corner_spec,
)
from groupoid_forge.matrices import as_matrix

# The doubling limit: its decided fragment is the dyadic rationals.
spec = DimensionGroupSpec((1, 1), (as_matrix([[2]]),), repeat_from=0)

samples = [(0, 1), (1, 2), (0, 3), (3, 8), (0, -1)]
print("representatives as dyadics:")
for level, value in samples:
    print(f"  level {level}, vector [{value}]  ->  {Fraction(value, 2**level)}")

a, b = DimGroupElement(0, (1,)), DimGroupElement(1, (2,))
print("\n1 == 2/2:", dg_equal(spec, a, b, 10).to_json())
print("1 == 3:", dg_equal(spec, a, DimGroupElement(0, (3,)), 10).to_json())
print("-1 positive?:", dg_is_positive(spec, DimGroupElement(0, (-1,)), 10).to_json())
print("push 1 to level 5:", dg_push_to_level(spec, a, 5))

# A non-injective connecting map identifies representatives at the next level.
collapse = DimensionGroupSpec(
    (2, 1, 1), (as_matrix([[1, 1]]), as_matrix([[1]])), repeat_from=1
)
x, y = DimGroupElement(0, (1, 0)), DimGroupElement(0, (0, 1))
print("\nkernel collapse:", dg_equal(collapse, x, y, 4).to_json())

# Vertex classes of a diagram live in the limit of its counting matrices.
d = constant_diagram(2)
dspec = dimension_group_of(d)
cls = k0_vertex_class(d, (0, 0))
print("\nvertex class:", cls, "positive:", dg_is_positive(dspec, cls, 8).value)
corner = unit_corner_spec(d, 0, [2]).k_class
print("corner class [2] equals [4] one level down:",
      dg_equal(dspec, corner, DimGroupElement(1, (4,)), 8).value)
