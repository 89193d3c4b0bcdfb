#!/usr/bin/env python3
"""Twisted products of finite groupoids: structure maps, complete axiom
verification, isotropy, and the principality criterion.

The cocycle on the first factor twists how the second factor's sources
compose; at finite scale every cocycle vanishes on isotropy, so the product
is principal exactly when both factors are.
"""

from groupoid_forge import (
    full_relation,
    is_principal,
    isotropy_group,
    orbits,
    principality_criterion,
    verify_groupoid_axioms,
    weight_cocycle,
)
from groupoid_forge.groupoid_core import (
    cyclic_group_groupoid,
    cyclic_multiplier_automorphism,
    disjoint_union,
    group_bundle,
    identity_automorphism,
    zero_cocycle,
)
from groupoid_forge.twisted_product import twisted_product

H = full_relation(range(3))
c = weight_cocycle(H, {(i, i): i for i in range(3)})
print("H = full relation on 3 points, cocycle value range:", sorted(c.value_range()))

G = cyclic_group_groupoid(3)
alpha = cyclic_multiplier_automorphism(G, 2)
tw = twisted_product(H, c, G, alpha)
print(f"twisted product: {len(tw.finite_form)} elements,",
      verify_groupoid_axioms(tw.finite_form).describe())

# The cyclic-group factor has nontrivial isotropy, so the product does too.
u = next(iter(tw.finite_form.units))
print("isotropy at a unit:", len(isotropy_group(tw.finite_form, u)), "elements")
print("principal:", is_principal(tw.finite_form))

# A principal G restores principality regardless of the twist.
G2 = full_relation("ab")
from groupoid_forge.groupoid_core import relation_automorphism

alpha2 = relation_automorphism(G2, {"a": "b", "b": "a"})
tw2 = twisted_product(H, c, G2, alpha2)
print("\nwith a principal G:", is_principal(tw2.finite_form))
verdict, details = principality_criterion(H, c, G2, alpha2)
print("criterion agrees:", verdict, details)

# Mixed H: a torsion fiber contributes isotropy that no twist can remove.
H3 = disjoint_union(group_bundle({0: 2}), full_relation(range(2)))
tw3 = twisted_product(H3, zero_cocycle(H3), G2, identity_automorphism(G2))
print("\nbundle-component isotropy:", is_principal(tw3.finite_form),
      "| orbits:", len(orbits(tw3.finite_form)))
