"""Epsilon duality and the divergence-type codifferential.

The volume tensor pairs degrees p and (N-1)D - p column by column. The
codifferential contracts one derivative into the rightmost tall column;
on each degree it is a fixed rational multiple of conjugating the
differential by the duality, and those constants are solved exactly.
"""

import random

from ncomplex import (
    block_dim,
    delta,
    dual_star_field,
    epsilon_power,
    random_field,
    star_relation_constants,
)
from ncomplex.fields import star_inverse_field

print("volume power at order 3 over the plane:", epsilon_power(3, 2).data)

rng = random.Random(2)
print("\nduality swaps degrees p and 4 - p (order 3, plane):")
for p in range(0, 5):
    F = random_field(3, 2, p, 1, rng)
    G = dual_star_field(F)
    print(f"  degree {p} (dim {block_dim(3, 2, p, 1)}) -> degree {G.p} "
          f"(dim {block_dim(3, 2, G.p, 1)}), variance {F.variance} -> {G.variance}")

F = random_field(3, 2, 3, 2, rng, "contra")
print("\nduality round trip recovers the field:",
      dual_star_field(star_inverse_field(F)) == F)

cs = star_relation_constants(3, 2)
print("\ncodifferential vs conjugated differential, per degree:")
for n, c in cs.items():
    print(f"  degree {n}: delta = {c} * (star d star^-1)")

T = random_field(3, 2, 2, 0, rng, "contra")
print("\ncodifferential of a constant field vanishes:", delta(T).is_zero)
