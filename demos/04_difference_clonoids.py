#!/usr/bin/env python3
"""Wreath products, their difference clonoids, and clonoid images.

Two terms of a wreath product can act identically on the direct product yet
differ by a shift function of the quotient components.  Those shifts form
the difference clonoid; its unary part plus diagonal-vanishing binary part
generate everything, and images of concrete quotient columns reduce to
plain subgroup generators, which is what the membership solver consumes.
"""

from itertools import product

from subpower import (classify_row, clonoid_image_comprep, companion_eval,
                      diff_clonoid_gens, eval_circuit, parse_sexpr,
                      plane_axes, plane_count)
from subpower.catalog import a6, a6_shift, w15

spec = a6()

# --- the same circuit, two readings ------------------------------------------
circuit = parse_sexpr("(m x1 x2 x1)")
args = [(spec.pair(0, 0),), (spec.pair(0, 1),)]
print("in the wreath product:   ", eval_circuit(spec.algebra, circuit, args))
print("in the direct product:   ", companion_eval(spec, circuit, args))
print("(the l-parts differ by the shift value at (0, 1))")

# --- extracted generators -----------------------------------------------------
for name, wspec in (("a6", spec), ("a6+unary-shift", a6_shift()),
                    ("w15", w15())):
    gens = diff_clonoid_gens(wspec)
    print(f"\n{name}: unary generators {gens.unary}")
    print(f"{'':>{len(name)}}  binary generators {gens.binary}")
    print(f"{'':>{len(name)}}  exact (no cap, |companions|^arity "
          f"compositions): {gens.exact}")

# --- plane geometry of quotient rows ------------------------------------------
p = 3
print(f"\nplanes through the diagonal of Z_{p}^3:",
      plane_count(p, 3), "=", plane_axes(p, 3))
for w in [(2, 2, 2), (1, 2, 1), (0, 1, 2)]:
    print(f"row {w} classifies as {classify_row(w, p)}")

# --- images: from function families to subgroup generators --------------------
gens = diff_clonoid_gens(spec)
cols = [(0, 0, 1, 1), (0, 1, 1, 0)]
rows = [tuple(c[i] for c in cols) for i in range(4)]
print("\nquotient columns", cols, "give rows", rows)
image = clonoid_image_comprep(gens, cols)
print("image subgroup generators in Z_3^4:", image.generators)
print("every emitted tuple vanishes on diagonal rows:",
      all(vec[i] == 0
          for tag, vec in image.emitted if tag[0] == "binary"
          for i, r in enumerate(rows) if len(set(r)) == 1))
