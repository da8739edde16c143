#!/usr/bin/env python3
"""Wreath products, their difference clonoids, and clonoid images.

Two terms of a wreath product can act identically on the direct product yet
differ by a shift function of the quotient components.  Those shifts form
the difference clonoid; its unary part plus diagonal-vanishing binary part
generate everything, and images of concrete quotient columns reduce to
plain subgroup generators, which is what the membership solver consumes.
"""

import numpy as np

from subpower import (clonoid_image_comprep, diff_clonoid_gens, eval_circuit,
                      parse_sexpr)
from subpower.catalog import a6, a6_shift, w15

spec = a6()

# --- the same circuit, two readings ------------------------------------------
circuit = parse_sexpr("(m x1 x2 x1)")
args = [(spec.pair(0, 0),), (spec.pair(0, 1),)]
print("in the wreath product:   ", eval_circuit(spec.algebra, circuit, args))
print("in the direct product:   ",
      eval_circuit(spec.companion, circuit, args))
print("(the l-parts differ by the shift value at (0, 1))")

# --- extracted generators -----------------------------------------------------
for name, wspec in (("a6", spec), ("a6+unary-shift", a6_shift()),
                    ("w15", w15())):
    gens = diff_clonoid_gens(wspec)
    print(f"\n{name}: unary generators {gens.unary}")
    print(f"{'':>{len(name)}}  binary generators {gens.binary}")
    print(f"{'':>{len(name)}}  exact (no cap, |companions|^arity "
          f"compositions): {gens.exact}")

# --- rows of quotient columns: the diagonal, or one plane through it ---------
# Z_p^n has (p^(n-1) - 1) / (p - 1) planes through the diagonal, each named
# by its axis (first entry 0, leading nonzero entry 1); an image keeps the
# planes its off-diagonal rows populate
p = 3
rows = [(2, 2, 2), (1, 2, 1), (0, 1, 2), (0, 2, 1)]
image = clonoid_image_comprep(diff_clonoid_gens(w15()),
                              [tuple(r[j] for r in rows) for j in range(3)])
print(f"\nplanes through the diagonal of Z_{p}^3: {(p ** 2 - 1) // (p - 1)}")
axes = dict(zip(image.coords.tolist(), image.planes[image.plane_of].tolist()))
for i, w in enumerate(rows):
    print(f"row {w} lies on", f"the plane of axis {tuple(axes[i])}"
          if i in axes else "the diagonal")

# --- images: from function families to subgroup generators --------------------
gens = diff_clonoid_gens(spec)
cols = [(0, 0, 1, 1), (0, 1, 1, 0)]
rows = [tuple(c[i] for c in cols) for i in range(4)]
print("\nquotient columns", cols, "give rows", rows)
image = clonoid_image_comprep(gens, cols)
# the canonical rows of every block, as tuples of L
canonical = image.touched_rows(np.ones((1, 4 * gens.group.rank)))
print("image subgroup generators in Z_3^4:",
      [tuple(t) for t in gens.group.unembed_array(canonical).tolist()])
print("every emitted tuple vanishes on diagonal rows:",
      all(vec[i] == 0
          for tag, vec in image.emitted if tag[0] == "binary"
          for i, r in enumerate(rows) if len(set(r)) == 1))
