#!/usr/bin/env python3
"""Elimination over finite abelian groups and affine closure.

Subgroups of L^k sit inside (Z_m)^(k s) after embedding each cyclic factor
into the exponent m.  A Howell-style echelon (annihilator rows included)
makes membership, kernels, and per-coordinate fork subgroups exact even
over non-prime moduli, and every membership answer carries coefficients
that recombine to the target on the nose.
"""

import numpy as np

from subpower import (AbelianGroupSpec, Echelon, subgroup_member,
                      subpower_closure, verify_affine)
from subpower.affine import affine_span, coset_compact_rep
from subpower.catalog import zmod_algebra

# --- subgroup membership with witnesses -------------------------------------
g4 = AbelianGroupSpec((4,))
ok, coeffs = subgroup_member(g4, [(2, 0), (0, 2)], (2, 2))
print("(2,2) in <(2,0),(0,2)> over Z_4:", ok, "coefficients", coeffs)
print("(1,0) in the same subgroup:", subgroup_member(g4, [(2, 0), (0, 2)],
                                                     (1, 0))[0])

g6 = AbelianGroupSpec((6,))
print("<2> in Z_6 contains 4:", subgroup_member(g6, [(2,)], (4,))[0],
      " contains 3:", subgroup_member(g6, [(2,)], (3,))[0])

# Annihilator rows at work: (2,1) over Z_4 spans a subgroup whose second
# coordinate can move while the first stays put.
ech = Echelon(4, 2)
ech.insert(np.array([2, 1]))
ech.canonicalize()
print("\nHowell rows for <(2,1)> over Z_4:",
      [tuple(int(v) for v in r) for r in ech.rows])
print("span size:", ech.span_size())

# --- affine membership -------------------------------------------------------
# t is an affine combination of points p_0..p_r (coefficients summing to 1)
# exactly when t - p_0 lies in the subgroup the p_i - p_0 generate; here
# p_0 = (0,0), so the differences are the other points themselves
g3 = AbelianGroupSpec((3,))
ok, coeffs = subgroup_member(g3, [(1, 1)], (2, 2))
print("\n(2,2) affinely spanned by (0,0),(1,1):", ok,
      "coefficients", [1 - sum(coeffs)] + coeffs, "(sum 1)")
print("(1,0) affinely spanned:", subgroup_member(g3, [(1, 1)], (1, 0))[0])

# --- affine operations and closure representations ---------------------------
alg, group = zmod_algebra(6)
(spec,) = verify_affine(alg, group)
print("\nZ_6 Mal'tsev coefficients:",
      [spec.scalar(i) for i in range(3)], "constant", spec.constant)

gens = [(0, 1, 3), (2, 2, 2), (1, 0, 0)]
rep = affine_span(alg, group, gens)
# a coset has as many members as its difference subgroup has elements
size = rep.tracked_echelon.span_size()
print(f"affine closure of {gens} has {size} members,",
      "as many as the oracle finds:", size == len(subpower_closure(alg, gens)))
compact = coset_compact_rep(rep)
print("compact representation keeps", len(compact.entries), "of them,")
print("all circuits re-evaluate:", compact.check_circuits(alg))
