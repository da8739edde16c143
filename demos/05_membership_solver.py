#!/usr/bin/env python3
"""The end-to-end membership solver, cross-checked and scaled.

The polynomial pipeline plays three moves: extend the generator matrix by
all single-nonzero rows so direct-product terms are determined by their
values, fix the quotient components of the target by elimination, then ask
whether the l-part lands in the affine closure of the fixed members plus
the difference-clonoid image.  The exhaustive oracle validates it at desk
scale and collapses at the sizes the solver shrugs off.
"""

import random
import time

import numpy as np

from subpower import (ClosureCapExceeded, SmpInstance, check_witness,
                      smp_oracle, solve_smp_wreath)
from subpower.catalog import a6
from subpower.instances import random_instance
from subpower.solver import wreath_context
from subpower.wreath import clonoid_image_comprep

spec = a6()
alg = spec.algebra

# --- agreement with the oracle -----------------------------------------------
rng = random.Random(0)
agree = members = 0
for seed in range(80):
    k, n = rng.randint(1, 4), rng.randint(1, 3)
    d = random_instance(spec, k, n, member_bias=0.5, seed=seed)
    inst = SmpInstance(tuple(tuple(g) for g in d["generators"]),
                       tuple(d["target"]))
    verdict = solve_smp_wreath(spec, inst)
    assert verdict.member == smp_oracle(alg, inst.generators, inst.target)
    agree += 1
    if verdict.member:
        assert check_witness(spec, inst, verdict)
        members += 1
print(f"solver vs oracle: {agree}/80 agree ({members} members, all "
      "witnesses re-checked)")

# --- what a witness looks like -------------------------------------------------
d = random_instance(spec, 4, 2, member_bias=1.0, seed=8)
inst = SmpInstance(tuple(tuple(g) for g in d["generators"]),
                   tuple(d["target"]))
verdict = solve_smp_wreath(spec, inst)
w = verdict.witness
print("\na member witness: term values on the target's u-part, whose l-parts")
print("(in L = Z_3) combine linearly")
print("  base member     ", w["base"]["value"],
      "from circuit", w["base"]["circuit"])
base_l = np.asarray(w["base"]["value"]) // spec.p
rest = np.asarray(inst.target) // spec.p - base_l
for part in w["members"]:
    print(f"  + {part['coeff']} * (member {part['value']} - base), the member "
          f"from circuit {part['circuit']}")
    rest -= part["coeff"] * (np.asarray(part["value"]) // spec.p - base_l)
rest %= 3
# the checker builds the clonoid image of the generators' u-parts itself
image = clonoid_image_comprep(wreath_context(spec).gens, inst.generators)
print(f"leave of the target's l-part the rest {rest.tolist()}, which lies in")
print("the clonoid image:", not image.residues(rest[None]).any())

# --- scaling -------------------------------------------------------------------
print("\nscaling on the six-element algebra:")
print(f"{'k':>5} {'n':>4} {'ms':>8} {'tuples':>7}")
for k, n in [(10, 4), (50, 10), (100, 20), (200, 40), (400, 60)]:
    d = random_instance(spec, k, n, member_bias=0.0, seed=k)
    inst = SmpInstance(tuple(tuple(g) for g in d["generators"]),
                       tuple(d["target"]))
    t0 = time.perf_counter()
    verdict = solve_smp_wreath(spec, inst, want_witness=False)
    ms = 1000 * (time.perf_counter() - t0)
    print(f"{k:>5} {n:>4} {ms:>8.1f} {verdict.stats['tuples_materialized']:>7}")

big = random_instance(spec, 200, 40, member_bias=0.0, seed=200)
inst = SmpInstance(tuple(tuple(g) for g in big["generators"]),
                   tuple(big["target"]))
try:
    smp_oracle(alg, inst.generators, inst.target, cap=1000)
    print("\noracle unexpectedly finished")
except ClosureCapExceeded as e:
    print(f"\nthe oracle on the k=200 instance: {e}")
