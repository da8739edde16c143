"""One seeded a6 or Z_M solve at a given size, for scale measurements.

The instance is ``random_instance(a6(), k, n, 1.0, seed)``: uniform
generators and a target that is a random term's value on them, so a
member.  With ``--probe`` it becomes an l-shifted probe, a non-member
that only the subgroup test rejects: two coordinates i != j drawn from
the seed, coordinate j of every generator and of the target is set to
coordinate i, and the target's l-part at j is shifted by a nonzero
element.  Every term gives equal values at i and j, so the target is
not reached, though its quotient components are.  The wreath context is
built first, untimed; then one ``solve_smp_wreath`` call with its
witness is timed and the witness is checked with ``check_witness``.
With ``--affine M`` the algebra is ``zmod_group_algebra(M)`` instead, the
instance ``random_instance`` of it with the same arguments, a member, and
the timed call is ``dispatch`` with its witness: the affine path, whose
check of the operations (``verify_affine``) is part of the timed solve.
With ``--affine M --probe`` coordinate i is copied to coordinate j in the
same way and 1 is added to the target at j, a non-member of Z_M.
One JSON line goes to stdout:

* ``wall_s``: wall seconds of the solve, witness included;
* ``peak_rss_mb``: the process's peak resident set after the solve;
* ``tuples_materialized``: from the verdict's stats;
* ``witness_bytes``: length of the witness as compact JSON;
* ``witness_ok``: the ``check_witness`` result (false with no witness);
* ``clonoid_parts``, ``member_parts``: the wreath witness's clonoid and
  member parts (0 with no witness, and on the affine path);
* ``serialize_s``: wall seconds of writing the verdict as compact JSON
  (``verdict_to_dict`` and ``dump_json``);
* ``check_s``: wall seconds of the ``check_witness`` call (0 with no
  witness);
* ``affine``: M, or null for a6.

    python3 scripts/scale.py --k 1600 --n 80 --seed 7
    python3 scripts/scale.py --probe --k 1600 --n 80 --seed 7
    python3 scripts/scale.py --affine 12 --k 800 --n 80 --seed 7
    python3 scripts/scale.py --affine 12 --probe --k 800 --n 80 --seed 7

Exits 0 when the verdict is a member with an accepted witness, or with
``--probe`` a non-member; else 1.  Run from the root of a checkout;
``src/`` is put on the import path.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from subpower.catalog import a6, zmod_group_algebra  # noqa: E402
from subpower.instances import random_instance  # noqa: E402
from subpower.serialize import dump_json, verdict_to_dict  # noqa: E402
from subpower.solver import (SmpInstance, check_witness,  # noqa: E402
                             dispatch, solve_smp_wreath, wreath_context)


def shifted_probe(spec, gens: list, target: list, seed: int):
    """Copy coordinate i to coordinate j in every generator and the target,
    then shift the target at j: its l-part for a6, itself by 1 for Z_M.
    A non-member (see above)."""
    rng = random.Random(seed)
    i, j = rng.sample(range(len(target)), 2)
    gens = [g[:j] + [g[i]] + g[j + 1:] for g in gens]
    target = target[:j] + [target[i]] + target[j + 1:]
    if isinstance(spec, tuple):
        _, group = spec
        target[j] = group.add(target[j], group.elem([1]))
    else:
        l, u = spec.split(target[j])
        shift = rng.randrange(1, spec.left.size)
        target[j] = spec.pair(spec.left_group.add(l, shift), u)
    return gens, target


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=1600)
    parser.add_argument("--n", type=int, default=80)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--probe", action="store_true",
                        help="solve the shifted probe, a non-member")
    parser.add_argument("--affine", type=int, metavar="M",
                        help="solve over Z_M with the group signature, "
                             "through dispatch")
    args = parser.parse_args(argv)
    if args.probe and args.k < 2:
        parser.error("--probe needs --k of at least 2")
    if args.affine is not None and args.affine < 2:
        parser.error("--affine needs M of at least 2")
    spec = a6() if args.affine is None else zmod_group_algebra(args.affine)
    d = random_instance(spec, args.k, args.n, 1.0, seed=args.seed)
    gens, target = d["generators"], d["target"]
    if args.probe:
        gens, target = shifted_probe(spec, gens, target, args.seed)
    inst = SmpInstance(gens, target)
    if args.affine is None:
        wreath_context(spec)
        solve = solve_smp_wreath
    else:
        solve = dispatch
    start = time.perf_counter()
    verdict = solve(spec, inst)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    dump_json(verdict_to_dict(verdict))
    serialize_s = time.perf_counter() - start
    start = time.perf_counter()
    witness_ok = verdict.member and check_witness(spec, inst, verdict)
    check_s = time.perf_counter() - start
    witness = verdict.witness or {}
    print(json.dumps({
        "k": args.k, "n": args.n, "seed": args.seed, "probe": args.probe,
        "member": verdict.member,
        "wall_s": round(wall, 4),
        "peak_rss_mb": round(peak, 1),
        "tuples_materialized": verdict.stats["tuples_materialized"],
        "witness_bytes": (len(dump_json(verdict.witness))
                          if verdict.witness is not None else 0),
        "witness_ok": witness_ok,
        "clonoid_parts": len(witness.get("clonoid", ())),
        "member_parts": len(witness.get("members", ())),
        "serialize_s": round(serialize_s, 4),
        "check_s": round(check_s, 4) if verdict.member else 0,
        "affine": args.affine}))
    ok = not verdict.member if args.probe else witness_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
