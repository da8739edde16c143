"""One seeded a6 or Z_M solve at a given size, for scale measurements.

The instance is ``random_instance(a6(), k, n, 1.0, seed)``: uniform
generators and a target that is a random term's value on them, so a
member.  With ``--probe`` it becomes an l-shifted probe, a non-member
that only the subgroup test rejects: two coordinates i != j drawn from
the seed, coordinate j of every generator and of the target is set to
coordinate i, and the target's l-part at j is shifted by a nonzero
element.  Every term gives equal values at i and j, so the target is
not reached, though its quotient components are.  With ``--quotient``
coordinate i is copied to coordinate j in the same way and the target's
u-part at j is changed instead: a non-member that the GF(p) quotient fix
rejects, since every term's u-parts agree at i and j.  The wreath
context is built first, untimed; then one ``solve_smp_wreath`` call with
its witness is timed and the witness is checked with ``check_witness``.
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
* ``member_parts``: the wreath witness's member parts (0 with no
  witness, and on the affine path);
* ``serialize_s``: wall seconds of writing the verdict as compact JSON
  (``verdict_to_dict`` and ``dump_json``);
* ``check_s``: wall seconds of the ``check_witness`` call (0 with no
  witness);
* ``decided_by``: the stage that gave a wreath verdict (``quotient``,
  ``image`` or ``full``, see ``solve_smp_wreath``), null on the affine
  path;
* ``affine``: M, or null for a6.

With ``--context SPEC`` nothing is solved: SPEC is ``a6``, ``w15`` or
``random_wreath:P:L:SEED``, built fresh, and the line holds its cold
``wreath_context`` build instead (the wreath algebra, the affine checks
and the difference clonoid): ``context``, ``wall_s``, ``peak_rss_mb``
and the clonoid's ``unary`` and ``binary`` generator counts.  Exits 0,
or 2 when SPEC names none of these or its context does not build.

    python3 scripts/scale.py --k 1600 --n 80 --seed 7
    python3 scripts/scale.py --probe --k 1600 --n 80 --seed 7
    python3 scripts/scale.py --quotient --k 1600 --n 80 --seed 7
    python3 scripts/scale.py --affine 12 --k 800 --n 80 --seed 7
    python3 scripts/scale.py --affine 12 --probe --k 800 --n 80 --seed 7
    python3 scripts/scale.py --context random_wreath:5:4:2

Exits 0 when the verdict is a member with an accepted witness, or with
``--probe`` or ``--quotient`` a non-member; else 1.  Run from the root
of a checkout; ``src/`` is put on the import path.
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

from subpower.catalog import (a6, random_wreath, w15,  # noqa: E402
                              zmod_group_algebra)
from subpower.core import AlgebraError  # noqa: E402
from subpower.instances import random_instance  # noqa: E402
from subpower.serialize import dump_json, verdict_to_dict  # noqa: E402
from subpower.solver import (SmpInstance, check_witness,  # noqa: E402
                             dispatch, solve_smp_wreath, wreath_context)


def shifted_probe(spec, gens: list, target: list, seed: int,
                  quotient: bool = False):
    """Copy coordinate i to coordinate j in every generator and the target,
    then shift the target at j: its l-part for a6 (its u-part with
    `quotient`), itself by 1 for Z_M.  A non-member (see above)."""
    rng = random.Random(seed)
    i, j = rng.sample(range(len(target)), 2)
    gens = [g[:j] + [g[i]] + g[j + 1:] for g in gens]
    target = target[:j] + [target[i]] + target[j + 1:]
    if isinstance(spec, tuple):
        _, group = spec
        target[j] = group.add(target[j], group.elem([1]))
    elif quotient:
        l, u = spec.split(target[j])
        target[j] = spec.pair(l, (u + rng.randrange(1, spec.p)) % spec.p)
    else:
        l, u = spec.split(target[j])
        shift = rng.randrange(1, spec.left.size)
        target[j] = spec.pair(spec.left_group.add(l, shift), u)
    return gens, target


def context_spec(name: str):
    """The wreath product named by a ``--context`` argument."""
    if name in ("a6", "w15"):
        return {"a6": a6, "w15": w15}[name]()
    kind, *args = name.split(":")
    if kind != "random_wreath" or len(args) != 3 \
            or not all(a.isdigit() for a in args):
        raise AlgebraError("expected a6, w15 or random_wreath:P:L:SEED")
    return random_wreath(*map(int, args))


def context_build(name: str) -> dict:
    spec = context_spec(name)
    start = time.perf_counter()
    gens = wreath_context(spec).gens
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"context": name, "wall_s": round(wall, 4),
            "peak_rss_mb": round(peak, 1), "unary": len(gens.unary),
            "binary": len(gens.binary)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=1600)
    parser.add_argument("--n", type=int, default=80)
    parser.add_argument("--seed", type=int, default=7)
    shift = parser.add_mutually_exclusive_group()
    shift.add_argument("--probe", action="store_true",
                       help="solve the shifted probe, a non-member")
    shift.add_argument("--quotient", action="store_true",
                       help="solve the u-shifted non-member that the "
                            "quotient fix rejects")
    parser.add_argument("--affine", type=int, metavar="M",
                        help="solve over Z_M with the group signature, "
                             "through dispatch")
    parser.add_argument("--context", metavar="SPEC",
                        help="time the cold wreath_context build of a6, "
                             "w15 or random_wreath:P:L:SEED instead")
    args = parser.parse_args(argv)
    if args.context is not None:
        if args.probe or args.quotient or args.affine is not None:
            parser.error("--context solves nothing: it takes no --probe, "
                         "--quotient or --affine")
        try:
            print(json.dumps(context_build(args.context)))
        except AlgebraError as err:
            parser.error(f"--context {args.context}: {err}")
        return 0
    if (args.probe or args.quotient) and args.k < 2:
        parser.error("--probe and --quotient need --k of at least 2")
    if args.affine is not None and args.affine < 2:
        parser.error("--affine needs M of at least 2")
    if args.affine is not None and args.quotient:
        parser.error("--quotient needs the a6 wreath product, not --affine")
    spec = a6() if args.affine is None else zmod_group_algebra(args.affine)
    d = random_instance(spec, args.k, args.n, 1.0, seed=args.seed)
    gens, target = d["generators"], d["target"]
    if args.probe or args.quotient:
        gens, target = shifted_probe(spec, gens, target, args.seed,
                                     args.quotient)
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
        "quotient": args.quotient,
        "member": verdict.member,
        "decided_by": verdict.stats.get("decided_by"),
        "wall_s": round(wall, 4),
        "peak_rss_mb": round(peak, 1),
        "tuples_materialized": verdict.stats["tuples_materialized"],
        "witness_bytes": (len(dump_json(verdict.witness))
                          if verdict.witness is not None else 0),
        "witness_ok": witness_ok,
        "member_parts": len(witness.get("members", ())),
        "serialize_s": round(serialize_s, 4),
        "check_s": round(check_s, 4) if verdict.member else 0,
        "affine": args.affine}))
    ok = not verdict.member if args.probe or args.quotient else witness_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
