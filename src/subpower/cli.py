"""Command-line front end.

Exit codes: 0 member / success, 1 non-member, 2 usage or validation error,
3 closure cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .affine import verify_affine
from .circuits import CircuitError
from .comprep import fix_values
from .core import AlgebraError, ClosureCapExceeded, smp_oracle
from .instances import bench, random_instance
from .serialize import (comprep_to_dict, dump_json, instance_from_dict,
                        load_algebra_input, verdict_to_dict)
from .solver import (SmpInstance, UnsupportedAlgebraError, check_witness,
                     compute_comprep, dispatch, underlying_algebra)
from .wreath import WreathSpec, diff_clonoid_gens


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subpower",
        description="subpower membership for finite Mal'tsev algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True, cap=True):
        p.add_argument("--algebra", required=True, help="algebra file (JSON)")
        if instance:
            p.add_argument("--instance", required=True, help="instance file")
        if cap:
            p.add_argument("--cap", type=int, default=1_000_000,
                           help="closure size cap for exhaustive fallbacks")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("solve", help="decide membership (polynomial paths)")
    common(p)
    p.add_argument("--witness", action="store_true",
                   help="include a re-checkable witness in the output")
    p.add_argument("--allow-oracle", action="store_true",
                   help="permit the exponential fallback outside the "
                        "supported classes")

    p = sub.add_parser("oracle", help="decide membership by exhaustive closure")
    common(p)

    p = sub.add_parser("comprep",
                       help="compact representation of the generated subpower")
    common(p)
    p.add_argument("--allow-oracle", action="store_true")

    p = sub.add_parser("fix", help="fix leading coordinates of the subpower")
    common(p)
    p.add_argument("--values", required=True,
                   help="comma-separated values for coordinates 1..m")
    p.add_argument("--allow-oracle", action="store_true")

    p = sub.add_parser("diff-clonoid",
                       help="difference clonoid generators of a wreath product")
    common(p, instance=False, cap=False)

    p = sub.add_parser("verify", help="validate an algebra file's invariants")
    common(p, instance=False, cap=False)

    p = sub.add_parser("random-instance", help="emit a seeded random instance")
    common(p, instance=False, cap=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--member-bias", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="benchmark a grid of instance sizes")
    common(p, instance=False)
    p.add_argument("--grid", required=True,
                   help="comma-separated k:n cells, e.g. 10:4,50:8,200:40")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-oracle", action="store_true")
    return parser


def _load_instance(path: str) -> SmpInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def _emit(obj, fmt: str) -> None:
    if fmt == "csv" and isinstance(obj, list):
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(obj[0].keys()))
        writer.writeheader()
        writer.writerows(obj)
        sys.stdout.write(buf.getvalue())
    else:
        print(dump_json(obj) if isinstance(obj, (dict, list)) else obj)


def _cmd_solve(args) -> int:
    algebra = load_algebra_input(args.algebra)
    inst = _load_instance(args.instance)
    verdict = dispatch(algebra, inst, allow_oracle=args.allow_oracle,
                       cap=args.cap, want_witness=args.witness)
    if args.witness and verdict.member and verdict.witness is not None:
        if not check_witness(algebra, inst, verdict):
            raise AlgebraError("internal error: witness failed re-evaluation")
    out = verdict_to_dict(verdict)
    if not args.witness:
        out["witness"] = None
    _emit(out, args.format)
    return 0 if verdict.member else 1


def _cmd_oracle(args) -> int:
    algebra = load_algebra_input(args.algebra)
    inst = _load_instance(args.instance)
    member = smp_oracle(underlying_algebra(algebra), inst.generators,
                        inst.target, cap=args.cap)
    _emit({"member": member, "witness": None,
           "stats": {"path": "oracle", "cap": args.cap}}, args.format)
    return 0 if member else 1


def _cmd_comprep(args) -> int:
    algebra = load_algebra_input(args.algebra)
    inst = _load_instance(args.instance)
    rep = compute_comprep(algebra, inst.generators,
                          allow_oracle=args.allow_oracle, cap=args.cap)
    _emit(comprep_to_dict(rep), args.format)
    return 0


def _cmd_fix(args) -> int:
    algebra = load_algebra_input(args.algebra)
    inst = _load_instance(args.instance)
    try:
        values = [int(v) for v in args.values.split(",") if v != ""]
    except ValueError:
        raise AlgebraError("--values must be comma-separated integers") from None
    rep = compute_comprep(algebra, inst.generators,
                          allow_oracle=args.allow_oracle, cap=args.cap)
    fixed = fix_values(underlying_algebra(algebra), rep, values)
    _emit(comprep_to_dict(fixed), args.format)
    return 0


def _cmd_diff_clonoid(args) -> int:
    algebra = load_algebra_input(args.algebra)
    if not isinstance(algebra, WreathSpec):
        raise AlgebraError("diff-clonoid requires a wreath product file")
    gens = diff_clonoid_gens(algebra)
    _emit({"p": gens.p,
           "unary": [list(t) for t in gens.unary],
           "binary": [list(t) for t in gens.binary],
           "exact_enumeration": gens.exact}, args.format)
    return 0


def _cmd_verify(args) -> int:
    # loading checks every invariant, the Mal'tsev identities included:
    # the loaders refuse a file that breaks one
    algebra = load_algebra_input(args.algebra)
    report = {"valid": True, "checks": []}
    if isinstance(algebra, WreathSpec):
        report["checks"].append("wreath invariants hold")
    else:
        alg, group = algebra
        if group is not None:
            verify_affine(alg, group)
            report["checks"].append("operations are affine over the group")
    report["checks"].append("Mal'tsev identities hold")
    _emit(report, args.format)
    return 0


def _cmd_random_instance(args) -> int:
    algebra = load_algebra_input(args.algebra)
    inst = random_instance(algebra, args.k, args.n, args.member_bias,
                           args.seed)
    _emit(inst, args.format)
    return 0


def _cmd_bench(args) -> int:
    algebra = load_algebra_input(args.algebra)
    try:
        grid = [(int(a), int(b)) for cell in args.grid.split(",")
                for a, b in [cell.split(":")]]
    except ValueError:
        raise AlgebraError("--grid cells must look like k:n") from None
    rows = bench(algebra, grid, args.seed, allow_oracle=args.allow_oracle,
                 cap=args.cap)
    _emit(rows, args.format)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "comprep": _cmd_comprep,
    "fix": _cmd_fix,
    "diff-clonoid": _cmd_diff_clonoid,
    "verify": _cmd_verify,
    "random-instance": _cmd_random_instance,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except ClosureCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (UnsupportedAlgebraError, AlgebraError, CircuitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"error: malformed JSON: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
