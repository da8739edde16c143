"""JSON schemas for algebras, wreath specs, instances, and representations.

All artifacts round-trip: parse(dump(x)) reproduces x field for field.
"""

from __future__ import annotations

import json

from .affine import AbelianGroupSpec
from .circuits import parse_sexpr, serialize_sexpr
from .comprep import EnumeratedCompactRep
from .core import AlgebraError, FiniteAlgebra, Operation, integer
from .solver import SmpInstance, SmpVerdict
from .wreath import WreathSpec


def algebra_to_dict(alg: FiniteAlgebra, group: AbelianGroupSpec | None = None) -> dict:
    d = {
        "domain_size": alg.size,
        "ops": [{"symbol": op.symbol, "arity": op.arity,
                 "table": list(op.table)} for op in alg.ops],
        "maltsev": serialize_sexpr(alg.maltsev),
    }
    if group is not None:
        d["group"] = {"cyclic_orders": list(group.orders), "zero": group.zero}
    return d


def algebra_from_dict(d: dict):
    try:
        ops = [Operation(o["symbol"], integer(o["arity"], "arity"),
                         tuple(o["table"])) for o in d["ops"]]
        alg = FiniteAlgebra(integer(d["domain_size"], "domain_size"), ops,
                            parse_sexpr(d["maltsev"], arity=3))
    except KeyError as e:
        raise AlgebraError(f"algebra object is missing field {e}") from None
    group = None
    if "group" in d:
        group = AbelianGroupSpec(tuple(d["group"]["cyclic_orders"]),
                                 zero=d["group"].get("zero", 0))
        if group.size != alg.size:
            raise AlgebraError("group size differs from algebra domain")
    return alg, group


def wreath_to_dict(spec: WreathSpec) -> dict:
    return {
        "L": algebra_to_dict(spec.left, spec.left_group),
        "U": algebra_to_dict(spec.right),
        "zero": spec.left_group.zero,
        "hat": {sym: list(table) for sym, table in sorted(spec.hat.items())},
        "maltsev": serialize_sexpr(spec.maltsev),
    }


def wreath_from_dict(d: dict) -> WreathSpec:
    left, left_group = algebra_from_dict(d["L"])
    if left_group is None:
        raise AlgebraError("wreath spec requires a group on the L part")
    right, _ = algebra_from_dict(d["U"])
    zero = integer(d.get("zero", left_group.zero), "zero")
    if zero != left_group.zero:
        raise AlgebraError("wreath zero disagrees with the L group zero")
    hat = {sym: tuple(table) for sym, table in d["hat"].items()}
    maltsev = parse_sexpr(d["maltsev"], arity=3) if "maltsev" in d \
        else left.maltsev
    spec = WreathSpec(left=left, left_group=left_group, right=right,
                      hat=hat, maltsev=maltsev)
    spec.algebra  # assemble now so invalid specs fail at load time
    return spec


def instance_to_dict(inst: SmpInstance) -> dict:
    return {"k": inst.k,
            "generators": [list(g) for g in inst.generators],
            "target": list(inst.target)}


def instance_from_dict(d: dict) -> SmpInstance:
    inst = SmpInstance(tuple(tuple(g) for g in d["generators"]),
                       tuple(d["target"]))
    if "k" in d and integer(d["k"], "k") != inst.k:
        raise AlgebraError("declared k disagrees with tuple lengths")
    return inst


def comprep_to_dict(rep: EnumeratedCompactRep) -> dict:
    circuits = []
    for idx in range(len(rep.entries)):
        c = rep.circuit(idx)
        circuits.append(None if c is None else serialize_sexpr(c))
    return {"tuples": [list(t) for t in rep.tuples()], "circuits": circuits}


def comprep_from_dict(d: dict, generators=()) -> EnumeratedCompactRep:
    rep = EnumeratedCompactRep(tuple(tuple(g) for g in generators))
    for t, c in zip(d["tuples"], d["circuits"]):
        node = None
        if c is not None:
            if rep.arity == 0:
                raise AlgebraError("circuits in a representation need the "
                                   "original generators to make sense")
            circuit = parse_sexpr(c, arity=rep.arity)
            node = rep.bank.splice(
                circuit, [rep.bank.var(i + 1) for i in range(rep.arity)])
        rep.add(tuple(t), node)
    return rep


def verdict_to_dict(verdict: SmpVerdict) -> dict:
    return {"member": verdict.member, "witness": verdict.witness,
            "stats": verdict.stats}


def load_algebra_input(path: str):
    """Read an algebra file; returns a WreathSpec or (algebra, group)."""
    with open(path) as fh:
        d = json.load(fh)
    if "hat" in d:
        return wreath_from_dict(d)
    return algebra_from_dict(d)


def dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
