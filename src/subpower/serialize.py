"""JSON schemas for algebras, wreath specs, instances, and representations.

All artifacts round-trip: parse(dump(x)) reproduces x field for field.
A loader refuses a missing field, or one of the wrong JSON type, with an
AlgebraError that names it.
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


def _typed(value, kind: type, name: str):
    """`value`, refused with AlgebraError, which names it as `name`, unless
    it is of the JSON type `kind`."""
    if not isinstance(value, kind):
        raise AlgebraError(f"{name} = {value!r:.60} is not a {kind.__name__}")
    return value


def _field(d, name: str, where: str, kind: type | None = None):
    """``d[name]``, refused with AlgebraError unless `d`, the object named
    `where`, holds the field, of the JSON type `kind` when one is given."""
    _typed(d, dict, where)
    if name not in d:
        raise AlgebraError(f"{where} is missing field {name!r}")
    value = d[name]
    return value if kind is None else _typed(value, kind, f"{where}.{name}")


def algebra_from_dict(d: dict, where: str = "algebra"):
    ops = []
    for i, o in enumerate(_field(d, "ops", where, list)):
        at = f"{where}.ops[{i}]"
        ops.append(Operation(_field(o, "symbol", at),
                             integer(_field(o, "arity", at), "arity"),
                             tuple(_field(o, "table", at, list))))
    alg = FiniteAlgebra(integer(_field(d, "domain_size", where), "domain_size"),
                        ops, parse_sexpr(_field(d, "maltsev", where, str),
                                         arity=3))
    group = None
    if "group" in d:
        g = _field(d, "group", where, dict)
        group = AbelianGroupSpec(
            tuple(_field(g, "cyclic_orders", f"{where}.group", list)),
            zero=g.get("zero", 0))
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
    where = "wreath spec"
    left, left_group = algebra_from_dict(_field(d, "L", where), "L")
    if left_group is None:
        raise AlgebraError("wreath spec requires a group on the L part")
    right, _ = algebra_from_dict(_field(d, "U", where), "U")
    zero = integer(d.get("zero", left_group.zero), "zero")
    if zero != left_group.zero:
        raise AlgebraError("wreath zero disagrees with the L group zero")
    hat = {sym: _typed(table, list, f"hat[{sym}]")
           for sym, table in _field(d, "hat", where, dict).items()}
    maltsev = parse_sexpr(_field(d, "maltsev", where, str), arity=3) \
        if "maltsev" in d else left.maltsev
    spec = WreathSpec(left=left, left_group=left_group, right=right,
                      hat=hat, maltsev=maltsev)
    spec.algebra  # assemble now so invalid specs fail at load time
    return spec


def instance_to_dict(inst: SmpInstance) -> dict:
    return {"k": inst.k,
            "generators": [list(g) for g in inst.generators],
            "target": list(inst.target)}


def instance_from_dict(d: dict) -> SmpInstance:
    gens = _field(d, "generators", "instance", list)
    inst = SmpInstance(
        tuple(tuple(_typed(g, list, f"instance.generators[{i}]"))
              for i, g in enumerate(gens)),
        tuple(_field(d, "target", "instance", list)))
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
    if isinstance(d, dict) and "hat" in d:
        return wreath_from_dict(d)
    return algebra_from_dict(d)


def dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
