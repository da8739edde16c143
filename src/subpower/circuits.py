"""Operation circuits: DAGs of operation gates over input variables.

Circuits are the witness language: every tuple produced by the library's
representation machinery carries a circuit that re-evaluates to it on the
original generators.  Two forms are used:

* ``Circuit`` is a standalone immutable value (own gate list), used at API
  boundaries and for (de)serialization.
* ``CircuitBank`` is a hash-consed arena of gates shared by many output
  nodes.  All bulk constructions (closures, fixing, chaining) work inside a
  bank so that repeated composition shares subterms instead of copying them.

Serialized form is an s-expression over operation symbols and ``x1..xn``,
e.g. ``(m x1 (m x2 x2 x3) x3)``.  DAGs with shared or deeply nested gates
serialize through ``(let ((g0 ...) (g1 ...)) body)`` so that chain circuits
stay linear-size on disk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter


class CircuitError(ValueError):
    pass


# A gate is ("x", i) for the 1-based input variable i, or
# (symbol, c1, ..., cr) applying `symbol` to earlier gate indices.
_VAR = "x"


@dataclass(frozen=True)
class Circuit:
    """Immutable gate DAG; gates are topologically ordered."""

    arity: int
    gates: tuple
    output: int

    def __post_init__(self):
        if self.arity < 0:
            raise CircuitError("negative arity")
        if not 0 <= self.output < len(self.gates):
            raise CircuitError("output gate out of range")
        for pos, gate in enumerate(self.gates):
            if gate[0] == _VAR:
                i = gate[1]
                if not 1 <= i <= self.arity:
                    raise CircuitError(f"input x{i} out of range for arity {self.arity}")
            else:
                for child in gate[1:]:
                    if not 0 <= child < pos:
                        raise CircuitError("gate children must precede the gate")

    @property
    def size(self) -> int:
        return len(self.gates)

    @cached_property
    def template(self) -> tuple:
        """(apps, output) for ``CircuitBank.splice``: slots 0..arity-1 hold
        the leaves, and each application gate, in gate order, is (symbol,
        getter of its children from the slots) and fills the next slot."""
        slot_of, apps = [], []
        for gate in self.gates:
            if gate[0] == _VAR:
                slot_of.append(gate[1] - 1)
                continue
            kids = [slot_of[c] for c in gate[1:]]
            # itemgetter returns a bare item for one key: slice instead
            getter = itemgetter(*kids) if len(kids) > 1 else \
                itemgetter(slice(kids[0], kids[0] + 1) if kids else slice(0))
            apps.append((gate[0], getter))
            slot_of.append(self.arity + len(apps) - 1)
        return tuple(apps), slot_of[self.output]

    def to_sexpr(self) -> str:
        return serialize_sexpr(self)

    @staticmethod
    def parse(text: str, arity: int | None = None) -> "Circuit":
        return parse_sexpr(text, arity)


def variable(i: int, arity: int) -> Circuit:
    """The projection circuit x_i of the given arity."""
    return Circuit(arity, ((_VAR, i),), 0)


class CircuitBank:
    """Hash-consed gate arena; node ids index into a shared gate list."""

    def __init__(self, arity: int):
        self.arity = arity
        self.gates: list[tuple] = []
        self._intern: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self.gates)

    def _node(self, gate: tuple) -> int:
        node = self._intern.get(gate)
        if node is None:
            node = len(self.gates)
            self.gates.append(gate)
            self._intern[gate] = node
        return node

    def var(self, i: int) -> int:
        if not 1 <= i <= self.arity:
            raise CircuitError(f"input x{i} out of range for arity {self.arity}")
        return self._node((_VAR, i))

    def app(self, symbol: str, children: tuple[int, ...]) -> int:
        for c in children:
            if not 0 <= c < len(self.gates):
                raise CircuitError("unknown child node")
        return self._node((symbol,) + tuple(children))

    def splice(self, circuit: Circuit, leaves: list[int]) -> int:
        """Instantiate a standalone circuit inside the bank.

        ``leaves[i]`` is the bank node substituted for input x_{i+1}.
        """
        if len(leaves) != circuit.arity:
            raise CircuitError("leaf count does not match circuit arity")
        count = len(self.gates)
        for leaf in leaves:
            if not 0 <= leaf < count:
                raise CircuitError("unknown child node")
        apps, output = circuit.template
        slots = list(leaves)
        for symbol, children in apps:
            # children are leaves or nodes made here: no range check needed
            slots.append(self._node((symbol, *children(slots))))
        return slots[output]

    def extract(self, node: int) -> Circuit:
        """Standalone circuit for `node`, keeping only reachable gates."""
        order: list[int] = []
        seen = set()
        stack = [node]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            order.append(cur)
            gate = self.gates[cur]
            if gate[0] != _VAR:
                stack.extend(gate[1:])
        order.sort()
        renum = {old: new for new, old in enumerate(order)}
        gates = []
        for old in order:
            gate = self.gates[old]
            if gate[0] == _VAR:
                gates.append(gate)
            else:
                gates.append((gate[0],) + tuple(renum[c] for c in gate[1:]))
        return Circuit(self.arity, tuple(gates), renum[node])


# ---------------------------------------------------------------------------
# s-expressions

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def _tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text)


def _read(tokens: list[str], pos: int):
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise CircuitError("unbalanced s-expression")
        return items, pos + 1
    if tok == ")":
        raise CircuitError("unexpected ')'")
    return tok, pos + 1


def parse_sexpr(text: str, arity: int | None = None) -> Circuit:
    """Parse ``(sym arg ...)`` / ``xi`` / ``(let ((name expr) ...) body)``."""
    tokens = _tokenize(text)
    if not tokens:
        raise CircuitError("empty circuit expression")
    tree, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise CircuitError("trailing tokens in circuit expression")

    gates: list[tuple] = []
    intern: dict[tuple, int] = {}
    max_var = 0

    def emit(gate: tuple) -> int:
        if gate in intern:
            return intern[gate]
        gates.append(gate)
        intern[gate] = len(gates) - 1
        return len(gates) - 1

    def build(node, env: dict[str, int]) -> int:
        nonlocal max_var
        if isinstance(node, str):
            if node in env:
                return env[node]
            m = re.fullmatch(r"x(\d+)", node)
            if not m:
                raise CircuitError(f"unknown atom {node!r}")
            i = int(m.group(1))
            if i < 1:
                raise CircuitError("input variables are numbered from x1")
            max_var = max(max_var, i)
            return emit((_VAR, i))
        if not node:
            raise CircuitError("empty application")
        head = node[0]
        if head == "let":
            if len(node) != 3:
                raise CircuitError("let expects bindings and a body")
            inner = dict(env)
            for binding in node[1]:
                if not (isinstance(binding, list) and len(binding) == 2
                        and isinstance(binding[0], str)):
                    raise CircuitError("malformed let binding")
                inner[binding[0]] = build(binding[1], inner)
            return build(node[2], inner)
        if not isinstance(head, str):
            raise CircuitError("operation symbol expected")
        children = tuple(build(child, env) for child in node[1:])
        return emit((head,) + children)

    out = build(tree, {})
    n = arity if arity is not None else max_var
    if max_var > n:
        raise CircuitError(f"circuit uses x{max_var} but arity is {n}")
    return Circuit(n, tuple(gates), out)


def serialize_sexpr(circuit: Circuit, share_threshold: int = 2) -> str:
    """Render a circuit; shared gates become let bindings."""
    refs = [0] * len(circuit.gates)
    refs[circuit.output] += 1
    for gate in circuit.gates:
        if gate[0] != _VAR:
            for c in gate[1:]:
                refs[c] += 1

    shared = [i for i, gate in enumerate(circuit.gates)
              if gate[0] != _VAR and refs[i] >= share_threshold and i != circuit.output]
    names = {node: f"g{pos}" for pos, node in enumerate(shared)}

    def render(node: int, binding_of: int | None = None) -> str:
        if node in names and node != binding_of:
            return names[node]
        gate = circuit.gates[node]
        if gate[0] == _VAR:
            return f"x{gate[1]}"
        return "(" + " ".join([gate[0]] + [render(c) for c in gate[1:]]) + ")"

    body = render(circuit.output)
    if not shared:
        return body
    bindings = " ".join(f"({names[n]} {render(n, binding_of=n)})" for n in shared)
    return f"(let ({bindings}) {body})"
