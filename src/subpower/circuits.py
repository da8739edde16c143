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
stay linear-size on disk.  Unshared gates nest; the reader and the writer
keep explicit stacks, so nesting depth is not limited.
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
                if len(gate) != 2:
                    raise CircuitError("an input gate takes one index")
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
        """(apps, output) for ``CircuitBank.splice`` and ``CircuitBank.chain``:
        slots 0..arity-1 hold the leaves, and each application gate, in gate
        order, is (symbol, getter of its children from the slots) and fills
        the next slot."""
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


def _needed(gates, targets) -> list[int]:
    """The gates the targets depend on, in increasing id order, which is
    children first in a bank and in a circuit."""
    need = set()
    stack = list(targets)
    while stack:
        cur = stack.pop()
        if cur not in need:
            need.add(cur)
            gate = gates[cur]
            if gate[0] != _VAR:
                stack.extend(gate[1:])
    return sorted(need)


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

    def copy(self) -> "CircuitBank":
        """An independent bank with the same gates and node ids."""
        other = CircuitBank(self.arity)
        other.gates = self.gates.copy()
        other._intern = self._intern.copy()
        return other

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

    def _check_leaf(self, leaf, count: int) -> None:
        if not 0 <= leaf < count:
            raise CircuitError("unknown child node")

    def splice(self, circuit: Circuit, leaves: list[int]) -> int:
        """Instantiate a standalone circuit inside the bank.

        ``leaves[i]`` is the bank node substituted for input x_{i+1}.
        """
        if len(leaves) != circuit.arity:
            raise CircuitError("leaf count does not match circuit arity")
        count = len(self.gates)
        for leaf in leaves:
            self._check_leaf(leaf, count)
        return self._instantiate(circuit, None, (leaves,), None)

    def chain(self, circuit: Circuit, node: int, steps, slot: int) -> int:
        """Fold `circuit` over `steps` in one call.

        Each step is a tuple of arity - 1 leaves; the running node is
        inserted at position `slot`, so a step is
        ``node = splice(circuit, step[:slot] + (node,) + step[slot:])``.
        The same gates are interned in the same order as by those splices,
        but every distinct leaf is checked once, before any gate is added.
        """
        if not 0 <= slot < circuit.arity:
            raise CircuitError("chain slot out of range for the circuit")
        count = len(self.gates)
        self._check_leaf(node, count)
        for leaves in set(steps):
            if len(leaves) != circuit.arity - 1:
                raise CircuitError("leaf count does not match circuit arity")
            for leaf in leaves:
                self._check_leaf(leaf, count)
        return self._instantiate(circuit, node, steps, slot)

    def _instantiate(self, circuit: Circuit, node, steps, slot) -> int:
        # the one template interpreter: leaves are checked by the caller,
        # and children are leaves or nodes made here, so no range checks
        apps, output = circuit.template
        gates, intern = self.gates, self._intern
        for leaves in steps:
            slots = list(leaves)
            if slot is not None:
                slots.insert(slot, node)
            for symbol, children in apps:
                gate = (symbol, *children(slots))
                got = intern.get(gate)
                if got is None:
                    got = intern[gate] = len(gates)
                    gates.append(gate)
                slots.append(got)
            node = slots[output]
        return node

    def extract(self, node: int) -> Circuit:
        """Standalone circuit for `node`, keeping only reachable gates."""
        order = _needed(self.gates, [node])
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
_VAR_ATOM = re.compile(r"x(\d+)")


def _tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text)


def _read(tokens: list[str]):
    """The expression tree of a non-empty token list, read in one pass: an
    atom, or one list per parenthesized form."""
    tok = tokens[0]
    if tok == ")":
        raise CircuitError("unexpected ')'")
    if tok != "(":
        if len(tokens) > 1:
            raise CircuitError("trailing tokens in circuit expression")
        return tok
    root = cur = []
    enclosing = []
    for pos in range(1, len(tokens)):
        tok = tokens[pos]
        if tok == "(":
            new = []
            cur.append(new)
            enclosing.append(cur)
            cur = new
        elif tok == ")":
            if not enclosing:
                if pos + 1 != len(tokens):
                    raise CircuitError("trailing tokens in circuit expression")
                return root
            cur = enclosing.pop()
        else:
            cur.append(tok)
    raise CircuitError("unbalanced s-expression")


class _Builder:
    """Gates of an expression tree, emitted in depth-first order with
    hash-consing; an explicit frame stack replaces recursion."""

    def __init__(self):
        self.gates: list[tuple] = []
        self.intern: dict[tuple, int] = {}
        self.var_nodes: dict[str, int] = {}     # resolved xN atoms
        self.max_var = 0

    def emit(self, gate: tuple) -> int:
        node = self.intern.get(gate)
        if node is None:
            node = self.intern[gate] = len(self.gates)
            self.gates.append(gate)
        return node

    def atom(self, tok: str, env: dict) -> int:
        node = env.get(tok)
        if node is None:
            node = self.var_nodes.get(tok)
            if node is None:
                m = _VAR_ATOM.fullmatch(tok)
                if not m:
                    raise CircuitError(f"unknown atom {tok!r}")
                i = int(m.group(1))
                if i < 1:
                    raise CircuitError("input variables are numbered from x1")
                self.max_var = max(self.max_var, i)
                node = self.var_nodes[tok] = self.emit((_VAR, i))
        return node

    @staticmethod
    def frame(form: list, env: dict) -> list:
        """[form, env, next child, head and child nodes] for an application;
        [form, inner env, next binding or -1 for the body, None] for a
        let."""
        if not form:
            raise CircuitError("empty application")
        head = form[0]
        if head == "let":
            if len(form) != 3:
                raise CircuitError("let expects bindings and a body")
            return [form, dict(env), 0, None]
        if not isinstance(head, str):
            raise CircuitError("operation symbol expected")
        if head == _VAR:
            # an application gate ("x", c) would read as the variable x_c
            raise CircuitError("'x' is reserved for input gates, "
                               "not an operation symbol")
        return [form, env, 1, [head]]

    def build(self, tree) -> int:
        if isinstance(tree, str):
            return self.atom(tree, {})
        atom, frame = self.atom, self.frame
        frames = [frame(tree, {})]
        value = None            # the node of the form just finished
        while True:
            top = frames[-1]
            form, env, pos, kids = top
            if kids is not None:                        # an application
                if value is not None:
                    kids.append(value)
                    value = None
                    pos += 1
                end = len(form)
                while pos < end and isinstance(form[pos], str):
                    kids.append(atom(form[pos], env))
                    pos += 1
                if pos < end:
                    top[2] = pos
                    frames.append(frame(form[pos], env))
                    continue
                value = self.emit(tuple(kids))
            elif pos >= 0:          # a let still binding; -1: its body is done
                bindings = form[1]
                if value is not None:
                    env[bindings[pos][0]] = value
                    value = None
                    pos += 1
                while pos < len(bindings):
                    binding = bindings[pos]
                    if not (isinstance(binding, list) and len(binding) == 2
                            and isinstance(binding[0], str)):
                        raise CircuitError("malformed let binding")
                    if not isinstance(binding[1], str):
                        break
                    env[binding[0]] = atom(binding[1], env)
                    pos += 1
                if pos < len(bindings):
                    top[2] = pos
                    frames.append(frame(bindings[pos][1], env))
                    continue
                body = form[2]
                if not isinstance(body, str):
                    top[2] = -1
                    frames.append(frame(body, env))
                    continue
                value = atom(body, env)
            frames.pop()
            if not frames:
                return value


def parse_sexpr(text: str, arity: int | None = None) -> Circuit:
    """Parse ``(sym arg ...)`` / ``xi`` / ``(let ((name expr) ...) body)``.

    Let bindings are sequential and scoped to their let.  Neither reading
    nor building recurses, so nesting depth is not limited.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise CircuitError("empty circuit expression")
    builder = _Builder()
    out = builder.build(_read(tokens))
    n = arity if arity is not None else builder.max_var
    if builder.max_var > n:
        raise CircuitError(f"circuit uses x{builder.max_var} but arity is {n}")
    return Circuit(n, tuple(builder.gates), out)


def serialize_sexpr(circuit: Circuit, share_threshold: int = 2) -> str:
    """Render a circuit; shared gates become let bindings.

    Written without recursion, so nesting depth is not limited.
    """
    gates = circuit.gates
    refs = [0] * len(gates)
    refs[circuit.output] += 1
    for gate in gates:
        if gate[0] != _VAR:
            for c in gate[1:]:
                refs[c] += 1

    shared = [i for i, gate in enumerate(gates)
              if gate[0] != _VAR and refs[i] >= share_threshold and i != circuit.output]
    names = {node: f"g{pos}" for pos, node in enumerate(shared)}
    # children rendered as one word: shared gates by name, variables
    words = dict(names)
    words.update((i, f"x{gate[1]}") for i, gate in enumerate(gates)
                 if gate[0] == _VAR)

    def render(node: int) -> str:
        # expands `node` itself even when it is shared (its binding)
        out = []
        todo = [node]
        while todo:
            item = todo.pop()
            if type(item) is str:
                out.append(item)
                continue
            gate = gates[item]
            if gate[0] == _VAR:
                out.append(words[item])
                continue
            out.append("(" + gate[0])
            todo.append(")")
            for c in reversed(gate[1:]):
                word = words.get(c)
                if word is None:
                    todo.append(c)
                    todo.append(" ")
                else:
                    todo.append(" " + word)
        return "".join(out)

    body = render(circuit.output)
    if not shared:
        return body
    bindings = " ".join(f"({names[n]} {render(n)})" for n in shared)
    return f"(let ({bindings}) {body})"
