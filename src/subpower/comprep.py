"""Signatures, compact representations, chain membership, and Fix-Value.

A compact representation of a subpower R <= A^k is a subset with the same
signature as R and at most 2|Sig(R)| members; with a Mal'tsev operation the
whole subpower is recovered by chaining forks coordinate by coordinate.  An
enumerated representation additionally carries, per member, a circuit over
the original generators that re-evaluates to it.

Signatures, fork witnesses and thinning all come from one vectorized prefix
walk over the stably sorted tuple array (``_fork_index``): it maps each
signature triple to its witness pair, and thinning keeps the union of the
witness pairs.  Chains and Fix-Value fold with the frozen algebra's
``maltsev_table``, tabulated once and kept on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit, CircuitBank
from .core import AlgebraError, FiniteAlgebra, _Closure, eval_nodes


def _fork_index(tuples) -> dict:
    """(i, a, b) -> (idx_a, idx_b): the fork witnesses, in one vectorized
    prefix walk; the keys, in sorted order, are exactly the signature.

    At coordinate i (1-based) a *run* is a block of the stably sorted
    tuples agreeing before i; the witnesses of (i, a, b) are the first
    tuples with a and with b at i in the first run holding both.  A
    coordinate has sum d_r^2 <= N|A| (run, a, b) candidates, d_r the number
    of distinct values in run r.
    """
    rows = [tuple(t) for t in tuples]
    k = len(rows[0]) if rows else 0
    if any(len(t) != k for t in rows):
        raise AlgebraError("tuples have unequal lengths")
    rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), k)
    n = len(rows)
    order = np.lexsort(rows.T[::-1]) if k else np.arange(n)  # stable
    s = rows[order]
    vals, codes = np.unique(s, return_inverse=True)
    codes = codes.reshape(n, k)
    # new[i, p]: sorted tuple p starts a block agreeing on coordinates 0..i
    new = np.ones((k, n), dtype=bool)
    new[:, 1:] = np.logical_or.accumulate(s[1:] != s[:-1], axis=1).T
    run_start = np.arange(n) == 0        # runs at coordinate 0: one
    index: dict = {}
    for i in range(k):
        pos = np.flatnonzero(new[i])     # first tuple of each (run, value)
        run = np.cumsum(run_start[pos]) - 1
        run_start = new[i]
        width = np.bincount(run)         # distinct values per run
        reps = width[run]                # each pairs with its run's values
        first_pair = np.cumsum(reps) - reps
        ja = np.repeat(np.arange(len(pos)), reps)
        jb = np.arange(len(ja)) + np.repeat(
            (np.cumsum(width) - width)[run] - first_pair, reps)
        code = codes[pos, i]
        # the first run holding both values comes first among equal keys
        _, first = np.unique(code[ja] * len(vals) + code[jb],
                             return_index=True)
        pa, pb = pos[ja[first]], pos[jb[first]]
        keys = zip([i + 1] * len(pa), s[pa, i].tolist(), s[pb, i].tolist())
        index.update(zip(keys, zip(order[pa].tolist(), order[pb].tolist())))
    return index


def signature(tuples) -> set:
    """Sig(S): triples (i, a, b) witnessed by members agreeing before i.

    Coordinates are 1-based.  The empty family has the empty signature.
    """
    return set(_fork_index(tuples))


def maltsev_fold(alg: FiniteAlgebra, x, y, z) -> tuple:
    """Coordinate-wise application of the Mal'tsev operation."""
    tab = alg.maltsev_table
    return tuple(int(v) for v in
                 tab[np.asarray(x), np.asarray(y), np.asarray(z)])


@dataclass
class EnumeratedCompactRep:
    """Tuples with optional witness circuits over fixed generators."""

    generators: tuple                 # the original tuples X
    entries: list = field(default_factory=list)   # (tuple, node | None)
    bank: CircuitBank | None = None

    def __post_init__(self):
        self.generators = tuple(tuple(g) for g in self.generators)
        if self.bank is None:
            self.bank = CircuitBank(len(self.generators))

    @property
    def arity(self) -> int:
        return len(self.generators)

    def tuples(self) -> list:
        return [t for t, _ in self.entries]

    def sig(self) -> set:
        return signature(self.tuples())

    def circuit(self, idx: int) -> Circuit | None:
        node = self.entries[idx][1]
        return None if node is None else self.bank.extract(node)

    def is_empty(self) -> bool:
        return not self.entries

    def add(self, tup, node) -> None:
        self.entries.append((tuple(tup), node))

    def check_circuits(self, alg: FiniteAlgebra) -> bool:
        """Do all stored circuits re-evaluate to their tuples?"""
        nodes = [n for _, n in self.entries if n is not None]
        if not nodes:
            return True
        args = [np.asarray(g) for g in self.generators]
        vals = eval_nodes(alg, self.bank, nodes, args)
        return all(n is None or tuple(int(v) for v in vals[n]) == t
                   for t, n in self.entries)


def thin_to_compact(rep_or_tuples, generators=None) -> EnumeratedCompactRep:
    """Thin a tuple family to a same-signature subset of size <= 2|Sig|.

    Keeps the fork witnesses of every signature triple (see _fork_index), so
    outputs are stable across runs.  Accepts either an EnumeratedCompactRep
    (circuits kept) or a plain tuple family plus its generators.
    """
    if isinstance(rep_or_tuples, EnumeratedCompactRep):
        rep = rep_or_tuples
    else:
        if generators is None:
            raise AlgebraError("generators required when thinning raw tuples")
        rep = EnumeratedCompactRep(tuple(tuple(g) for g in generators))
        for t in rep_or_tuples:
            rep.add(t, None)
    # witnesses are first occurrences of distinct tuples; list them sorted
    keep = sorted({j for pair in _fork_index(rep.tuples()).values()
                   for j in pair}, key=lambda j: rep.entries[j][0])
    return EnumeratedCompactRep(rep.generators,
                                [rep.entries[j] for j in keep], rep.bank)


@dataclass
class Chain:
    """A fork chain: start entry index plus (coordinate, idx_b, idx_a) steps."""

    start: int
    steps: list
    value: tuple
    node: int | None = None


def maltsev_chain_member(alg: FiniteAlgebra, rep: EnumeratedCompactRep,
                         target) -> Chain | None:
    """Membership of `target` in the subpower represented by `rep`.

    Walks the coordinates, folding in a fork witness pair with the Mal'tsev
    operation at every disagreement.  Requires `rep` to be a genuine compact
    representation of its subpower; returns None exactly when the target is
    outside.  The walk is decided on the tuples alone; the chain's circuit
    (``Chain.node``) is built afterwards when every entry it uses has one.
    """
    target = tuple(target)
    tuples = rep.tuples()
    if not tuples:
        return None
    k = len(tuples[0])
    if len(target) != k:
        raise AlgebraError("target length differs from representation")
    forks = _fork_index(tuples)
    # the lexicographically first entry with the target's first value
    start, _ = forks.get((1, target[0], target[0]), (None, None))
    if start is None:
        return None

    current = tuples[start]
    steps = []
    for i in range(2, k + 1):
        if current[i - 1] == target[i - 1]:
            continue
        witness = forks.get((i, current[i - 1], target[i - 1]))
        if witness is None:
            return None
        idx_b, idx_a = witness
        current = maltsev_fold(alg, current, tuples[idx_b], tuples[idx_a])
        steps.append((i, idx_b, idx_a))
    if current != target:
        return None
    chain = Chain(start=start, steps=steps, value=current)
    # the chain's circuit: the start entry's, then m(node, b, a) per step in
    # one CircuitBank.chain call, when every entry it uses has a circuit
    nodes = [n for _, n in rep.entries]
    pairs = [(nodes[ib], nodes[ia]) for _, ib, ia in steps]
    if nodes[start] is not None and all(None not in p for p in pairs):
        chain.node = rep.bank.chain(alg.maltsev, nodes[start], pairs, 0)
    return chain


# ---------------------------------------------------------------------------
# Fix-Value

def _pair_closure(alg: FiniteAlgebra, rep: EnumeratedCompactRep,
                  c: int, j: int) -> dict:
    """Close proj_{c,j} of the entries under the basic operations.

    Returns {(x, y): node}: every pair in the projection of the full
    subpower, with a circuit over the representation's generators whose
    full evaluation projects to that pair.  Projection commutes with
    generation, so closing the projected pairs is exact.
    """
    seeds: list = []
    seed_nodes: list = []
    seen = set()
    for t, node in rep.entries:
        key = (t[c], t[j])
        if key not in seen:
            seen.add(key)
            seeds.append(key)
            seed_nodes.append(node)
    eng = _Closure(alg, seeds, cap=alg.size ** 2 + 1, track=True)
    eng.run()
    out: dict = {}
    node_of: dict = {}
    for idx in range(eng.n):
        tag = eng.prov[idx]
        if tag[0] == "gen":
            node_of[idx] = seed_nodes[tag[1]]
        else:
            children = tuple(node_of[cix] for cix in tag[1:])
            if any(ch is None for ch in children):
                node_of[idx] = None
            else:
                node_of[idx] = rep.bank.app(tag[0], children)
        pair = (int(eng.rows[idx][0]), int(eng.rows[idx][1]))
        out[pair] = node_of[idx]
    return out


def fix_value(alg: FiniteAlgebra, rep: EnumeratedCompactRep, value,
              coord: int = 1) -> EnumeratedCompactRep:
    """Compact representation of {x in R : x(coord) = value}.

    `rep` must be an enumerated compact representation of its subpower and
    all coordinates before `coord` must already be constant on it (fixing
    proceeds front to back).  An empty result is a value, not an error.
    """
    return fix_block(alg, rep, [value], coord=coord)


def fix_block(alg: FiniteAlgebra, rep: EnumeratedCompactRep, block,
              coord: int = 1) -> EnumeratedCompactRep:
    """As fix_value with the membership predicate x(coord) in block."""
    block = sorted(set(block))
    if not block:
        raise AlgebraError("empty block")
    out = EnumeratedCompactRep(rep.generators, [], rep.bank)
    if rep.is_empty():
        return out
    tuples = rep.tuples()
    k = len(tuples[0])
    c = coord - 1
    if not 0 <= c < k:
        raise AlgebraError("coordinate out of range")
    if not any(t[c] in block for t in tuples):
        return out

    forks = _fork_index(tuples)
    args = [np.asarray(g) for g in rep.generators]
    emitted = set()

    def emit(tup, node):
        if tup not in emitted:
            emitted.add(tup)
            out.add(tup, node)

    values: dict = {}

    def materialize(node):
        # the same pair node recurs across fork triples: evaluate it once
        got = values.get(node)
        if got is None:
            got = values[node] = tuple(
                eval_nodes(alg, rep.bank, [node], args)[node].tolist())
        return got

    # realize every block value occurring at the fixed coordinate
    self_pairs = _pair_closure(alg, rep, c, c)
    for (x, _), pnode in sorted(self_pairs.items()):
        if x in block:
            emit(materialize(pnode), pnode)

    for j in range(c + 1, k):
        pairs = _pair_closure(alg, rep, c, j)
        reachable: dict = {}
        for (x, y), pnode in sorted(pairs.items()):
            if x in block and y not in reachable:
                reachable[y] = pnode
        for (i, a, b), (idx_a, idx_b) in forks.items():
            if i != j + 1 or a == b or a not in reachable:
                continue
            pnode = reachable[a]
            t_val = materialize(pnode)
            emit(t_val, pnode)
            s_val = maltsev_fold(alg, t_val, tuples[idx_a], tuples[idx_b])
            na, nb = rep.entries[idx_a][1], rep.entries[idx_b][1]
            s_node = None if None in (pnode, na, nb) else \
                rep.bank.splice(alg.maltsev, [pnode, na, nb])
            emit(s_val, s_node)
    return out


def fix_values(alg: FiniteAlgebra, rep: EnumeratedCompactRep,
               values) -> EnumeratedCompactRep:
    """Fix coordinates 1..m to the given values, front to back."""
    current = rep
    for pos, value in enumerate(values, start=1):
        current = fix_value(alg, current, value, coord=pos)
        if current.is_empty():
            return current
    return current
