"""Finite algebras as operation tables, circuit evaluation, and closure.

The closure engine here is the exhaustive reference ("the oracle"): it
generates subpowers by repeatedly applying the basic operations
coordinate-wise until a fixpoint, with no algebra-specific shortcuts.  It is
exponential by nature and guarded by a size cap.  Ternary operations are
applied through deduplicated partial applications: the unary map
``z -> f(a, b, z)`` is computed once per distinct per-coordinate function
vector instead of once per pair (a, b), which keeps desk-scale closures fast
without changing the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .circuits import Circuit, CircuitBank

DEFAULT_CAP = 10_000_000


class AlgebraError(ValueError):
    pass


class ClosureCapExceeded(RuntimeError):
    """Raised when a closure grows past its tuple cap."""

    def __init__(self, cap: int):
        super().__init__(f"closure exceeded cap of {cap} tuples")
        self.cap = cap


@dataclass(frozen=True)
class Operation:
    symbol: str
    arity: int
    table: tuple

    def __post_init__(self):
        # circuits write an application as (symbol arg ...) and input i as
        # the gate ("x", i); a symbol must not read back as anything else
        symbol = self.symbol
        if not isinstance(symbol, str) or not symbol:
            raise AlgebraError(
                f"operation symbol {symbol!r} is not a non-empty string")
        if symbol in ("x", "let"):
            raise AlgebraError(f"operation symbol {symbol!r} is reserved "
                               "in circuits (input gates and let bindings)")
        if any(ch.isspace() or ch in "()" for ch in symbol):
            raise AlgebraError(f"operation symbol {symbol!r} contains "
                               "whitespace or a parenthesis")
        if self.arity < 0:
            raise AlgebraError(f"{self.symbol}: negative arity")


class FiniteAlgebra:
    """An algebra on {0..size-1} given by flat row-major operation tables."""

    def __init__(self, size: int, ops, maltsev: Circuit, check: bool = True):
        if size < 1:
            raise AlgebraError("domain must be non-empty")
        self.size = size
        self.ops = tuple(ops)
        self.maltsev = maltsev
        self.op_by_symbol = {}
        for op in self.ops:
            if op.symbol in self.op_by_symbol:
                raise AlgebraError(f"duplicate operation symbol {op.symbol!r}")
            if len(op.table) != size ** op.arity:
                raise AlgebraError(
                    f"{op.symbol}: table has {len(op.table)} entries, "
                    f"expected {size ** op.arity}")
            if any(not 0 <= v < size for v in op.table):
                raise AlgebraError(f"{op.symbol}: table entry out of range")
            self.op_by_symbol[op.symbol] = op
        self._np_tables = {
            op.symbol: np.asarray(op.table, dtype=np.int16) for op in self.ops}
        if check:
            pair = maltsev_counterexample(self, maltsev)
            if pair is not None:
                raise AlgebraError(
                    "designated Mal'tsev circuit fails m(y,x,x)=m(x,x,y)=y "
                    f"at (x, y) = {pair}")

    def op(self, symbol: str) -> Operation:
        try:
            return self.op_by_symbol[symbol]
        except KeyError:
            raise AlgebraError(f"unknown operation symbol {symbol!r}") from None

    def table(self, symbol: str) -> np.ndarray:
        self.op(symbol)
        return self._np_tables[symbol]

    def apply(self, symbol: str, args: tuple[int, ...]) -> int:
        op = self.op(symbol)
        if len(args) != op.arity:
            raise AlgebraError(f"{symbol}: expected {op.arity} arguments")
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return op.table[idx]

    def __repr__(self):
        syms = ",".join(f"{op.symbol}/{op.arity}" for op in self.ops)
        return f"FiniteAlgebra(|A|={self.size}, ops=[{syms}])"


def _check_tuples(alg: FiniteAlgebra, tuples) -> int:
    """Validate a family of equal-length tuples over the domain; return k."""
    tuples = list(tuples)
    if not tuples:
        raise AlgebraError("empty tuple family")
    k = len(tuples[0])
    for t in tuples:
        if len(t) != k:
            raise AlgebraError("tuples have unequal lengths")
        for v in t:
            if not 0 <= v < alg.size:
                raise AlgebraError(f"element {v} out of range 0..{alg.size - 1}")
    return k


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
            if gate[0] != "x":
                stack.extend(gate[1:])
    return sorted(need)


def _evaluate(alg: FiniteAlgebra, gates, order, mats, length: int) -> dict:
    """{gate: values} for the gates in ``order``, one pass, children first;
    ``mats`` holds one int64 array per input variable."""
    size = alg.size
    ops: dict = {}
    val: dict = {}
    for node in order:
        gate = gates[node]
        symbol = gate[0]
        if symbol == "x":
            val[node] = mats[gate[1] - 1]
            continue
        got = ops.get(symbol)
        if got is None:
            got = ops[symbol] = (alg.op(symbol).arity,
                                 alg.table(symbol).astype(np.int64))
        arity, table = got
        if len(gate) - 1 != arity:
            raise AlgebraError(f"{symbol}: gate arity mismatch")
        if arity == 0:
            val[node] = np.full(length, table[0], dtype=np.int64)
        elif arity == 1:
            val[node] = table[val[gate[1]]]
        else:
            idx = val[gate[1]] * size + val[gate[2]]
            for child in gate[3:]:
                idx = idx * size + val[child]
            val[node] = table[idx]
    return val


def eval_nodes(alg: FiniteAlgebra, bank: CircuitBank, nodes, args) -> dict:
    """Evaluate bank nodes coordinate-wise on ``args`` (one array per input).

    Returns {node: np.ndarray}.  The gates the nodes need are collected
    first and evaluated once each in increasing node id, so shared gates
    are computed once.
    """
    if len(args) != bank.arity:
        raise AlgebraError(
            f"circuit arity {bank.arity} but {len(args)} argument tuples given")
    mats = [np.asarray(a, dtype=np.int64) for a in args]
    length = len(mats[0]) if mats else 1
    val = _evaluate(alg, bank.gates, _needed(bank.gates, nodes), mats, length)
    return {node: val[node] for node in nodes}


def _circuit_values(alg: FiniteAlgebra, circuit: Circuit, mats,
                    length: int) -> tuple:
    """``eval_circuit`` on arguments already checked and held as int64
    arrays, one per input (``length`` is their common length)."""
    out = _evaluate(alg, circuit.gates,
                    _needed(circuit.gates, [circuit.output]), mats,
                    length)[circuit.output]
    return tuple(out.tolist())


def eval_circuit(alg: FiniteAlgebra, circuit: Circuit, args) -> tuple:
    """Coordinate-wise evaluation of a circuit on argument tuples."""
    if len(args) != circuit.arity:
        raise AlgebraError(
            f"circuit arity {circuit.arity} but {len(args)} argument tuples given")
    if args:
        _check_tuples(alg, args)
        k = len(args[0])
    else:
        k = 1
    return _circuit_values(alg, circuit,
                           [np.asarray(a, dtype=np.int64) for a in args], k)


def verify_maltsev(alg: FiniteAlgebra, circuit: Circuit | None = None) -> bool:
    """Check m(y,x,x) = m(x,x,y) = y over the whole domain."""
    return maltsev_counterexample(alg, circuit) is None


def maltsev_counterexample(alg: FiniteAlgebra,
                           circuit: Circuit | None = None) -> tuple | None:
    """The first (x, y) violating a Mal'tsev identity, or None."""
    c = circuit if circuit is not None else alg.maltsev
    if c.arity != 3:
        raise AlgebraError("Mal'tsev circuit must be ternary")
    n = alg.size
    xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    xs, ys = xs.ravel(), ys.ravel()
    bank = CircuitBank(3)
    node = bank.splice(c, [bank.var(1), bank.var(2), bank.var(3)])
    left = eval_nodes(alg, bank, [node], [ys, xs, xs])[node]
    right = eval_nodes(alg, bank, [node], [xs, xs, ys])[node]
    bad = np.flatnonzero((left != ys) | (right != ys))
    if len(bad) == 0:
        return None
    i = int(bad[0])
    return int(xs[i]), int(ys[i])


# ---------------------------------------------------------------------------
# congruences

def is_congruence(alg: FiniteAlgebra, blocks) -> bool:
    """Is the block-id partition invariant under all basic operations?"""
    blocks = tuple(blocks)
    if len(blocks) != alg.size:
        raise AlgebraError("partition must assign a block to every element")
    # invariance under single-coordinate replacement suffices (transitivity)
    classes: dict[int, list[int]] = {}
    for x, b in enumerate(blocks):
        classes.setdefault(b, []).append(x)
    for op in alg.ops:
        if op.arity == 0:
            continue
        for args in product(range(alg.size), repeat=op.arity):
            base = alg.apply(op.symbol, args)
            for pos in range(op.arity):
                for y in classes[blocks[args[pos]]]:
                    alt = alg.apply(op.symbol, args[:pos] + (y,) + args[pos + 1:])
                    if blocks[alt] != blocks[base]:
                        return False
    return True


def kernel_partition(values) -> tuple:
    """Block ids of the kernel of a map given by its value list."""
    ids: dict = {}
    out = []
    for v in values:
        out.append(ids.setdefault(v, len(ids)))
    return tuple(out)


def verify_central(alg: FiniteAlgebra, blocks, cap: int = DEFAULT_CAP) -> bool:
    """Decide the term condition C(rho, 1; 0) for the congruence `blocks`.

    Uses the matrix-subalgebra method: close the quadruples (a,a,b,b) for
    rho-related (a,b) together with (c,d,c,d) for all c,d, and look for a
    generated quadruple (x,y,u,v) with x = y but u != v.

    Note on conventions: centrality of rho is taken as C(rho, 1; 0), the
    form used in central series; some sources swap the first two arguments
    in prose.
    """
    blocks = tuple(blocks)
    if not is_congruence(alg, blocks):
        raise AlgebraError("partition is not a congruence")
    gens = []
    n = alg.size
    for a in range(n):
        for b in range(n):
            if blocks[a] == blocks[b]:
                gens.append((a, a, b, b))
    for c in range(n):
        for d in range(n):
            gens.append((c, d, c, d))
    closed = subpower_closure(alg, gens, cap=cap)
    for (x, y, u, v) in closed:
        if x == y and u != v:
            return False
    return True


# ---------------------------------------------------------------------------
# closure engine

class _KeyIndex:
    """Membership index for int64 keys: sorted core plus a small pending tail."""

    __slots__ = ("core", "pending", "pending_set", "_pending_arr")

    def __init__(self):
        self.core = np.empty(0, dtype=np.int64)
        self.pending: list = []
        self.pending_set: set = set()
        self._pending_arr = None

    def _compact(self) -> None:
        if self.pending:
            self.core = np.sort(np.concatenate(
                [self.core, np.asarray(self.pending, dtype=np.int64)]))
            self.pending.clear()
            self.pending_set.clear()
            self._pending_arr = None

    def new_mask(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask of keys not yet present (duplicates both marked)."""
        if len(self.pending) > 256:
            self._compact()
        if len(self.core):
            pos = np.searchsorted(self.core, keys)
            pos = np.minimum(pos, len(self.core) - 1)
            known = self.core[pos] == keys
        else:
            known = np.zeros(len(keys), dtype=bool)
        if self.pending:
            if self._pending_arr is None:
                self._pending_arr = np.sort(
                    np.asarray(self.pending, dtype=np.int64))
            pa = self._pending_arr
            pos = np.minimum(np.searchsorted(pa, keys), len(pa) - 1)
            known |= pa[pos] == keys
        return ~known

    def add(self, key: int) -> None:
        self.pending.append(int(key))
        self.pending_set.add(int(key))
        self._pending_arr = None

    def __contains__(self, key: int) -> bool:
        if key in self.pending_set:
            return True
        if len(self.core) == 0:
            return False
        pos = int(np.searchsorted(self.core, key))
        return pos < len(self.core) and int(self.core[pos]) == key


class _Closure:
    """Fixpoint closure of tuple sets under the basic operations."""

    def __init__(self, alg: FiniteAlgebra, gens, cap: int, track: bool,
                 truncate: bool = False):
        self.alg = alg
        self.cap = cap
        self.track = track
        self.truncate = truncate
        self.truncated = False
        self.k = _check_tuples(alg, gens)
        q = alg.size
        self.q = q
        self._store = np.zeros((64, self.k), dtype=np.int16)
        self.prov: list = []
        self.n = 0
        self.processed = 0
        self.pack = q ** self.k < 2 ** 62
        self.dense = self.pack and q ** self.k <= 1 << 24 and not track
        if self.pack:
            self.powers = (q ** np.arange(self.k - 1, -1, -1)).astype(np.int64)
            self.codes = _KeyIndex() if not self.dense else None
            if self.dense:
                self.presence = np.zeros(q ** self.k, dtype=bool)
        else:
            self.codes = set()
        # partial-application tables for ternary symbols
        self.tern: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for op in alg.ops:
            if op.arity == 3:
                cube = np.asarray(op.table, dtype=np.int16).reshape(q * q, q)
                umaps, fid = np.unique(cube, axis=0, return_inverse=True)
                self.tern[op.symbol] = (fid.astype(np.int64), umaps)
        self.nfinfo: dict[str, tuple[bool, np.ndarray | None]] = {}
        self.maps: dict[str, object] = {}
        for symbol, (fid, umaps) in self.tern.items():
            nf = len(umaps)
            if nf ** self.k < 2 ** 62:
                self.nfinfo[symbol] = (
                    True, (nf ** np.arange(self.k - 1, -1, -1)).astype(np.int64))
                if nf ** self.k <= 1 << 24:
                    self.maps[symbol] = np.zeros(nf ** self.k, dtype=bool)
                else:
                    self.maps[symbol] = _KeyIndex()
            else:
                self.nfinfo[symbol] = (False, None)
                self.maps[symbol] = set()
        self.map_vecs: dict[str, list[np.ndarray]] = {s: [] for s in self.tern}
        self.map_rep: dict[str, list[tuple[int, int]]] = {s: [] for s in self.tern}
        self.map_done: dict[str, list[int]] = {s: [] for s in self.tern}

        init = np.asarray([tuple(g) for g in gens], dtype=np.int16)
        self._add(init, [("gen", j) for j in range(len(gens))])
        for op in alg.ops:
            if op.arity == 0:
                const = np.full((1, self.k), op.table[0], dtype=np.int16)
                self._add(const, [(op.symbol,)])

    @property
    def rows(self) -> np.ndarray:
        return self._store[:self.n]

    def _key_rows(self, mat: np.ndarray):
        if self.pack:
            return mat.astype(np.int64) @ self.powers
        return np.ascontiguousarray(mat).view(
            np.dtype((np.void, mat.dtype.itemsize * self.k))).ravel()

    def _fresh_indices(self, keys) -> list:
        """Indices of first occurrences of keys not seen before, marking them."""
        if self.dense:
            mask = ~self.presence[keys]
            if not mask.any():
                return []
            cand = np.flatnonzero(mask)
            _, first = np.unique(keys[cand], return_index=True)
            out = sorted(int(cand[j]) for j in first)
            self.presence[keys[out]] = True
            return out
        if self.pack:
            mask = self.codes.new_mask(keys)
            if not mask.any():
                return []
            cand = np.flatnonzero(mask)
            _, first = np.unique(keys[cand], return_index=True)
            out = []
            for i in sorted(int(cand[j]) for j in first):
                self.codes.add(int(keys[i]))
                out.append(i)
            return out
        _, first = np.unique(keys, return_index=True)
        out = []
        for i in sorted(int(j) for j in first):
            key = keys[i].tobytes()
            if key not in self.codes:
                self.codes.add(key)
                out.append(i)
        return out

    def _drop_key(self, mat_row) -> None:
        key = self._key_rows(mat_row[None, :])[0]
        if self.dense:
            self.presence[int(key)] = False
        elif self.pack:
            k = int(key)
            self.codes.pending_set.discard(k)
            if k in self.codes.pending:
                self.codes.pending.remove(k)
        else:
            self.codes.discard(key.tobytes())

    def _add(self, mat: np.ndarray, prov) -> None:
        if mat.size == 0:
            return
        mat = np.ascontiguousarray(mat, dtype=np.int16)
        keys = self._key_rows(mat)
        fresh = self._fresh_indices(keys)
        if not fresh:
            return
        if self.n + len(fresh) > self.cap:
            if self.truncate:
                room = self.cap - self.n
                for i in fresh[room:]:
                    self._drop_key(mat[i])
                fresh = fresh[:room]
                self.truncated = True
                if not fresh:
                    return
            else:
                raise ClosureCapExceeded(self.cap)
        need = self.n + len(fresh)
        if need > len(self._store):
            grown = np.zeros((max(need, 2 * len(self._store)), self.k), np.int16)
            grown[:self.n] = self._store[:self.n]
            self._store = grown
        self._store[self.n:need] = mat[fresh]
        if self.track:
            self.prov.extend(prov[i] if isinstance(prov, list) else prov
                             for i in fresh)
        self.n = need

    def _pair_maps(self, symbol: str, first: np.ndarray, first_idx: int,
                   others: np.ndarray, other_base: int, order: str) -> None:
        """Register partial applications f(a, b, .) for pairs with `first`."""
        fid, _ = self.tern[symbol]
        if order == "xfirst":
            pair = fid[first.astype(np.int64)[None, :] * self.q + others]
        else:
            pair = fid[others.astype(np.int64) * self.q + first[None, :]]
        registry = self.maps[symbol]
        packable, powers = self.nfinfo[symbol]
        if packable:
            keys = pair @ powers
            if isinstance(registry, np.ndarray):
                mask = ~registry[keys]
            else:
                mask = registry.new_mask(keys)
            if not mask.any():
                return
            cand = np.flatnonzero(mask)
            _, first_pos = np.unique(keys[cand], return_index=True)
            new_rows = sorted(int(cand[j]) for j in first_pos)
            for i in new_rows:
                if isinstance(registry, np.ndarray):
                    registry[int(keys[i])] = True
                else:
                    registry.add(int(keys[i]))
                self._register_map(symbol, pair[i], first_idx, other_base + i,
                                   order)
        else:
            view = np.ascontiguousarray(pair.astype(np.int16))
            keys = view.view(np.dtype((np.void, 2 * self.k))).ravel()
            _, uniq_idx = np.unique(keys, return_index=True)
            for i in sorted(int(j) for j in uniq_idx):
                key = keys[i].tobytes()
                if key in registry:
                    continue
                registry.add(key)
                self._register_map(symbol, pair[i], first_idx, other_base + i,
                                   order)

    def _register_map(self, symbol, vec, first_idx, other_idx, order) -> None:
        self.map_vecs[symbol].append(vec.astype(np.int64))
        if order == "xfirst":
            self.map_rep[symbol].append((first_idx, other_idx))
        else:
            self.map_rep[symbol].append((other_idx, first_idx))
        self.map_done[symbol].append(0)

    def run(self):
        while True:
            progress = False
            while self.processed < self.n:
                if self.truncated:
                    return
                i = self.processed
                self.processed += 1
                progress = True
                x = self.rows[i]
                current = self.rows[:self.n]
                for op in self.alg.ops:
                    if op.arity == 1:
                        tab = self.alg.table(op.symbol)
                        self._add(tab[x][None, :].astype(np.int16),
                                  [(op.symbol, i)] if self.track else None)
                    elif op.arity == 2:
                        tab = self.alg.table(op.symbol).reshape(self.q, self.q)
                        out1 = tab[x[None, :], current].astype(np.int16)
                        self._add(out1, [(op.symbol, i, j) for j in
                                         range(len(current))] if self.track else None)
                        out2 = tab[current, x[None, :]].astype(np.int16)
                        self._add(out2, [(op.symbol, j, i) for j in
                                         range(len(current))] if self.track else None)
                    elif op.arity == 3:
                        self._pair_maps(op.symbol, x, i, current, 0, "xfirst")
                        self._pair_maps(op.symbol, x, i, current, 0, "xsecond")
                    elif op.arity > 3:
                        self._slow_combos(op, i)
            if self.truncated:
                return
            for symbol in self.tern:
                if self.dense:
                    progress |= self._sweep_dense(symbol)
                else:
                    progress |= self._sweep_single(symbol)
                if self.truncated:
                    return
            if not progress:
                return

    def _sweep_single(self, symbol: str) -> bool:
        """Apply each registered partial map to the rows it has not seen."""
        _, umaps = self.tern[symbol]
        progress = False
        for mid in range(len(self.map_vecs[symbol])):
            done = self.map_done[symbol][mid]
            if done >= self.n:
                continue
            progress = True
            stop = self.n
            vec = self.map_vecs[symbol][mid]
            batch = self.rows[done:stop]
            out = umaps[vec[None, :], batch].astype(np.int16)
            if self.track:
                a, b = self.map_rep[symbol][mid]
                prov = [(symbol, a, b, j) for j in range(done, stop)]
            else:
                prov = None
            self.map_done[symbol][mid] = stop
            self._add(out, prov)
            if self.truncated:
                return progress
        return progress

    def _sweep_dense(self, symbol: str, chunk: int = 256) -> bool:
        """Batched variant of the map sweep for small code spaces."""
        _, umaps = self.tern[symbol]
        vecs = self.map_vecs[symbol]
        done = self.map_done[symbol]
        buckets: dict = {}
        for mid, d in enumerate(done):
            if d < self.n:
                buckets.setdefault(d, []).append(mid)
        progress = False
        for d, mids in sorted(buckets.items()):
            stop = self.n
            batch = self.rows[d:stop]
            for lo in range(0, len(mids), chunk):
                part = mids[lo:lo + chunk]
                vmat = np.stack([vecs[mid] for mid in part])
                out = umaps[vmat[:, None, :], batch[None, :, :]]
                self._add(out.reshape(-1, self.k).astype(np.int16), None)
                if self.truncated:
                    return True
            for mid in mids:
                done[mid] = stop
            progress = True
        return progress

    def _slow_combos(self, op: Operation, new_idx: int):
        # rarely used: arities above 3 fall back to explicit enumeration
        idxs = range(self.n)
        tab = self.alg.table(op.symbol)
        for args in product(idxs, repeat=op.arity):
            if new_idx not in args:
                continue
            cols = np.zeros(self.k, dtype=np.int64)
            for a in args:
                cols = cols * self.q + self.rows[a]
            self._add(tab[cols][None, :].astype(np.int16),
                      [(op.symbol,) + tuple(args)])

    def circuit_node(self, bank: CircuitBank, idx: int,
                     memo: dict[int, int]) -> int:
        """Build (hash-consed) the discovery circuit of element `idx`."""
        stack = [idx]
        while stack:
            cur = stack[-1]
            if cur in memo:
                stack.pop()
                continue
            tag = self.prov[cur]
            if tag[0] == "gen":
                memo[cur] = bank.var(tag[1] + 1)
                stack.pop()
                continue
            children = tag[1:]
            pending = [c for c in children if c not in memo]
            if pending:
                stack.extend(pending)
            else:
                memo[cur] = bank.app(tag[0], tuple(memo[c] for c in children))
                stack.pop()
        return memo[idx]


def subpower_closure(alg: FiniteAlgebra, gens, cap: int = DEFAULT_CAP) -> set:
    """Least subset of A^k containing `gens` closed under the basic ops."""
    eng = _Closure(alg, gens, cap, track=False)
    eng.run()
    return {tuple(int(v) for v in row) for row in eng.rows[:eng.n]}


def smp_oracle(alg: FiniteAlgebra, gens, b, cap: int = DEFAULT_CAP) -> bool:
    """Exhaustive membership test: is b generated by `gens` in A^k?"""
    k = _check_tuples(alg, gens)
    if len(b) != k:
        raise AlgebraError("target length differs from generators")
    _check_tuples(alg, [b])
    return tuple(b) in subpower_closure(alg, gens, cap=cap)


def closure_with_circuits(alg: FiniteAlgebra, gens, cap: int = DEFAULT_CAP,
                          truncate: bool = False):
    """Closure plus a defining circuit per element, over `gens` as inputs.

    Returns (tuples, nodes, bank, truncated): parallel lists plus the shared
    bank.  Circuits are first-discovery (shallowest-first order).
    """
    eng = _Closure(alg, gens, cap, track=True, truncate=truncate)
    eng.run()
    bank = CircuitBank(len(list(gens)))
    memo: dict[int, int] = {}
    nodes = [eng.circuit_node(bank, i, memo) for i in range(eng.n)]
    tuples = [tuple(int(v) for v in row) for row in eng.rows[:eng.n]]
    return tuples, nodes, bank, eng.truncated


def clone_enumerate(alg: FiniteAlgebra, arity: int, cap: int = 100_000):
    """All `arity`-ary term operations, each with one defining circuit.

    Tables are flat row-major tuples over A^arity.  Raises
    ClosureCapExceeded when the term count passes `cap`.
    """
    if arity < 0:
        raise AlgebraError("arity must be non-negative")
    n = alg.size
    width = n ** arity
    projections = []
    for j in range(arity):
        block = n ** (arity - 1 - j)
        proj = tuple((idx // block) % n for idx in range(width))
        projections.append(proj)
    if not projections:
        raise AlgebraError("nullary clone enumeration is not supported")
    tables, nodes, bank, _ = closure_with_circuits(alg, projections, cap=cap)
    out = []
    for table, node in zip(tables, nodes):
        out.append((table, bank.extract(node)))
    return out
