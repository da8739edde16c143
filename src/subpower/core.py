"""Finite algebras as operation tables, circuit evaluation, and closure.

The closure engine here is the exhaustive reference ("the oracle"): it
generates subpowers by repeatedly applying the basic operations
coordinate-wise until a fixpoint, with no algebra-specific shortcuts.  It is
exponential by nature and guarded by a size cap.  Ternary operations are
applied through deduplicated partial applications: the unary map
``z -> f(a, b, z)`` is computed once per distinct per-coordinate function
vector instead of once per pair (a, b), which keeps desk-scale closures fast
without changing the result.  One key set (``_KeySet``) records the rows
seen, and one per ternary symbol its partial maps.

Algebras and operations are frozen, with tables held as tuples and
read-only arrays, so a value derived from an algebra is kept on it as a
``functools.cached_property`` (``maltsev_table``, the ternary
operations' ``_partial_maps``, and the affine forms
``affine.verify_affine`` has checked): it cannot go stale, and is freed
with the algebra.
"""

from __future__ import annotations

import numbers
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import product
from types import MappingProxyType

import numpy as np

from .circuits import Circuit, CircuitBank, _needed

DEFAULT_CAP = 10_000_000


class AlgebraError(ValueError):
    pass


class ClosureCapExceeded(RuntimeError):
    """Raised when a closure grows past its tuple cap."""

    def __init__(self, cap: int):
        super().__init__(f"closure exceeded cap of {cap} tuples")
        self.cap = cap


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


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
        object.__setattr__(self, "table", tuple(self.table))


@dataclass(frozen=True, eq=False)
class FiniteAlgebra:
    """An algebra on {0..size-1} given by flat row-major operation tables,
    frozen: ``op_by_symbol`` is read-only, and so are the int16 arrays that
    ``table`` hands to evaluation and closure."""

    size: int
    ops: tuple
    maltsev: Circuit
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        if self.size < 1:
            raise AlgebraError("domain must be non-empty")
        ops = tuple(self.ops)
        tables = {}
        for op in ops:
            if op.symbol in tables:
                raise AlgebraError(f"duplicate operation symbol {op.symbol!r}")
            if len(op.table) != self.size ** op.arity:
                raise AlgebraError(
                    f"{op.symbol}: table has {len(op.table)} entries, "
                    f"expected {self.size ** op.arity}")
            tables[op.symbol] = _frozen(element_array(
                op.table, self.size, f"{op.symbol} table").astype(np.int16))
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "op_by_symbol",
                           MappingProxyType({op.symbol: op for op in ops}))
        object.__setattr__(self, "_np_tables", tables)
        if check:
            pair = maltsev_counterexample(self, self.maltsev)
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

    def apply(self, symbol: str, args) -> int:
        """The value of `symbol` at `args`: AlgebraError unless they are
        `arity` integers in 0..size-1 (``element_array``)."""
        arity = self.op(symbol).arity
        idx = element_array(args, self.size, f"{symbol} arguments")
        if idx.shape != (arity,):
            raise AlgebraError(f"{symbol}: expected {arity} arguments")
        flat = 0
        for a in idx.tolist():
            flat = flat * self.size + a
        return int(self._np_tables[symbol][flat])

    @cached_property
    def maltsev_table(self) -> np.ndarray:
        """The designated Mal'tsev circuit tabulated as a read-only
        (size, size, size) array."""
        n = self.size
        grid = np.indices((n, n, n)).reshape(3, -1)
        bank = CircuitBank(3)
        node = bank.splice(self.maltsev, [bank.var(1), bank.var(2), bank.var(3)])
        vals = eval_nodes(self, bank, [node], list(grid))[node]
        return _frozen(vals.reshape(n, n, n))

    @cached_property
    def _partial_maps(self) -> MappingProxyType:
        """Per ternary symbol, read-only: the index of the map
        z -> f(a, b, z) of each pair (a, b), at a * size + b, and the
        distinct maps, one row each."""
        q = self.size
        maps = {}
        for op in self.ops:
            if op.arity == 3:
                cube = self._np_tables[op.symbol].reshape(q * q, q)
                umaps, fid = np.unique(cube, axis=0, return_inverse=True)
                maps[op.symbol] = (_frozen(fid.astype(np.int64)),
                                   _frozen(umaps))
        return MappingProxyType(maps)

    @cached_property
    def _affine_forms(self) -> dict:
        """AbelianGroupSpec -> the operations' affine forms over it, each
        entered by ``affine.verify_affine`` once its checks have passed."""
        return {}

    def __repr__(self):
        syms = ",".join(f"{op.symbol}/{op.arity}" for op in self.ops)
        return f"FiniteAlgebra(|A|={self.size}, ops=[{syms}])"


def is_int(value) -> bool:
    """An integer, numpy's included; a bool is not one."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def integer(value, name: str) -> int:
    """`value` as an int.  Anything but an integer, such as a bool, a float
    like 3.0 or a string, is refused, not converted: AlgebraError names
    the field as ``name = value``."""
    if not is_int(value):
        raise AlgebraError(f"{name} = {value!r} is not an integer")
    return int(value)


def element_array(entries, size: int, name: str = "elements") -> np.ndarray:
    """`entries` (a tuple, or rows of equal-length tuples) as an int64
    array, every entry an integer in 0..size-1.

    One array conversion and one range test accept them; numpy integers
    and bools count as integers.  Otherwise AlgebraError names the first
    entry, row by row, that is not an integer in range, as
    ``name[i][j] = value``: a float such as 1.7 is refused, not truncated,
    and so is a string.  Rows of unequal length are refused too.
    """
    try:
        arr = np.asarray(entries)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if (arr is not None and (arr.dtype.kind in "biu" or not arr.size)
            and not (arr.size and (arr.min() < 0 or arr.max() >= size))):
        return arr.astype(np.int64, copy=False)
    for at, value in _entries(entries, ()):
        integral = isinstance(value, (numbers.Integral, np.bool_))
        if not integral or not 0 <= value < size:
            fault = (f"out of range 0..{size - 1}" if integral
                     else "is not an integer")
            where = "".join(f"[{i}]" for i in at)
            raise AlgebraError(f"{name}{where} = {value!r} {fault}")
    raise AlgebraError("tuples have unequal lengths")


def _entries(entries, at: tuple):
    """(index, value) of every entry of nested sequences, row by row."""
    if isinstance(entries, (str, bytes)) or not np.iterable(entries):
        yield at, entries
        return
    for i, item in enumerate(entries):
        yield from _entries(item, at + (i,))


def _check_tuples(alg: FiniteAlgebra, tuples) -> np.ndarray:
    """A non-empty family of equal-length tuples over the domain, checked,
    as one (n, k) int64 array."""
    if not isinstance(tuples, np.ndarray):
        tuples = list(tuples)
    if not len(tuples):
        raise AlgebraError("empty tuple family")
    rows = element_array(tuples, alg.size, "tuples")
    if rows.ndim != 2:
        raise AlgebraError("expected a family of equal-length tuples")
    return rows


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
    rows = (_check_tuples(alg, args) if len(args)
            else np.zeros((0, 1), dtype=np.int64))
    return _circuit_values(alg, circuit, list(rows), rows.shape[1])


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

class _KeySet:
    """The rows of one width over {0..base-1} seen so far.

    A row's key is its mixed-radix code when base**width < 2**62, else its
    bytes.  When base**width <= 2**24 the codes are kept in a bitmap; other
    keys in a sorted array plus a short sorted tail, merged into it every
    few hundred additions.
    """

    _TAIL = 256

    def __init__(self, base: int, width: int):
        space = base ** width
        if space < 1 << 62:
            self.powers = (base ** np.arange(width - 1, -1, -1)).astype(np.int64)
            dtype = np.dtype(np.int64)
        else:
            self.powers = None
            self.itemtype = np.min_scalar_type(base - 1)
            dtype = np.dtype((np.void, width * self.itemtype.itemsize))
        self.bitmap = np.zeros(space, dtype=bool) if space <= 1 << 24 else None
        self.core = self.tail = np.empty(0, dtype=dtype)

    def keys(self, mat) -> np.ndarray:
        """One key per row of `mat`."""
        if self.powers is not None:
            return np.asarray(mat, dtype=np.int64) @ self.powers
        raw = np.ascontiguousarray(mat, dtype=self.itemtype)
        return raw.view(self.core.dtype).ravel()

    def _known(self, keys: np.ndarray) -> np.ndarray:
        if self.bitmap is not None:
            return self.bitmap[keys]
        known = np.zeros(len(keys), dtype=bool)
        for arr in (self.core, self.tail):
            if len(arr):
                pos = np.minimum(np.searchsorted(arr, keys), len(arr) - 1)
                known |= arr[pos] == keys
        return known

    def fresh(self, mat, limit: int | None = None) -> np.ndarray:
        """Ascending positions in `mat` where a row not seen before first
        occurs; only the first `limit` of them (all by default) are marked
        as seen."""
        keys = self.keys(mat)
        new = np.flatnonzero(~self._known(keys))
        if len(new) > 1:
            _, first = np.unique(keys[new], return_index=True)
            new = np.sort(new[first])
        marked = keys[new[:limit]]
        if self.bitmap is not None:
            self.bitmap[marked] = True
        elif len(marked):
            self.tail = np.sort(np.concatenate([self.tail, marked]),
                                kind="stable")
            if len(self.tail) > self._TAIL:
                self.core = np.sort(np.concatenate([self.core, self.tail]),
                                    kind="stable")
                self.tail = self.tail[:0]
        return new


# entries of one block of the batched map sweep
_SWEEP_ENTRIES = 1 << 18


class _Closure:
    """Fixpoint closure of tuple sets under the basic operations.

    With `track`, each row records how it was first made (``prov``), and
    the partial maps are swept in registration order, so the circuits are
    first-discovery.  Without it the maps that have seen the same rows are
    swept together.  A `truncate` run stops at `cap` rows, the first `cap`
    rows of the full run, where an untruncated one raises.
    """

    def __init__(self, alg: FiniteAlgebra, gens, cap: int, track: bool,
                 truncate: bool = False):
        self.alg = alg
        self.cap = cap
        self.track = track
        self.truncate = truncate
        self.truncated = False
        gen_rows = _check_tuples(alg, gens)
        self.k = gen_rows.shape[1]
        q = self.q = alg.size
        self._store = np.zeros((64, self.k), dtype=np.int16)
        self.prov: list = []
        self.n = 0
        self.processed = 0
        self.seen = _KeySet(q, self.k)
        # per ternary symbol: the index of the map z -> f(a, b, z) of each
        # pair (a, b), the distinct maps, and the key set of the registered
        # per-coordinate map vectors; map_vecs, map_rep and map_done hold
        # each vector, its rows (a, b) and how many rows it has been applied to
        self.tern: dict[str, tuple] = {
            symbol: (fid, umaps, _KeySet(len(umaps), self.k))
            for symbol, (fid, umaps) in alg._partial_maps.items()}
        self.map_vecs: dict[str, list[np.ndarray]] = {s: [] for s in self.tern}
        self.map_rep: dict[str, list[tuple[int, int]]] = {s: [] for s in self.tern}
        self.map_done: dict[str, list[int]] = {s: [] for s in self.tern}

        self._add(gen_rows.astype(np.int16), lambda j: ("gen", j))
        for op in alg.ops:
            if op.arity == 0:
                self._add(np.full((1, self.k), op.table[0], dtype=np.int16),
                          lambda j: (op.symbol,))

    @property
    def rows(self) -> np.ndarray:
        return self._store[:self.n]

    def _add(self, mat: np.ndarray, prov) -> None:
        """Admit the new rows of `mat`, at most up to the cap; `prov` maps a
        row's position in `mat` to its provenance tag."""
        room = self.cap - self.n
        fresh = self.seen.fresh(mat, room)
        if len(fresh) > room:
            if not self.truncate:
                raise ClosureCapExceeded(self.cap)
            self.truncated = True
            fresh = fresh[:room]
        if not len(fresh):
            return
        need = self.n + len(fresh)
        if need > len(self._store):
            grown = np.zeros((max(need, 2 * len(self._store)), self.k), np.int16)
            grown[:self.n] = self._store[:self.n]
            self._store = grown
        self._store[self.n:need] = mat[fresh]
        if self.track:
            self.prov.extend(map(prov, fresh.tolist()))
        self.n = need

    def _pair_maps(self, symbol: str, first: np.ndarray, first_idx: int,
                   others: np.ndarray, xfirst: bool) -> None:
        """Register the new partial applications f(a, b, .) of the pairs of
        `first` (as a if `xfirst`, else as b) with each row of `others`."""
        fid, _, seen = self.tern[symbol]
        if xfirst:
            pair = fid[first.astype(np.int64)[None, :] * self.q + others]
        else:
            pair = fid[others.astype(np.int64) * self.q + first[None, :]]
        new = seen.fresh(pair)
        self.map_vecs[symbol].extend(pair[new])
        self.map_rep[symbol].extend((first_idx, i) if xfirst else (i, first_idx)
                                    for i in new.tolist())
        self.map_done[symbol].extend([0] * len(new))

    def run(self):
        sweep = self._sweep_single if self.track else self._sweep_batched
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
                    tab = self.alg.table(op.symbol)
                    if op.arity == 1:
                        self._add(tab[x][None, :], lambda j: (op.symbol, i))
                    elif op.arity == 2:
                        tab = tab.reshape(self.q, self.q)
                        self._add(tab[x[None, :], current],
                                  lambda j: (op.symbol, i, j))
                        self._add(tab[current, x[None, :]],
                                  lambda j: (op.symbol, j, i))
                    elif op.arity == 3:
                        self._pair_maps(op.symbol, x, i, current, True)
                        self._pair_maps(op.symbol, x, i, current, False)
                    elif op.arity > 3:
                        self._slow_combos(op, i)
            if self.truncated:
                return
            for symbol in self.tern:
                progress |= sweep(symbol)
                if self.truncated:
                    return
            if not progress:
                return

    def _sweep_single(self, symbol: str) -> bool:
        """Apply each registered partial map, in order, to the rows it has
        not seen."""
        umaps = self.tern[symbol][1]
        done = self.map_done[symbol]
        progress = False
        for mid, vec in enumerate(self.map_vecs[symbol]):
            start, stop = done[mid], self.n
            if start >= stop:
                continue
            progress = True
            done[mid] = stop
            a, b = self.map_rep[symbol][mid]
            self._add(umaps[vec[None, :], self.rows[start:stop]],
                      lambda j: (symbol, a, b, start + j))
            if self.truncated:
                break
        return progress

    def _sweep_batched(self, symbol: str) -> bool:
        """The map sweep of an untracked closure: the maps that have seen
        the same rows are applied together, a bounded block at a time."""
        umaps = self.tern[symbol][1]
        vecs, done = self.map_vecs[symbol], self.map_done[symbol]
        buckets: dict = {}
        for mid, d in enumerate(done):
            if d < self.n:
                buckets.setdefault(d, []).append(mid)
        for d, mids in sorted(buckets.items()):
            stop = self.n
            batch = self.rows[d:stop]
            chunk = max(1, _SWEEP_ENTRIES // max(1, batch.size))
            for lo in range(0, len(mids), chunk):
                vmat = np.stack([vecs[mid] for mid in mids[lo:lo + chunk]])
                self._add(umaps[vmat[:, None, :], batch[None, :, :]]
                          .reshape(-1, self.k), None)
            for mid in mids:
                done[mid] = stop
        return bool(buckets)

    def _slow_combos(self, op: Operation, new_idx: int):
        # rarely used: arities above 3 fall back to explicit enumeration
        tab = self.alg.table(op.symbol)
        for args in product(range(self.n), repeat=op.arity):
            if new_idx not in args:
                continue
            cols = np.zeros(self.k, dtype=np.int64)
            for a in args:
                cols = cols * self.q + self.rows[a]
            self._add(tab[cols][None, :], lambda j: (op.symbol,) + args)

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
    return set(map(tuple, eng.rows.tolist()))


def smp_oracle(alg: FiniteAlgebra, gens, b, cap: int = DEFAULT_CAP) -> bool:
    """Exhaustive membership test: is b generated by `gens` in A^k?"""
    k = _check_tuples(alg, gens).shape[1]
    if len(b) != k:
        raise AlgebraError("target length differs from generators")
    element_array(b, alg.size, "target")
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
    tuples = list(map(tuple, eng.rows.tolist()))
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
