"""Pure-Python reference versions of the prefix walk, the fork builder,
circuit splicing, the echelon, bank evaluation, the recursive s-expression
reader and writer, the per-row clonoid image, the clonoid image by
row-by-row elimination, the difference clonoid by term enumeration and
row-by-row elimination (with the term-table helpers it uses), the stepwise
member fold, the elimination generator set of the wreath l-part test, the
quotient fix on the instance and padding columns at once, the wreath solve
that builds every l-part generator before its subgroup test, the affine
closure that eliminates its queue one vector at a time (optionally testing
the image of every new difference under every endomorphism, scalar ones
included) and the affine solve on it.  The plane points and the per-table
u-shift and companion key, which only the tests use, live here too.

These are the straightforward implementations the array code in
``subpower.comprep``, ``subpower.affine``, ``subpower.core`` and
``subpower.wreath``, the compiled ``CircuitBank.splice`` and the
non-recursive ``parse_sexpr``/``serialize_sexpr`` replaced; the
differential tests check the library against them, output for output.
"""

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from subpower import solver
from subpower.affine import (AbelianGroupSpec, AffineSubpowerRep, Echelon,
                             FieldEchelon, affine_span, endo_images,
                             prime_length, span_over, subgroup_member,
                             verify_affine)
from subpower.circuits import (Circuit, CircuitBank, CircuitError,
                               serialize_sexpr)
from subpower.core import (AlgebraError, ClosureCapExceeded, _frozen,
                           closure_with_circuits)
from subpower.wreath import (ClonoidGenSet, Diagonal, Plane, WreathSpec,
                             _classify_rows, _group_rows, _split_positions,
                             classify_row)


def signature(tuples) -> set:
    tuples = [tuple(t) for t in tuples]
    if not tuples:
        return set()
    k = len(tuples[0])
    sig = set()
    group_of = [0] * len(tuples)
    for i in range(k):
        buckets: dict = {}
        for idx, t in enumerate(tuples):
            buckets.setdefault(group_of[idx], {}).setdefault(t[i], []).append(idx)
        reassign: dict = {}
        for gid in buckets:
            for a in buckets[gid]:
                for b in buckets[gid]:
                    sig.add((i + 1, a, b))
        for idx, t in enumerate(tuples):
            key = (group_of[idx], t[i])
            if key not in reassign:
                reassign[key] = len(reassign)
            group_of[idx] = reassign[key]
    return sig


def fork_index(tuples) -> dict:
    """(i, a, b) -> (idx_a, idx_b): lexicographically first witness pair."""
    if not tuples:
        return {}
    k = len(tuples[0])
    order = sorted(range(len(tuples)), key=lambda j: tuples[j])
    index: dict = {}
    groups: dict = {(): order}
    for i in range(k):
        for prefix in sorted(groups):
            members = groups[prefix]
            by_value: dict = {}
            for idx in members:
                by_value.setdefault(tuples[idx][i], []).append(idx)
            for a in sorted(by_value):
                for b in sorted(by_value):
                    key = (i + 1, a, b)
                    if key not in index:
                        index[key] = (by_value[a][0], by_value[b][0])
        next_groups: dict = {}
        for prefix, members in groups.items():
            for idx in members:
                next_groups.setdefault(prefix + (tuples[idx][i],), []).append(idx)
        groups = next_groups
    return index


def thin_entries(entries) -> list:
    """The (tuple, node) entries thin_to_compact keeps, in its order."""
    seen: dict = {}
    for t, n in entries:
        if t not in seen:
            seen[t] = n
    items = sorted(seen.items())
    if not items:
        return []
    k = len(items[0][0])
    keep = set()
    groups: dict = {(): list(range(len(items)))}
    for i in range(k):
        witnessed: dict = {}
        for prefix in sorted(groups):
            members = groups[prefix]
            by_value: dict = {}
            for idx in members:
                by_value.setdefault(items[idx][0][i], []).append(idx)
            for a in sorted(by_value):
                for b in sorted(by_value):
                    if (a, b) not in witnessed:
                        witnessed[(a, b)] = (by_value[a][0], by_value[b][0])
        for ia, ib in witnessed.values():
            keep.add(ia)
            keep.add(ib)
        next_groups: dict = {}
        for prefix, members in groups.items():
            for idx in members:
                next_groups.setdefault(prefix + (items[idx][0][i],), []).append(idx)
        groups = next_groups
    return [items[idx] for idx in sorted(keep)]


def _reachable(add: list, zero: int, elems: list) -> dict:
    combos = {zero: [0] * len(elems)}
    frontier = [zero]
    while frontier:
        v = frontier.pop()
        row = add[v]
        for j, e in enumerate(elems):
            w = row[e]
            if w not in combos:
                c = combos[v].copy()
                c[j] += 1
                combos[w] = c
                frontier.append(w)
    return combos


def fork_coefficients(group: AbelianGroupSpec, ech: Echelon, k: int):
    """The per-coordinate fork combinations, one vector at a time."""
    nrows = len(ech.rows)
    rows = np.asarray(ech.rows, dtype=np.int64).reshape(nrows, k * group.rank)
    at = group.unembed_array(rows).T.tolist()
    add = group.add_table.tolist()
    zero = group.zero
    for i in range(k):
        values = _reachable(add, zero, at[i])
        tail = ech.tail_rows(i * group.rank)
        forks = _reachable(add, zero, [at[i][r] for r in tail])
        for v in sorted(values):
            base = np.asarray(values[v], dtype=np.int64)
            yield base
            for d in sorted(forks):
                if d != zero:
                    total = base.copy()
                    total[tail] += forks[d]
                    yield total


def coset_compact_entries(rep) -> list:
    """The (tuple, node) entries of coset_compact_rep, one combination at a
    time; issues member circuits in rep's bank."""
    m = rep.group.exponent
    ech = rep.tracked_echelon
    nraw = len(rep.raw)
    coeffs = np.asarray([c[:nraw] for c in ech.coeffs],
                        dtype=np.int64).reshape(len(ech.rows), nraw)
    out = []
    emitted = set()
    for combo in fork_coefficients(rep.group, ech, rep.k):
        raw_c = (combo @ coeffs) % m
        flat = rep.member_flat(raw_c)
        key = flat.tobytes()
        if key in emitted:
            continue
        emitted.add(key)
        out.append((rep.group.unembed(flat), rep.member_node(raw_c)))
    return out


def splice(bank, circuit, leaves) -> int:
    """Instantiate `circuit` in `bank` gate by gate, through bank.app."""
    mapped = []
    for gate in circuit.gates:
        if gate[0] == "x":
            mapped.append(leaves[gate[1] - 1])
        else:
            mapped.append(bank.app(gate[0], tuple(mapped[c] for c in gate[1:])))
    return mapped[circuit.output]


def _egcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _unit_scale(a: int, m: int) -> int:
    """A unit u mod m with u*a == gcd(a, m) mod m."""
    d = math.gcd(a, m)
    ap, mp = a // d, m // d
    s = pow(ap, -1, mp) if mp > 1 else 1
    for j in range(d + 1):
        cand = (s + j * mp) % m
        if cand and math.gcd(cand, m) == 1:
            return cand
    raise AssertionError("no unit scaling found")  # unreachable


class ReferenceEchelon:
    """The sequential Echelon with separate row and coefficient arrays and
    a full pivot walk in ``reduce``/``contains``."""

    def __init__(self, m: int, width: int, track: int | None = None):
        if m < 1:
            raise AlgebraError("modulus must be positive")
        self.m = m
        self.width = width
        self.track = track
        self.rows: list[np.ndarray] = []
        self.coeffs: list[np.ndarray] = []
        self.pivots: dict[int, int] = {}
        self._gen_count = 0

    def _lead(self, v: np.ndarray) -> int | None:
        nz = np.flatnonzero(v)
        return int(nz[0]) if len(nz) else None

    def unit_coeff(self) -> np.ndarray | None:
        if self.track is None:
            return None
        c = np.zeros(self.track, dtype=np.int64)
        if self._gen_count >= self.track:
            raise AlgebraError("more generators than the tracking width")
        c[self._gen_count] = 1
        return c

    def insert(self, v, coeff: np.ndarray | None = None) -> bool:
        """Add a generator; returns True when the span grew."""
        m = self.m
        v = np.asarray(v, dtype=np.int64) % m
        if len(v) != self.width:
            raise AlgebraError("vector width mismatch")
        if self.track is not None and coeff is None:
            coeff = self.unit_coeff()
        self._gen_count += 1
        grew = False
        queue = [(v, coeff)]
        while queue:
            w, wc = queue.pop()
            w = w % m
            col = self._lead(w)
            while col is not None:
                ridx = self.pivots.get(col)
                if ridx is None:
                    self.pivots[col] = len(self.rows)
                    self.rows.append(w)
                    self.coeffs.append(wc if wc is not None else None)
                    grew = True
                    ann = m // math.gcd(int(w[col]), m)
                    aw = (ann * w) % m
                    if aw.any():
                        queue.append((aw, None if wc is None else (ann * wc) % m))
                    break
                p = self.rows[ridx]
                pc = self.coeffs[ridx]
                a, b = int(p[col]), int(w[col])
                d = math.gcd(a, m)
                if b % d == 0:
                    mp = m // d
                    q = (b // d) * pow(a // d, -1, mp) % mp if mp > 1 else 0
                    w = (w - q * p) % m
                    if wc is not None:
                        wc = (wc - q * pc) % m
                else:
                    g, s, t = _egcd(a, b)
                    newp = (s * p + t * w) % m
                    neww = ((a // g) * w - (b // g) * p) % m
                    self.rows[ridx] = newp
                    if pc is not None and wc is not None:
                        self.coeffs[ridx] = (s * pc + t * wc) % m
                        wc = ((a // g) * wc - (b // g) * pc) % m
                    grew = True
                    ann = m // math.gcd(int(newp[col]), m)
                    anp = (ann * newp) % m
                    if anp.any():
                        npc = self.coeffs[ridx]
                        queue.append((anp, None if npc is None else (ann * npc) % m))
                    w = neww
                col = self._lead(w)
        return grew

    def reduce(self, v) -> tuple[np.ndarray, np.ndarray | None]:
        """Residue of v modulo the span, plus combination coefficients."""
        m = self.m
        w = np.asarray(v, dtype=np.int64) % m
        used = None
        if self.track is not None:
            used = np.zeros(self.track, dtype=np.int64)
        for col in sorted(self.pivots):
            b = int(w[col])
            if b == 0:
                continue
            ridx = self.pivots[col]
            a = int(self.rows[ridx][col])
            d = math.gcd(a, m)
            if b % d:
                continue
            mp = m // d
            q = (b // d) * pow(a // d, -1, mp) % mp if mp > 1 else 0
            w = (w - q * self.rows[ridx]) % m
            if used is not None and self.coeffs[ridx] is not None:
                used = (used + q * self.coeffs[ridx]) % m
        return w, used

    def contains(self, v) -> bool:
        residue, _ = self.reduce(v)
        return not residue.any()

    def canonicalize(self) -> None:
        """Unit-normalize pivots, clear entries above them, sort rows."""
        m = self.m
        for col in sorted(self.pivots):
            ridx = self.pivots[col]
            a = int(self.rows[ridx][col])
            u = _unit_scale(a, m)
            self.rows[ridx] = (u * self.rows[ridx]) % m
            if self.coeffs[ridx] is not None:
                self.coeffs[ridx] = (u * self.coeffs[ridx]) % m
        for col in sorted(self.pivots):
            ridx = self.pivots[col]
            d = int(self.rows[ridx][col])
            for other_col, oidx in self.pivots.items():
                if oidx == ridx or other_col >= col:
                    continue
                row = self.rows[oidx]
                q = int(row[col]) // d
                if q:
                    self.rows[oidx] = (row - q * self.rows[ridx]) % m
                    if self.coeffs[oidx] is not None and self.coeffs[ridx] is not None:
                        self.coeffs[oidx] = (self.coeffs[oidx]
                                             - q * self.coeffs[ridx]) % m
        order = sorted(self.pivots)
        rows = [self.rows[self.pivots[c]] for c in order]
        coeffs = [self.coeffs[self.pivots[c]] for c in order]
        self.rows, self.coeffs = rows, coeffs
        self.pivots = {c: i for i, c in enumerate(order)}

    def span_size(self) -> int:
        total = 1
        m = self.m
        for col, ridx in self.pivots.items():
            a = int(self.rows[ridx][col])
            total *= m // math.gcd(a, m)
        return total

    def tail_rows(self, start_col: int) -> list[int]:
        """Row indices with pivot at or after start_col.

        By the Howell property these generate every span element vanishing
        before start_col.
        """
        return [self.pivots[c] for c in sorted(self.pivots) if c >= start_col]


def eval_nodes(alg, bank, nodes, args) -> dict:
    """The recursive memoized evaluator with a DFS pre-pass."""
    if len(args) != bank.arity:
        raise AlgebraError(
            f"circuit arity {bank.arity} but {len(args)} argument tuples given")
    mats = [np.asarray(a, dtype=np.int64) for a in args]
    length = len(mats[0]) if mats else 1
    memo: dict[int, np.ndarray] = {}

    def ev(node: int) -> np.ndarray:
        got = memo.get(node)
        if got is not None:
            return got
        gate = bank.gates[node]
        if gate[0] == "x":
            val = mats[gate[1] - 1]
        else:
            op = alg.op(gate[0])
            children = gate[1:]
            if len(children) != op.arity:
                raise AlgebraError(f"{gate[0]}: gate arity mismatch")
            if op.arity == 0:
                val = np.full(length, op.table[0], dtype=np.int64)
            else:
                idx = ev(children[0]).astype(np.int64)
                for c in children[1:]:
                    idx = idx * alg.size + ev(c)
                val = alg.table(gate[0])[idx].astype(np.int64)
        memo[node] = val
        return val

    # iterative pre-pass to avoid deep recursion on chain circuits
    for target in nodes:
        stack = [target]
        while stack:
            cur = stack[-1]
            if cur in memo:
                stack.pop()
                continue
            gate = bank.gates[cur]
            pending = [c for c in gate[1:] if c not in memo] if gate[0] != "x" else []
            if pending:
                stack.extend(pending)
            else:
                ev(cur)
                stack.pop()
    return {node: memo[node] for node in nodes}


# ---------------------------------------------------------------------------
# s-expressions

_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_VAR = "x"


def _read_tree(tokens: list[str], pos: int):
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read_tree(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise CircuitError("unbalanced s-expression")
        return items, pos + 1
    if tok == ")":
        raise CircuitError("unexpected ')'")
    return tok, pos + 1


def parse_sexpr(text: str, arity: int | None = None) -> Circuit:
    """The recursive reader and builder."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise CircuitError("empty circuit expression")
    tree, pos = _read_tree(tokens, 0)
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
        if head == _VAR:
            raise CircuitError("'x' is reserved for input gates, "
                               "not an operation symbol")
        children = tuple(build(child, env) for child in node[1:])
        return emit((head,) + children)

    out = build(tree, {})
    n = arity if arity is not None else max_var
    if max_var > n:
        raise CircuitError(f"circuit uses x{max_var} but arity is {n}")
    return Circuit(n, tuple(gates), out)


def serialize_sexpr(circuit: Circuit, share_threshold: int = 2) -> str:
    """The recursive writer."""
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


@dataclass
class ReferenceImage:
    """What the reference clonoid images give: the fields of
    ``ClonoidImage`` that the differential tests compare."""

    group: AbelianGroupSpec
    k: int
    generators: list
    emitted: list
    tuples_materialized: int

    @property
    def basis(self) -> np.ndarray:
        """The canonical rows, embedded, sorted by pivot."""
        return self.group.embed_elements(np.asarray(
            self.generators, dtype=np.int64).reshape(-1, self.k))


def clonoid_image_per_row(gens, u_columns) -> ReferenceImage:
    """``clonoid_image_comprep`` with one ``classify_row`` call per row and
    the sequential Howell echelon.

    Rows are classified into planes; each binary generator contributes one
    tuple per populated plane, evaluated through the plane parameterization,
    and each unary generator contributes its diagonal-collapse image.
    """
    u_columns = [tuple(u) for u in u_columns]
    n = len(u_columns)
    if n < 1:
        raise AlgebraError("at least one u-column is required")
    k = len(u_columns[0])
    group = gens.group
    p = gens.p
    m = group.exponent
    zero = group.zero
    rows = [tuple(col[i] for col in u_columns) for i in range(k)]
    if n == 1:
        kinds = [Diagonal(r[0]) for r in rows]
    else:
        kinds = [classify_row(r, p) for r in rows]

    emitted = []
    if n >= 2:
        planes: dict = {}
        for i, kind in enumerate(kinds):
            if isinstance(kind, Plane):
                planes.setdefault(kind.axis, []).append(i)
        binary = np.asarray(gens.binary, dtype=np.int64).reshape(-1, p * p)
        for axis in sorted(planes):
            cols = planes[axis]
            vecs = np.full((len(binary), k), zero, dtype=np.int64)
            vecs[:, cols] = binary[:, [kinds[i].x * p + kinds[i].y
                                       for i in cols]]
            for bi, vec in enumerate(vecs.tolist()):
                emitted.append((("binary", bi, axis), tuple(vec)))
    unary = np.asarray(gens.unary, dtype=np.int64).reshape(-1, p)
    if len(unary):
        diag_scale = pow(p, n - 1, m) if n >= 2 else 1
        plane_scale = pow(p, n - 2, m) if n >= 2 else 0
        total = np.full(len(unary), zero, dtype=np.int64)
        for v in range(p):
            total = group.add_table[total, unary[:, v]]
        is_diag = np.asarray([isinstance(kind, Diagonal) for kind in kinds])
        at = [kind.value if isinstance(kind, Diagonal) else 0 for kind in kinds]
        vecs = np.where(is_diag, group.scale_table[diag_scale][unary[:, at]],
                        group.scale_table[plane_scale][total][:, None])
        for ai, vec in enumerate(vecs.tolist()):
            emitted.append((("unary", ai), tuple(vec)))

    ech = Echelon(m, k * group.rank)
    for row in group.embed_elements([vec for _, vec in emitted]):
        ech.insert(row)
    ech.canonicalize()
    generators = [group.unembed(row) for row in ech.rows]
    return ReferenceImage(group=group, k=k, generators=generators,
                          emitted=emitted,
                          tuples_materialized=len(emitted) + len(generators))


def clonoid_image_rowwise(gens, u_columns) -> ReferenceImage:
    """``clonoid_image_comprep`` with the emissions built as arrays and then
    eliminated one row at a time (a prime-field echelon when exp(L) is
    prime, else the Howell one)."""
    u_columns = [tuple(u) for u in u_columns]
    n = len(u_columns)
    if n < 1:
        raise AlgebraError("at least one u-column is required")
    group = gens.group
    p = gens.p
    m = group.exponent
    zero = group.zero
    k = len(u_columns[0])
    rows = np.asarray(u_columns, dtype=np.int64).reshape(n, k).T % p

    emitted = []
    if n >= 2:
        is_diag, first, y, axes = _classify_rows(rows, p)
        plane_rows = np.flatnonzero(~is_diag)
        planes, plane_of = np.unique(axes[plane_rows], axis=0,
                                     return_inverse=True)
        binary = np.asarray(gens.binary, dtype=np.int64).reshape(-1, p * p)
        vecs = np.full((len(planes), len(binary), k), zero, dtype=np.int64)
        vecs[plane_of.ravel(), :, plane_rows] = \
            binary[:, first[plane_rows] * p + y[plane_rows]].T
        for axis, block in zip(planes.tolist(), vecs.tolist()):
            emitted += [(("binary", bi, tuple(axis)), tuple(vec))
                        for bi, vec in enumerate(block)]
    else:
        is_diag, first = np.ones(k, dtype=bool), rows[:, 0]
    unary = np.asarray(gens.unary, dtype=np.int64).reshape(-1, p)
    if len(unary):
        diag_scale = pow(p, n - 1, m) if n >= 2 else 1
        plane_scale = pow(p, n - 2, m) if n >= 2 else 0
        total = np.full(len(unary), zero, dtype=np.int64)
        for v in range(p):
            total = group.add_table[total, unary[:, v]]
        at = np.where(is_diag, first, 0)
        vecs = np.where(is_diag, group.scale_table[diag_scale][unary[:, at]],
                        group.scale_table[plane_scale][total][:, None])
        for ai, vec in enumerate(vecs.tolist()):
            emitted.append((("unary", ai), tuple(vec)))

    ech = span_over(m, k * group.rank)
    for row in group.embed_elements([vec for _, vec in emitted]):
        ech.extend(row[None])
    ech.canonicalize()
    rows = ech.rows
    generators = [tuple(row) for row in group.unembed_array(
        np.asarray(rows)).tolist()] if rows else []
    return ReferenceImage(group=group, k=k, generators=generators,
                          emitted=emitted,
                          tuples_materialized=len(emitted) + len(generators))


def _lone_image_basis(gens, k: int, coords: np.ndarray,
                      pairs: np.ndarray) -> np.ndarray:
    """The canonical basis over Z_m (m = exp(L)), embedded and sorted by
    pivot, of the binary emissions at the coordinates `coords` that are
    each alone in their plane, with pair indices x * p + y `pairs`: the
    union of the ``gens.pair_bases`` rows placed at each coordinate."""
    s = gens.group.rank
    bases, ranks = gens.pair_bases
    reps = ranks[pairs]
    coord = np.repeat(coords, reps)
    slot = np.arange(len(coord)) - np.repeat(np.cumsum(reps) - reps, reps)
    pair = np.repeat(pairs, reps)
    order = np.argsort(coord * s + (bases != 0).argmax(axis=2)[pair, slot],
                       kind="stable")
    coord, slot, pair = coord[order], slot[order], pair[order]
    rows = np.zeros((len(coord), k * s), dtype=np.int64)
    rows[np.arange(len(coord))[:, None], coord[:, None] * s + np.arange(s)] = \
        bases[pair, slot]
    return rows


def clonoid_image_dense(gens, u_columns) -> ReferenceImage:
    """``clonoid_image_comprep`` as one dense echelon over the whole width
    k * s: the rows of the coordinates alone in their plane, read from
    ``gens.pair_bases``, seed it, and the binary emissions of the planes
    with several coordinates and the unary emissions extend it in one
    block; canonical rows are unique, so these are the image's."""
    u_columns = [tuple(u) for u in u_columns]
    n = len(u_columns)
    if n < 1:
        raise AlgebraError("at least one u-column is required")
    group = gens.group
    p = gens.p
    m = group.exponent
    zero = group.zero
    k = len(u_columns[0])
    rows = np.asarray(u_columns, dtype=np.int64).reshape(n, k).T % p

    binary = np.asarray(gens.binary, dtype=np.int64).reshape(-1, p * p)
    if n >= 2:
        is_diag, first, y, axes = _classify_rows(rows, p)
        coords = np.flatnonzero(~is_diag)
        planes, plane_of = _group_rows(axes[coords])
        pairs = first[coords] * p + y[coords]
        columns = binary[:, pairs]
    else:
        is_diag, first = np.ones(k, dtype=bool), rows[:, 0]
        planes = np.zeros((0, n), dtype=np.int64)
        plane_of = coords = pairs = np.zeros(0, dtype=np.int64)
        columns = np.zeros((len(binary), 0), dtype=np.int64)
    emitted = []
    vecs = np.full((len(planes), len(binary), k), zero, dtype=np.int64)
    vecs[plane_of, :, coords] = columns.T
    for axis, block in zip(planes.tolist(), vecs.tolist()):
        emitted += [(("binary", bi, tuple(axis)), tuple(vec))
                    for bi, vec in enumerate(block)]
    unary = np.asarray(gens.unary, dtype=np.int64).reshape(-1, p)
    unary_vecs = np.zeros((0, k), dtype=np.int64)
    if len(unary):
        diag_scale = pow(p, n - 1, m) if n >= 2 else 1
        plane_scale = pow(p, n - 2, m) if n >= 2 else 0
        total = np.full(len(unary), zero, dtype=np.int64)
        for v in range(p):
            total = group.add_table[total, unary[:, v]]
        at = np.where(is_diag, first, 0)
        unary_vecs = np.where(
            is_diag, group.scale_table[diag_scale][unary[:, at]],
            group.scale_table[plane_scale][total][:, None])
        emitted += [(("unary", ai), tuple(vec))
                    for ai, vec in enumerate(unary_vecs.tolist())]

    counts = np.bincount(plane_of, minlength=len(planes))
    lone = counts[plane_of] == 1
    shared = vecs[counts > 1].reshape(-1, k)
    ech = span_over(m, k * group.rank)
    # canonical rows first: sequential elimination leaves them as they are
    ech.extend(_lone_image_basis(gens, k, coords[lone], pairs[lone]))
    ech.extend(group.embed_elements(np.vstack([shared, unary_vecs])))
    ech.canonicalize()
    generators = [tuple(row) for row in
                  group.unembed_array(ech.row_array()).tolist()]
    return ReferenceImage(group=group, k=k, generators=generators,
                          emitted=emitted,
                          tuples_materialized=len(emitted) + len(generators))


# the term-table helpers of the enumeration reference

@lru_cache(maxsize=32)
def _hat_positions(l_size: int, p: int, zero_l: int, arity: int):
    """Positions of a product table whose arguments all have l-part zero,
    in the order of their u-arguments."""
    size = l_size * p
    us = np.arange(p ** arity, dtype=np.int64)
    pos = np.zeros_like(us)
    for j in range(arity):
        pos = pos * size + zero_l * p + (us // p ** (arity - 1 - j)) % p
    return _frozen(pos)


def _table_rows(tables) -> np.ndarray:
    tables = np.asarray(tables, dtype=np.int64)
    return tables.reshape(len(tables), -1)


def _hats(spec: WreathSpec, tables, arity: int) -> np.ndarray:
    """The u-shift of each term table: its L-part at arguments with l-part
    zero, one row per table."""
    pos = _hat_positions(spec.left.size, spec.p, spec.left_group.zero, arity)
    return _table_rows(tables)[:, pos] // spec.p


def _companion_keys(spec: WreathSpec, tables, arity: int) -> np.ndarray:
    """The direct-product behaviour of each term table, one row per table:
    every entry (l, u) with its shift removed, encoded (l - hat) * p + u."""
    tables = _table_rows(tables)
    p = spec.p
    group = spec.left_group
    _, u_idx = _split_positions(spec.left.size, p, arity)
    shift = _hats(spec, tables, arity)[:, u_idx]
    return group.add_table[tables // p, group.neg_table[shift]] * p + tables % p


def _affine_substitutions(p: int, arity: int) -> list:
    """Index remaps of Z_p^arity induced by coefficient rows summing to 1."""
    rows = [a for a in product(range(p), repeat=arity) if sum(a) % p == 1]
    subs = []
    for choice in product(rows, repeat=arity):
        remap = []
        for args in product(range(p), repeat=arity):
            out_idx = 0
            for row in choice:
                v = sum(r * x for r, x in zip(row, args)) % p
                out_idx = out_idx * p + v
            remap.append(out_idx)
        subs.append(tuple(remap))
    return sorted(set(subs))


def _remap_embedded(rows: np.ndarray, sub, rank: int) -> np.ndarray:
    """Apply a table-position remap to embedded (rank-chunked) rows."""
    idx = np.repeat(np.asarray(sub, dtype=np.int64) * rank, rank) \
        + np.tile(np.arange(rank), len(sub))
    return rows[..., idx]


def _table_diffs(spec: WreathSpec, tables, arity: int) -> np.ndarray:
    """Hat differences of same-companion term tables, one row each.

    Buckets are taken in sorted key order and the tables of a bucket in
    sorted order; every table after a bucket's first gives its hat minus
    the first one's.
    """
    tables = _table_rows(tables)
    _, bucket = np.unique(_companion_keys(spec, tables, arity), axis=0,
                          return_inverse=True)
    order = np.lexsort(tuple(tables.T[::-1]) + (bucket.ravel(),))
    bucket = bucket.ravel()[order]
    first = np.r_[True, bucket[1:] != bucket[:-1]]
    leader = order[np.maximum.accumulate(
        np.where(first, np.arange(len(order)), 0))]
    hats = _hats(spec, tables, arity)
    group = spec.left_group
    return group.add_table[hats[order[~first]],
                           group.neg_table[hats[leader[~first]]]]


def diff_clonoid_gens_rowwise(spec, cap: int = 3000) -> ClonoidGenSet:
    """``wreath.diff_clonoid_gens`` with one Howell insert per row: the
    seeds one by one, the unary closure under its (identity) substitution,
    and the binary closure substitution by substitution and row by row,
    repeated until no insert grows the span."""
    alg = spec.algebra
    group = spec.left_group
    m = group.exponent
    p = spec.p

    def enumerate_tables(arity, allow_truncate):
        width = alg.size ** arity
        projections = []
        for j in range(arity):
            block = alg.size ** (arity - 1 - j)
            projections.append(tuple((i // block) % alg.size
                                     for i in range(width)))
        tuples, _, _, truncated = closure_with_circuits(
            alg, projections, cap=cap, truncate=allow_truncate)
        return tuples, truncated

    s = group.rank
    unary_tables, _ = enumerate_tables(1, allow_truncate=False)
    u_ech = Echelon(m, p * s)
    for row in group.embed_elements(_table_diffs(spec, unary_tables, 1)):
        u_ech.insert(row)
    for sub in _affine_substitutions(p, 1):
        stable = False
        while not stable:
            stable = True
            for row in list(u_ech.rows):
                if u_ech.insert(_remap_embedded(row, sub, s)):
                    stable = False
    u_ech.canonicalize()
    unary_span = u_ech.span_size()

    binary_tables, truncated = enumerate_tables(2, allow_truncate=True)
    b_ech = Echelon(m, p * p * s)
    for row in group.embed_elements(_table_diffs(spec, binary_tables, 2)):
        b_ech.insert(row)
    for row in u_ech.rows:
        b_ech.insert(np.repeat(row.reshape(p, s), p, axis=0).ravel())
    subs = _affine_substitutions(p, 2)
    stable = False
    while not stable:
        stable = True
        for sub in subs:
            for row in list(b_ech.rows):
                if b_ech.insert(_remap_embedded(row, sub, s)):
                    stable = False
    b_ech.canonicalize()
    binary_span = b_ech.span_size()
    if truncated:
        bound = unary_span * group.size ** (p * p - p)
        if binary_span != bound:
            raise ClosureCapExceeded(cap)

    head = p * s
    diagonal = np.arange(p) * (p + 1)
    aug = Echelon(m, head + p * p * s)
    for row in b_ech.rows:
        aug.insert(np.concatenate([row.reshape(p * p, s)[diagonal].ravel(),
                                   row]))
    aug.canonicalize()
    binary = []
    for ridx in aug.tail_rows(head):
        tail = np.asarray(aug.rows[ridx][head:])
        if tail.any():
            binary.append(group.unembed(tail))
    unary = [group.unembed(row) for row in u_ech.rows]
    unary = [t for t in unary if any(v != group.zero for v in t)]
    return ClonoidGenSet(p=p, group=group, unary=unary, binary=binary,
                         exact=not truncated, unary_span=unary_span,
                         binary_span=binary_span)


def fold_members_stepwise(table, leaves, coeffs):
    """Values of ``rep.member_node(c)`` for each row c of `coeffs`, one
    Mal'tsev step at a time: from the base, for each raw difference j in
    order, c_j steps cur = m(plus_j, minus_j, cur), on the rows whose
    coefficient is still above the step count."""
    cur = np.tile(leaves[0], (len(coeffs), 1))
    for plus, minus, col in zip(leaves[1::2], leaves[2::2], coeffs.T):
        for step in range(col.max(initial=0)):
            rows = col > step
            cur[rows] = table[plus, minus, cur[rows]]
    return cur


def l_part_coeffs(rows: np.ndarray, e: int, p: int) -> list:
    """The elimination generator set: Z_m coefficient rows, m = e * p,
    generating the Z_e span of `rows` with zero GF(p) part.

    One tracked elimination mod e gives the combinations; each is lifted to
    the Z_m vector that is 0 mod p and a unit multiple of it mod e, the
    unit chosen for the smallest coefficient sum (a member circuit chains
    one Mal'tsev step per unit of coefficient).
    """
    nraw = len(rows)
    ech = span_over(e, rows.shape[1], track=max(nraw, 1))
    ech.extend(rows)
    combos = [c[:nraw] for c in ech.coeffs]
    if not combos:
        return []
    combos = np.asarray(combos, dtype=np.int64)
    units = np.asarray([u for u in range(1, e) if math.gcd(u, e) == 1],
                       dtype=np.int64)
    scaled = (units[:, None, None] * combos[None]) % e
    best = scaled.sum(axis=2).argmin(axis=0)
    return list(p * scaled[best, np.arange(len(combos))])


def quotient_fix_full(template, u_diffs, u_target, p):
    """``solver._quotient_fix`` as one tracked elimination of the
    u-differences on the instance columns and the padding columns of
    `template` together, whose combination for the target, zero on the
    padding, gives x0; None when its residue on the instance columns is
    not zero."""
    nraw, k = u_diffs.shape
    comp = template.group
    e = comp.exponent // p
    u_rows = np.hstack([
        u_diffs,
        template.raw_rows.reshape(nraw, template.k, comp.rank)[:, :, -1] // e])
    u_ech = span_over(p, k + template.k, track=max(nraw, 1))
    u_ech.extend(u_rows)
    full_target = np.zeros(k + template.k, dtype=np.int64)
    full_target[:k] = u_target
    residue, coeffs = u_ech.reduce(full_target)
    if residue[:k].any():
        return None
    return coeffs[:nraw]


def solve_smp_wreath_full(spec, inst, elimination=False):
    """``solver.solve_smp_wreath`` with the subgroup test run once, after
    every l-part generator is built: the image rows first, then all member
    differences.  The generators are the solver's (p further steps of each
    raw difference after the fixed member x0) or, with `elimination`, the
    members x0 + c for the rows c of ``l_part_coeffs``, each the chain
    ``member_node`` builds.  The companion closure is a fresh
    ``affine_span`` on the extended rows, not the solver's cached padding
    closure, and the clonoid image is the dense one of
    ``clonoid_image_dense``.  Returns (member, witness) with the witness
    built as the solver builds it."""
    ctx = solver.wreath_context(spec)
    group = spec.left_group
    comp_group = spec.companion_group
    p = spec.p
    m = comp_group.exponent
    k = inst.k
    s1 = comp_group.rank
    gen_rows = np.asarray(inst.generators, dtype=np.int64)
    target = np.asarray(inst.target, dtype=np.int64)
    l_b, u_b = np.divmod(target, p)
    rep = affine_span(spec.companion, comp_group,
                      solver._extended_rows(spec, gen_rows))
    e = group.exponent
    nraw = len(rep.raw)
    k_ext = len(rep.base_flat) // s1
    chunks = rep.raw_rows.reshape(nraw, k_ext, s1)
    u_ech = FieldEchelon(p, k_ext, track=max(nraw, 1))
    u_ech.extend(chunks[:, :, -1] // e)
    u_target = np.zeros(k_ext, dtype=np.int64)
    u_target[:k] = u_b - rep.base_flat.reshape(-1, s1)[:k, -1] // e
    residue, coeffs = u_ech.reduce(u_target)
    if residue[:k].any():
        return False, None
    x0_coeffs = coeffs[:nraw]
    alg = spec.algebra
    table = alg.maltsev_table
    leaves = solver._leaf_values(alg, rep, gen_rows)
    base = fold_members_stepwise(table, leaves, x0_coeffs[None])[0]
    base_node = rep.member_node(x0_coeffs)
    if elimination:
        l_coeffs = l_part_coeffs(
            chunks[:, :, :-1].reshape(nraw, k_ext * (s1 - 1)) % e, e, p)
        gen_coeffs = np.asarray(
            [(x0_coeffs + lc) % m for lc in l_coeffs],
            dtype=np.int64).reshape(len(l_coeffs), nraw)
        gens = fold_members_stepwise(table, leaves, gen_coeffs)

        def gen_node(j):
            return rep.member_node(gen_coeffs[j])
    else:
        gens = []
        for plus, minus in zip(leaves[1::2], leaves[2::2]):
            cur = base
            for _ in range(p):
                cur = table[plus, minus, cur]
            gens.append(cur)
        gens = np.asarray(gens, dtype=np.int64).reshape(nraw, k)

        def gen_node(j):
            return rep.bank.chain(alg.maltsev, base_node,
                                  [rep.raw[j][1:]] * p, 2)
    assert not (np.vstack([base, gens]) % p != u_b).any()
    image = clonoid_image_dense(ctx.gens, (gen_rows % p).tolist())
    neg_base = group.neg_table[base // p]
    n_image = len(image.generators)
    ok, witness_coeffs = subgroup_member(
        group, list(image.generators)
        + group.add_table[gens // p, neg_base].tolist(),
        group.add_table[l_b, neg_base])
    if not ok:
        return False, None
    used = [(j, c, gen_node(j))
            for j, c in enumerate(witness_coeffs[n_image:]) if c % m]
    return True, {
        "path": "wreath",
        "base": {"value": base.tolist(),
                 "circuit": serialize_sexpr(rep.bank.extract(base_node))},
        "members": [
            {"coeff": c, "value": gens[j].tolist(),
             "circuit": serialize_sexpr(rep.bank.extract(node))}
            for j, c, node in used],
    }


def affine_span_sequential(alg, group: AbelianGroupSpec, gens,
                           every_image: bool = False) -> AffineSubpowerRep:
    """``affine.affine_span`` with every queued vector eliminated one at a
    time, in pop order, into one echelon over Z_m tracked from the start,
    and no lifted span.  A vector that does not grow the span gives its
    generator slot back, so raw difference j holds slot j.  With
    `every_image` the image of each new difference under every (operation,
    argument) endomorphism is tested against the span, the scalar ones
    included; the k * Omega(|L|) raw differences a subgroup chain of L^k
    allows, plus the vector under test, then bound the slots."""
    gens = group.check_elements(gens)
    n, k = gens.shape
    op_specs = verify_affine(alg, group)
    bank = CircuitBank(n)
    m = group.exponent
    flats = group.embed_elements(gens)
    rep = AffineSubpowerRep(
        alg=alg, group=group, k=k, generators=tuple(map(tuple, gens.tolist())),
        base_flat=flats[0], base_node=bank.var(1), bank=bank)
    rep.tuples_materialized = n
    queue = [((flats[j] - rep.base_flat) % m, bank.var(j + 1), bank.var(1))
             for j in range(1, n)]
    for spec in op_specs:
        node = bank.app(spec.symbol, (rep.base_node,) * spec.arity)
        diagonal = sum(alg.size ** j for j in range(spec.arity))
        table = alg.op(spec.symbol).table
        val = group.embed_elements([table[x * diagonal]
                                    for x in gens[0].tolist()])
        queue.append(((val - rep.base_flat) % m, node, rep.base_node))
    slots = [(spec, i) for spec in op_specs for i in range(spec.arity)
             if every_image or spec.scalar(i) is None]
    endos = np.asarray([spec.matrices[i] for spec, i in slots],
                       dtype=np.int64).reshape(len(slots), group.rank,
                                               group.rank)
    track = k * prime_length(group.size) + 1
    if not slots:
        track = min(track, len(queue))
    rep.echelon = span_over(m, k * group.rank, max(track, 1))
    while queue:
        vec, plus, minus = queue.pop()
        if not vec.any():
            continue
        if not rep.echelon.extend(vec[None]):
            rep.echelon._gen_count -= 1
            continue
        rep.raw.append((vec, plus, minus))
        rep.tuples_materialized += 1
        images = endo_images(group, endos, vec)
        for (spec, i), img, known in zip(
                slots, images, rep.echelon.contains_rows(images)):
            if known:
                continue
            up = [rep.base_node] * spec.arity
            down = [rep.base_node] * spec.arity
            up[i] = plus
            down[i] = minus
            queue.append((img, bank.app(spec.symbol, tuple(up)),
                          bank.app(spec.symbol, tuple(down))))
    return rep


def affine_span_every_image(alg, group: AbelianGroupSpec,
                            gens) -> AffineSubpowerRep:
    """``affine_span_sequential`` testing every image, scalar ones
    included."""
    return affine_span_sequential(alg, group, gens, every_image=True)


def solve_affine_sequential(alg, group: AbelianGroupSpec, inst,
                            want_witness: bool = True):
    """The affine solve on ``affine_span_sequential``: membership by the
    span as eliminated, and for a witness the raw coefficients of one
    reduction by its canonical form, trimmed to the raw slots.  Returns
    (member, witness, stats without ``elapsed_ms``)."""
    rows = group.check_elements([*inst.generators, inst.target])
    rep = affine_span_sequential(alg, group, rows[:-1])
    diff = (group.embed_elements(rows[-1]) - rep.base_flat) % group.exponent
    member = bool(rep.echelon.contains_rows(diff[None])[0])
    stats = {"path": "affine", "k": inst.k, "n": inst.n,
             "tuples_materialized": rep.tuples_materialized}
    witness = None
    if member and want_witness:
        ech = rep.echelon
        ech.trim_tracking(range(max(len(rep.raw), 1)))
        ech.canonicalize()
        _, coeffs = ech.reduce(diff)
        node = rep.member_node(coeffs[:len(rep.raw)])
        witness = {"path": "affine",
                   "circuit": serialize_sexpr(rep.bank.extract(node))}
    return member, witness, stats


def plane_points(p: int, c) -> list:
    """The parameterized plane {x(1 - c) + y c}, minus nothing."""
    return [tuple((x * (1 - ci) + y * ci) % p for ci in c)
            for x in range(p) for y in range(p)]


def _hat_of_table(spec, table, arity: int) -> tuple:
    """The u-shift of a term table: its L-part at arguments with l-part zero."""
    return tuple(_hats(spec, [table], arity)[0].tolist())


def _companion_key(spec, table, arity: int) -> tuple:
    """The direct-product behaviour of a term table (bucketing key)."""
    return tuple(_companion_keys(spec, [table], arity)[0].tolist())
