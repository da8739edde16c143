"""Wreath products, difference clonoids, and clonoid image generators.

A wreath product acts on pairs (l, u), encoded as the dense index
l * |U| + u.  Every operation applies the left (affine) algebra to the
l-parts, shifted by a hat table evaluated on the u-parts, and the right
algebra to the u-parts.  The difference clonoid collects the functions
u-vector -> L by which two terms with the same direct-product behaviour may
differ; its unary part and diagonal-vanishing binary part generate
everything, and images of tuples under the generated function family reduce
to plain subgroup generators of L^k.  Every echelon here, like every
echelon of the package, is made by ``affine.span_over``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from types import MappingProxyType

import numpy as np

from .circuits import Circuit
from .core import (AlgebraError, ClosureCapExceeded, FiniteAlgebra, Operation,
                   _frozen, closure_with_circuits, element_array,
                   verify_maltsev)
from .affine import AbelianGroupSpec, Echelon, FieldEchelon, span_over


class WreathSpecError(AlgebraError):
    pass


@dataclass(frozen=True)
class WreathSpec:
    """Affine left part, prime-order right part, and hat shift tables.

    Frozen, over frozen algebras, and ``hat`` is copied into a read-only
    mapping of tuples, so the algebra and solver context cached on a spec
    cannot go stale.
    """

    left: FiniteAlgebra
    left_group: AbelianGroupSpec
    right: FiniteAlgebra
    hat: Mapping
    maltsev: Circuit

    def __post_init__(self):
        object.__setattr__(self, "hat", MappingProxyType(
            {sym: tuple(table) for sym, table in self.hat.items()}))

    @property
    def p(self) -> int:
        return self.right.size

    @property
    def size(self) -> int:
        return self.left.size * self.right.size

    def pair(self, l: int, u: int) -> int:
        return l * self.p + u

    def split(self, x: int) -> tuple[int, int]:
        return divmod(x, self.p)

    @property
    def zero(self) -> int:
        """The designated zero pair (0_L, 0_U)."""
        return self.pair(self.left_group.zero, 0)

    @cached_property
    def algebra(self) -> FiniteAlgebra:
        return build_wreath(self)

    @cached_property
    def companion(self) -> FiniteAlgebra:
        """The direct product: the same construction with hat = 0."""
        zero_hat = {op.symbol: (self.left_group.zero,) * (self.p ** op.arity)
                    for op in self.left.ops}
        flat = WreathSpec(self.left, self.left_group, self.right, zero_hat,
                          self.maltsev)
        return build_wreath(flat)

    @cached_property
    def solver_context(self):
        """``solver.wreath_context``: checked and built on first read, and
        kept; a build that raises is not kept."""
        from .solver import _build_context
        return _build_context(self)

    @cached_property
    def companion_group(self) -> AbelianGroupSpec:
        return AbelianGroupSpec(self.left_group.orders + (self.p,),
                                zero=self.zero)

    def l_part(self, t) -> tuple:
        return tuple(self.split(x)[0] for x in t)

    def u_part(self, t) -> tuple:
        return tuple(self.split(x)[1] for x in t)


def _maltsev_symbol(circuit: Circuit) -> str | None:
    gate = circuit.gates[circuit.output]
    if gate[0] == "x" or len(gate) != 4:
        return None
    children = [circuit.gates[c] for c in gate[1:]]
    if [g for g in children] == [("x", 1), ("x", 2), ("x", 3)]:
        return gate[0]
    return None


def build_wreath(spec: WreathSpec) -> FiniteAlgebra:
    """Assemble the product algebra, validating every structural invariant."""
    left, right, group = spec.left, spec.right, spec.left_group
    if sorted((o.symbol, o.arity) for o in left.ops) != \
            sorted((o.symbol, o.arity) for o in right.ops):
        raise WreathSpecError("left and right parts disagree on the language")
    zero_l = group.zero
    p = right.size
    unknown = sorted(set(spec.hat) - set(left.op_by_symbol))
    if unknown:
        raise WreathSpecError(
            f"hat table for {unknown[0]!r}, which is not in the language")
    for op in left.ops:
        if left.apply(op.symbol, (zero_l,) * op.arity) != zero_l:
            raise WreathSpecError(
                f"left operation {op.symbol} does not preserve the zero element")
        table = spec.hat.get(op.symbol)
        if table is None:
            raise WreathSpecError(f"missing hat table for {op.symbol}")
        if len(table) != p ** op.arity:
            raise WreathSpecError(f"hat table for {op.symbol} has wrong length")
        try:
            element_array(table, left.size, f"hat[{op.symbol}]")
        except AlgebraError as err:
            raise WreathSpecError(str(err)) from None
    msym = _maltsev_symbol(spec.maltsev)
    if msym is not None:
        mh = spec.hat[msym]
        for u in range(p):
            for v in range(p):
                if mh[(u * p + u) * p + v] != zero_l:
                    raise WreathSpecError(
                        f"hat of {msym} must vanish at (u,u,v): u={u}, v={v}")
                if mh[(v * p + u) * p + u] != zero_l:
                    raise WreathSpecError(
                        f"hat of {msym} must vanish at (v,u,u): u={u}, v={v}")

    size = left.size * p
    ops = []
    for op in left.ops:
        l_idx, u_idx = _split_positions(left.size, p, op.arity)
        lval = np.asarray(op.table, dtype=np.int64)[l_idx]
        hval = np.asarray(spec.hat[op.symbol], dtype=np.int64)[u_idx]
        uval = np.asarray(right.op(op.symbol).table, dtype=np.int64)[u_idx]
        table = group.add_table[lval, hval] * p + uval
        ops.append(Operation(op.symbol, op.arity, tuple(table.tolist())))
    alg = FiniteAlgebra(size, ops, spec.maltsev, check=False)
    if not verify_maltsev(alg):
        raise WreathSpecError("assembled product fails the Mal'tsev identities")
    return alg


def companion_eval(spec: WreathSpec, circuit: Circuit, args) -> tuple:
    """Evaluate a circuit in the direct product (hat suppressed)."""
    from .core import eval_circuit
    return eval_circuit(spec.companion, circuit, args)


# ---------------------------------------------------------------------------
# difference clonoid extraction

@dataclass(frozen=True)
class ClonoidGenSet:
    """Generators of the difference clonoid: unary plus diagonal-zero binary.

    Frozen, with the tables held as tuples, so ``pair_bases`` cannot go
    stale."""

    p: int
    group: AbelianGroupSpec                  # the left group
    unary: tuple = ()             # tables Z_p -> L
    binary: tuple = ()            # tables Z_p^2 -> L
    exact: bool = True            # full enumeration vs certified bounded run
    unary_span: int = 1
    binary_span: int = 1

    def __post_init__(self):
        for name in ("unary", "binary"):
            object.__setattr__(self, name,
                               tuple(map(tuple, getattr(self, name))))
        zero = self.group.zero
        for g in self.binary:
            for x in range(self.p):
                if g[x * self.p + x] != zero:
                    raise AlgebraError("binary clonoid generator hits the diagonal")

    @cached_property
    def pair_bases(self) -> tuple:
        """The rows a coordinate alone in its plane adds to a clonoid image,
        by the coordinate's pair index x * p + y: for each pair, the
        canonical basis over Z_m (m = exp(L)) of the embedded binary column
        at that pair, zero-padded to an (s, s) block (its rows have distinct
        pivots), and its row count, as read-only arrays.
        """
        p, group = self.p, self.group
        s = group.rank
        columns = group.embedded[np.asarray(self.binary, dtype=np.int64)
                                 .reshape(-1, p * p)]
        bases = np.zeros((p * p, s, s), dtype=np.int64)
        ranks = np.zeros(p * p, dtype=np.int64)
        for pair in range(p * p):
            ech = span_over(group.exponent, s)
            ech.extend(columns[:, pair])
            ech.canonicalize()
            rows = ech.row_array()
            bases[pair, :len(rows)] = rows
            ranks[pair] = len(rows)
        return _frozen(bases), _frozen(ranks)


@lru_cache(maxsize=32)
def _split_positions(l_size: int, p: int, arity: int):
    """Flat L- and U-table indices of every position of a product table.

    Position j of a table on the product (size l_size * p, row-major,
    first argument most significant) has arguments (l_1, u_1) ... ; the
    returned arrays hold the index of (l_1 .. l_r) in an L-table and of
    (u_1 .. u_r) in a U-table.
    """
    size = l_size * p
    pos = np.arange(size ** arity, dtype=np.int64)
    l_idx = np.zeros_like(pos)
    u_idx = np.zeros_like(pos)
    for j in range(arity):
        l, u = np.divmod((pos // size ** (arity - 1 - j)) % size, p)
        l_idx = l_idx * l_size + l
        u_idx = u_idx * p + u
    return _frozen(l_idx), _frozen(u_idx)


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


def _close_under(ech: Echelon | FieldEchelon, subs, rank: int) -> None:
    """Extend `ech` by its rows' images under every substitution, round by
    round, until the span stops growing; being linear, they then keep it."""
    grew = True
    while grew:
        rows = ech.row_array()
        grew = ech.extend(np.concatenate(
            [_remap_embedded(rows, sub, rank) for sub in subs]))


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


def diff_clonoid_gens(spec: WreathSpec, cap: int = 3000) -> ClonoidGenSet:
    """Generators of the difference clonoid from term enumeration.

    Unary terms are always enumerated in full.  Binary terms are enumerated
    in full when they fit under `cap`; otherwise a bounded enumeration seeds
    an elimination that is closed under substitutions and certified complete
    by comparing the span against the diagonal-restriction bound.  A bounded
    run that cannot be certified raises ClosureCapExceeded rather than
    returning a silently truncated generator set.
    """
    alg = spec.algebra
    group = spec.left_group
    m = group.exponent
    p = spec.p

    def enumerate_tables(arity, allow_truncate):
        idx = np.arange(alg.size ** arity)
        projections = [tuple((idx // alg.size ** (arity - 1 - j) % alg.size)
                             .tolist()) for j in range(arity)]
        tuples, _, _, truncated = closure_with_circuits(
            alg, projections, cap=cap, truncate=allow_truncate)
        return tuples, truncated

    # unary part: exact; its only substitution (arity one) is the identity
    s = group.rank
    unary_tables, _ = enumerate_tables(1, allow_truncate=False)
    u_ech = span_over(m, p * s)
    u_ech.extend(group.embed_elements(_table_diffs(spec, unary_tables, 1)))
    u_ech.canonicalize()
    unary_span = u_ech.span_size()
    u_rows = u_ech.row_array()

    # binary part: exact when possible, certified bounded otherwise
    binary_tables, truncated = enumerate_tables(2, allow_truncate=True)
    b_ech = span_over(m, p * p * s)
    b_ech.extend(group.embed_elements(_table_diffs(spec, binary_tables, 2)))
    # unary members reappear at arity two through composition with the
    # first projection (g(x, y) = g(x)); seeding them helps a bounded run
    # close
    b_ech.extend(np.repeat(u_rows.reshape(-1, p, s), p, axis=1)
                 .reshape(len(u_rows), p * p * s))
    _close_under(b_ech, _affine_substitutions(p, 2), s)
    b_ech.canonicalize()
    binary_span = b_ech.span_size()
    if truncated:
        # certificate: every binary clonoid function restricts on the
        # diagonal to a unary clonoid function, so the span can never
        # exceed unary_span * |L|^(p^2 - p); equality certifies the run.
        bound = unary_span * group.size ** (p * p - p)
        if binary_span != bound:
            raise ClosureCapExceeded(cap)

    # split off the diagonal-vanishing part by head-block elimination
    head = p * s
    diagonal = np.arange(p) * (p + 1)
    b_rows = b_ech.row_array()
    aug = span_over(m, head + p * p * s)
    aug.extend(np.hstack([b_rows.reshape(-1, p * p, s)[:, diagonal]
                          .reshape(len(b_rows), head), b_rows]))
    aug.canonicalize()
    # canonical rows are nonzero, and so is a tail row's tail
    tails = aug.row_array()[aug.tail_rows(head), head:]
    binary = group.unembed_array(tails).tolist()
    unary = group.unembed_array(u_rows).tolist()
    return ClonoidGenSet(p=p, group=group, unary=unary, binary=binary,
                         exact=not truncated, unary_span=unary_span,
                         binary_span=binary_span)


# ---------------------------------------------------------------------------
# plane geometry of Z_p^n

@dataclass(frozen=True)
class Diagonal:
    value: int


@dataclass(frozen=True)
class Plane:
    axis: tuple
    x: int
    y: int


def plane_count(p: int, n: int) -> int:
    return (p ** (n - 1) - 1) // (p - 1)


def plane_axes(p: int, n: int) -> list:
    """All normalized direction vectors: first entry 0, leading nonzero 1."""
    axes = []
    for vec in product(range(p), repeat=n - 1):
        full = (0,) + vec
        nz = [v for v in full if v]
        if nz and nz[0] == 1:
            axes.append(full)
    return axes


def classify_row(w, p: int):
    """Assign a row of u-values to the diagonal or its unique plane.

    Off-diagonal rows normalize to Plane(c, x, y) with c the direction
    scaled so that its leading nonzero entry is 1, x the first row entry
    and y the entry at the leading disagreement.
    """
    w = tuple(v % p for v in w)
    n = len(w)
    if n < 2:
        raise AlgebraError("row classification needs at least two columns")
    if all(v == w[0] for v in w):
        return Diagonal(w[0])
    i = next(idx for idx, v in enumerate(w) if v != w[0])
    scale = pow((w[i] - w[0]) % p, -1, p)
    c = tuple((scale * (v - w[0])) % p for v in w)
    return Plane(axis=c, x=w[0], y=w[i])


# ---------------------------------------------------------------------------
# clonoid images

def _binary_emissions(planes: int, plane_of: np.ndarray,
                      coords: np.ndarray, columns: np.ndarray, k: int,
                      zero: int) -> np.ndarray:
    """The (planes, binary generators, k) binary emissions: generator b's
    emission on plane plane_of[i] holds columns[b, i] at coordinate
    coords[i], and zero off its plane's coordinates."""
    vecs = np.full((planes, len(columns), k), zero, dtype=np.int64)
    vecs[plane_of, :, coords] = columns.T
    return vecs


@dataclass
class ClonoidImage:
    """Subgroup of L^k generated by clonoid images of fixed u-columns.

    The solver reads ``basis``; the tuple lists ``generators`` and
    ``emitted`` are built from the arrays on first read.  The binary
    emissions are kept sparse: off-diagonal coordinate coords[i] lies on
    plane plane_of[i] and takes columns[b, i] in binary generator b's
    emission.
    """

    group: AbelianGroupSpec
    k: int
    basis: np.ndarray        # canonical echelon generators, embedded
    planes: np.ndarray       # populated plane axes, in lexicographic order
    plane_of: np.ndarray
    coords: np.ndarray
    columns: np.ndarray      # (binary generators, off-diagonal coordinates)
    unary_vecs: np.ndarray   # (unary generators, k) emissions

    @property
    def tuples_materialized(self) -> int:
        return (len(self.planes) * len(self.columns) + len(self.unary_vecs)
                + len(self.basis))

    @cached_property
    def generators(self) -> list:
        """The canonical echelon generators as tuples of L."""
        return [tuple(row) for row in
                self.group.unembed_array(self.basis).tolist()]

    @cached_property
    def emitted(self) -> list:
        """The raw emissions as (tag, tuple): each binary generator's per
        plane, planes in order, then each unary generator's."""
        vecs = _binary_emissions(len(self.planes), self.plane_of, self.coords,
                                 self.columns, self.k, self.group.zero)
        emitted = []
        for axis, block in zip(self.planes.tolist(), vecs.tolist()):
            emitted += [(("binary", bi, tuple(axis)), tuple(vec))
                        for bi, vec in enumerate(block)]
        emitted += [(("unary", ai), tuple(vec))
                    for ai, vec in enumerate(self.unary_vecs.tolist())]
        return emitted


def _classify_rows(rows: np.ndarray, p: int):
    """``classify_row`` of every row of a (k, n) u-value matrix, n >= 2, as
    arrays: the diagonal mask, each row's first entry x, its entry y at the
    leading disagreement, and its normalized plane axis (zero for a
    diagonal row)."""
    first = rows[:, 0]
    off = rows != first[:, None]
    lead = off.argmax(axis=1)
    y = rows[np.arange(len(rows)), lead]
    inverse = np.asarray([0] + [pow(d, -1, p) for d in range(1, p)],
                         dtype=np.int64)
    axes = (inverse[(y - first) % p][:, None] * (rows - first[:, None])) % p
    return ~off.any(axis=1), first, y, axes


def _group_rows(rows: np.ndarray):
    """The distinct rows of a 2-D array in lexicographic order, and the
    index of each row among them, as ``np.unique(rows, axis=0,
    return_inverse=True)`` gives them: one lexsort and its run
    boundaries."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _lone_image_basis(gens: ClonoidGenSet, k: int, coords: np.ndarray,
                      pairs: np.ndarray) -> np.ndarray:
    """The canonical basis over Z_m (m = exp(L)), embedded and sorted by
    pivot, of the binary emissions of ``clonoid_image_comprep`` at the
    coordinates `coords` that are each alone in their plane, with pair
    indices x * p + y `pairs`.  Such an emission is supported on its one
    coordinate, so the basis is the union of the ``gens.pair_bases`` rows
    placed at each coordinate.
    """
    s = gens.group.rank
    bases, ranks = gens.pair_bases
    reps = ranks[pairs]
    coord = np.repeat(coords, reps)
    slot = np.arange(len(coord)) - np.repeat(np.cumsum(reps) - reps, reps)
    pair = np.repeat(pairs, reps)
    # a row's pivot: its coordinate's first column plus the pivot of its
    # pair basis row
    order = np.argsort(coord * s + (bases != 0).argmax(axis=2)[pair, slot],
                       kind="stable")
    coord, slot, pair = coord[order], slot[order], pair[order]
    rows = np.zeros((len(coord), k * s), dtype=np.int64)
    rows[np.arange(len(coord))[:, None], coord[:, None] * s + np.arange(s)] = \
        bases[pair, slot]
    return rows


def clonoid_image_comprep(gens: ClonoidGenSet, u_columns) -> ClonoidImage:
    """Generators of {f(u_1..u_n) : f generated by `gens`} inside L^k.

    Rows are classified into planes; each binary generator contributes one
    tuple per populated plane (planes in axis order), evaluated through the
    plane parameterization, and each unary generator contributes its
    diagonal-collapse image.  The generators are the canonical rows of the
    span of these emissions.  The binary emissions at coordinates alone in
    their plane are not eliminated: their canonical basis is read from a
    per-pair table (``_lone_image_basis``) and seeds the echelon.  The
    binary emissions of planes with several coordinates and the unary
    emissions then extend it in one block.  Canonical rows are unique, so
    this gives the canonical rows of the span of all emissions.
    """
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

    counts = np.bincount(plane_of, minlength=len(planes))
    lone = counts[plane_of] == 1
    shared = counts > 1
    shared_vecs = _binary_emissions(
        int(shared.sum()), (np.cumsum(shared) - 1)[plane_of[~lone]],
        coords[~lone], columns[:, ~lone], k, zero).reshape(-1, k)
    ech = span_over(m, k * group.rank, basis=_lone_image_basis(
        gens, k, coords[lone], pairs[lone]))
    ech.extend(group.embed_elements(np.vstack([shared_vecs, unary_vecs])))
    ech.canonicalize()
    basis = ech.row_array()
    return ClonoidImage(group=group, k=k, basis=basis, planes=planes,
                        plane_of=plane_of, coords=coords, columns=columns,
                        unary_vecs=unary_vecs)
