"""Wreath products, difference clonoids, and clonoid image generators.

A wreath product acts on pairs (l, u), encoded as the dense index
l * |U| + u.  Every operation applies the left (affine) algebra to the
l-parts, shifted by a hat table evaluated on the u-parts, and the right
algebra to the u-parts.  The difference clonoid collects the functions
u-vector -> L by which two terms with the same direct-product behaviour
(the same companion) may differ; its unary part and diagonal-vanishing
binary part generate everything, and images of tuples under the generated
function family reduce to plain subgroup generators of L^k.  Extraction
is exact, with no cap: one closure over the companions of each arity, at
a cost of |companions|^arity compositions per operation
(``diff_clonoid_gens``).  A binary emission is supported on the
coordinates of one plane of Z_p^n, so a clonoid image is held by plane
(``ClonoidImage``): a direct sum of small canonical blocks on disjoint
columns, which a vector is reduced against block by block, with no dense
k x k array.  Every echelon here, like every echelon of the package, is
made by ``affine.span_over``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .circuits import Circuit
from .core import (AlgebraError, FiniteAlgebra, Operation, _frozen,
                   element_array, verify_maltsev)
from .affine import (AbelianGroupSpec, Echelon, FieldEchelon, endo_images,
                     span_over, verify_affine)


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
    stale.  ``exact`` is always true: ``diff_clonoid_gens`` is exact, with
    no cap, at a cost of |companions|^arity compositions; the field is
    kept for the ``exact_enumeration`` of the JSON output."""

    p: int
    group: AbelianGroupSpec                  # the left group
    unary: tuple = ()             # tables Z_p -> L
    binary: tuple = ()            # tables Z_p^2 -> L
    exact: bool = True
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
        at that pair, zero-padded to the largest row count (its rows have
        distinct pivots), and its row count, as read-only arrays.
        """
        bases = _plane_rows(self.group, np.asarray(
            self.binary, dtype=np.int64).reshape(-1, self.p ** 2, 1))
        return _frozen(bases), _frozen((bases != 0).any(axis=2).sum(axis=1))


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


def _held_positions(spec: WreathSpec, n: int) -> np.ndarray:
    """The p^n + n * s arguments, as rows of n pairs, that fix an n-ary
    term's companion and hat: each u in Z_p^n with every l-part zero, where
    the L-part is the hat; then, per argument j and unit element e_i of L,
    (e_i, 0) at j and the zero pair elsewhere, where it is M_j e_i plus the
    hat at u = 0, M_j the term's linear l-map in argument j."""
    p, group, zero = spec.p, spec.left_group, spec.zero
    us = np.arange(p ** n)[:, None] // p ** np.arange(n)[::-1] % p
    unit = np.full((n, group.rank, n), zero)
    unit[np.arange(n), :, np.arange(n)] = p * group.element_of_code[
        (1 % group.mods) * group.weights]
    return np.vstack([zero + us, unit.reshape(-1, n)])


def _compositions(alg: FiniteAlgebra, reps: np.ndarray,
                  old: int) -> np.ndarray:
    """Every basic operation applied position-wise to every tuple of rows
    of `reps` with at least one row past the first `old`: a tuple whose
    first such row sits at argument j takes its earlier arguments from the
    first `old` rows, so each tuple comes once."""
    width = reps.shape[1]
    out = [np.zeros((0, width), dtype=np.int64)]
    for op in alg.ops:
        table = alg.table(op.symbol)
        for j in range(op.arity):
            flat = np.zeros((1, width), dtype=np.int64)
            for block in ([reps[:old]] * j + [reps[old:]]
                          + [reps] * (op.arity - 1 - j)):
                flat = (flat[:, None] * alg.size + block).reshape(-1, width)
            out.append(table[flat].astype(np.int64))
    return np.vstack(out)


def _companion_defects(spec: WreathSpec, n: int) -> np.ndarray:
    """The distinct composition defects of arity n, as L-tables on Z_p^n.

    From the projections and the nullary operations, every basic operation
    is applied to every tuple of companion representatives (the first term
    found with each companion) until no new companion appears; each
    composition's hat minus its representative's is a defect.  Terms are
    held on ``_held_positions`` only: a composition's value there depends
    only on its arguments' values there.  Companions and defects are told
    apart exactly, by ``_group_rows``.
    """
    alg, p, cells = spec.algebra, spec.p, spec.p ** n
    add, neg = spec.left_group.add_table, spec.left_group.neg_table
    held = _held_positions(spec, n).T
    reps, fresh = held[:0], np.vstack([held] + [
        np.full((1, held.shape[1]), op.table[0])
        for op in alg.ops if op.arity == 0])
    defects = []
    while len(fresh):
        terms = np.vstack([reps, fresh])
        l, u = np.divmod(terms, p)
        # the companion: the U-part on Z_p^n and each M_j e_i
        _, inverse = _group_rows(np.hstack(
            [u[:, :cells], add[l[:, cells:], neg[l[:, :1]]]]))
        lead = np.unique(inverse, return_index=True)[1][inverse]
        defects.append(_group_rows(add[l[:, :cells],
                                       neg[l[lead, :cells]]])[0])
        old = len(reps)
        reps = terms[lead == np.arange(len(terms))]
        fresh = _compositions(alg, reps, old) if len(reps) > old \
            else held[:0]
    return _group_rows(np.vstack(defects))[0]


def _close_under_maps(ech: Echelon | FieldEchelon, group: AbelianGroupSpec,
                      mats: np.ndarray) -> None:
    """Extend `ech` by its rows' images under every endomorphism of the
    (count, s, s) stack `mats`, applied position-wise, round by round until
    the span stops growing; being additive, they then keep it."""
    grew = len(mats) > 0
    while grew:
        rows = ech.row_array()
        grew = ech.extend(endo_images(group, mats, rows.ravel())
                          .reshape(-1, rows.shape[1]))


def diff_clonoid_gens(spec: WreathSpec) -> ClonoidGenSet:
    """Generators of the difference clonoid, exactly: per arity n = 1, 2,
    the span D_n of the composition defects (``_companion_defects``),
    closed under the left algebra's non-scalar argument maps M.

    Each defect, and M applied to a difference, is a difference of two
    terms with one companion.  Conversely, by induction over terms: if t_j
    has hat r_j + d_j, r_j its representative's hat and d_j in D_n, then
    f(t_1..t_r) has the hat of f(representatives), which is its own
    representative's plus a defect, plus sum_j M_{f,j} d_j.
    """
    group = spec.left_group
    m, p, s = group.exponent, spec.p, group.rank
    mats = np.asarray(sorted({
        form.matrices[i] for form in verify_affine(spec.left, group)
        for i in range(form.arity) if form.scalar(i) is None}),
        dtype=np.int64).reshape(-1, s, s)
    spans = []
    for n in (1, 2):
        ech = span_over(m, p ** n * s)
        ech.extend(group.embed_elements(_companion_defects(spec, n)))
        _close_under_maps(ech, group, mats)
        ech.canonicalize()
        spans.append(ech)
    u_ech, b_ech = spans

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
    unary = group.unembed_array(u_ech.row_array()).tolist()
    return ClonoidGenSet(p=p, group=group, unary=unary, binary=binary,
                         unary_span=u_ech.span_size(),
                         binary_span=b_ech.span_size())


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

class _Blocks(NamedTuple):
    """Blocks of a clonoid image with the same number of columns c, G of
    them: block g lies on the embedded columns cols[g] and holds the
    canonical rows over Z_m (m = exp(L)) of its part of the image,
    rows[g], zero-padded to R rows and sorted by pivot.  Row r has its
    pivot at position pivots[g, r] of the flattened (G * c) block columns,
    with entry divs[g, r]; a padding row is zero, with its pivot at the
    block's first column and entry 1, and real[g, r] is False.  `unit`
    says that every pivot entry is 1, as over a prime."""

    cols: np.ndarray      # (G, c)
    rows: np.ndarray      # (G, R, c)
    pivots: np.ndarray    # (G, R)
    divs: np.ndarray      # (G, R)
    real: np.ndarray      # (G, R)
    unit: bool


def _blocks(cols: np.ndarray, rows: np.ndarray) -> _Blocks:
    nblocks, nrows, c = rows.shape
    nonzero = rows != 0
    pivots = nonzero.argmax(axis=2) + c * np.arange(nblocks)[:, None]
    real = nonzero.any(axis=2)
    entries = rows.reshape(nblocks, nrows * c)[
        np.arange(nblocks)[:, None], pivots % c + c * np.arange(nrows)]
    divs = np.where(real, entries, 1)
    return _Blocks(cols, rows, pivots, divs, real, bool((divs == 1).all()))


def _reduce_blocks(blocks, vectors, m: int) -> np.ndarray:
    """The rows of `vectors` (embedded, entries in 0..m-1) reduced block by
    block.  Blocks lie on disjoint columns, so each is reduced on its own:
    one gather, then for each row slot r the Howell step of
    ``Echelon.reduce`` (subtract q times row r when its pivot entry d
    divides the vector's entry there, q = entry / d), for all blocks at
    once, and the reduction mod m once at the end.  Canonical rows with
    pivot entry 1 are zero at the block's other pivots, so there q is the
    vector's own entry.
    """
    vectors = np.array(vectors, dtype=np.int64)
    for block in blocks:
        cols = block.cols.ravel()
        w = vectors[:, cols]
        blocked = w.reshape(len(w), *block.cols.shape)
        for r in range(block.rows.shape[1]):
            entry = w[:, block.pivots[:, r]] % m
            if not block.unit:
                d = block.divs[:, r]
                entry = entry // d * (entry % d == 0)
            blocked -= entry[:, :, None] * block.rows[:, r]
        vectors[:, cols] = w
    np.remainder(vectors, m, out=vectors)
    return vectors


def _placed(block: _Blocks, g: np.ndarray, r: np.ndarray,
            width: int) -> np.ndarray:
    """Rows r of blocks g, each as an embedded row of the given width."""
    out = np.zeros((len(g), width), dtype=np.int64)
    out[np.arange(len(g))[:, None], block.cols[g]] = block.rows[g, r]
    return out


def _plane_rows(group: AbelianGroupSpec, columns: np.ndarray) -> np.ndarray:
    """The canonical rows over Z_m of each plane's binary emissions, as a
    (planes, R, z * s) array zero-padded to the largest row count R, where
    `columns` is (binary generators, planes, z): the emissions' values at
    the plane's z coordinates."""
    nb, planes, z = columns.shape
    width = z * group.rank
    emitted = group.embedded[columns].reshape(nb, planes, width)
    bases = []
    for g in range(planes):
        ech = span_over(group.exponent, width)
        ech.extend(emitted[:, g])
        ech.canonicalize()
        bases.append(ech.row_array())
    rows = np.zeros((planes, max(map(len, bases), default=0), width),
                    dtype=np.int64)
    for g, basis in enumerate(bases):
        rows[g, :len(basis)] = basis
    return rows


@dataclass
class ClonoidImage:
    """Subgroup of L^k generated by clonoid images of fixed u-columns, held
    by plane.

    The image is the direct sum of blocks on disjoint columns: one per
    plane, holding the canonical rows of its binary emissions, and one
    dense block for the unary emissions with the planes they reach (see
    ``clonoid_image_comprep``).  Blocks with the same number of columns
    are stacked, so ``residues`` takes one gather and one batched product
    per row slot; the solver and ``check_witness`` test membership that
    way.  The canonical rows of a direct sum on disjoint columns are the
    union of its summands' canonical rows: so ``rank`` and
    ``tuples_materialized`` are counted from the blocks, and ``basis``,
    sorted by pivot, and ``generators``, its tuples, are assembled on
    first read, as are the raw emissions ``emitted``.  The solver builds
    only the rows of the blocks a residue touches (``touched_rows``).  The
    binary emissions are kept sparse: off-diagonal coordinate coords[i]
    lies on plane plane_of[i] and takes columns[b, i] in binary generator
    b's emission.
    """

    group: AbelianGroupSpec
    k: int
    blocks: tuple            # of _Blocks
    planes: np.ndarray       # populated plane axes, in lexicographic order
    plane_of: np.ndarray
    coords: np.ndarray
    columns: np.ndarray      # (binary generators, off-diagonal coordinates)
    unary_vecs: np.ndarray   # (unary generators, k) emissions

    @property
    def rank(self) -> int:
        """The number of canonical rows."""
        return sum(int(np.count_nonzero(b.real)) for b in self.blocks)

    @property
    def tuples_materialized(self) -> int:
        return (len(self.planes) * len(self.columns) + len(self.unary_vecs)
                + self.rank)

    def residues(self, vectors) -> np.ndarray:
        """The residues of the rows of `vectors` (embedded) modulo the
        image: zero exactly on the rows that lie in it."""
        return _reduce_blocks(self.blocks, vectors, self.group.exponent)

    def touched_rows(self, residues: np.ndarray) -> np.ndarray:
        """The canonical rows, embedded, of every block on whose columns
        some row of `residues` is nonzero."""
        nonzero = residues.any(axis=0)
        width = self.k * self.group.rank
        placed = [np.zeros((0, width), dtype=np.int64)]
        for b in self.blocks:
            hit = nonzero[b.cols].any(axis=1)
            if hit.any():
                placed.append(_placed(b, *np.nonzero(b.real & hit[:, None]),
                                      width))
        return np.vstack(placed)

    @cached_property
    def basis(self) -> np.ndarray:
        """The canonical echelon generators, embedded, sorted by pivot."""
        rows = self.touched_rows(np.ones((1, self.k * self.group.rank)))
        # canonical rows are nonzero, with distinct pivots
        return rows[np.argsort((rows != 0).argmax(axis=1))]

    @cached_property
    def generators(self) -> list:
        """The canonical echelon generators as tuples of L."""
        return [tuple(row) for row in
                self.group.unembed_array(self.basis).tolist()]

    @cached_property
    def emitted(self) -> list:
        """The raw emissions as (tag, tuple): each binary generator's per
        plane, planes in order, then each unary generator's."""
        vecs = np.full((len(self.planes), len(self.columns), self.k),
                       self.group.zero, dtype=np.int64)
        vecs[self.plane_of, :, self.coords] = self.columns.T
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
    """The distinct rows of a 2-D array of non-negative integers in
    lexicographic order, and the index of each row among them, as
    ``np.unique(rows, axis=0, return_inverse=True)`` gives them: one sort
    of the rows as byte strings, each entry big-endian in the fewest bytes
    that hold the largest, so that byte order is lexicographic order, and
    its run boundaries."""
    dtype = np.min_scalar_type(rows.max(initial=0)).newbyteorder(">")
    keys = np.ascontiguousarray(rows, dtype=dtype).view(
        np.dtype((np.void, rows.shape[1] * dtype.itemsize))).ravel()
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return rows[order[new]], inverse


def clonoid_image_comprep(gens: ClonoidGenSet, u_columns) -> ClonoidImage:
    """Generators of {f(u_1..u_n) : f generated by `gens`} inside L^k, held
    by plane.

    `u_columns` is n columns of k u-values: a list, or an (n, k) integer
    array.  Rows are classified into planes; each binary generator
    contributes one tuple per populated plane (planes in axis order),
    evaluated through the plane parameterization, and each unary generator
    contributes its diagonal-collapse image.  A binary emission is
    supported on its plane's coordinates, so the binary part of the image
    is the direct sum of one block per plane:
    * a coordinate alone in its plane takes its rows from the per-pair
      table ``gens.pair_bases``, by its pair index x * p + y, with no
      elimination;
    * a plane with several coordinates is eliminated through ``span_over``
      on its own columns, and the planes of one size are stacked.
    The unary emissions are reduced by these blocks.  The planes their
    residues reach leave the plane blocks, and their rows and the
    residues make one dense block, eliminated once; no other block meets
    its columns.  So the image is the direct sum of the remaining plane
    blocks and the dense block, and its canonical rows are theirs.
    """
    rows = np.asarray(u_columns, dtype=np.int64)
    if len(rows) < 1 or rows.ndim != 2:
        raise AlgebraError("at least one u-column is required, and each "
                           "must be a sequence of k u-values")
    group = gens.group
    p = gens.p
    m = group.exponent
    s = group.rank
    zero = group.zero
    n = len(rows)
    rows = (rows % p).T
    k = len(rows)

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

    # the coordinates of each plane, plane by plane, ascending
    counts = np.bincount(plane_of, minlength=len(planes))
    by_plane = np.argsort(plane_of, kind="stable")
    starts = np.cumsum(counts) - counts
    blocks = []
    for z in np.flatnonzero(np.bincount(counts)).tolist():
        at = by_plane[starts[counts == z][:, None] + np.arange(z)]
        cols = (coords[at][:, :, None] * s + np.arange(s)).reshape(len(at),
                                                                   z * s)
        if z == 1:
            plane_rows = gens.pair_bases[0][pairs[at[:, 0]]]
        else:
            plane_rows = _plane_rows(group, columns[:, at])
        blocks.append(_blocks(cols, plane_rows))
    if len(unary_vecs):
        residues = _reduce_blocks(blocks, group.embed_elements(unary_vecs),
                                  m)
        nonzero = residues.any(axis=0)
        dense = [residues]
        for i, b in enumerate(blocks):
            hit = nonzero[b.cols].any(axis=1)
            dense.append(_placed(b, *np.nonzero(b.real & hit[:, None]),
                                 k * s))
            blocks[i] = _blocks(b.cols[~hit], b.rows[~hit])
        ech = span_over(m, k * s)
        ech.extend(np.vstack(dense))
        ech.canonicalize()
        dense = ech.row_array()
        if len(dense):
            support = np.flatnonzero(dense.any(axis=0))
            blocks.append(_blocks(support[None], dense[None][:, :, support]))
    return ClonoidImage(group, k, tuple(blocks), planes, plane_of, coords,
                        columns, unary_vecs)
