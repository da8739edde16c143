"""Finite abelian groups as lookup tables, elimination modulo the exponent,
affine closure.

An ``AbelianGroupSpec`` is Z_{m_1} x ... x Z_{m_s} on the dense indices
0..size-1 (mixed radix, last factor fastest) with a designated zero.  Its
tables are built once, when the frozen spec is made:

* ``residues``: element -> residue row relative to the zero, (size, s);
* ``embedded``: element -> row of Z_m, m the exponent, residue i scaled by
  m / m_i, so that L^k embeds into Z_m^{k*s} as a lattice;
* ``element_of_code``: the inverse map, from the mixed-radix code of a
  residue row back to the element;
* ``neg_table``, and on first use ``add_table`` (size x size) and
  ``scale_table`` (exponent x size).

The scalar methods ``vec``, ``elem``, ``add``, ``neg`` and ``scale`` are
lookups in these tables.  The whole-tuple functions ``embed_elements``,
``unembed``, ``tuple_add``, ``tuple_sub`` and ``tuple_scale`` are one numpy
indexing step each, behind ``check_elements``: numpy wraps negative indices
and broadcasts length-one arrays, so every tuple is range- and
shape-checked where it enters.  Inside the solver tuples stay int64 arrays,
one row per tuple; they become Python tuples only at the API and JSON edge.

Subgroups of L^k are handled by row echelons on the embedded vectors.
Over a prime modulus ``FieldEchelon`` keeps the basis fully reduced, so a
reduction is one product.  Its span grows only by ``extend``, which
eliminates a whole block of rows at once, Gauss-Jordan with deferred
reduction mod q (Dumas, Giorgi & Pernet, ACM TOMS 2008), and leaves the
echelon of sequential elimination, row by row.  Its products stay exact
in int64 because every ``FieldEchelon`` has width * (q - 1)^2 + q < 2^63,
and its pivot loop runs in the narrowest integer type that bound allows.
Over other moduli ``Echelon`` keeps a Howell-style form over Z_m: the
Howell completion (annihilator rows) guarantees that, for every prefix,
the rows with later pivots generate exactly the subgroup elements
vanishing on that prefix, which makes kernels, signatures and membership
witnesses exact.  Canonical rows are unique either way: the reduced
echelon form over a field, the Howell normal form over Z_m (Howell 1986;
Storjohann & Mulders, ESA 1998), so the class cannot move an output.
One constructor, ``span_over``, picks it by the modulus, for the affine
closure, the subgroup test and every wreath echelon alike; no caller
chooses it.  An affine closure with scalar maps only keeps its span as a
``LiftedSpan`` when its differences are Z_m-free (``lift_span``): one
``FieldEchelon`` per prime p | m, and p-adic lifting over Z_{p^e} in
place of a Howell elimination.

One cache rule: a derived value is a ``functools.cached_property`` of
the frozen object it derives from (a plain-value helper keeps an
``lru_cache``).  So ``verify_affine`` checks an algebra over a group once
and keeps the forms on the algebra, keyed by the group, for every later
``affine_span``, ``dispatch`` and ``compute_comprep``.

The affine closure of generator tuples under a verified affine algebra is
kept in base-plus-differences form.  Every inserted difference remembers a
pair of member circuits realizing it, so arbitrary members can be issued
with witness circuits by chaining the designated Mal'tsev circuit
(m(x, y, z) adds the difference x - y to z).  Compact representations of
a coset are built as matrices: one matrix of per-coordinate
fork combinations (``_fork_coefficients``), one product for the members,
a first-occurrence dedupe, and one ``unembed_array``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .circuits import CircuitBank
from .core import AlgebraError, FiniteAlgebra, _frozen, element_array, integer


class NotAffineError(AlgebraError):
    def __init__(self, symbol, inputs, message="operation is not affine"):
        super().__init__(f"{message}: {symbol} at {inputs}")
        self.symbol = symbol
        self.inputs = inputs


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Product of cyclic groups Z_{m_1} x ... x Z_{m_s} on dense indices."""

    orders: tuple
    zero: int = 0

    def __post_init__(self):
        orders = tuple(integer(m, f"cyclic_orders[{i}]")
                       for i, m in enumerate(self.orders))
        if not orders or any(m < 1 for m in orders):
            raise AlgebraError("cyclic orders must be positive")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "zero", integer(self.zero, "zero"))
        size = math.prod(orders)
        if not 0 <= self.zero < size:
            raise AlgebraError("zero element out of range")
        m = math.lcm(*orders)
        mods = np.asarray(orders, dtype=np.int64)
        weights = np.asarray([math.prod(orders[i + 1:])
                              for i in range(len(orders))], dtype=np.int64)
        digits = (np.arange(size, dtype=np.int64)[:, None] // weights) % mods
        residues = (digits - digits[self.zero]) % mods
        element_of_code = np.empty(size, dtype=np.int64)
        element_of_code[residues @ weights] = np.arange(size)
        tables = {
            "_size": size, "_exponent": m, "mods": _frozen(mods),
            "weights": _frozen(weights), "factors": _frozen(m // mods),
            "residues": _frozen(residues),
            "embedded": _frozen(residues * (m // mods)),
            "element_of_code": _frozen(element_of_code),
        }
        for name, value in tables.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "neg_table",
                           _frozen(self.from_residues(-residues)))

    def from_residues(self, res) -> np.ndarray:
        """Elements of residue rows (last axis), entries taken mod m_i."""
        return self.element_of_code[(res % self.mods) @ self.weights]

    @cached_property
    def add_table(self) -> np.ndarray:
        res = self.residues
        return _frozen(self.from_residues(res[:, None, :] + res[None, :, :]))

    @cached_property
    def scale_table(self) -> np.ndarray:
        """scale_table[c, x] is c * x, for 0 <= c < exponent."""
        c = np.arange(self._exponent, dtype=np.int64)[:, None, None]
        return _frozen(self.from_residues(c * self.residues[None, :, :]))

    @property
    def size(self) -> int:
        return self._size

    @property
    def exponent(self) -> int:
        return self._exponent

    @property
    def rank(self) -> int:
        return len(self.orders)

    # -- scalar lookups ----------------------------------------------------

    def _check(self, x) -> None:
        if not 0 <= x < self._size:
            raise AlgebraError(f"element {x} out of range")

    def vec(self, x: int) -> tuple:
        """Residue vector of element x, relative to the designated zero."""
        self._check(x)
        return tuple(self.residues[x].tolist())

    def elem(self, residues) -> int:
        """The element with these residues (each taken mod its order)."""
        if len(residues) != self.rank:
            raise AlgebraError("residue vector length differs from the rank")
        code = 0
        for r, m in zip(residues, self.orders):
            code = code * m + int(r) % m
        return int(self.element_of_code[code])

    def add(self, x: int, y: int) -> int:
        self._check(x)
        self._check(y)
        return int(self.add_table[x, y])

    def neg(self, x: int) -> int:
        self._check(x)
        return int(self.neg_table[x])

    def scale(self, c: int, x: int) -> int:
        self._check(x)
        return int(self.scale_table[c % self._exponent, x])

    # -- whole tuples ------------------------------------------------------

    def check_elements(self, elements) -> np.ndarray:
        """`elements` (a tuple, or rows of tuples) as an int64 index array.

        Raises AlgebraError (``core.element_array``) on entries that are not
        integers in 0..size-1 and on rows of unequal length.
        """
        arr = element_array(elements, self._size)
        if arr.ndim == 0:
            raise AlgebraError("expected a tuple of elements, got a scalar")
        return arr

    def embed_elements(self, elements) -> np.ndarray:
        """Flatten a tuple of element indices into an embedded Z_m vector.

        Rows of a 2-D input are embedded separately.
        """
        idx = self.check_elements(elements)
        return self.embedded[idx].reshape(
            idx.shape[:-1] + (idx.shape[-1] * self.rank,))

    def unembed_array(self, flat) -> np.ndarray:
        """Elements of an embedded vector (or of each row of a 2-D array).

        Raises AlgebraError unless every entry lies in 0..m-1 and every
        chunk lies in the embedded lattice.
        """
        flat = np.asarray(flat, dtype=np.int64)
        s = self.rank
        if flat.ndim == 0 or flat.shape[-1] % s:
            raise AlgebraError("embedded length is not a multiple of the rank")
        if flat.size and (flat.min() < 0 or flat.max() >= self._exponent):
            raise AlgebraError("embedded entry out of range")
        chunks = flat.reshape(flat.shape[:-1] + (flat.shape[-1] // s, s))
        if (chunks % self.factors).any():
            raise AlgebraError("vector is not in the embedded lattice")
        return self.element_of_code[(chunks // self.factors) @ self.weights]

    def unembed(self, flat) -> tuple:
        return tuple(self.unembed_array(flat).tolist())


def _same_shape(group: AbelianGroupSpec, x, y):
    x, y = group.check_elements(x), group.check_elements(y)
    if x.shape != y.shape:
        raise AlgebraError("tuples have unequal lengths")
    return x, y


def tuple_add(group: AbelianGroupSpec, x, y) -> tuple:
    x, y = _same_shape(group, x, y)
    return tuple(group.add_table[x, y].tolist())


def tuple_sub(group: AbelianGroupSpec, x, y) -> tuple:
    x, y = _same_shape(group, x, y)
    return tuple(group.add_table[x, group.neg_table[y]].tolist())


def tuple_scale(group: AbelianGroupSpec, c: int, x) -> tuple:
    x = group.check_elements(x)
    return tuple(group.scale_table[c % group.exponent, x].tolist())


def element_rows(group: AbelianGroupSpec, rows, k: int) -> np.ndarray:
    """Checked (len(rows), k) index array of tuples that must have length k."""
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
    arr = group.check_elements(rows) if len(rows) else \
        np.zeros((0, k), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != k:
        raise AlgebraError("tuples have unequal lengths")
    return arr


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


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@lru_cache(maxsize=64)
def prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of n as (p, e) pairs, p ascending."""
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return tuple(out + [(n, 1)] * (n > 1))


def prime_length(n: int) -> int:
    """The number of prime factors of n counted with multiplicity: the
    composition length of a group of order n."""
    return sum(e for _, e in prime_powers(n))


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


class Echelon:
    """Howell-form row space over Z_m with optional generator bookkeeping.

    Elimination is sequential, one pivot at a time.  Over a prime modulus
    ``span_over`` gives a ``FieldEchelon`` instead, one product per
    reduction, with the same canonical rows and tracked coefficients.  The
    affine solve makes one only where ``lift_span`` cannot lift: with a
    non-scalar map, or with raw differences that are not Z_m-free.  A
    compact representation of a lifted span makes one for its canonical
    rows (``AffineSubpowerRep.tracked_echelon``).

    Each row is stored augmented with its coefficient row, so one
    elimination step is one fused update; ``rows`` and ``coeffs`` are
    lists of views into the augmented rows.  A stored array is never
    written after it is made (a replaced or canonicalized row is a new
    array), so row lists handed out stay valid while more vectors are
    inserted.  The tracked coefficient rows depend on the order of
    elimination when the inserted rows are not Z_m-free: the raw
    differences of the golden ``z2_z4_zero5`` compact representation
    (seed 65), eliminated in reverse order, give the same canonical rows
    but change 6 of its 8 circuits.
    """

    def __init__(self, m: int, width: int, track: int | None = None):
        if m < 1:
            raise AlgebraError("modulus must be positive")
        self.m = m
        self.width = width
        self.track = track
        self.rows: list[np.ndarray] = []
        self.coeffs: list[np.ndarray | None] = []
        self.pivots: dict[int, int] = {}
        self._gen_count = 0
        self._aug: list[np.ndarray] = []     # row, then its coefficients
        # per row: (d, m // d, inverse of a / d mod m / d), a the pivot entry
        # and d = gcd(a, m)
        self._div: list[tuple[int, int, int]] = []
        self._order: list[int] | None = None  # sorted pivot columns

    def _vector(self, v, extra: int = 0) -> np.ndarray:
        """v mod m as a new array, followed by `extra` zeros."""
        v = np.asarray(v, dtype=np.int64)
        if v.shape != (self.width,):
            raise AlgebraError("vector width mismatch")
        if not extra:
            return v % self.m
        w = np.zeros(self.width + extra, dtype=np.int64)
        np.remainder(v, self.m, out=w[:self.width])
        return w

    def _set_row(self, ridx: int, col: int, aug: np.ndarray) -> None:
        m, width = self.m, self.width
        a = int(aug[col])
        d = math.gcd(a, m)
        div = (d, m // d, pow(a // d, -1, m // d))
        row = aug[:width]
        coeff = None if self.track is None else aug[width:]
        if ridx == len(self._aug):
            self._aug.append(aug)
            self.rows.append(row)
            self.coeffs.append(coeff)
            self._div.append(div)
        else:
            self._aug[ridx] = aug
            self.rows[ridx] = row
            self.coeffs[ridx] = coeff
            self._div[ridx] = div

    def _pivot_order(self) -> list[int]:
        if self._order is None:
            self._order = sorted(self.pivots)
        return self._order

    def insert(self, v) -> bool:
        """Add a generator; returns True when the span grew."""
        m, width = self.m, self.width
        w = self._vector(v, self.track or 0)
        if self.track is not None:
            # followed by the unit coefficient row of its generator slot
            if self._gen_count >= self.track:
                raise AlgebraError("more generators than the tracking width")
            w[width + self._gen_count] = 1
        self._gen_count += 1
        pivots, augs, divs = self.pivots, self._aug, self._div
        grew = False
        queue = [w]
        while queue:
            w = queue.pop()
            nz = w[:width].nonzero()[0]
            while len(nz):
                col = int(nz[0])
                ridx = pivots.get(col)
                if ridx is None:
                    ridx = pivots[col] = len(augs)
                    self._order = None
                    self._set_row(ridx, col, w)
                    grew = True
                    self._queue_annihilator(queue, ridx)
                    break
                p = augs[ridx]
                d, mp, inv = divs[ridx]
                b = int(w[col])
                if b % d == 0:
                    # w is not stored yet: a stored row is never written
                    np.subtract(w, (b // d) * inv % mp * p, out=w)
                    np.remainder(w, m, out=w)
                else:
                    a = int(p[col])
                    g, s, t = _egcd(a, b)
                    newp = s * p + t * w
                    np.remainder(newp, m, out=newp)
                    w = (a // g) * w - (b // g) * p
                    np.remainder(w, m, out=w)
                    self._set_row(ridx, col, newp)
                    grew = True
                    self._queue_annihilator(queue, ridx)
                nz = w[:width].nonzero()[0]
        return grew

    def _queue_annihilator(self, queue: list, ridx: int) -> None:
        # (m / d) * row kills the pivot entry; Howell form needs the rest
        ann = self._div[ridx][1]
        if ann < self.m:
            aw = ann * self._aug[ridx]
            np.remainder(aw, self.m, out=aw)
            if aw[:self.width].any():
                queue.append(aw)

    def _eliminate(self, w: np.ndarray, rows: list, strict: bool):
        """Reduce w by the pivot rows in column order.  A pivot row is zero
        before its column, so an entry at a pivot it cannot clear stays:
        with ``strict``, return None there."""
        m, pivots, divs = self.m, self.pivots, self._div
        for col in self._pivot_order():
            b = int(w[col])
            if b:
                ridx = pivots[col]
                d, mp, inv = divs[ridx]
                if b % d == 0:
                    w = w - (b // d) * inv % mp * rows[ridx]
                    np.remainder(w, m, out=w)
                elif strict:
                    return None
        return w

    def reduce(self, v) -> tuple[np.ndarray, np.ndarray | None]:
        """Residue of v modulo the span, plus combination coefficients."""
        w = self._vector(v, self.track or 0)
        if self.track is None:
            return self._eliminate(w, self.rows, strict=False), None
        # the coefficient part accumulates minus the combination
        w = self._eliminate(w, self._aug, strict=False)
        return w[:self.width], (-w[self.width:]) % self.m

    def contains(self, v) -> bool:
        w = self._eliminate(self._vector(v), self.rows, strict=True)
        return w is not None and not w.any()

    def contains_rows(self, rows) -> np.ndarray:
        """``contains`` of each row of a matrix, as a boolean array."""
        return np.asarray([self.contains(row) for row in rows], dtype=bool)

    def extend(self, rows) -> bool:
        """``insert`` each row of a matrix, in order; True if the span grew."""
        # a list, not a generator: every row is inserted
        return any([self.insert(row) for row in rows])

    def canonicalize(self) -> None:
        """Unit-normalize pivots, clear entries above them, sort rows."""
        m = self.m
        order = self._pivot_order()
        if not order:
            return
        aug = np.array([self._aug[self.pivots[c]] for c in order],
                       dtype=np.int64)
        units = [_unit_scale(int(row[c]), m) for row, c in zip(aug, order)]
        aug *= np.asarray(units, dtype=np.int64)[:, None]
        np.remainder(aug, m, out=aug)
        # rows before j have earlier pivots; row j is final once reached
        for j, col in enumerate(order):
            q = aug[:j, col] // aug[j, col]
            hit = q.nonzero()[0]
            if len(hit):
                aug[hit] = (aug[hit] - q[hit, None] * aug[j]) % m
        self._aug, self.rows, self.coeffs, self._div = [], [], [], []
        for ridx, (col, row) in enumerate(zip(order, aug)):
            self._set_row(ridx, col, row)
        self.pivots = {c: i for i, c in enumerate(order)}

    def trim_tracking(self, slots) -> None:
        """Keep the coefficient columns of the generator `slots`, in order,
        as slots 0, 1, ...: every other slot has written nothing into a
        stored row."""
        cols = np.concatenate((np.arange(self.width),
                               self.width + np.asarray(slots, dtype=int)))
        self.track = len(slots)
        self._aug = [aug[cols] for aug in self._aug]
        self.rows = [aug[:self.width] for aug in self._aug]
        self.coeffs = [aug[self.width:] for aug in self._aug]

    def row_array(self) -> np.ndarray:
        """The rows as one (rank, width) array."""
        return np.asarray(self.rows, dtype=np.int64).reshape(-1, self.width)

    def span_size(self) -> int:
        total = 1
        for _, mp, _ in self._div:
            total *= mp
        return total

    def tail_rows(self, start_col: int) -> list[int]:
        """Row indices with pivot at or after start_col.

        By the Howell property these generate every span element vanishing
        before start_col.
        """
        order = self._pivot_order()
        return [self.pivots[c] for c in order[bisect_left(order, start_col):]]


class FieldEchelon:
    """Fully reduced row space over GF(q), q prime.

    Every row has pivot entry 1, and every pivot column is zero in the other
    rows.  So the residue of w is one product, w - w[pivots] @ basis, whose
    coefficient part is the combination.  The span grows only by
    ``extend``, which eliminates a block of rows at once, with deferred
    reduction mod q, and leaves the echelon of sequential elimination: the
    rows taken one by one, in order, each reduced against the rows kept so
    far and, when its residue is nonzero, scaled to pivot entry 1, cleared
    from the kept rows and appended.  With tracking, ``extend`` can also
    report the coefficient rows of the generators that did not grow the
    span: each is zero on the width, so together they span the
    combinations of the block's generators that vanish.

    The constructor requires width * (q - 1)^2 + q < 2^63: a product sums
    at most `width` terms below (q - 1)^2 each, and a block entry takes at
    most `width` unreduced updates.  Products run in int64; the pivot loop
    of ``extend`` runs in the narrowest signed integer type that holds
    every entry it can reach, of magnitude below that bound (int16 when
    the bound is at most 2^15, int32 at most 2^31), since a narrow type's
    row updates cost less.  Rows keep their elimination order until
    ``canonicalize`` sorts them by pivot; over a prime modulus these are
    the canonical rows of ``Echelon.canonicalize``.  The augmented rows
    live in one int64 buffer with spare capacity that ``extend`` updates
    in place, so ``rows`` and ``coeffs`` hand out copies.
    """

    def __init__(self, q: int, width: int, track: int | None = None):
        if not is_prime(q):
            raise AlgebraError(f"modulus {q} is not prime")
        bound = width * (q - 1) ** 2 + q
        if bound >= 2 ** 63:
            raise AlgebraError(
                f"width {width} and modulus {q} break the int64 bound "
                "width * (q - 1)^2 + q < 2^63 of exact elimination")
        self.m = q
        self.width = width
        self.track = track
        self._loop_type = np.min_scalar_type(-bound)
        self._buf = np.zeros((0, width + (track or 0)), dtype=np.int64)
        self._colbuf = np.zeros(width, dtype=np.intp)
        self._cols = self._colbuf[:0]          # pivot column of each row
        self._free = None      # non-pivot columns, the basis on them
        self._gen_count = 0

    @property
    def _aug(self) -> np.ndarray:
        return self._buf[:len(self._cols)]

    @property
    def rows(self) -> list:
        return list(self._aug[:, :self.width].copy())

    @property
    def coeffs(self) -> list:
        if self.track is None:
            return [None] * len(self._cols)
        return list(self._aug[:, self.width:].copy())

    @property
    def pivots(self) -> dict:
        return {int(c): i for i, c in enumerate(self._cols)}

    def reduce(self, v) -> tuple[np.ndarray, np.ndarray | None]:
        """Residue of v (or of each row of a matrix) modulo the span, plus
        combination coefficients: one product of the pivot entries with
        the augmented rows."""
        w = np.asarray(v, dtype=np.int64)
        if w.shape[-1:] != (self.width,):
            raise AlgebraError("vector width mismatch")
        w = w % self.m
        out = w[..., self._cols] @ self._aug
        out[..., :self.width] = w - out[..., :self.width]
        out %= self.m
        if self.track is None:
            return out, None
        return out[..., :self.width], out[..., self.width:]

    def _residues(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residues of the rows of `w` (entries in 0..q-1) modulo the span,
        and each row's entries on the pivot columns.

        On the pivot columns the basis is a unit matrix, so a residue is
        zero there and the product runs over the other columns only; their
        indices and the basis restricted to them are kept until the basis
        changes.
        """
        c = w[:, self._cols]
        if not len(self._cols):
            return w, c
        if self._free is None:
            free = np.ones(self.width, dtype=bool)
            free[self._cols] = False
            free = np.flatnonzero(free)
            self._free = free, np.take(self._aug, free, axis=1)
        free, basis = self._free
        residue = np.zeros_like(w)
        residue[:, free] = (np.take(w, free, axis=1) - c @ basis) % self.m
        return residue, c

    def contains_rows(self, rows) -> np.ndarray:
        """``contains`` of each row of a matrix, as a boolean array."""
        w = np.asarray(rows, dtype=np.int64) % self.m
        return ~self._residues(w)[0].any(axis=1)

    def extend(self, rows, kernel: bool = False):
        """Add the rows of a matrix as generators, in order, in one block;
        returns True when the span grew.  With `kernel` (tracked echelons
        only) it returns instead the coefficient rows of the generators
        that did not grow the span, in generator order, as one (count,
        track) int64 array: row j has 1 at its generator's slot and
        combines it with earlier generators to zero.

        One product reduces the block against the basis; only the rows left
        nonzero (every row, with `kernel`) are eliminated, each with a
        coefficient part, its unit generator slot minus one product.
        Gauss-Jordan over those rows, in order, reduces just the pivot row
        and the pivot column mod q at each step before one rank-1 update of
        the block, and the block once at the end: an entry grows by at most
        (q - 1)^2 a step, and a block takes at most `width` pivots, which
        the constructor's bound keeps inside the loop's integer type.  A
        row left zero keeps its coefficient part from then on, since its
        pivot-column entries are zero.  Then one product clears the new
        pivot columns from the old rows: each new row is 1 on its own pivot
        and 0 on the others, so this subtracts what clearing them one at a
        time would.

        This leaves the echelon of sequential elimination, row by row (see
        the class docstring): the same rows in the same order, pivots,
        coefficient rows and generator count.  A row's residue modulo the
        span so far, on the pivots so far, is unique, so the pivots agree;
        and every stored augmented row lies in the span of the augmented
        generators that grew the span, whose width parts are independent,
        so its width part, fixed by the span and the pivots, fixes its
        coefficient part.
        """
        q, width = self.m, self.width
        try:
            rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), width)
        except ValueError:
            raise AlgebraError("vector width mismatch") from None
        if kernel and self.track is None:
            raise AlgebraError("a kernel needs a tracked echelon")
        rows = rows % q
        start = self._gen_count
        track = self.track or 0
        if self.track is not None and start + len(rows) > self.track:
            raise AlgebraError("more generators than the tracking width")
        self._gen_count = start + len(rows)
        aug = self._aug
        if len(aug):
            rows, c = self._residues(rows)
        live = (np.arange(len(rows)) if kernel
                else rows.any(axis=1).nonzero()[0])
        if not len(live):
            return np.zeros((0, track), dtype=np.int64) if kernel else False
        block = np.zeros((len(live), width + track), dtype=self._loop_type)
        block[:, :width] = rows[live]
        if track:
            if len(aug):
                block[:, width:] = -(c[live] @ aug[:, width:]) % q
            block[np.arange(len(live)), width + start + live] += 1
        kept, cols = [], []                    # pivot rows of the block
        # a lone row updates no other row, and stays reduced
        several = len(block) > 1
        for i, row in enumerate(block):
            row %= q
            nz = row[:width].nonzero()[0]
            if not len(nz):
                continue
            col = nz[0]
            if row[col] != 1:
                row *= pow(int(row[col]), -1, q)
                row %= q
            if several:
                f = block[:, col] % q
                f[i] = 0
                block -= np.multiply.outer(f, row)
            kept.append(i)
            cols.append(col)
        if kernel:
            dead = np.ones(len(block), dtype=bool)
            dead[kept] = False
            null = (block[dead, width:] % q).astype(np.int64)
            if not kept:
                return null
        if several:
            block = block[kept] % q
        r = len(aug)
        if r:
            hits = aug[:, cols]
            hit = hits.any(axis=1).nonzero()[0]
            if len(hit):
                aug[hit] = (aug[hit] - hits[hit] @ block) % q
        if r + len(block) > len(self._buf):
            # the rank is at most the width
            grown = np.empty((min(max(2 * r, r + len(block), 16), width),
                              self._buf.shape[1]), dtype=np.int64)
            grown[:r] = aug
            self._buf = grown
        self._buf[r:r + len(block)] = block
        self._colbuf[r:r + len(block)] = cols
        self._cols = self._colbuf[:r + len(block)]
        self._free = None
        return null if kernel else True

    def canonicalize(self) -> None:
        """Sort the rows by pivot column."""
        if (np.diff(self._cols) > 0).all():
            return
        order = np.argsort(self._cols, kind="stable")
        self._aug[:] = self._aug[order]
        self._cols[:] = self._cols[order]
        self._free = None

    def trim_tracking(self, slots) -> None:
        """Keep the coefficient columns of the generator `slots`, in order,
        as slots 0, 1, ...: every other slot has written nothing into a
        stored row."""
        cols = np.concatenate((np.arange(self.width),
                               self.width + np.asarray(slots, dtype=int)))
        self.track = len(slots)
        self._buf = self._buf[:, cols]
        self._free = None

    def row_array(self) -> np.ndarray:
        """The rows as one (rank, width) array, a copy."""
        return self._aug[:, :self.width].copy()

    def span_size(self) -> int:
        return self.m ** len(self._cols)

    def tail_rows(self, start_col: int) -> list[int]:
        """Row indices with pivot at or after start_col, by pivot."""
        order = np.argsort(self._cols, kind="stable")
        return order[self._cols[order] >= start_col].tolist()


def span_over(m: int, width: int, track: int | None = None):
    """A FieldEchelon when m is prime, else a Howell Echelon.  The lifted
    span of ``lift_span`` takes one through here for each prime p | m, so a
    composite m makes a Howell Echelon only where a caller asks for one
    over Z_m itself."""
    if is_prime(m):
        return FieldEchelon(m, width, track)
    return Echelon(m, width, track)


def _lift(ech: FieldEchelon, e: int, rows: np.ndarray, w: np.ndarray):
    """Coefficients c with c @ rows == w mod p^e, p = ech.m, a row of c per
    row of w; or None when w is outside the span of `rows` over Z_{p^e}.

    `ech` is the fully reduced echelon of `rows` mod p, tracked by row, and
    the rows are independent mod p.  Digit t of c is one ``reduce`` of the
    residual mod p (unique, by independence); the residual minus its
    combination is divisible by p, and the quotient is the next residual.
    """
    p = ech.m
    q = p ** e
    w = w % q
    c = 0
    for t in range(e):
        residue, digit = ech.reduce(w)
        if residue.any():
            return None
        c = c + p ** t * digit
        if t + 1 < e:
            w = (w - digit @ rows) % q // p
    return c


class LiftedSpan:
    """The span over Z_m of rows independent mod every prime p | m, so
    Z_m-free: every member has one coefficient vector.  It is found prime
    by prime, lifted digit by digit over Z_{p^e} (``_lift``) with a tracked
    ``FieldEchelon`` of the rows mod p, and joined by the Chinese remainder
    theorem.  ``growers`` holds the index of each row among the vectors
    that ``lift_span`` eliminated."""

    def __init__(self, m: int, vecs: np.ndarray, growers: np.ndarray,
                 echelons: list):
        self.m = m
        self.rows = vecs[growers]
        self.growers = growers
        self.echelons = echelons
        self._parts = []
        for (p, e), ech in zip(prime_powers(m), echelons):
            rest = m // p ** e
            self._parts.append((e, ech, rest * pow(rest, -1, p ** e)))

    def coefficients(self, v) -> np.ndarray | None:
        """The c, one entry per row, with c @ rows == v (mod m), or None
        when v is outside the span."""
        total = 0
        for e, ech, weight in self._parts:
            c = _lift(ech, e, self.rows, v)
            if c is None:
                return None
            total = total + weight * c
        return total % self.m


def lift_span(m: int, vecs: np.ndarray) -> LiftedSpan | None:
    """The span over Z_m of the rows of `vecs`, taken in order, as a
    ``LiftedSpan`` of the rows that grow it, when those are Z_m-free; else
    None.

    A row grows the span when it lies outside the span of the rows before
    it.  Mod each prime p | m one tracked ``FieldEchelon.extend`` of the
    whole block, with ``kernel``, finds the rows that do not grow the span
    mod p: the last nonzero entry of a kernel row is its own slot.  When
    every p gives the same growers, they are independent mod every p, so
    Z_m-free.  Then, by induction over the rows, the span of the rows
    before a non-grower is the span of the growers before it, in which
    coefficients are unique: it lies there when its lift over each
    Z_{p^e} has support on earlier growers only.  Growers that differ by
    p, or a lift that fails or reaches a later grower, give None: a row
    grows the span over Z_m there without growing it mod some p, so the
    growers over Z_m are not free.  The tracking of each echelon is then
    compacted to the growers' slots.
    """
    n, width = vecs.shape
    powers = prime_powers(m)
    echelons, growers = [], None
    for p, _ in powers:
        ech = span_over(p, width, n)
        kernel = ech.extend(vecs, kernel=True)
        grows = np.ones(n, dtype=bool)
        grows[n - 1 - np.argmax(kernel[:, ::-1] != 0, axis=1)] = False
        if growers is not None and (grows != growers).any():
            return None
        growers = grows
        echelons.append(ech)
    dead = np.flatnonzero(~growers)
    for (_, e), ech in zip(powers, echelons):
        if e > 1 and len(dead):
            c = _lift(ech, e, vecs, vecs[dead])
            if c is None or c[np.arange(n) >= dead[:, None]].any():
                return None
    growers = np.flatnonzero(growers)
    for ech in echelons:
        ech.trim_tracking(growers)
    return LiftedSpan(m, vecs, growers, echelons)


def span_witness(ech, rows: np.ndarray, target_v: np.ndarray):
    """Whether the embedded `target_v` lies in the span of the tracked
    echelon `ech`, built from the rows of `rows` in order.

    Returns (True, coeffs) with integer coefficients satisfying
    sum(coeffs[i] * rows[i]) == target_v exactly, checked here, or
    (False, None).
    """
    residue, coeffs = ech.reduce(target_v)
    if residue.any():
        return False, None
    coeffs = coeffs[:len(rows)]
    if not np.array_equal((coeffs @ rows) % ech.m, target_v):
        raise AssertionError("witness verification failed")
    return True, [int(c) for c in coeffs]


def subgroup_member(group: AbelianGroupSpec, gens, target):
    """Membership of `target` in the subgroup of L^k generated by `gens`.

    Returns (True, coeffs) with integer coefficients satisfying
    sum(coeffs[i] * generator[i]) == target exactly, or (False, None).
    """
    target = group.check_elements(target)
    if target.ndim != 1:
        raise AlgebraError("the target must be a single tuple")
    target_v = group.embed_elements(target)
    gen_v = group.embed_elements(element_rows(group, gens, len(target)))
    ech = span_over(group.exponent, len(target_v), max(len(gen_v), 1))
    ech.extend(gen_v)
    return span_witness(ech, gen_v, target_v)


def affine_member(group: AbelianGroupSpec, points, target):
    """Is `target` in the affine closure of `points` (coefficients sum 1)?

    Returns (True, coeffs) with sum(coeffs) == 1 and
    sum(coeffs[i] * points[i]) == target, or (False, None).
    """
    points = list(points)
    if not points:
        raise AlgebraError("affine closure of no points is empty")
    target = group.check_elements(target)
    pts = element_rows(group, points, len(target))
    neg_base = group.neg_table[pts[0]]
    ok, coeffs = subgroup_member(group, group.add_table[pts[1:], neg_base],
                                 group.add_table[target, neg_base])
    if not ok:
        return False, None
    return True, [1 - sum(coeffs)] + coeffs


# ---------------------------------------------------------------------------
# affine operation extraction

@dataclass(frozen=True)
class AffineOpSpec:
    """f(x_1..x_r) = sum_i M_i(x_i) + c on residue vectors."""

    symbol: str
    arity: int
    matrices: tuple          # one (s x s) integer matrix per argument
    constant: tuple          # residue vector
    scalars: tuple           # per argument, ``endo_scalar`` of its matrix

    def scalar(self, i: int) -> int | None:
        """The c in 0..m-1 with M_i(x) = c * x for every x, m the exponent,
        or None: M_i is c * I row by row modulo each cyclic order.  Such an
        image stays in every Z_m-span holding x, so ``affine_span`` never
        tests it."""
        return self.scalars[i]


def endo_scalar(group: AbelianGroupSpec, mat) -> int | None:
    """The c in 0..m-1 with mat = c * I modulo the order of each row's cyclic
    factor, if there is one (the orders' lcm is m, so it is unique).

    Plain Python on the few entries: ``verify_affine`` calls it once per
    argument, inside every cold set-up."""
    orders = group.orders
    s = len(orders)
    if s == 1:                  # every endomorphism of Z_m is scalar
        return mat[0][0] % orders[0]
    # c = mat[0][0] modulo the first order
    for c in range(mat[0][0] % orders[0], group.exponent, orders[0]):
        if all((mat[j][i] - c * (i == j)) % orders[j] == 0
               for j in range(s) for i in range(s)):
            return c
    return None


def verify_affine(alg: FiniteAlgebra, group: AbelianGroupSpec) -> tuple:
    """Extract per-argument endomorphisms and constants for every operation,
    one ``AffineOpSpec`` each, in operation order.

    Each argument map x -> f(0..x..0) - f(0..0) is checked for additivity
    on all pairs, then the affine form on the whole table, both as array
    comparisons.  Raises NotAffineError at the first operation and input
    (in table order) where a check fails.  The checks run once per algebra
    and group: the result is kept on the frozen `alg`, keyed by the frozen
    `group`.  A failure is not kept, and raises again on every call.
    """
    known = alg._affine_forms.get(group)
    if known is not None:
        return known
    if group.size != alg.size:
        raise AlgebraError("group size differs from algebra domain")
    size, zero = group.size, group.zero
    add, neg = group.add_table, group.neg_table
    res = group.residues
    # the elements with unit residue vectors
    basis = group.element_of_code[(1 % group.mods) * group.weights]
    specs = []
    for op in alg.ops:
        r = op.arity
        table = alg.table(op.symbol).reshape((size,) * r)
        const = int(table[(zero,) * r])
        mats = []
        predicted = np.asarray(const)
        for i in range(r):
            line = table[(zero,) * i + (slice(None),) + (zero,) * (r - 1 - i)]
            part = add[line, neg[const]]
            bad = np.argwhere(part[add] != add[part[:, None], part[None, :]])
            if len(bad):
                raise NotAffineError(op.symbol, tuple(bad[0].tolist()),
                                     "argument map is not additive")
            # rows indexed by output coordinate, columns by input coordinate
            mat = res[part[basis]].T
            mats.append(tuple(map(tuple, mat.tolist())))
            predicted = add[predicted[..., None],
                             group.from_residues(res @ mat.T)]
        bad = np.argwhere(predicted != table)
        if len(bad):
            raise NotAffineError(op.symbol, tuple(bad[0].tolist()),
                                 "affine form does not reproduce the table")
        specs.append(AffineOpSpec(
            op.symbol, r, tuple(mats), tuple(res[const].tolist()),
            tuple(endo_scalar(group, mat) for mat in mats)))
    alg._affine_forms[group] = specs = tuple(specs)
    return specs


def endo_images(group: AbelianGroupSpec, mats: np.ndarray,
                flat: np.ndarray) -> np.ndarray:
    """Each endomorphism of a (count, s, s) stack applied coordinate-wise to
    an embedded L^k vector, one image per row."""
    resid = flat.reshape(-1, group.rank) // group.factors
    out = (resid @ mats.transpose(0, 2, 1)) % group.mods
    return (out * group.factors).reshape(len(mats), len(flat))


# ---------------------------------------------------------------------------
# affine closure with witness circuits

@dataclass
class AffineSubpowerRep:
    """Coset form base + <differences> of an affine subpower, with circuits.

    Every retained difference carries a pair of member circuits (plus,
    minus) whose values differ by exactly that vector.  ``raw`` is complete
    when ``affine_span`` returns it, and so is its span: ``lifted``, when
    the raw differences are Z_m-free and were found by ``lift_span``, else
    ``echelon``, the span of ``raw`` eliminated once, in order, and tracked
    from the start: raw difference j in generator slot j.  ``raw_rows``
    and ``tracked_echelon`` are derived from them on first read and kept.
    """

    alg: FiniteAlgebra
    group: AbelianGroupSpec          # group on single coordinates
    k: int
    generators: tuple
    base_flat: np.ndarray
    base_node: int
    bank: CircuitBank
    raw: list = field(default_factory=list)   # (flat_vec, plus_node, minus_node)
    echelon: Echelon | FieldEchelon | None = None   # tracked span of raw
    lifted: LiftedSpan | None = None                 # or its lifted span
    tuples_materialized: int = 0

    @cached_property
    def tracked_echelon(self) -> Echelon | FieldEchelon:
        """Canonical echelon of the differences with raw-combination
        tracking: the rows and coefficients of eliminating ``raw_rows``
        alone, in order, for compact representations and Fix-Value.

        * Without a lifted span it is ``echelon`` itself, its tracking
          trimmed to the raw slots.  A vector that did not grow the span
          wrote nothing into a stored row.
        * A lifted span over a prime m holds one ``FieldEchelon``, its
          tracking already compacted to the raw slots.  Its ``extend``
          leaves the echelon of sequential elimination, in which the
          non-growers wrote nothing either.
        * A lifted span over a composite m holds no echelon over Z_m, so
          ``raw_rows`` are eliminated once, one by one.
        """
        m = self.group.exponent
        if self.lifted is None:
            ech = self.echelon
            ech.trim_tracking(range(max(len(self.raw), 1)))
        elif is_prime(m):
            ech = self.lifted.echelons[0]
        else:
            ech = span_over(m, len(self.base_flat), len(self.raw))
            ech.extend(self.raw_rows)
        ech.canonicalize()
        return ech

    def raw_coefficients(self, diff) -> np.ndarray | None:
        """The raw coefficients c with c @ raw_rows == diff (mod m), or None
        when diff is outside the span.  Over Z_m-free raw differences they
        are unique: the lifted span finds them without an echelon over
        Z_m.  Else they are the reduction by ``tracked_echelon``."""
        if self.lifted is not None:
            return self.lifted.coefficients(diff)
        residue, coeffs = self.tracked_echelon.reduce(diff)
        return None if residue.any() else coeffs[:len(self.raw)]

    @cached_property
    def raw_rows(self) -> np.ndarray:
        """The raw difference vectors as one read-only (len(raw), width)
        matrix."""
        return _frozen(np.asarray(
            [vec for vec, _, _ in self.raw],
            dtype=np.int64).reshape(len(self.raw), len(self.base_flat)))

    def member_node(self, raw_coeffs) -> int:
        """Circuit for base + sum coeff_j * raw_j via Mal'tsev chaining:
        coeff_j steps m(plus_j, minus_j, node) per difference, in order,
        made by one ``CircuitBank.chain`` call."""
        coeffs = np.asarray(raw_coeffs, dtype=np.int64) % self.group.exponent
        steps = []
        for (_, plus, minus), c in zip(self.raw, coeffs.tolist(), strict=True):
            steps += [(plus, minus)] * c
        return self.bank.chain(self.alg.maltsev, self.base_node, steps, 2)

    def member_flat(self, raw_coeffs) -> np.ndarray:
        """Embedded base + sum coeff_j * raw_j (a row per coefficient row)."""
        m = self.group.exponent
        coeffs = np.asarray(raw_coeffs, dtype=np.int64) % m
        return (self.base_flat + coeffs @ self.raw_rows) % m


def affine_span(alg: FiniteAlgebra, group: AbelianGroupSpec,
                gens) -> AffineSubpowerRep:
    """Fixpoint base-plus-differences form of Sg(gens) for affine `alg`.

    `group` is the abelian group on single coordinates; gens are tuples in
    A^k (or one int array, a row per tuple).  The difference set starts
    from gens[j] - gens[0] and closes under the per-argument endomorphisms
    of every operation together with the constant shifts
    f(base..base) - base.  Each new difference's images are tested against
    the span only under the non-scalar endomorphisms: a scalar one maps it
    to c * vec, which the span already holds (``AffineOpSpec.scalar``).

    Without a non-scalar map, which covers every catalog affine algebra
    and every wreath companion, the queue never grows.  Its nonzero
    vectors, in pop order, are then eliminated as one block per prime
    p | m (``lift_span``), and when the raw differences come out Z_m-free
    they are the vectors that grow the span, in that order, and ``lifted``
    holds their span.  Otherwise, with a non-scalar map or differences
    that are not free, the vectors are eliminated one at a time, in pop
    order, into ``echelon``: the same raw differences, bank and queue.

    That span is tracked from the start.  A vector that does not grow it
    writes nothing into a stored row and gives its generator slot back,
    so raw difference j holds slot j.  Without a non-scalar map the
    queue's n - 1 + len(ops) vectors bound the slots; else each raw
    difference strictly enlarges a subgroup of L^k, so there are at most
    k * Omega(|L|) of them (``prime_length``), plus the slot of one vector
    under test.
    """
    if not len(gens):
        raise AlgebraError("affine closure needs at least one generator")
    gens = group.check_elements(gens)
    if gens.ndim != 2:
        raise AlgebraError("generators must be tuples of equal length")
    n, k = gens.shape
    specs = verify_affine(alg, group)
    bank = CircuitBank(n)
    m = group.exponent
    flats = group.embed_elements(gens)

    rep = AffineSubpowerRep(
        alg=alg, group=group, k=k, generators=tuple(map(tuple, gens.tolist())),
        base_flat=flats[0], base_node=bank.var(1), bank=bank)
    rep.tuples_materialized = n

    base = rep.base_flat
    queue: list[tuple[np.ndarray, int, int]] = [
        (vec, bank.var(j + 2), bank.var(1))
        for j, vec in enumerate((flats[1:] - base) % m)]
    for spec in specs:
        node = bank.app(spec.symbol, (rep.base_node,) * spec.arity)
        # f(x, ..., x) sits at index x * (size^(r-1) + ... + 1) of the table
        diagonal = sum(alg.size ** j for j in range(spec.arity))
        val = group.embedded[alg.table(spec.symbol)[gens[0] * diagonal]]
        queue.append(((val.reshape(-1) - base) % m, node, rep.base_node))
    # the non-scalar (operation, argument) endomorphisms, in operation-major
    # order: a scalar image c * vec is in the span as soon as vec is
    slots = [(spec, i) for spec in specs for i in range(spec.arity)
             if spec.scalar(i) is None]
    endos = np.asarray([spec.matrices[i] for spec, i in slots],
                       dtype=np.int64).reshape(len(slots), group.rank,
                                               group.rank)
    track = k * prime_length(group.size) + 1
    if not slots:
        order = queue[::-1]                     # pop order
        vecs = np.asarray([v for v, _, _ in order])
        live = np.flatnonzero(vecs.any(axis=1))
        vecs = vecs[live]
        if len(live):
            rep.lifted = lift_span(m, vecs)
        if rep.lifted is not None:
            rep.raw = [order[j] for j in live[rep.lifted.growers]]
            rep.tuples_materialized += len(rep.raw)
            return rep
        track = min(track, len(queue))
    ech = rep.echelon = span_over(m, k * group.rank, max(track, 1))

    while queue:
        vec, plus, minus = queue.pop()
        if not vec.any():
            continue
        if not ech.extend(vec[None]):
            # it wrote nothing into a stored row: give its slot back, so
            # that raw difference j keeps slot j
            ech._gen_count -= 1
            continue
        rep.raw.append((vec, plus, minus))
        rep.tuples_materialized += 1
        if not slots:
            continue
        images = endo_images(group, endos, vec)
        # all images are tested against the span as it stands now
        for (spec, i), img, known in zip(
                slots, images, ech.contains_rows(images)):
            if known:
                continue
            up = [rep.base_node] * spec.arity
            down = [rep.base_node] * spec.arity
            up[i] = plus
            down[i] = minus
            queue.append((img,
                          bank.app(spec.symbol, tuple(up)),
                          bank.app(spec.symbol, tuple(down))))
    return rep


def span_members(rep: AffineSubpowerRep):
    """Expand the represented coset exhaustively (test-scale helper)."""
    m = rep.group.exponent
    members = {tuple(rep.base_flat)}
    frontier = [rep.base_flat]
    vecs = [row for row, _, _ in rep.raw]
    while frontier:
        cur = frontier.pop()
        for v in vecs:
            nxt = (cur + v) % m
            key = tuple(nxt)
            if key not in members:
                members.add(key)
                frontier.append(np.asarray(nxt))
    return {rep.group.unembed(np.asarray(v)) for v in members}


# ---------------------------------------------------------------------------
# compact representations of cosets

def _reachable(add: list, zero: int, elems: list) -> dict:
    """{element: coefficient list} for the subgroup of L the elements span.

    `add` is the group's addition table as nested lists; each element is
    reached by a fixed walk, so the coefficients are deterministic.
    """
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


def _fork_coefficients(group: AbelianGroupSpec,
                       ech: Echelon | FieldEchelon, k: int) -> np.ndarray:
    """Row combinations of a canonical echelon for the per-coordinate forks.

    One matrix, a row of coefficients over ech.rows per combination: for
    each coordinate i and each value reachable at i, that value, followed
    by that value plus each nonzero fork reachable at i from the rows with
    pivot at or after i (these leave the earlier coordinates alone).
    """
    rows = ech.row_array()
    nrows = len(rows)
    at = group.unembed_array(rows).T.tolist()    # at[i][r]: row r's i-th element
    add = group.add_table.tolist()
    zero = group.zero
    blocks = [np.zeros((0, nrows), dtype=np.int64)]
    for i in range(k):
        values = _reachable(add, zero, at[i])
        bases = np.asarray([values[v] for v in sorted(values)],
                           dtype=np.int64).reshape(len(values), nrows)
        tail = ech.tail_rows(i * group.rank)
        forks = _reachable(add, zero, [at[i][r] for r in tail])
        shifts = np.zeros((len(forks), nrows), dtype=np.int64)
        # the zero fork (no shift) first, then the others in element order
        shifts[1:, tail] = np.asarray(
            [forks[d] for d in sorted(forks) if d != zero],
            dtype=np.int64).reshape(len(forks) - 1, len(tail))
        blocks.append((bases[:, None, :] + shifts[None, :, :])
                      .reshape(len(values) * len(forks), nrows))
    return np.concatenate(blocks)


def _first_rows(flats: np.ndarray) -> list:
    """Indices of the first occurrence of each distinct row, in row order."""
    first: dict = {}
    for j, row in enumerate(flats):
        first.setdefault(row.tobytes(), j)
    return list(first.values())


def coset_compact_rep(rep: AffineSubpowerRep):
    """Compact representation (with circuits) of the coset base + <raw>:
    the distinct per-coordinate fork members, each with one ``member_node``
    circuit, in entry order."""
    from .comprep import EnumeratedCompactRep

    m = rep.group.exponent
    ech = rep.tracked_echelon
    nraw = len(rep.raw)
    coeffs = np.asarray([c[:nraw] for c in ech.coeffs],
                        dtype=np.int64).reshape(len(ech.rows), nraw)
    raw_c = (_fork_coefficients(rep.group, ech, rep.k) @ coeffs) % m
    flats = rep.member_flat(raw_c)
    first = _first_rows(flats)
    rep.tuples_materialized += len(first)
    tuples = rep.group.unembed_array(flats[first]).tolist()
    return EnumeratedCompactRep(
        rep.generators,
        [(tuple(t), rep.member_node(c)) for t, c in zip(tuples, raw_c[first])],
        rep.bank)


def affine_closure_comprep(alg: FiniteAlgebra, group: AbelianGroupSpec, gens):
    """Enumerated compact representation of Sg(gens) for an affine algebra."""
    return coset_compact_rep(affine_span(alg, group, gens))
