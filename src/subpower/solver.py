"""End-to-end subpower membership decision procedures.

Two paths:

* ``solve_smp_wreath``: the polynomial pipeline for coprime wreath products
  with prime-order affine quotient.  The generator matrix is extended by
  rows enumerating all single-nonzero columns, so equality of direct-product
  values on the extended rows pins direct-product terms down exactly; the
  membership question then splits into an affine fix over the quotient
  components and a subgroup test against the difference-clonoid image.
  These padding rows depend on the generator count n alone, so their
  companion closure is run once per n and cached on the context; a solve
  evaluates that closure's leaf nodes on its own k columns once, in the
  wreath algebra, whose u-parts are the companion's.
  The companion exponent splits by CRT as Z_exp(L) x GF(p), so the fix is
  GF(p) elimination and the l-part a subgroup test mod exp(L).  The fix
  runs on the instance's k columns; the padding columns enter only when
  some u-difference does not grow that span, to clear x0 on the padding
  pivots as an elimination of all the columns would, so that x0, the
  verdict and the witness are that elimination's.  That elimination's
  rows with pivot past k give no members: ``solve_smp_wreath`` shows their
  l-differences already lie in the span the subgroup test uses.  The fixed
  member is one Mal'tsev chain, walked by table lookups, and each l-part
  generator takes p further steps of one raw difference; their circuits
  are built only for a returned witness.  The subgroup test starts from
  the clonoid image, held by plane: the rows of each coordinate alone in
  its plane come from a per-pair table, and each plane with several
  coordinates is eliminated on its own columns.  The target is reduced
  against the image block by block first: when the image reaches it from
  the fixed member, it is a member, and no l-part generator is built.
  Otherwise the generators are walked and their differences reduced the
  same way, and a dense echelon runs only on the residues and the rows of
  the planes they touch.
* ``dispatch``: affine algebras go through elimination, coprime
  prime-quotient wreath products through the wreath path, and anything else
  falls back to the exhaustive oracle (opt-in).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .affine import (AbelianGroupSpec, AffineSubpowerRep,
                     affine_closure_comprep, affine_span, is_prime, span_over,
                     span_witness, verify_affine)
from .circuits import parse_sexpr, serialize_sexpr
from .comprep import EnumeratedCompactRep, thin_to_compact
from .core import (AlgebraError, FiniteAlgebra,
                   _circuit_values, element_array, eval_circuit, eval_nodes,
                   integer, is_int, smp_oracle)
from .wreath import (ClonoidGenSet, WreathSpec, clonoid_image_comprep,
                     diff_clonoid_gens)


class UnsupportedAlgebraError(AlgebraError):
    pass


@dataclass(frozen=True)
class SmpInstance:
    generators: tuple
    target: tuple

    def __post_init__(self):
        gens = tuple(tuple(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "target", tuple(self.target))
        if not gens:
            raise AlgebraError("an instance needs at least one generator")
        k = len(self.target)
        if k < 1:
            raise AlgebraError("tuples must have at least one coordinate")
        if any(len(g) != k for g in gens):
            raise AlgebraError("generators and target have unequal lengths")

    @property
    def k(self) -> int:
        return len(self.target)

    @property
    def n(self) -> int:
        return len(self.generators)


@dataclass
class SmpVerdict:
    member: bool
    witness: dict | None = None
    stats: dict = field(default_factory=dict)


def _instance_rows(inst: SmpInstance, size: int) -> np.ndarray:
    """The generators, then the target, as one (n + 1, k) int64 array.

    ``element_array`` checks each: AlgebraError names the first entry,
    generators first, that is not an integer in 0..size-1, such as
    ``generators[0][1] = 1.7 is not an integer``.
    """
    return np.vstack([element_array(inst.generators, size, "generators", 2),
                      element_array(inst.target, size, "target", 1)])


# ---------------------------------------------------------------------------
# cached wreath context

@dataclass
class WreathContext:
    gens: ClonoidGenSet
    # n -> the companion's affine_span on the padding columns of
    # _extended_rows, which depend on n alone; filled by the solves
    padding_spans: dict = field(default_factory=dict)


def validate_prime_quotient_class(spec: WreathSpec) -> None:
    """Preconditions of the polynomial wreath path, checked before any work."""
    p = spec.p
    if not is_prime(p):
        raise UnsupportedAlgebraError(f"quotient size {p} is not prime")
    if math.gcd(spec.left.size, p) != 1:
        raise UnsupportedAlgebraError(
            f"left size {spec.left.size} shares a factor with quotient size {p}")
    verify_affine(spec.left, spec.left_group)
    verify_affine(spec.right, AbelianGroupSpec((p,)))


def wreath_context(spec: WreathSpec) -> WreathContext:
    """The context of `spec`, built once and kept on it
    (``WreathSpec.solver_context``)."""
    return spec.solver_context


def _build_context(spec: WreathSpec) -> WreathContext:
    validate_prime_quotient_class(spec)
    # every companion operation is affine, so the companion is abelian and
    # central: no separate commutator check is needed
    verify_affine(spec.companion, spec.companion_group)
    return WreathContext(gens=diff_clonoid_gens(spec))


# ---------------------------------------------------------------------------
# the wreath path

def _extended_rows(spec: WreathSpec, gens: np.ndarray) -> np.ndarray:
    """Append rows enumerating the single-nonzero argument assignments.

    `gens` holds one generator per row; so does the result, extended by
    the all-zero row and, for each generator i and nonzero element a, the
    row that is a at generator i and zero elsewhere.
    """
    n = len(gens)
    zero = spec.zero
    nonzero = [a for a in range(spec.size) if a != zero]
    single = np.full((n, n, len(nonzero)), zero, dtype=np.int64)
    single[np.arange(n), np.arange(n)] = nonzero
    return np.hstack([gens, np.full((n, 1), zero, dtype=np.int64),
                      single.reshape(n, -1)])


def _leaf_values(alg, rep: AffineSubpowerRep, gen_rows: np.ndarray):
    """Values in `alg` on the generators of the base node, then of each raw
    difference's plus and minus node: a (1 + 2 * len(rep.raw), k) array of
    the narrowest signed integer type that holds the elements, so that the
    differences of two rows fit too."""
    nodes = [rep.base_node]
    for _, plus, minus in rep.raw:
        nodes += [plus, minus]
    vals = eval_nodes(alg, rep.bank, nodes, list(gen_rows))
    return np.asarray([vals[node] for node in nodes],
                      dtype=np.min_scalar_type(-alg.size))


def solve_smp_wreath(spec: WreathSpec, inst: SmpInstance,
                     want_witness: bool = True) -> SmpVerdict:
    """Polynomial-time membership for the coprime prime-quotient class.

    The companion closure on the extended rows (``_extended_rows``) is
    never built.  A difference t(g) - s(g) of companion terms is affine in
    g, so its first k columns are a linear function of its padding columns
    (the zero and single-nonzero assignments pin t - s down).  The closure
    of the padding columns alone, cached per n in ``ctx.padding_spans``,
    therefore makes the same insert and containment decisions, and has the
    same raw differences, nodes and gates; the first k columns are the
    values of its base and plus/minus nodes on the generators.  Those are
    evaluated once, in the wreath algebra.  ``build_wreath`` takes every
    u-part from the right algebra, so a wreath term and its companion
    share their u-parts, and the fix reads them as the values mod p.  A
    witness's circuits go on a copy of the template's bank, so the cached
    template never grows.

    The GF(p) fix gives the raw coefficients x0 of a companion term t_0
    whose u-part agrees with the target on the instance's u-rows
    u_1..u_k; its member is the Mal'tsev chain ``member_node`` builds:
    from the base, x0_j steps cur = m(plus_j, minus_j, cur) for each raw
    difference j in order.

    The fix (``_quotient_fix``) eliminates the u-differences on the k
    instance columns only, and gives what one elimination of the extended
    rows, on the instance and padding columns together, gives:
    * The same verdict.  That elimination reads the residue on the first
      k columns; its rows with pivot past k are zero there, and its other
      rows, cut to the k columns, are the reduced echelon basis of the
      u-differences on them.
    * The same x0.  Sequential elimination's coefficients are unique once
      the rows that grow the span are fixed: the full x0 is the one
      combination of the differences that grow the full span with the
      target's k columns and zeros on the padding pivots.  The k-column
      x0 agrees on the k columns and uses only the differences that grow
      the k-column span, a subset.  Each difference that does not grow it
      has a kernel row, its slot combined with earlier differences to
      zero on the k columns.  Eliminated in order, the kernel rows'
      padding images grow exactly at the differences that grow the full
      span and not the k-column one, and their pivots are the full
      elimination's pivots past k; subtracting the combination of kernel
      rows that clears x0 on those pivots gives the full x0.  When every
      difference grows the span, the padding columns are never read.

    The subgroup test spans the clonoid image and the l-differences from
    t_0 of the l-part generators: for each raw difference j, the member
    g_j that takes p further steps of difference j after t_0.  With
    e = exp(L) and m = e * p, these span, together with the image, what
    the members with coefficients x0 + c, c = 0 (mod p), span, because
    gcd(p, e) = 1:
    * p * Z_m = {c : c = 0 (mod p)}, so the vectors p * e_j generate every
      coefficient vector that keeps x0's u-part that way.
    * Members that share a u-part combine as x - y + z on their l-parts,
      because hat_m(u, u, u) = 0.  So the l-differences from t_0 of the
      members with t_0's u-part form a subgroup, and Mal'tsev
      combinations of t_0 and the g_j give, for each such c, a member with
      the companion of x0 + c.
    * Two terms with the same companion differ by an element of the
      clonoid image: g_j and the chain of x0 + p * e_j differ only in the
      order of their steps.

    A term t_a whose u-part differs from t_0's only past k (a fix row with
    pivot past k) adds nothing to that span, so no member is built for it.
    Its u-difference lam = t_a^U - t_0^U is affine, with linear part d,
    and vanishes on every u_g.
    * r = a*t_a + (1 - a)*t_0, a Mal'tsev chain with a = 1 (mod e) and
      a = 0 (mod p), has r^L = t_a^L and r^U = t_0^U, so r - t_0 lies in
      the span of the l-part generators.
    * sigma_i = x_i + w_i*(r - t_a), with d.w = 1, fixes every u_g, and
      lam o sigma^U = lam - (d.w)*lam = 0.  So t_a o sigma and r o sigma
      have the same companion (t_a^L = r^L, and t_a^U o sigma^U =
      t_0^U o sigma^U = r^U o sigma^U), and their hat difference lies in
      the difference clonoid.  At u_g, where sigma^U is the identity and
      the equal l-parts cancel sigma's hats, it is
      hat_{t_a}(u_g) - hat_r(u_g) = l(t_a(g)) - l(r(g)), so that
      difference lies in the clonoid image.

    The subgroup test runs image first, on the image held by plane
    (``ClonoidImage``): a direct sum of canonical blocks on disjoint
    columns, one per plane and one dense block for the unary emissions.
    The l-difference w of the target and t_0 is reduced against it block
    by block, one gather and one batched product per row slot, before any
    l-part generator exists; a block's Howell reduction is exact, so the
    residue is zero exactly when w lies in the image.  A zero residue
    makes the target a member, with the base alone as its witness.  A
    nonzero one decides nothing, since the generators' differences enlarge
    the span, so the generators are built and their differences reduced
    the same way.  If every difference residue is
    zero, the differences lie in the image and the target is not a member.
    Otherwise a tracked echelon runs on the residues only, after the rows
    of the blocks that some residue touches: w lies in the image plus the
    differences exactly when its residue lies in that span, because a
    block no residue touches takes no part in a combination of them (its
    columns are zero in every residue and in every other block).  The
    witness is the base and the generators with a nonzero coefficient in
    that echelon's combination; what they leave of w lies in the image,
    which ``check_witness`` builds and tests itself.

    For prime e the members are those a dense test gives: the image's
    canonical rows, then the member differences outside the span so far.
    Those rows are independent, so w has one combination of them.  The
    residues over GF(e) are a linear projection with kernel the image, so
    the differences that grow the span are the same in both tests, and
    their coefficients are unique.

    ``stats["decided_by"]`` names the stage that gave the verdict:
    ``"quotient"`` (the GF(p) fix rejects), ``"image"`` (the image reaches
    the target) or ``"full"`` (the test with the l-part generators).
    """
    t_start = time.perf_counter()
    ctx = wreath_context(spec)
    inst_rows = _instance_rows(inst, spec.size)
    group = spec.left_group
    comp_group = spec.companion_group
    p = spec.p
    e = group.exponent
    k, n = inst.k, inst.n

    gen_rows, target = inst_rows[:-1], inst_rows[-1]
    l_b, u_b = np.divmod(target, p)

    template = ctx.padding_spans.get(n)
    if template is None:
        padding = _extended_rows(spec, np.empty((n, 0), dtype=np.int64))
        template = ctx.padding_spans[n] = affine_span(
            spec.companion, comp_group, padding)
    tuples_materialized = template.tuples_materialized
    alg = spec.algebra
    leaves = _leaf_values(alg, template, gen_rows)
    plus, minus = leaves[1::2], leaves[2::2]

    x0_coeffs = _quotient_fix(template, (plus - minus) % p,
                              u_b - leaves[0] % p, p)
    stats = {"path": "wreath", "k": k, "n": n}
    if x0_coeffs is None:
        stats.update(decided_by="quotient",
                     tuples_materialized=tuples_materialized,
                     elapsed_ms=1000 * (time.perf_counter() - t_start))
        return SmpVerdict(False, None, stats)
    nraw = len(template.raw)
    table = alg.maltsev_table
    # t_0 on the original tuples inside the product, step by step
    base = leaves[0]
    for j, c in enumerate(x0_coeffs.tolist()):
        for _ in range(c):
            base = table[plus[j], minus[j], base]
    members = base[None]
    tuples_materialized += 1

    image = clonoid_image_comprep(ctx.gens, gen_rows)
    tuples_materialized += image.tuples_materialized

    # the target's l-difference modulo the image; a target the image
    # reaches is decided before any l-part generator is built
    neg_base = group.neg_table[base // p]
    target_v = group.embed_elements(group.add_table[l_b, neg_base])
    residue = image.residues(target_v[None])
    ok = not residue.any()
    stats["decided_by"] = "image" if ok else "full"
    gen_coeffs = np.zeros(nraw, dtype=np.int64)
    if not ok:
        # the l-part generators: p further steps of each difference
        members = np.tile(base, (1 + nraw, 1))
        for _ in range(p):
            members[1:] = table[plus, minus, members[1:]]
        tuples_materialized += nraw
        diffs_v = group.embed_elements(
            group.add_table[members[1:] // p, neg_base])
        diff_residues = image.residues(diffs_v)
        # differences inside the image leave its span as it is, and the
        # target is outside it
        if diff_residues.any():
            rows = np.vstack([image.touched_rows(np.vstack(
                [residue, diff_residues])), diff_residues])
            ech = span_over(e, len(target_v), track=len(rows))
            ech.extend(rows)
            ok, combo = span_witness(ech, rows, residue[0])
        if ok:
            gen_coeffs = np.asarray(combo[len(rows) - nraw:], dtype=np.int64)
            # what the members leave of the target lies in the image
            rest = (target_v - gen_coeffs @ diffs_v) % e
            if image.residues(rest[None]).any():
                raise AssertionError("witness verification failed")
    if (members % p != u_b).any():
        raise AssertionError("fixed member has wrong quotient components")
    stats["tuples_materialized"] = tuples_materialized
    stats["elapsed_ms"] = 1000 * (time.perf_counter() - t_start)
    if not ok:
        return SmpVerdict(False, None, stats)
    witness = None
    if want_witness:
        # circuits only for t_0 and the generators the witness uses
        values = members.tolist()
        # on a copy of the template's bank: the cached template never grows
        rep = replace(template, bank=template.bank.copy())
        base_node = rep.member_node(x0_coeffs)
        used = [(j, c, rep.bank.chain(alg.maltsev, base_node,
                                      [rep.raw[j][1:]] * p, 2))
                for j, c in enumerate(gen_coeffs.tolist()) if c]
        witness = {
            "path": "wreath",
            "base": {"value": values[0],
                     "circuit": serialize_sexpr(rep.bank.extract(base_node))},
            "members": [
                {"coeff": c, "value": values[1 + j],
                 "circuit": serialize_sexpr(rep.bank.extract(node))}
                for j, c, node in used],
        }
    return SmpVerdict(True, witness, stats)


def _quotient_fix(template: AffineSubpowerRep, u_diffs: np.ndarray,
                  u_target: np.ndarray, p: int) -> np.ndarray | None:
    """The raw coefficients x0 of the GF(p) fix, or None when no companion
    term reaches the target's u-part (see ``solve_smp_wreath``).

    `u_diffs` holds the u-parts mod p of the raw differences of `template`
    on the instance's k columns, one row each, and `u_target` the target's
    u-part minus the base's.  One tracked elimination of `u_diffs`
    decides, and its combination for `u_target` is x0 unless a difference
    did not grow the span; then a second tracked elimination, of the
    kernel rows' images on the padding u-columns, gives the combination
    of kernel rows that clears x0 on the padding pivots.
    """
    nraw = len(u_diffs)
    ech = span_over(p, u_diffs.shape[1], track=max(nraw, 1))
    kernel = ech.extend(u_diffs, kernel=True)[:, :nraw]
    residue, x0 = ech.reduce(u_target)
    if residue.any():
        return None
    x0 = x0[:nraw]
    if len(kernel):
        # Z_m splits by CRT as Z_e x GF(p), e = exp(L): in every embedded
        # padding coordinate the last entry is the u-part times e
        comp = template.group
        pad = template.raw_rows.reshape(nraw, template.k, comp.rank)[
            :, :, -1] // (comp.exponent // p)
        pad_ech = span_over(p, template.k, track=len(kernel))
        pad_ech.extend(kernel @ pad % p)
        _, y = pad_ech.reduce(x0 @ pad % p)
        x0 = (x0 - y @ kernel) % p
    return x0


# ---------------------------------------------------------------------------
# dispatch and witness checking

def dispatch(algebra_input, inst: SmpInstance, *, allow_oracle: bool = False,
             cap: int = 1_000_000, want_witness: bool = True) -> SmpVerdict:
    """Route an instance to the strongest applicable decision procedure."""
    if isinstance(algebra_input, WreathSpec):
        try:
            return solve_smp_wreath(algebra_input, inst,
                                    want_witness=want_witness)
        except UnsupportedAlgebraError as err:
            if not allow_oracle:
                raise UnsupportedAlgebraError(
                    f"{err}, so the polynomial wreath path does not apply; "
                    "pass allow_oracle=True (--allow-oracle) for the "
                    "exponential fallback") from err
            algebra_input = algebra_input.algebra
    alg, group = _as_algebra_group(algebra_input)
    if _is_affine(alg, group):
        return _solve_affine(alg, group, inst, want_witness)
    if not allow_oracle:
        raise UnsupportedAlgebraError(
            "algebra is outside the supported classes; "
            "pass allow_oracle=True for the exponential fallback")
    t_start = time.perf_counter()
    _instance_rows(inst, alg.size)
    warnings.warn("falling back to the exponential closure oracle",
                  stacklevel=2)
    member = smp_oracle(alg, inst.generators, inst.target, cap=cap)
    stats = {"path": "oracle", "k": inst.k, "n": inst.n,
             "elapsed_ms": 1000 * (time.perf_counter() - t_start)}
    return SmpVerdict(member, None, stats)


def _is_affine(alg: FiniteAlgebra, group: AbelianGroupSpec | None) -> bool:
    """Does ``verify_affine`` accept `alg` over `group` (None: no group)?"""
    if group is None:
        return False
    try:
        verify_affine(alg, group)
    except AlgebraError:
        return False
    return True


def _as_algebra_group(algebra_input):
    if isinstance(algebra_input, FiniteAlgebra):
        return algebra_input, None
    if isinstance(algebra_input, tuple) and len(algebra_input) == 2:
        return algebra_input
    raise AlgebraError("expected a wreath spec, an algebra, or (algebra, group)")


def underlying_algebra(algebra_input) -> FiniteAlgebra:
    """The algebra of a wreath spec, an algebra, or (algebra, group)."""
    if isinstance(algebra_input, WreathSpec):
        return algebra_input.algebra
    return _as_algebra_group(algebra_input)[0]


def _solve_affine(alg, group, inst, want_witness) -> SmpVerdict:
    """Decide whether target - base lies in the span of the differences
    that ``affine_span`` finds, by their raw coefficients
    (``AffineSubpowerRep.raw_coefficients``); the witness is one Mal'tsev
    chain over the raw differences with those coefficients.  On a lifted
    span, the case of every algebra without a non-scalar map whose raw
    differences are Z_m-free, deciding and the coefficients are one lift
    over each Z_{p^e}, p^e || m, and no echelon over Z_m is made.  The
    coefficients are unique there, so they are those of a reduction by
    the canonical echelon of the raw differences."""
    t_start = time.perf_counter()
    inst_rows = _instance_rows(inst, alg.size)
    rep = affine_span(alg, group, inst_rows[:-1])
    diff = (group.embed_elements(inst_rows[-1]) - rep.base_flat) % group.exponent
    coeffs = rep.raw_coefficients(diff)
    member = coeffs is not None
    stats = {"path": "affine", "k": inst.k, "n": inst.n,
             "tuples_materialized": rep.tuples_materialized}
    node = None
    if member and want_witness:
        node = rep.member_node(coeffs)
    stats["elapsed_ms"] = 1000 * (time.perf_counter() - t_start)
    witness = None
    if node is not None:
        witness = {"path": "affine",
                   "circuit": serialize_sexpr(rep.bank.extract(node))}
    return SmpVerdict(member, witness, stats)


def compute_comprep(algebra_input, generators, *, allow_oracle: bool = False,
                    cap: int = 1_000_000) -> EnumeratedCompactRep:
    """A compact representation of Sg(generators) for the given algebra.

    Affine algebras go through elimination; anything else, wreath products
    included (their membership is decided in polynomial time, but no sound
    polynomial construction of their compact representations is
    implemented), through the capped oracle with thinning.
    """
    generators = tuple(tuple(g) for g in generators)
    if isinstance(algebra_input, WreathSpec):
        if not allow_oracle:
            raise UnsupportedAlgebraError(
                "compact representations of a wreath product are computed "
                "by the exhaustive oracle only; pass allow_oracle=True "
                "(--allow-oracle)")
        algebra_input = algebra_input.algebra
    alg, group = _as_algebra_group(algebra_input)
    if _is_affine(alg, group):
        return affine_closure_comprep(alg, group, generators)
    if not allow_oracle:
        raise UnsupportedAlgebraError(
            "no polynomial representation path for this algebra; "
            "pass allow_oracle=True for the exponential fallback")
    from .core import closure_with_circuits
    tuples, nodes, bank, _ = closure_with_circuits(alg, generators, cap=cap)
    rep = EnumeratedCompactRep(generators, list(zip(tuples, nodes)), bank)
    return thin_to_compact(rep)


def _witness_row(values, k: int, size: int) -> tuple:
    """A witness value: a list of k integers in 0..size-1."""
    if not isinstance(values, (list, tuple)) or len(values) != k:
        raise AlgebraError("malformed witness value")
    if set(map(type, values)) <= {int}:
        # plain ints (the JSON case): one range check
        if not (0 <= min(values) and max(values) < size):
            raise AlgebraError("malformed witness value")
        return tuple(values)
    if not all(is_int(v) and 0 <= v < size for v in values):
        raise AlgebraError("malformed witness value")
    return tuple(int(v) for v in values)


def check_witness(algebra_input, inst: SmpInstance,
                  verdict: SmpVerdict) -> bool:
    """Re-derive the target from a verdict's witness, numerically.

    An affine witness is a circuit that gives the target.  A wreath
    witness is a base and members, each a value with its circuit, and a
    coefficient c_j per member.  Each circuit must give its value, on the
    target's u-part, where terms combine linearly on their l-parts
    (hat_m(u, u, u) = 0).  What base + sum_j c_j (member_j - base) leaves
    of the target's l-part must lie in the clonoid image of the
    generators, built here from ``wreath_context(spec)``.  The ``clonoid``
    key of an older witness is ignored.

    Total: a malformed witness (missing keys, values of the wrong length or
    out of range, non-integer coefficients, unparsable circuits) gives
    False rather than an exception.
    """
    try:
        if not verdict.member or verdict.witness is None:
            return False
        return _rederive(algebra_input, inst, verdict.witness)
    except (AlgebraError, KeyError, TypeError, ValueError, IndexError,
            AttributeError):
        return False


def _rederive(algebra_input, inst: SmpInstance, w: dict) -> bool:
    k = inst.k
    if w["path"] == "affine":
        alg, _ = _as_algebra_group(algebra_input)
        circuit = parse_sexpr(w["circuit"], arity=inst.n)
        return eval_circuit(alg, circuit, list(inst.generators)) == inst.target
    if w["path"] == "wreath":
        spec = algebra_input
        alg = spec.algebra
        group = spec.left_group
        m = group.exponent
        p = spec.p
        rows = _instance_rows(inst, spec.size)
        mats = list(rows[:-1])
        l_target, u_target = np.divmod(rows[-1], p)

        def member(part) -> np.ndarray:
            # the embedded l-part of a product element tuple that its
            # circuit must reproduce, on the target's u-part
            value = _witness_row(part["value"], k, spec.size)
            circuit = parse_sexpr(part["circuit"], arity=inst.n)
            if _circuit_values(alg, circuit, mats, k) != value:
                raise AlgebraError("witness circuit misses its value")
            l, u = np.divmod(np.asarray(value, dtype=np.int64), p)
            if (u != u_target).any():
                raise AlgebraError("witness member off the target's u-part")
            return group.embed_elements(l)

        base_l = member(w["base"])
        rest = group.embed_elements(l_target) - base_l
        for part in w["members"]:
            coeff = integer(part["coeff"], "coeff") % m
            rest -= coeff * (member(part) - base_l)
        image = clonoid_image_comprep(wreath_context(spec).gens, rows[:-1])
        return not image.residues(rest[None] % m).any()
    return False
