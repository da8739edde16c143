"""The wreath path on prime-field elimination: verdicts against the
exhaustive oracle, with and without GF(p) fix rows past k, the difference
clonoid by block elimination against row-by-row elimination, the array
clonoid image against the per-row one, the plane-wise image basis against
row-by-row elimination, and the centrality that makes the context's
commutator check redundant."""

import math
import random
from dataclasses import fields
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from subpower import core, wreath
from subpower.affine import (AbelianGroupSpec, Echelon, FieldEchelon,
                             affine_span, span_over)
from subpower.catalog import (M_CIRCUIT, a6, a6_shift, a6_symmetric,
                              maltsev_table_mod, random_wreath, w15,
                              zmod_group_algebra)
from subpower.circuits import parse_sexpr
from subpower.core import (ClosureCapExceeded, FiniteAlgebra, Operation,
                           smp_oracle, verify_central)
from subpower.instances import random_instance
from subpower.solver import (SmpInstance, _extended_rows, check_witness,
                             solve_smp_wreath, wreath_context)
from subpower.wreath import (ClonoidGenSet, WreathSpec, _close_under_maps,
                             _group_rows, clonoid_image_comprep,
                             diff_clonoid_gens)

# (p, |L|) of random_wreath; L = Z_9 keeps the Howell l-part elimination
SPECS = {"a6": a6, "w15": w15}
SPECS.update({f"random_wreath({p}, {l}, 1)": (lambda p=p, l=l:
                                              random_wreath(p, l, 1))
              for p, l in [(2, 3), (2, 9), (3, 5), (5, 2)]})


@cache
def spec_named(name: str):
    return SPECS[name]()


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(SPECS)), k=st.integers(1, 3),
       n=st.integers(1, 3), bias=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 10_000))
def test_wreath_verdicts_match_oracle(name, k, n, bias, seed):
    spec = spec_named(name)
    d = random_instance(spec, k, n, member_bias=bias, seed=seed)
    inst = SmpInstance(tuple(map(tuple, d["generators"])), tuple(d["target"]))
    verdict = solve_smp_wreath(spec, inst)
    assert verdict.member == smp_oracle(spec.algebra, inst.generators,
                                        inst.target)
    if verdict.member:
        assert check_witness(spec, inst, verdict)


def _fix_has_rows_past(spec, gens, k: int) -> bool:
    """Does the GF(p) fix of the instance have a row with pivot past k?"""
    rep = affine_span(spec.companion, spec.companion_group,
                      _extended_rows(spec, np.asarray(gens, dtype=np.int64)))
    u_rows = rep.raw_rows.reshape(len(rep.raw), -1,
                                    spec.companion_group.rank)[:, :, -1]
    ech = FieldEchelon(spec.p, u_rows.shape[1])
    ech.extend(u_rows // spec.left_group.exponent)
    return any(np.flatnonzero(row)[0] >= k for row in ech.rows)


FIX_SPECS = {"a6": a6, "a6_shift": a6_shift,
             "random_wreath(3, 2, 1)": lambda: random_wreath(3, 2, 1)}


@pytest.mark.parametrize("name", sorted(FIX_SPECS))
def test_no_member_for_fix_rows_past_k(name):
    """The solve folds no member for the GF(p) fix rows with pivot past k
    (see ``solve_smp_wreath``).  The seeded instances here all have such
    rows: their last coordinate repeats the first, so the u-rows have rank
    below k, while the fix spans at least the n - 1 >= k dimensions of the
    idempotent linear maps.  An l-shift of a repeated coordinate gives a
    non-member.  Term-value members and l-shifted probes agree with the
    oracle, and every witness checks."""
    spec = FIX_SPECS[name]()
    p, size_l = spec.p, spec.left.size
    verdicts = []
    for seed in range(15):
        k = 2 + seed % 3
        d = random_instance(spec, k - 1, k + 1 + seed % 2, member_bias=1.0,
                            seed=seed)
        gens = tuple(tuple(g) + (g[0],) for g in d["generators"])
        target = d["target"] + d["target"][:1]
        assert _fix_has_rows_past(spec, gens, k)
        rng = random.Random(seed)
        probe = list(target)
        i = rng.randrange(k)
        l_part, u_part = divmod(probe[i], p)
        probe[i] = (l_part + rng.randrange(1, size_l)) % size_l * p + u_part
        for t in (target, probe):
            inst = SmpInstance(gens, tuple(t))
            verdict = solve_smp_wreath(spec, inst)
            assert verdict.member == smp_oracle(spec.algebra, gens, t)
            if verdict.member:
                assert check_witness(spec, inst, verdict)
            verdicts.append(verdict.member)
    probes = verdicts[1::2]
    assert all(verdicts[::2]) and any(probes) and not all(probes)


# the reference's runs: two bounded ones, certified at the default cap as
# they stand and at cap 50 only once closed under substitutions, and two
# refusals
BOUNDED = ["random_wreath(3, 5, 2)", "random_wreath(5, 2, 1)"]
CLONOID_SPECS = {
    "a6": a6, "a6_shift": a6_shift, "a6_symmetric": a6_symmetric, "w15": w15,
    BOUNDED[0]: lambda: random_wreath(3, 5, 2),
    BOUNDED[1]: lambda: random_wreath(5, 2, 1),
    "random_wreath(3, 4, 1)": lambda: random_wreath(3, 4, 1)}
REFUSED = [("random_wreath(3, 4, 1)", 3000), ("a6_shift", 50)]


def assert_same_clonoid(got: ClonoidGenSet, want: ClonoidGenSet) -> None:
    """Every field but ``exact`` agrees, and ``got`` is exact."""
    for f in fields(ClonoidGenSet):
        if f.name != "exact":
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got.exact


@pytest.mark.parametrize("name, cap", [
    (name, 3000) for name in sorted(CLONOID_SPECS)] + [
    (BOUNDED[0], 50), (BOUNDED[1], 50), ("a6_shift", 50)])
def test_diff_clonoid_gens_matches_rowwise(name, cap):
    """Every field but ``exact`` equals the term-enumeration reference's,
    and ``exact`` is always true."""
    spec = CLONOID_SPECS[name]()
    got = diff_clonoid_gens(spec)
    if (name, cap) in REFUSED:
        assert got.exact
        with pytest.raises(ClosureCapExceeded):
            ref.diff_clonoid_gens_rowwise(spec, cap=cap)
        return
    want = ref.diff_clonoid_gens_rowwise(spec, cap=cap)
    assert_same_clonoid(got, want)
    assert want.exact == (name not in BOUNDED)


def swap_wreath(seed: int) -> WreathSpec:
    """L = Z_2 x Z_2 with m and the coordinate swap s, a non-scalar map;
    U = Z_3 with m and s the identity; random hats, those of m zero at
    (u, u, v) and (v, u, u)."""
    rng = random.Random(seed)
    xor = tuple(x ^ y ^ z for x in range(4) for y in range(4)
                for z in range(4))
    left = FiniteAlgebra(4, [Operation("m", 3, xor),
                             Operation("s", 1, (0, 2, 1, 3))],
                         parse_sexpr(M_CIRCUIT))
    right = FiniteAlgebra(3, [Operation("m", 3, maltsev_table_mod(3)),
                              Operation("s", 1, (0, 1, 2))],
                          parse_sexpr(M_CIRCUIT))
    hat_m = [0 if u2 in (u1, u3) else rng.randrange(4)
             for u1 in range(3) for u2 in range(3) for u3 in range(3)]
    hat_s = [rng.randrange(4) for _ in range(3)]
    return WreathSpec(left, AbelianGroupSpec((2, 2)), right,
                      {"m": tuple(hat_m), "s": tuple(hat_s)},
                      parse_sexpr(M_CIRCUIT))


@pytest.mark.parametrize("seed", [1, 2, 124])
def test_non_scalar_left_map_matches_rowwise(seed):
    """Seeds whose bounded reference run certifies, each with 24 binary
    companions."""
    spec = swap_wreath(seed)
    assert_same_clonoid(diff_clonoid_gens(spec),
                        ref.diff_clonoid_gens_rowwise(spec))


def test_non_scalar_closure_is_needed(monkeypatch):
    """On seed 124 the defects alone span half of the binary module: the
    closure under the swap gives the rest."""
    full = diff_clonoid_gens(swap_wreath(124)).binary_span
    monkeypatch.setattr(wreath, "_close_under_maps", lambda *args: None)
    assert diff_clonoid_gens(swap_wreath(124)).binary_span * 2 == full


def test_nullary_operation_matches_rowwise():
    """A constant seeds the companion closure: L = Z_3 and U = Z_2, each
    with m and a nullary z (U's is 1), and z's hat nonzero."""
    left = FiniteAlgebra(3, [Operation("m", 3, maltsev_table_mod(3)),
                             Operation("z", 0, (0,))], parse_sexpr(M_CIRCUIT))
    right = FiniteAlgebra(2, [Operation("m", 3, maltsev_table_mod(2)),
                              Operation("z", 0, (1,))],
                          parse_sexpr(M_CIRCUIT))
    hat_m = [0] * 8
    hat_m[0b101] = 2
    spec = WreathSpec(left, AbelianGroupSpec((3,)), right,
                      {"m": tuple(hat_m), "z": (1,)}, parse_sexpr(M_CIRCUIT))
    got = diff_clonoid_gens(spec)
    assert got.unary_span == 3
    assert_same_clonoid(got, ref.diff_clonoid_gens_rowwise(spec))


def test_closure_runs_until_the_span_stops_growing():
    """A cyclic shift of the residue coordinates takes one round per
    coordinate from e_0; the swap of Z_4 x Z_4 grows (1, 2) to everything;
    with no map the span is left as it is."""
    group = AbelianGroupSpec((2, 2, 2))
    shift = np.asarray([[[0, 0, 1], [1, 0, 0], [0, 1, 0]]])
    ech = span_over(2, 6)
    ech.extend([[1, 0, 0, 1, 0, 0]])
    _close_under_maps(ech, group, shift)
    assert ech.span_size() == 2 ** 3
    ech.canonicalize()
    assert ech.row_array().tolist() == [[1, 0, 0, 1, 0, 0],
                                        [0, 1, 0, 0, 1, 0],
                                        [0, 0, 1, 0, 0, 1]]
    ech = Echelon(4, 2)
    ech.extend([[1, 2]])
    _close_under_maps(ech, AbelianGroupSpec((4, 4)),
                      np.asarray([[[0, 1], [1, 0]]]))
    assert ech.span_size() == 4 ** 2
    ech = Echelon(4, 2)
    ech.extend([[1, 2]])
    _close_under_maps(ech, AbelianGroupSpec((4, 4)),
                      np.zeros((0, 2, 2), dtype=np.int64))
    assert ech.span_size() == 4


def test_context_builds_no_closure_engine(monkeypatch):
    """Nothing on the ``wreath_context`` path runs the exhaustive closure."""
    built = []
    init = core._Closure.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(core._Closure, "__init__", counting)
    for make in (a6, w15, lambda: random_wreath(5, 4, 2),
                 lambda: random_wreath(3, 4, 1)):
        wreath_context(make())
    assert not built
    # the counter counts
    smp_oracle(a6().algebra, [(0, 1)], (0, 1))
    assert built


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["a6", "w15", "random_wreath(3, 5, 1)",
                             "random_wreath(5, 2, 1)"]),
       data=st.data())
def test_clonoid_image_arrays_match_per_row(name, data):
    gens = wreath_context(spec_named(name)).gens
    k = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(1, 5))
    cols = data.draw(st.lists(st.lists(st.integers(0, gens.p - 1),
                                       min_size=k, max_size=k),
                              min_size=n, max_size=n))
    got = clonoid_image_comprep(gens, cols)
    want = ref.clonoid_image_per_row(gens, cols)
    assert got.generators == want.generators
    assert got.emitted == want.emitted
    assert got.tuples_materialized == want.tuples_materialized


@st.composite
def u_columns(draw, p: int):
    """u-columns whose rows are diagonal, on a few plane axes (so that
    planes hold several coordinates, with repeated and distinct pairs), or
    repeats of earlier rows."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 12))
    axes = []
    if n >= 2:
        for _ in range(draw(st.integers(1, 3))):
            c = draw(st.lists(st.integers(0, p - 1), min_size=n - 1,
                              max_size=n - 1).filter(any))
            lead = next(v for v in c if v)
            axes.append([0] + [v * pow(lead, -1, p) % p for v in c])
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(["diagonal", "plane", "plane", "repeat"]))
        if kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "plane" and axes:
            c = draw(st.sampled_from(axes))
            x, y = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
            rows.append([(x * (1 - ci) + y * ci) % p for ci in c])
        else:
            rows.append([draw(st.integers(0, p - 1))] * n)
    return [list(col) for col in zip(*rows)]


@st.composite
def synthetic_gens(draw):
    """A ClonoidGenSet with unary tables (no catalog spec has any), over an
    elementary abelian or a Howell group, possibly with no binary tables."""
    p = draw(st.sampled_from([2, 3, 5]))
    orders = draw(st.sampled_from([(2,), (3,), (5,), (2, 2), (3, 3), (4,),
                                   (2, 4), (9,)]))
    size = math.prod(orders)
    group = AbelianGroupSpec(orders, zero=draw(st.integers(0, size - 1)))
    element = st.integers(0, size - 1)
    unary = draw(st.lists(st.tuples(*[element] * p), max_size=3))
    binary = []
    for table in draw(st.lists(st.lists(element, min_size=p * p,
                                        max_size=p * p), max_size=4)):
        for x in range(p):
            table[x * p + x] = group.zero
        binary.append(tuple(table))
    return ClonoidGenSet(p=p, group=group, unary=unary, binary=binary)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(SPECS) + ["synthetic"] * 3),
       data=st.data())
def test_plane_wise_image_matches_rowwise_elimination(name, data):
    if name == "synthetic":
        gens = data.draw(synthetic_gens())
    else:
        gens = wreath_context(spec_named(name)).gens
    cols = data.draw(u_columns(gens.p))
    got = clonoid_image_comprep(gens, cols)
    want = ref.clonoid_image_rowwise(gens, cols)
    assert got.generators == want.generators
    assert got.emitted == want.emitted
    assert got.tuples_materialized == want.tuples_materialized
    k = len(cols[0])
    assert np.array_equal(got.basis, gens.group.embed_elements(
        np.asarray(got.generators, dtype=np.int64).reshape(-1, k)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_plane_grouping_matches_unique(data):
    """One lexsort and its run boundaries give the planes and the inverse
    of ``np.unique(axis=0)``, repeated and empty row sets included."""
    width = data.draw(st.integers(1, 6))
    top = data.draw(st.integers(0, 4))
    rows = np.asarray(data.draw(st.lists(
        st.lists(st.integers(0, top), min_size=width, max_size=width),
        max_size=40)), dtype=np.int64).reshape(-1, width)
    planes, inverse = _group_rows(rows)
    want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert planes.tolist() == want.tolist()
    assert inverse.tolist() == want_inverse.ravel().tolist()


CENTRAL = {f"Z_{m}": (lambda m=m: zmod_group_algebra(m)[0])
           for m in range(1, 9)}
CENTRAL.update({name: (lambda f=f: f().companion)
                for name, f in [("a6", a6), ("a6_shift", a6_shift),
                                ("a6_symmetric", a6_symmetric)]})


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(CENTRAL) + ["random_wreath"]),
       shape=st.sampled_from([(2, 3), (3, 2), (2, 5), (5, 2)]),
       seed=st.integers(0, 50))
def test_affine_algebras_are_central(name, shape, seed):
    """An algebra whose operations are all affine is abelian, so the full
    congruence centralizes itself."""
    if name == "random_wreath":
        alg = random_wreath(*shape, seed).companion
    else:
        alg = CENTRAL[name]()
    assert verify_central(alg, (0,) * alg.size)
