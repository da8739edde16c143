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
from subpower.affine import (AbelianGroupSpec, Echelon, FieldEchelon,
                             affine_span)
from subpower.catalog import (a6, a6_shift, a6_symmetric, random_wreath, w15,
                              zmod_group_algebra)
from subpower.core import ClosureCapExceeded, smp_oracle, verify_central
from subpower.instances import random_instance
from subpower.solver import (SmpInstance, _extended_rows, check_witness,
                             solve_smp_wreath, wreath_context)
from subpower.wreath import (ClonoidGenSet, _close_under, _group_rows,
                             clonoid_image_comprep, diff_clonoid_gens)

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


# two bounded runs, certified at the default cap as they stand and at
# cap 50 only once closed under substitutions, and two refusals
BOUNDED = ["random_wreath(3, 5, 2)", "random_wreath(5, 2, 1)"]
CLONOID_SPECS = {
    "a6": a6, "a6_shift": a6_shift, "a6_symmetric": a6_symmetric, "w15": w15,
    BOUNDED[0]: lambda: random_wreath(3, 5, 2),
    BOUNDED[1]: lambda: random_wreath(5, 2, 1),
    "random_wreath(3, 4, 1)": lambda: random_wreath(3, 4, 1)}
REFUSED = [("random_wreath(3, 4, 1)", 3000), ("a6_shift", 50)]


@pytest.mark.parametrize("name, cap", [
    (name, 3000) for name in sorted(CLONOID_SPECS)] + [
    (BOUNDED[0], 50), (BOUNDED[1], 50), ("a6_shift", 50)])
def test_diff_clonoid_gens_matches_rowwise(name, cap):
    spec = CLONOID_SPECS[name]()
    if (name, cap) in REFUSED:
        for extract in (diff_clonoid_gens, ref.diff_clonoid_gens_rowwise):
            with pytest.raises(ClosureCapExceeded):
                extract(spec, cap=cap)
        return
    got = diff_clonoid_gens(spec, cap=cap)
    want = ref.diff_clonoid_gens_rowwise(spec, cap=cap)
    for f in fields(ClonoidGenSet):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got.exact == (name not in BOUNDED)


def test_closure_runs_until_the_span_stops_growing():
    """The catalog closes in one round; a cyclic shift of the table
    positions takes one round per position from a unit row."""
    ech = Echelon(4, 8)
    ech.extend([[1, 2, 0, 0, 0, 0, 0, 0]])
    # position i takes the entry of position (i - 1) mod 4, rank 2
    _close_under(ech, [(3, 0, 1, 2)], 2)
    assert ech.span_size() == 4 ** 4
    assert [r.tolist() for r in ech.rows][-1] == [0, 0, 0, 0, 0, 0, 1, 2]


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
