"""The wreath path on prime-field elimination: verdicts against the
exhaustive oracle, the array clonoid image against the per-row one, and the
centrality that makes the context's commutator check redundant."""

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from subpower.catalog import (a6, a6_shift, a6_symmetric, random_wreath, w15,
                              zmod_group_algebra)
from subpower.core import smp_oracle, verify_central
from subpower.instances import random_instance
from subpower.solver import (SmpInstance, check_witness, solve_smp_wreath,
                             wreath_context)
from subpower.wreath import clonoid_image_comprep

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
