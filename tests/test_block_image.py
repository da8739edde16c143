"""The clonoid image held by plane against the dense construction
(``reference_impl.clonoid_image_dense``): equal canonical rows, tuples and
counts on u-columns with shared planes and diagonal coordinates; equal
verdicts of the solve against the full path on the dense image, equal
witnesses when exp(L) is prime and accepted ones otherwise; and the
memory of a warm a6 solve at k=800, which holds no dense k x k array
and no fix on the padding columns."""

import importlib.util
import os
import random
import tracemalloc
from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from subpower.affine import is_prime
from subpower.catalog import a6, a6_shift, random_wreath, w15
from subpower.instances import _random_term_value, random_instance
from subpower.solver import (SmpInstance, check_witness, solve_smp_wreath,
                             wreath_context)
from subpower.wreath import clonoid_image_comprep
from test_wreath_field import u_columns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a6_shift has a unary generator; Z_4 and Z_15 are Howell exponents
SPECS = {"a6": a6, "a6_shift": a6_shift, "w15": w15}
SPECS.update({f"random_wreath{args}": (lambda args=args: random_wreath(*args))
              for args in [(3, 2, 1), (5, 4, 2), (2, 15, 1)]})


@cache
def spec_named(name: str):
    spec = SPECS[name]()
    wreath_context(spec)
    return spec


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(SPECS)), data=st.data())
def test_block_image_matches_dense(name, data):
    gens = wreath_context(spec_named(name)).gens
    cols = data.draw(u_columns(gens.p))
    got = clonoid_image_comprep(gens, cols)
    want = ref.clonoid_image_dense(gens, cols)
    assert np.array_equal(got.basis, want.basis)
    assert got.generators == want.generators
    assert got.tuples_materialized == want.tuples_materialized
    # the array input gives the same image
    again = clonoid_image_comprep(gens, np.asarray(cols, dtype=np.int64))
    assert np.array_equal(again.basis, got.basis)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(SPECS)), data=st.data(),
       seed=st.integers(0, 10_000), shift=st.booleans())
def test_block_solve_matches_dense(name, data, seed, shift):
    """Generators whose u-parts put coordinates on shared planes and on
    the diagonal, a term value as the target, and, with `shift`, that
    target's l-part moved at one coordinate."""
    spec = spec_named(name)
    cols = data.draw(u_columns(spec.p))
    rng = random.Random(seed)
    gens = [tuple(spec.pair(rng.randrange(spec.left.size), u) for u in col)
            for col in cols]
    target = list(_random_term_value(spec.algebra, gens, rng))
    if shift:
        i = rng.randrange(len(target))
        l, u = spec.split(target[i])
        target[i] = spec.pair(spec.left_group.add(l, 1), u)
    inst = SmpInstance(gens, target)
    verdict = solve_smp_wreath(spec, inst)
    member, witness = ref.solve_smp_wreath_full(spec, inst)
    assert verdict.member == member
    if member:
        assert check_witness(spec, inst, verdict)
        if is_prime(spec.left_group.exponent):
            assert verdict.witness == witness


def _scale_script():
    path = os.path.join(ROOT, "scripts", "scale.py")
    spec = importlib.util.spec_from_file_location("scale", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_warm_a6_solve_peaks_below_a_dense_square():
    """A warm a6 member and the ``scripts/scale.py`` shifted probe at
    k=800, n=80 (seed 7), solved without a witness, each allocate less at
    their peak than one dense k x k int64 array (5.12 MB).  The quotient
    fix runs on the k instance columns and its arrays are released before
    the image is built: the member peaks below 4.0 MB and the probe at
    4.68 MB at most (both peaked at 4.68 MB when the fix ran on the
    padding columns too)."""
    spec = a6()
    k, n, seed = 800, 80, 7
    d = random_instance(spec, k, n, 1.0, seed=seed)
    member = SmpInstance(d["generators"], d["target"])
    probe = SmpInstance(*_scale_script().shifted_probe(
        spec, d["generators"], d["target"], seed))
    for inst, verdict, bound in ((member, True, 4.0e6),
                                 (probe, False, 4.68e6)):
        # warm: the context and the padding closure of n are cached
        assert solve_smp_wreath(spec, inst, want_witness=False).member \
            == verdict
        tracemalloc.start()
        try:
            solve_smp_wreath(spec, inst, want_witness=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < k * k * 8
        assert peak <= bound
