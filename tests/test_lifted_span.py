"""The lifted span of ``affine_span``: without a non-scalar map the queue
is eliminated as one block per prime p | m, and a Z_m-free result is
solved by p-adic lifting.  Verdicts, witnesses, stats and raw differences
are those of the sequential loop (``reference_impl``), the spans that are
not free take that loop, and a free solve makes no Howell echelon."""

import os
import sys
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from subpower.affine import Echelon, affine_span
from subpower.catalog import zmod_algebra, zmod_group_algebra
from subpower.instances import random_instance
from subpower.solver import SmpInstance, check_witness, dispatch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULI = (2, 4, 6, 7, 8, 9, 12, 18, 30)
FAMILIES = {"zmod_algebra": zmod_algebra,
            "zmod_group_algebra": zmod_group_algebra}


def assert_matches_sequential(alg_input, inst) -> None:
    """``dispatch`` and the sequential reference agree on the verdict, the
    witness string and the stats, and the two spans on the raw rows."""
    alg, group = alg_input
    verdict = dispatch(alg_input, inst)
    member, witness, stats = ref.solve_affine_sequential(alg, group, inst)
    assert verdict.member == member
    assert verdict.witness == witness
    got = dict(verdict.stats)
    del got["elapsed_ms"]
    assert got == stats
    if member:
        assert check_witness(alg_input, inst, verdict)
    ours = affine_span(alg, group, inst.generators)
    theirs = ref.affine_span_sequential(alg, group, inst.generators)
    assert ours.raw_rows.tolist() == theirs.raw_rows.tolist()


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), m=st.sampled_from(MODULI),
       k=st.integers(1, 12), n=st.integers(1, 6),
       bias=st.sampled_from([0.0, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_dispatch_matches_the_sequential_loop(family, m, k, n, bias, seed):
    alg_input = FAMILIES[family](m)
    d = random_instance(alg_input, k, n, bias, seed)
    assert_matches_sequential(alg_input, SmpInstance(d["generators"],
                                                     d["target"]))


# (family, m, generators, lifted): the queue pops the last difference
# first, after the constants f(base, ..., base) - base
CASES = {
    # Z_4: 2u pops before u; mod 2 it is zero, but over Z_4 it grows
    "z4_2u_then_u": ("zmod_algebra", 4, [(0,), (1,), (2,)], False),
    # Z_12: 3u grows mod 2 and not mod 3, u the other way round
    "z12_3u_then_u": ("zmod_algebra", 12, [(0,), (1,), (3,)], False),
    # the shifts -b, then -2b and b: -2b is zero mod 2, and its lift
    # 2 * (-b) rests on the earlier -b alone
    "z4_minus_2b_after_minus_b": ("zmod_group_algebra", 4, [(1,)], True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_explicit_spans_match_the_sequential_loop(name):
    family, m, gens, lifted = CASES[name]
    alg_input = FAMILIES[family](m)
    rep = affine_span(*alg_input, gens)
    assert (rep.lifted is not None) == lifted
    assert (rep.echelon is None) == lifted
    for target in range(m):
        assert_matches_sequential(alg_input, SmpInstance(gens, (target,)))


@contextmanager
def _counting_howell():
    """Count the Howell ``Echelon`` objects constructed."""
    made = []
    init = Echelon.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    with mock.patch.object(Echelon, "__init__", counted):
        yield made


def test_a_free_solve_makes_no_howell_echelon():
    """The ``affine-z12`` seed-1 batch of the benchmark (read from
    ``perfbench/workloads.py``) constructs no Howell echelon; a span that
    is not free constructs exactly one, that of its sequential loop."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from workloads import WORKLOADS, batch_cases
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))
    wl = WORKLOADS["affine-z12"]
    alg_input = wl.make()
    cases = batch_cases(wl, alg_input, 1)
    assert {c.kind for c in cases} == {"member", "nonmember"}
    with _counting_howell() as made:
        for case in cases:
            verdict = dispatch(alg_input, case.inst)
            assert verdict.member == case.member
    assert made == []
    family, m, gens, _ = CASES["z4_2u_then_u"]
    with _counting_howell() as made:
        assert dispatch(FAMILIES[family](m), SmpInstance(gens, (3,))).member
    assert len(made) == 1

