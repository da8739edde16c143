"""The quotient fix on the instance columns (``solver._quotient_fix``)
against the full-width fix on the instance and padding columns at once
(``reference_impl.quotient_fix_full``): equal x0, or both rejecting, on
every call of a solve, and with the full-width fix in its place the
solve gives the same verdict, deciding stage and witness."""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_impl as ref
from subpower import solver
from subpower.instances import random_instance
from subpower.solver import SmpInstance, solve_smp_wreath
from test_block_image import SPECS, spec_named


def _solve(spec, inst, fix):
    with mock.patch.object(solver, "_quotient_fix", fix):
        return solve_smp_wreath(spec, inst)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(SPECS)), k=st.integers(1, 8),
       n=st.integers(1, 7), bias=st.sampled_from([0.0, 1.0]),
       seed=st.integers(0, 10**6))
# n = 1: no raw differences; k = 1, n = 7: more differences than columns,
# so the fix has a kernel
@example(name="a6", k=1, n=1, bias=1.0, seed=0)
@example(name="a6", k=1, n=7, bias=1.0, seed=0)
@example(name="a6_shift", k=1, n=7, bias=0.0, seed=1)
def test_fix_on_instance_columns_matches_full_width(name, k, n, bias, seed):
    spec = spec_named(name)
    d = random_instance(spec, k, n, bias, seed)
    inst = SmpInstance(d["generators"], d["target"])
    fix = solver._quotient_fix
    calls = []

    def recorded(*args):
        calls.append((args, fix(*args)))
        return calls[-1][1]

    verdict = _solve(spec, inst, recorded)
    (args, x0), = calls
    want = ref.quotient_fix_full(*args)
    assert (x0 is None) == (want is None)
    if x0 is not None:
        assert x0.tolist() == want.tolist()
    old = _solve(spec, inst, ref.quotient_fix_full)
    assert verdict.member == old.member
    assert verdict.stats == {**old.stats, "elapsed_ms":
                             verdict.stats["elapsed_ms"]}
    assert verdict.witness == old.witness
