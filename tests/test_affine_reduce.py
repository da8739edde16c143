"""Affine verdicts by one tracked reduction, checked against the Mal'tsev
chain over the compact representation and against the exhaustive oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import golden_module
from subpower.affine import affine_closure_comprep
from subpower.catalog import zmod_group_algebra
from subpower.comprep import maltsev_chain_member
from subpower.core import ClosureCapExceeded, smp_oracle
from subpower.solver import SmpInstance, check_witness, dispatch

ORACLE_CAP = 20_000

ALGEBRAS = {f"Z_{m}": zmod_group_algebra(m) for m in (2, 4, 6, 12)}
# Z_2 x Z_4 with zero 5, from the golden corpus
ALGEBRAS["Z_2 x Z_4, zero 5"] = golden_module().z2_z4_algebra()


@st.composite
def instances(draw):
    """An algebra, generators, and either a random term's value on them (a
    member) or a uniform target."""
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    alg, _ = ALGEBRAS[name]
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, alg.size - 1), min_size=k, max_size=k)
    gens = [tuple(g) for g in draw(st.lists(row, min_size=n, max_size=n))]
    pool = list(gens)
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(alg.ops))
        args = [pool[draw(st.integers(0, len(pool) - 1))]
                for _ in range(op.arity)]
        pool.append(tuple(alg.apply(op.symbol, tuple(a[i] for a in args))
                          for i in range(k)))
    is_term = draw(st.booleans())
    target = pool[-1] if is_term else tuple(draw(row))
    return name, SmpInstance(tuple(gens), target), is_term


@settings(max_examples=200, deadline=None)
@given(instances())
def test_reduction_agrees_with_chain_and_oracle(case):
    name, inst, is_term = case
    alg_input = ALGEBRAS[name]
    alg, group = alg_input
    verdict = dispatch(alg_input, inst)
    comp = affine_closure_comprep(alg, group, inst.generators)
    chained = maltsev_chain_member(alg, comp, inst.target) is not None
    assert verdict.member == chained
    try:
        assert verdict.member == smp_oracle(alg, inst.generators, inst.target,
                                            cap=ORACLE_CAP)
    except ClosureCapExceeded:
        pass
    if is_term:
        assert verdict.member
    if verdict.member:
        assert check_witness(alg_input, inst, verdict)
    else:
        assert verdict.witness is None
