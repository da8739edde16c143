"""The one-call chain kernel (``CircuitBank.chain``) against step-by-step
splicing, and the affine path's circuits-on-demand contract."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from subpower.affine import AffineSubpowerRep, affine_span, coset_compact_rep
from subpower.catalog import zmod_group_algebra
from subpower.circuits import Circuit, CircuitBank, CircuitError, parse_sexpr
from subpower.comprep import signature
from subpower.core import eval_circuit, subpower_closure
from subpower.instances import random_instance
from subpower.serialize import instance_from_dict
from subpower.solver import SmpInstance, check_witness, dispatch

BAD_LEAVES = [-1, 10_000]


@st.composite
def templates(draw):
    """Circuits of arity 1-3 whose gates share subterms (Mal'tsev-shaped
    templates with several gates), leaves in any order."""
    arity = draw(st.integers(1, 3))
    gates = [("x", i) for i in draw(st.permutations(range(1, arity + 1)))]
    for _ in range(draw(st.integers(0, 5))):
        r = draw(st.sampled_from([1, 2, 3]))
        children = draw(st.lists(st.integers(0, len(gates) - 1),
                                 min_size=r, max_size=r))
        gates.append((draw(st.sampled_from("mf")),) + tuple(children))
    return Circuit(arity, tuple(gates), len(gates) - 1)


def _banks(data):
    """Two equal banks with a few random gates over three variables."""
    banks = CircuitBank(3), CircuitBank(3)
    for bank in banks:
        for i in (1, 2, 3):
            bank.var(i)
    for _ in range(data.draw(st.integers(0, 4))):
        kids = tuple(data.draw(st.lists(st.integers(0, len(banks[0]) - 1),
                                        min_size=2, max_size=2)))
        for bank in banks:
            bank.app("g", kids)
    return banks


@settings(max_examples=300, deadline=None)
@given(templates(), st.data())
def test_chain_matches_step_by_step_splice(template, data):
    ours, theirs = _banks(data)
    size = len(ours)
    leaf = st.integers(0, size - 1)
    slot = data.draw(st.integers(0, template.arity - 1))
    start = data.draw(leaf)
    steps = data.draw(st.lists(
        st.tuples(*[leaf] * (template.arity - 1)), max_size=8))
    got = ours.chain(template, start, steps, slot)
    node = start
    for step in steps:
        leaves = step[:slot] + (node,) + step[slot:]
        node = ref.splice(theirs, template, leaves)
    assert got == node
    assert ours.gates == theirs.gates


@settings(max_examples=200, deadline=None)
@given(templates(), st.data())
def test_chain_rejects_bad_leaves_like_splice(template, data):
    ours, theirs = _banks(data)
    size = len(ours)
    leaf = st.integers(0, size - 1)
    slot = data.draw(st.integers(0, template.arity - 1))
    start = data.draw(leaf)
    steps = data.draw(st.lists(
        st.tuples(*[leaf] * (template.arity - 1)), min_size=1, max_size=6))
    bad = data.draw(st.sampled_from(BAD_LEAVES))
    where = data.draw(st.integers(-1, len(steps) - 1))
    if where < 0 or template.arity == 1:
        start = bad
    else:
        step = list(steps[where])
        step[data.draw(st.integers(0, len(step) - 1))] = bad
        steps[where] = tuple(step)
    with pytest.raises(CircuitError):
        ours.chain(template, start, steps, slot)
    assert len(ours) == size                    # checked before any gate
    with pytest.raises(CircuitError):
        node = start
        for step in steps:
            node = theirs.splice(template, step[:slot] + (node,) + step[slot:])


def test_chain_rejects_bad_shapes():
    bank = CircuitBank(3)
    leaves = [bank.var(i) for i in (1, 2, 3)]
    maltsev = parse_sexpr("(m x1 x2 x3)")
    with pytest.raises(CircuitError):
        bank.chain(maltsev, leaves[0], [(leaves[1],)], 0)        # short step
    with pytest.raises(CircuitError):
        bank.chain(maltsev, leaves[0], [tuple(leaves)], 0)       # long step
    with pytest.raises(CircuitError):
        bank.chain(maltsev, leaves[0], [], 3)                    # bad slot
    assert len(bank) == 3
    assert bank.chain(maltsev, leaves[2], [], 1) == leaves[2]


def test_member_node_matches_step_by_step_splice():
    alg, group = zmod_group_algebra(6)
    gens = [(1, 2, 3), (0, 5, 2), (4, 4, 1)]
    ours, theirs = affine_span(alg, group, gens), affine_span(alg, group, gens)
    for coeffs in ([0] * len(ours.raw), [5, 1] + [2] * (len(ours.raw) - 2)):
        node = theirs.base_node
        for (_, plus, minus), c in zip(theirs.raw, coeffs):
            for _ in range(c % 6):
                node = theirs.bank.splice(alg.maltsev, [plus, minus, node])
        assert ours.member_node(coeffs) == node
        assert ours.bank.gates == theirs.bank.gates


def test_coset_members_are_the_compact_tuples():
    alg, group = zmod_group_algebra(12)
    gens = [(1, 2, 3, 4), (0, 6, 9, 2)]
    comp = coset_compact_rep(affine_span(alg, group, gens))
    tuples = comp.tuples()
    members = subpower_closure(alg, gens)
    assert len(set(tuples)) == len(tuples) and set(tuples) <= members
    assert signature(tuples) == signature(sorted(members))
    for t, node in comp.entries:
        assert eval_circuit(alg, comp.bank.extract(node), gens) == t


@pytest.fixture()
def member_node_calls(monkeypatch):
    calls = []
    original = AffineSubpowerRep.member_node

    def counted(self, raw_coeffs):
        calls.append(1)
        return original(self, raw_coeffs)

    monkeypatch.setattr(AffineSubpowerRep, "member_node", counted)
    return calls


def test_affine_verdicts_build_no_circuits(member_node_calls):
    alg_input = zmod_group_algebra(12)
    # the subgroup (4Z)^2 does not hold (1, 1)
    nonmember = SmpInstance(((4, 8), (0, 4)), (1, 1))
    assert not dispatch(alg_input, nonmember).member
    assert member_node_calls == []
    member = instance_from_dict(random_instance(alg_input, 8, 3, 1.0, seed=2))
    verdict = dispatch(alg_input, member, want_witness=False)
    assert verdict.member and verdict.witness is None
    assert member_node_calls == []
    verdict = dispatch(alg_input, member)
    # the witness is one Mal'tsev chain over the raw differences
    assert member_node_calls == [1]
    assert check_witness(alg_input, member, verdict)
