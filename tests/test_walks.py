"""The array-built prefix walk, fork builder and splice against the
pure-Python references in ``reference_impl``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from subpower.affine import affine_span, coset_compact_rep
from subpower.catalog import zmod_algebra, zmod_group_algebra
from subpower.circuits import Circuit, CircuitBank
from subpower.comprep import (EnumeratedCompactRep, _fork_index, signature,
                              thin_to_compact)
from subpower.core import AlgebraError


@st.composite
def families(draw):
    """Tuple families with many repeats: empty, k = 0 or 1, single tuples."""
    k = draw(st.integers(0, 5))
    values = st.integers(-2, draw(st.integers(0, 4)))
    row = st.tuples(*[values] * k)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    picks = st.one_of(st.sampled_from(pool), row)
    return draw(st.lists(picks, max_size=25))


@settings(max_examples=300, deadline=None)
@given(families())
def test_fork_index_and_signature_match_reference(tuples):
    forks = _fork_index(tuples)
    assert forks == ref.fork_index(tuples)
    assert list(forks) == sorted(forks)
    assert signature(tuples) == ref.signature(tuples) == set(forks)


@settings(max_examples=300, deadline=None)
@given(families(), st.randoms(use_true_random=False))
def test_thin_to_compact_matches_reference(tuples, rng):
    entries = [(t, rng.randrange(50)) for t in tuples]
    k = len(tuples[0]) if tuples else 0
    rep = EnumeratedCompactRep(((0,) * k,), list(entries))
    assert thin_to_compact(rep).entries == ref.thin_entries(entries)


def test_walk_edge_families():
    for tuples in ([], [()], [(), ()], [(3,)], [(1,), (0,), (1,)],
                   [(2, 2, 2)] * 4):
        assert _fork_index(tuples) == ref.fork_index(tuples)
        assert signature(tuples) == ref.signature(tuples)
        entries = [(t, j) for j, t in enumerate(tuples)]
        rep = EnumeratedCompactRep(((0,),), list(entries))
        assert thin_to_compact(rep).entries == ref.thin_entries(entries)


def test_signature_rejects_unequal_lengths():
    with pytest.raises(AlgebraError):
        signature([(0, 1), (0,)])
    with pytest.raises(AlgebraError):
        thin_to_compact([(0, 1), (1, 0, 0)], generators=[(0, 1)])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4, 6, 12]), st.booleans(),
       st.integers(1, 5), st.data())
def test_coset_compact_rep_matches_reference(order, full, k, data):
    alg, group = (zmod_group_algebra if full else zmod_algebra)(order)
    gens = data.draw(st.lists(st.tuples(*[st.integers(0, order - 1)] * k),
                              min_size=1, max_size=4))
    ours, theirs = affine_span(alg, group, gens), affine_span(alg, group, gens)
    assert coset_compact_rep(ours).entries == ref.coset_compact_entries(theirs)
    # same circuits, issued in the same order
    assert ours.bank.gates == theirs.bank.gates


@st.composite
def circuits(draw):
    """Random circuits of arity 1-3 with nullary, unary and ternary gates."""
    arity = draw(st.integers(1, 3))
    gates = [("x", i) for i in draw(st.permutations(range(1, arity + 1)))]
    for _ in range(draw(st.integers(0, 5))):
        r = draw(st.sampled_from([0, 1, 3]))
        children = draw(st.lists(st.integers(0, len(gates) - 1),
                                 min_size=r, max_size=r))
        gates.append((draw(st.sampled_from("fg")),) + tuple(children))
    return Circuit(arity, tuple(gates), draw(st.integers(0, len(gates) - 1)))


@settings(max_examples=200, deadline=None)
@given(st.lists(circuits(), min_size=1, max_size=4), st.data())
def test_splice_matches_gate_by_gate(parts, data):
    ours, theirs = CircuitBank(3), CircuitBank(3)
    for bank in (ours, theirs):
        for i in (1, 2, 3):
            bank.var(i)
    for circuit in parts:
        leaves = data.draw(st.lists(st.integers(0, len(ours) - 1),
                                    min_size=circuit.arity,
                                    max_size=circuit.arity))
        assert ours.splice(circuit, leaves) == \
            ref.splice(theirs, circuit, leaves)
        assert ours.gates == theirs.gates
