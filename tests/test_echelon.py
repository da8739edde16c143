"""The array Echelon and the one-pass bank evaluator against the sequential
references in ``reference_impl``: same pivots, rows, coefficients and
values, output for output."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from subpower.affine import Echelon
from subpower.circuits import CircuitBank, parse_sexpr
from subpower.core import (AlgebraError, FiniteAlgebra, Operation,
                           eval_circuit, eval_nodes)

MODULI = [1, 2, 3, 4, 6, 8, 9, 12]


@st.composite
def echelon_runs(draw):
    """(m, width, tracked, ops): ops insert zero, duplicate, dependent or
    random vectors (entries may lie outside 0..m-1), or canonicalize."""
    m = draw(st.sampled_from(MODULI))
    width = draw(st.integers(0, 12))
    tracked = draw(st.booleans())
    entry = st.integers(-m, 2 * m)
    fresh = st.lists(entry, min_size=width, max_size=width)
    ops, inserted = [], []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(
            ["random", "random", "zero", "duplicate", "dependent", "canon"]))
        if kind == "canon":
            ops.append(None)
            continue
        if kind == "zero" or (kind != "random" and not inserted):
            vec = [0] * width if kind == "zero" else draw(fresh)
        elif kind == "duplicate":
            vec = draw(st.sampled_from(inserted))
        elif kind == "dependent":
            u = draw(st.sampled_from(inserted))
            v = draw(st.sampled_from(inserted))
            c = draw(st.integers(0, m))
            vec = [c * a + b for a, b in zip(u, v)]
        else:
            vec = draw(fresh)
        inserted.append(vec)
        ops.append(vec)
    targets = draw(st.lists(fresh, max_size=3)) + inserted[-2:]
    return m, width, tracked, ops, targets


def _state(ech):
    coeffs = [None if c is None else c.tolist() for c in ech.coeffs]
    return [r.tolist() for r in ech.rows], coeffs, dict(ech.pivots)


def _queries(old, new, width, targets):
    assert new.span_size() == old.span_size()
    for start in range(width + 2):
        assert new.tail_rows(start) == old.tail_rows(start)
    for t in targets:
        old_res, old_used = old.reduce(t)
        new_res, new_used = new.reduce(t)
        assert new_res.tolist() == old_res.tolist()
        assert (new_used is None) == (old_used is None)
        if old_used is not None:
            assert new_used.tolist() == old_used.tolist()
        assert new.contains(t) == old.contains(t)


@settings(max_examples=400, deadline=None)
@given(echelon_runs())
def test_echelon_matches_reference(run):
    m, width, tracked, ops, targets = run
    track = max(sum(op is not None for op in ops), 1) if tracked else None
    old, new = ref.ReferenceEchelon(m, width, track), Echelon(m, width, track)
    for op in ops:
        if op is None:
            old.canonicalize()
            new.canonicalize()
        else:
            assert new.insert(op) == old.insert(op)
        assert _state(new) == _state(old)
    _queries(old, new, width, targets)
    old.canonicalize()
    new.canonicalize()
    assert _state(new) == _state(old)
    _queries(old, new, width, targets)


def test_echelon_rejects_wrong_width():
    ech = Echelon(6, 4)
    ech.insert([1, 2, 3, 4])
    for bad in ([1], [0, 1], [0, 0, 0, 0, 0], [[1, 2, 3, 4]]):
        with pytest.raises(AlgebraError, match="width mismatch"):
            ech.reduce(bad)
        with pytest.raises(AlgebraError, match="width mismatch"):
            ech.contains(bad)
        with pytest.raises(AlgebraError, match="width mismatch"):
            ech.insert(bad)


def test_echelon_rows_handed_out_stay_fixed():
    ech = Echelon(12, 3, track=6)
    ech.insert([4, 6, 1])
    ech.insert([6, 3, 0])
    held_rows, held_coeffs = list(ech.rows), list(ech.coeffs)
    copies = [r.copy() for r in held_rows] + [c.copy() for c in held_coeffs]
    for vec in ([3, 0, 5], [0, 8, 2], [1, 1, 1]):
        ech.insert(vec)
        ech.canonicalize()
    for held, copy in zip(held_rows + held_coeffs, copies):
        assert held.tolist() == copy.tolist()


def _random_algebra(draw, size):
    """Operations of arity 0 to 3 with random tables; no Mal'tsev check."""
    ops = []
    for sym, arity in (("c", 0), ("u", 1), ("b", 2), ("t", 3)):
        table = draw(st.lists(st.integers(0, size - 1),
                              min_size=size ** arity, max_size=size ** arity))
        ops.append(Operation(sym, arity, tuple(table)))
    return FiniteAlgebra(size, ops, parse_sexpr("(t x1 x2 x3)"), check=False)


@st.composite
def banks(draw):
    """A bank with shared gates and constants, targets and arguments."""
    size = draw(st.integers(1, 4))
    alg = _random_algebra(draw, size)
    n = draw(st.integers(1, 3))
    bank = CircuitBank(n)
    for i in range(1, n + 1):
        bank.var(i)
    arities = {"c": 0, "u": 1, "b": 2, "t": 3}
    for _ in range(draw(st.integers(0, 25))):
        sym = draw(st.sampled_from(sorted(arities)))
        kids = draw(st.lists(st.integers(0, len(bank) - 1),
                             min_size=arities[sym], max_size=arities[sym]))
        bank.app(sym, tuple(kids))
    nodes = draw(st.lists(st.integers(0, len(bank) - 1), min_size=1,
                          max_size=6))
    k = draw(st.integers(1, 5))
    args = [np.asarray(draw(st.lists(st.integers(0, size - 1), min_size=k,
                                     max_size=k))) for _ in range(n)]
    return alg, bank, nodes, args


@settings(max_examples=300, deadline=None)
@given(banks())
def test_eval_nodes_matches_recursive_evaluator(case):
    alg, bank, nodes, args = case
    old = ref.eval_nodes(alg, bank, nodes, args)
    new = eval_nodes(alg, bank, nodes, args)
    assert list(new) == list(old)
    for node in nodes:
        assert new[node].dtype == np.int64
        assert new[node].tolist() == old[node].tolist()
        circuit = bank.extract(node)
        tuples = [tuple(a.tolist()) for a in args]
        assert eval_circuit(alg, circuit, tuples) == tuple(old[node].tolist())
