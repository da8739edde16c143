"""The table-driven group layer against the residue-vector definitions.

Every reference here is computed from the mixed-radix encoding directly,
without ``AbelianGroupSpec``: element x has digits radix(x) (last factor
fastest), and its residue vector is radix(x) - radix(zero) mod the orders.
"""

import math
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpower.affine import (AbelianGroupSpec, NotAffineError, tuple_add,
                             verify_affine)
from subpower.catalog import M_CIRCUIT
from subpower.circuits import parse_sexpr
from subpower.core import AlgebraError, FiniteAlgebra, Operation

ORDERS = [(2, 4), (3, 3), (2, 2, 3), (4, 2), (6,)]


def radix(orders, x):
    out = []
    for m in reversed(orders):
        out.append(x % m)
        x //= m
    return tuple(reversed(out))


def ref_vec(orders, zero, x):
    return tuple((a - z) % m
                 for a, z, m in zip(radix(orders, x), radix(orders, zero), orders))


def ref_elem(orders, zero, res):
    x = 0
    for r, z, m in zip(res, radix(orders, zero), orders):
        x = x * m + (r + z) % m
    return x


@st.composite
def groups(draw):
    """A multi-cyclic spec with a designated zero other than 0."""
    orders = draw(st.sampled_from(ORDERS))
    zero = draw(st.integers(1, math.prod(orders) - 1))
    return AbelianGroupSpec(orders, zero=zero)


@st.composite
def group_and_tuples(draw, count=1):
    group = draw(groups())
    k = draw(st.integers(0, 6))
    elems = st.integers(0, group.size - 1)
    tuples = [tuple(draw(st.lists(elems, min_size=k, max_size=k)))
              for _ in range(count)]
    return group, tuples


@settings(max_examples=60, deadline=None)
@given(groups(), st.data())
def test_scalar_lookups_match_residue_definitions(group, data):
    orders, zero = group.orders, group.zero
    x = data.draw(st.integers(0, group.size - 1))
    y = data.draw(st.integers(0, group.size - 1))
    c = data.draw(st.integers(-50, 50))
    vx, vy = ref_vec(orders, zero, x), ref_vec(orders, zero, y)
    assert group.vec(x) == vx
    assert group.elem(vx) == x
    assert group.add(x, y) == ref_elem(orders, zero,
                                       [a + b for a, b in zip(vx, vy)])
    assert group.neg(x) == ref_elem(orders, zero, [-a for a in vx])
    assert group.scale(c, x) == ref_elem(orders, zero, [c * a for a in vx])
    assert group.vec(zero) == (0,) * group.rank
    for value in (group.vec(x), group.add(x, y), group.scale(c, x)):
        assert all(type(v) is int for v in np.atleast_1d(value).tolist())


@settings(max_examples=60, deadline=None)
@given(group_and_tuples(count=2))
def test_tuple_add_matches_scalar_lookups(gt):
    group, (x, y) = gt
    assert tuple_add(group, x, y) == tuple(group.add(a, b) for a, b in zip(x, y))


@settings(max_examples=60, deadline=None)
@given(group_and_tuples())
def test_embed_then_unembed_round_trips(gt):
    group, (x,) = gt
    flat = group.embed_elements(x)
    m = group.exponent
    expected = [r * (m // mi) for e in x
                for r, mi in zip(ref_vec(group.orders, group.zero, e),
                                 group.orders)]
    assert flat.tolist() == expected
    assert tuple(group.unembed_array(flat).tolist()) == x
    rows = group.embed_elements([x, x])
    assert rows.shape == (2, len(x) * group.rank)


@settings(max_examples=60, deadline=None)
@given(group_and_tuples(), st.data())
def test_off_lattice_vectors_are_rejected(gt, data):
    group, (x,) = gt
    factors = [group.exponent // mi for mi in group.orders]
    lattice_gaps = [i for i, f in enumerate(factors) if f > 1]
    if not x or not lattice_gaps:
        return
    flat = group.embed_elements(x).copy()
    coord = data.draw(st.integers(0, len(x) - 1))
    i = data.draw(st.sampled_from(lattice_gaps))
    shift = data.draw(st.integers(1, factors[i] - 1))
    pos = coord * group.rank + i
    flat[pos] = (flat[pos] + shift) % group.exponent
    with pytest.raises(AlgebraError):
        group.unembed_array(flat)


def test_off_lattice_example():
    g = AbelianGroupSpec((2, 4), zero=5)      # m = 4, the Z_2 part scaled by 2
    with pytest.raises(AlgebraError, match="lattice"):
        g.unembed_array(np.asarray([1, 0]))
    assert g.unembed_array(np.asarray([2, 3])).tolist() == [0]


# ---------------------------------------------------------------------------
# the array edge

@pytest.mark.parametrize("bad", [(-1,), (0, 8), (3, -3)])
def test_embed_rejects_out_of_range(bad):
    g = AbelianGroupSpec((2, 4), zero=5)
    with pytest.raises(AlgebraError):
        g.embed_elements(bad)


@pytest.mark.parametrize("bad, entry", [
    ((0, 1.7), "elements[1] = 1.7 is not an integer"),
    (("1",), "elements[0] = '1' is not an integer"),
    (((0, 1), (2, 8)), "elements[1][1] = 8 out of range 0..7"),
    (((0, 1), (2,)), "tuples have unequal lengths"),
])
def test_check_elements_refuses_non_integers(bad, entry):
    g = AbelianGroupSpec((2, 4), zero=5)
    with pytest.raises(AlgebraError, match=re.escape(entry)):
        g.check_elements(bad)
    # numpy integers and bools are integers
    assert g.check_elements((np.int8(3), True)).tolist() == [3, 1]


def test_unembed_rejects_bad_lengths_and_entries():
    g = AbelianGroupSpec((2, 4), zero=5)
    with pytest.raises(AlgebraError):
        g.unembed_array(np.asarray([2, 3, 2]))    # not a multiple of the rank
    with pytest.raises(AlgebraError):
        g.unembed_array(np.asarray([2, -1]))      # below the range of Z_4
    with pytest.raises(AlgebraError):
        g.unembed_array(np.asarray([2, 4]))       # past the range of Z_4


def test_tuple_add_rejects_malformed_input():
    g = AbelianGroupSpec((3,))
    with pytest.raises(AlgebraError):
        tuple_add(g, (1,), (0, 1, 2))             # numpy would broadcast
    with pytest.raises(AlgebraError):
        tuple_add(g, (0, 1), (1, 2, 0))
    with pytest.raises(AlgebraError):
        tuple_add(g, (0, -3), (1, 2))             # numpy would wrap
    with pytest.raises(AlgebraError):
        tuple_add(g, (0, 1), (1, 3))


def test_scalar_methods_reject_out_of_range():
    g = AbelianGroupSpec((2, 2, 3), zero=7)
    for call in (lambda: g.vec(-1), lambda: g.add(0, 12), lambda: g.neg(-12),
                 lambda: g.scale(2, 12)):
        with pytest.raises(AlgebraError):
            call()


# ---------------------------------------------------------------------------
# vectorized verify_affine against a brute-force loop

def _brute_verify(alg, orders, zero):
    """The element-at-a-time check: additivity of every argument map, then
    the affine form, reporting the first failure in table order."""
    size = alg.size

    def add(x, y):
        return ref_elem(orders, zero, [a + b for a, b in
                                       zip(ref_vec(orders, zero, x),
                                           ref_vec(orders, zero, y))])

    def neg(x):
        return ref_elem(orders, zero, [-a for a in ref_vec(orders, zero, x)])

    s = len(orders)
    for op in alg.ops:
        const = alg.apply(op.symbol, (zero,) * op.arity)
        mats = []
        for i in range(op.arity):
            def part(x, i=i):
                args = [zero] * op.arity
                args[i] = x
                return add(alg.apply(op.symbol, tuple(args)), neg(const))
            for x in range(size):
                for y in range(size):
                    if part(add(x, y)) != add(part(x), part(y)):
                        return op.symbol, (x, y)
            cols = [ref_vec(orders, zero, part(ref_elem(
                orders, zero, [int(i == j) for i in range(s)])))
                for j in range(s)]
            mats.append([[cols[j][r] for j in range(s)] for r in range(s)])
        for args in product(range(size), repeat=op.arity):
            acc = ref_vec(orders, zero, const)
            for mat, x in zip(mats, args):
                xv = ref_vec(orders, zero, x)
                acc = [a + sum(mat[r][j] * xv[j] for j in range(s))
                       for r, a in enumerate(acc)]
            if ref_elem(orders, zero, acc) != alg.apply(op.symbol, args):
                return op.symbol, args
    return None


@st.composite
def affine_tables(draw):
    """Operations of arity 0..2 over a small multi-cyclic group: random
    endomorphisms plus a constant, then a few entries overwritten."""
    orders = draw(st.sampled_from([(2, 4), (2, 2), (3, 3), (2, 3)]))
    size = math.prod(orders)
    zero = draw(st.integers(1, size - 1))
    s = len(orders)
    ops = []
    for sym, arity in (("c", 0), ("u", 1), ("b", 2)):
        mats = []
        for _ in range(arity):
            # entry (r, j) maps Z_{m_j} into Z_{m_r}: a multiple of
            # m_r / gcd(m_r, m_j)
            mats.append([[draw(st.integers(0, 5)) * (orders[r] // math.gcd(
                orders[r], orders[j])) for j in range(s)] for r in range(s)])
        const = [draw(st.integers(0, m - 1)) for m in orders]
        table = []
        for args in product(range(size), repeat=arity):
            acc = list(const)
            for mat, x in zip(mats, args):
                xv = ref_vec(orders, zero, x)
                acc = [a + sum(mat[r][j] * xv[j] for j in range(s))
                       for r, a in enumerate(acc)]
            table.append(ref_elem(orders, zero, acc))
        for _ in range(draw(st.integers(0, 2))):
            pos = draw(st.integers(0, len(table) - 1))
            table[pos] = draw(st.integers(0, size - 1))
        ops.append(Operation(sym, arity, tuple(table)))
    m3 = tuple(ref_elem(orders, zero, [a - b + c for a, b, c in zip(
        ref_vec(orders, zero, x), ref_vec(orders, zero, y),
        ref_vec(orders, zero, z))])
        for x in range(size) for y in range(size) for z in range(size))
    ops.append(Operation("m", 3, m3))
    alg = FiniteAlgebra(size, ops, parse_sexpr(M_CIRCUIT), check=False)
    return alg, orders, zero


@settings(max_examples=40, deadline=None)
@given(affine_tables())
def test_verify_affine_matches_brute_force(case):
    alg, orders, zero = case
    expected = _brute_verify(alg, orders, zero)
    group = AbelianGroupSpec(orders, zero=zero)
    if expected is None:
        specs = verify_affine(alg, group)
        assert [s.symbol for s in specs] == ["c", "u", "b", "m"]
        return
    with pytest.raises(NotAffineError) as err:
        verify_affine(alg, group)
    assert (err.value.symbol, err.value.inputs) == expected
