import random
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impl import clone_enumerate
from subpower.catalog import zmod_algebra, zmod_group_algebra
from subpower.circuits import parse_sexpr, serialize_sexpr
from subpower.core import (AlgebraError, ClosureCapExceeded, FiniteAlgebra,
                           Operation, _KeySet, closure_with_circuits,
                           eval_circuit, is_congruence, smp_oracle,
                           subpower_closure, verify_central, verify_maltsev)


def kernel_partition(values) -> tuple:
    """Block ids of the kernel of a map given by its value list."""
    ids: dict = {}
    return tuple(ids.setdefault(v, len(ids)) for v in values)


def test_eval_projection():
    alg, _ = zmod_algebra(3)
    c = parse_sexpr("x2", arity=3)
    assert eval_circuit(alg, c, [(0,), (1,), (2,)]) == (1,)


def test_eval_modular_maltsev():
    alg, _ = zmod_algebra(3)
    assert eval_circuit(alg, alg.maltsev, [(1,), (2,), (0,)]) == (2,)


def test_eval_wreath_forced_shift(a6_spec):
    alg = a6_spec.algebra
    args = [(a6_spec.pair(0, 0),), (a6_spec.pair(1, 0),), (a6_spec.pair(1, 1),)]
    assert eval_circuit(alg, alg.maltsev, args) == (a6_spec.pair(0, 1),)


def test_eval_errors():
    alg, _ = zmod_algebra(3)
    with pytest.raises(AlgebraError):
        eval_circuit(alg, parse_sexpr("(nope x1 x2 x3)"), [(0,), (0,), (0,)])
    with pytest.raises(AlgebraError):
        eval_circuit(alg, alg.maltsev, [(0,), (0,)])
    with pytest.raises(AlgebraError):
        eval_circuit(alg, alg.maltsev, [(0,), (0,), (7,)])


def test_closure_idempotent_orbit(a6_spec):
    alg = a6_spec.algebra
    assert subpower_closure(alg, [(3, 1)]) == {(3, 1)}


def test_closure_cyclic_subgroup(z3_group):
    alg, _ = z3_group
    assert subpower_closure(alg, [(1, 2)]) == {(0, 0), (1, 2), (2, 1)}


def test_closure_parity_constraint():
    alg, _ = zmod_algebra(2)
    assert subpower_closure(alg, [(0, 1), (1, 0)]) == {(0, 1), (1, 0)}


def test_closure_cap():
    alg, _ = zmod_group_algebra(6)
    with pytest.raises(ClosureCapExceeded):
        subpower_closure(alg, [(1, 0), (0, 1)], cap=10)


def test_oracle_examples(z3_group):
    alg, _ = z3_group
    gens = [(1, 2)]
    assert smp_oracle(alg, gens, (1, 2)) is True
    assert smp_oracle(alg, gens, (2, 1)) is True
    assert smp_oracle(alg, gens, (1, 1)) is False


def test_oracle_generators_always_members(a6_spec):
    alg = a6_spec.algebra
    rng = random.Random(0)
    for _ in range(10):
        gens = [tuple(rng.randrange(6) for _ in range(3)) for _ in range(3)]
        for g in gens:
            assert smp_oracle(alg, gens, g)


def test_closure_is_closed(a6_spec):
    alg = a6_spec.algebra
    rng = random.Random(1)
    gens = [tuple(rng.randrange(6) for _ in range(3)) for _ in range(3)]
    closed = subpower_closure(alg, gens)
    members = sorted(closed)
    for _ in range(200):
        a, b, c = (rng.choice(members) for _ in range(3))
        val = eval_circuit(alg, alg.maltsev, [a, b, c])
        assert val in closed


# (base, width) of each keying: codes in a bitmap, codes in a sorted array,
# bytes in a sorted array
KEYINGS = {"bitmap": (3, 4), "codes": (3, 16), "bytes": (3, 40)}


@settings(max_examples=60, deadline=None)
@given(keying=st.sampled_from(sorted(KEYINGS)), seed=st.integers(0, 10_000),
       pool=st.integers(1, 600),
       batches=st.lists(st.tuples(st.integers(0, 300),
                                  st.none() | st.integers(0, 300)),
                        min_size=1, max_size=8))
def test_key_set_matches_python_set(keying, seed, pool, batches):
    base, width = KEYINGS[keying]
    keys = _KeySet(base, width)
    assert (keys.bitmap is not None, keys.powers is not None) == \
        {"bitmap": (True, True), "codes": (False, True),
         "bytes": (False, False)}[keying]
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, base, size=(pool, width))
    seen: set = set()
    for size, limit in batches:
        mat = rows[rng.integers(0, pool, size=size)]
        listed = list(map(tuple, mat.tolist()))
        expect = [i for i, row in enumerate(listed)
                  if row not in seen and row not in listed[:i]]
        assert keys.fresh(mat, limit).tolist() == expect
        seen.update(listed[i] for i in expect[:limit])


def _a6_unary_gens():
    # k=6: row codes fit a bitmap
    rng = random.Random(0)
    return [tuple(rng.randrange(6) for _ in range(6)) for _ in range(3)]


def _a6_binary_gens():
    # the binary projections, k=36: rows are keyed by their bytes
    return list(zip(*product(range(6), repeat=2)))


@pytest.mark.parametrize("make_gens", [_a6_unary_gens, _a6_binary_gens])
def test_truncated_closure_is_a_prefix(a6_spec, make_gens):
    alg = a6_spec.algebra
    gens = make_gens()
    tuples, nodes, bank, truncated = closure_with_circuits(alg, gens)
    assert not truncated
    size = len(tuples)
    circuits = [serialize_sexpr(bank.extract(node)) for node in nodes]
    caps = sorted({1, 2, len(gens), size // 3, size // 2, size - 1})
    for cap in caps:
        got, got_nodes, got_bank, got_trunc = closure_with_circuits(
            alg, gens, cap=cap, truncate=True)
        assert got_trunc
        assert got == tuples[:cap]
        assert [serialize_sexpr(got_bank.extract(node))
                for node in got_nodes] == circuits[:cap]
    got, _, _, got_trunc = closure_with_circuits(alg, gens, cap=size,
                                                 truncate=True)
    assert got == tuples and not got_trunc


def test_clone_enumerate_arity1():
    alg, _ = zmod_algebra(2)
    tables = {t for t, _ in clone_enumerate(alg, 1, 100)}
    assert tables == {(0, 1)}


def test_clone_enumerate_plus_only():
    plus = tuple((x + y) % 3 for x in range(3) for y in range(3))
    alg = FiniteAlgebra(3, [Operation("add", 2, plus)],
                        parse_sexpr("(m x1 x2 x3)"), check=False)
    tables = {t for t, _ in clone_enumerate(alg, 1, 100)}
    assert tables == {(0, 1, 2), (0, 2, 1), (0, 0, 0)}


def test_clone_enumerate_projections_and_circuits(a6_spec):
    alg = a6_spec.algebra
    found = clone_enumerate(alg, 2, cap=1000)
    tables = {t for t, _ in found}
    width = alg.size ** 2
    proj1 = tuple(i // alg.size for i in range(width))
    proj2 = tuple(i % alg.size for i in range(width))
    assert proj1 in tables and proj2 in tables
    domain = [tuple(i // alg.size for i in range(width)),
              tuple(i % alg.size for i in range(width))]
    for table, circuit in found:
        assert eval_circuit(alg, circuit, domain) == table


@pytest.mark.parametrize("args, fault", [
    ((0, 3, 0), "m arguments[1] = 3 out of range 0..2"),
    ((-1, 0, 0), "m arguments[0] = -1 out of range 0..2"),
    ((1.5, 0, 0), "m arguments[0] = 1.5 is not an integer"),
    ((0, 0), "m: expected 3 arguments"),
])
def test_apply_checks_its_arguments(args, fault):
    """The first two used to read another entry of the table, the third to
    raise TypeError."""
    alg, _ = zmod_group_algebra(3)
    with pytest.raises(AlgebraError, match=re.escape(fault)):
        alg.apply("m", args)
    assert alg.apply("m", (1, 0, 0)) == 1 and alg.apply("zero", ()) == 0


def test_verify_maltsev_examples(a6_spec):
    alg, _ = zmod_algebra(3)
    assert verify_maltsev(alg)
    assert not verify_maltsev(alg, parse_sexpr("x1", arity=3))
    assert verify_maltsev(a6_spec.algebra)


def test_congruence_validation(a6_spec):
    alg = a6_spec.algebra
    u_kernel = kernel_partition([x % 2 for x in range(6)])
    assert is_congruence(alg, u_kernel)
    assert not is_congruence(alg, kernel_partition([0, 0, 0, 1, 1, 1]))
    with pytest.raises(AlgebraError):
        verify_central(alg, [0, 0, 0, 1, 1, 1])


def test_verify_central_trivial_and_full(z3_group):
    alg, _ = z3_group
    assert verify_central(alg, list(range(3)))       # identity congruence
    assert verify_central(alg, [0, 0, 0])            # affine: abelian


def test_verify_central_wreath_kernel(a6_spec):
    alg = a6_spec.algebra
    u_kernel = kernel_partition([x % 2 for x in range(6)])
    assert verify_central(alg, u_kernel)


def test_verify_central_relabel_invariance(a6_spec):
    alg = a6_spec.algebra
    base = [x % 2 for x in range(6)]
    relabeled = [1 - b for b in base]
    assert verify_central(alg, kernel_partition(base)) == \
        verify_central(alg, kernel_partition(relabeled))


@pytest.mark.parametrize("symbol", ["x", "let", "", "f g", "f\tg", "f\n",
                                    "(f", "f)", "()"])
def test_algebra_rejects_symbols_circuits_cannot_carry(symbol):
    alg, _ = zmod_algebra(3)
    ops = list(alg.ops)
    with pytest.raises(AlgebraError,
                       match=re.escape(f"operation symbol {symbol!r}")):
        FiniteAlgebra(3, ops + [Operation(symbol, 1, (0, 1, 2))],
                      alg.maltsev)



@pytest.mark.parametrize("entry, fault", [
    (1.5, "u table[1] = 1.5 is not an integer"),
    ("1", "u table[1] = '1' is not an integer"),
    (3, "u table[1] = 3 out of range 0..2"),
])
def test_algebra_rejects_a_table_entry_that_is_not_an_element(entry, fault):
    # a float was accepted and truncated in the array table, while
    # ``apply`` returned it as given
    alg, _ = zmod_algebra(3)
    with pytest.raises(AlgebraError, match=re.escape(fault)):
        FiniteAlgebra(3, list(alg.ops) + [Operation("u", 1, (0, entry, 2))],
                      alg.maltsev)
