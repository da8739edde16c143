"""Frozen algebras and the values kept on them: an algebra, its operations
and its tables refuse writes, so ``maltsev_table``, the closure's partial
maps, the affine forms of ``verify_affine`` and a spec's solver context
cannot go stale; the affine checks run once per algebra and group; and a
context is freed with its spec."""

import gc
import weakref

import numpy as np
import pytest

from subpower import affine, core
from subpower.affine import AbelianGroupSpec, verify_affine
from subpower.catalog import a6, zmod_group_algebra
from subpower.circuits import parse_sexpr
from subpower.core import AlgebraError, Operation
from subpower.solver import (SmpInstance, compute_comprep, dispatch,
                             solve_smp_wreath, wreath_context)


def test_algebra_attributes_refuse_assignment():
    alg, _ = zmod_group_algebra(3)
    for name, value in [("maltsev", parse_sexpr("(m x3 x2 x1)")),
                        ("size", 4), ("ops", ()), ("fresh", 1)]:
        with pytest.raises(AttributeError):
            setattr(alg, name, value)
    with pytest.raises(AttributeError):
        del alg.ops
    with pytest.raises(TypeError):
        alg.op_by_symbol["q"] = alg.op("m")
    assert alg.size == 3 and "q" not in alg.op_by_symbol


def test_operation_tables_refuse_writes():
    alg, _ = zmod_group_algebra(3)
    table = alg.table("m")
    with pytest.raises(ValueError):
        table[0] = 2
    assert table[0] == 0 and alg.apply("m", (0, 0, 0)) == 0
    # a table given as a list is held as a tuple
    op = Operation("e", 1, [0, 1, 2])
    assert op.table == (0, 1, 2) and isinstance(op.table, tuple)


def test_maltsev_table_cannot_go_stale():
    alg, _ = zmod_group_algebra(3)
    table = alg.maltsev_table
    assert table[1, 2, 0] == (1 - 2 + 0) % 3
    with pytest.raises(AttributeError):
        alg.maltsev = parse_sexpr("(m x3 x2 x1)")
    with pytest.raises(AttributeError):
        alg.maltsev_table = np.zeros((3, 3, 3), dtype=np.int64)
    with pytest.raises(ValueError):
        table[1, 2, 0] = 0
    assert alg.maltsev_table is table and table[1, 2, 0] == 2


def test_closures_share_the_partial_maps_kept_on_the_algebra():
    alg, _ = zmod_group_algebra(4)
    maps = alg._partial_maps
    fid, umaps = maps["m"]
    # m(a, b, z) = a - b + z: one map z -> z + c for each c
    assert list(maps) == ["m"] and len(fid) == 16 and umaps.shape == (4, 4)
    for track in (False, True):
        closure = core._Closure(alg, [(0, 1), (1, 3)], 100, track)
        assert closure.tern["m"][0] is fid and closure.tern["m"][1] is umaps
    with pytest.raises(ValueError):
        umaps[0, 0] = 1
    with pytest.raises(TypeError):
        maps["m"] = (fid, umaps)
    assert alg._partial_maps is maps


def test_wreath_parts_refuse_assignment():
    spec = a6()
    size = spec.algebra.size
    with pytest.raises(AttributeError):
        spec.left.size = 99
    with pytest.raises(AttributeError):
        spec.right.maltsev = parse_sexpr("(m x3 x2 x1)")
    assert spec.left.size == 3 and spec.algebra.size == size == 6


def _count_checks(monkeypatch) -> list:
    """Record each call of ``endo_scalar``, which the affine checks make
    once per operation argument."""
    calls = []
    original = affine.endo_scalar

    def counted(group, mat):
        calls.append(group)
        return original(group, mat)
    monkeypatch.setattr(affine, "endo_scalar", counted)
    return calls


def test_affine_checks_run_once_per_algebra_and_group(monkeypatch):
    calls = _count_checks(monkeypatch)
    alg, group = zmod_group_algebra(12)
    arguments = sum(op.arity for op in alg.ops)
    gens = [(1, 5, 7), (2, 0, 11)]
    for target in [(3, 5, 6), (0, 0, 1), (1, 5, 7)]:
        dispatch((alg, group), SmpInstance(gens, target))
        compute_comprep((alg, group), gens)
    assert len(calls) == arguments
    # an equal group finds the forms kept for the first one
    specs = verify_affine(alg, AbelianGroupSpec((12,)))
    assert isinstance(specs, tuple) and specs is verify_affine(alg, group)
    assert len(calls) == arguments
    # a freshly built equal algebra is checked again
    fresh, _ = zmod_group_algebra(12)
    dispatch((fresh, group), SmpInstance(gens, (3, 5, 6)))
    assert len(calls) == 2 * arguments


def test_a_failed_affine_check_is_not_kept():
    alg = a6().algebra
    group = AbelianGroupSpec((6,))
    for _ in range(2):
        with pytest.raises(AlgebraError):
            verify_affine(alg, group)
    with pytest.raises(AlgebraError):
        verify_affine(alg, AbelianGroupSpec((2,)))


def test_warm_wreath_solves_check_nothing_again(monkeypatch):
    spec = a6()
    inst = SmpInstance([(0, 1, 2), (3, 4, 5)], (0, 1, 2))
    solve_smp_wreath(spec, inst)
    calls = _count_checks(monkeypatch)
    for _ in range(3):
        solve_smp_wreath(spec, inst)
    assert calls == [] and wreath_context(spec) is wreath_context(spec)


def test_context_is_freed_with_its_spec():
    enabled = gc.isenabled()
    gc.disable()
    try:
        spec = a6()
        solve_smp_wreath(spec, SmpInstance([(0, 1, 2), (3, 4, 5)], (0, 1, 2)))
        ref = weakref.ref(wreath_context(spec))
        assert ref() is not None
        del spec
        # no reference cycle holds it: it goes by reference counting
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
