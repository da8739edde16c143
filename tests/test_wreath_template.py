"""The wreath path's per-arity companion closure and its Mal'tsev-chain
walk: the cached padding closure against a fresh ``affine_span`` on the
extended rows, the chain walk against the member circuits, constant
generators with no raw differences, warm contexts that never grow, one
evaluation of the closure per solve, circuits built only for a returned
witness, a warm member solve that its
clonoid image decides alone, and the open forged-witness gap of
``check_witness``."""

import random
import sys
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from subpower import solver
from subpower.affine import AffineSubpowerRep, FieldEchelon, affine_span
from subpower.catalog import a6, random_wreath, w15
from subpower.circuits import CircuitBank
from subpower.core import eval_nodes
from subpower.instances import random_instance
from subpower.solver import (SmpInstance, SmpVerdict, _extended_rows,
                             _leaf_values, check_witness, solve_smp_wreath,
                             wreath_context)

SPECS = {"a6": a6, "w15": w15}
SPECS.update({f"random_wreath{args}": (lambda args=args: random_wreath(*args))
              for args in [(2, 3, 1), (3, 2, 1), (2, 9, 3), (3, 5, 2),
                           (5, 2, 1)]})


@cache
def companion_spec(name: str):
    """The spec, whose companion keeps its verified affine form across
    examples (the clonoid generators are not needed, and w15's take
    seconds to extract)."""
    return SPECS[name]()


def _companion_closure(spec, gen_rows: np.ndarray):
    """A fresh ``affine_span`` of the companion on the extended rows."""
    return affine_span(spec.companion, spec.companion_group,
                       _extended_rows(spec, gen_rows))


def _instance(spec, k: int, n: int, seed: int, bias: float = 1.0):
    d = random_instance(spec, k, n, bias, seed=seed)
    return SmpInstance(d["generators"], d["target"])


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(SPECS)), k=st.integers(1, 12),
       n=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_cached_closure_equals_fresh_span(name, k, n, seed):
    """The padding closure, as the solve caches it, makes the decisions of
    the closure on the extended rows; the values of its leaf nodes on the
    generators are the first k columns, and the wreath algebra's values
    share their u-parts with the companion's."""
    spec = companion_spec(name)
    comp, group = spec.companion, spec.companion_group
    rng = random.Random(seed)
    # constant generators (one value everywhere) often leave no differences
    gen_rows = np.asarray(
        [[rng.randrange(spec.size)] * k if rng.random() < 0.2 else
         [rng.randrange(spec.size) for _ in range(k)] for _ in range(n)],
        dtype=np.int64)
    got = _companion_closure(spec, np.empty((n, 0), dtype=np.int64))
    want = _companion_closure(spec, gen_rows)
    head = k * group.rank
    assert want.k == k + got.k
    assert np.array_equal(want.base_flat[head:], got.base_flat)
    assert got.base_node == want.base_node
    assert [(gp, gm) for _, gp, gm in got.raw] == \
        [(wp, wm) for _, wp, wm in want.raw]
    assert np.array_equal(want.raw_rows[:, head:], got.raw_rows)
    assert got.bank.gates == want.bank.gates
    assert got.tuples_materialized == want.tuples_materialized
    comp_leaves = _leaf_values(comp, got, gen_rows)
    flat = group.embed_elements(comp_leaves).reshape(len(comp_leaves), head)
    assert np.array_equal(flat[0], want.base_flat[:head])
    assert np.array_equal((flat[1::2] - flat[2::2]) % group.exponent,
                          want.raw_rows[:, :head])
    leaves = _leaf_values(spec.algebra, got, gen_rows)
    assert np.array_equal(leaves % spec.p, comp_leaves % spec.p)

    # the chain walk by table lookups against the member circuits, for
    # random coefficient rows
    m = group.exponent
    rows = rng.randint(1, 4)
    coeffs = np.asarray([[rng.randrange(m) for _ in got.raw]
                         for _ in range(rows)],
                        dtype=np.int64).reshape(rows, len(got.raw))
    folded = ref.fold_members_stepwise(spec.algebra.maltsev_table, leaves,
                                       coeffs)
    nodes = [got.member_node(c) for c in coeffs]
    vals = eval_nodes(spec.algebra, got.bank, nodes, list(gen_rows))
    assert folded.tolist() == [vals[node].tolist() for node in nodes]


def test_constant_generators_leave_no_raw_differences():
    spec = companion_spec("a6")
    zero = spec.zero
    gen_rows = np.full((1, 3), zero, dtype=np.int64)
    rep = _companion_closure(spec, gen_rows)
    assert rep.raw == [] and rep.raw_rows.shape == (0, len(rep.base_flat))
    alg = spec.algebra
    leaves = _leaf_values(alg, rep, gen_rows)
    folded = ref.fold_members_stepwise(alg.maltsev_table, leaves,
                                       np.zeros((2, 0), dtype=np.int64))
    assert folded.tolist() == [[zero] * 3] * 2
    # the solve walks no step: its member is the base, and with no l-part
    # generator the full test is the image alone
    gens = ((zero,) * 3,)
    verdict = solve_smp_wreath(spec, SmpInstance(gens, (zero,) * 3))
    assert verdict.member and check_witness(
        spec, SmpInstance(gens, (zero,) * 3), verdict)
    assert verdict.witness["base"]["value"] == [zero] * 3
    l, u = spec.split(zero)
    moved = SmpInstance(gens, (spec.pair(spec.left_group.add(l, 1), u),)
                        + (zero,) * 2)
    verdict = solve_smp_wreath(spec, moved)
    assert not verdict.member and verdict.stats["decided_by"] == "full"


@pytest.fixture()
def member_node_calls(monkeypatch):
    calls = []
    original = AffineSubpowerRep.member_node

    def counted(self, raw_coeffs):
        calls.append(1)
        return original(self, raw_coeffs)

    monkeypatch.setattr(AffineSubpowerRep, "member_node", counted)
    return calls


def test_warm_context_template_never_grows(member_node_calls):
    spec = a6()
    ctx = wreath_context(spec)
    assert ctx.padding_spans == {}
    gates = None
    members = 0
    for seed in range(40):
        inst = _instance(spec, 8, 3, seed, bias=0.5)
        verdict = solve_smp_wreath(spec, inst)
        members += verdict.member
        template = ctx.padding_spans[3]
        if gates is None:
            gates = len(template.bank)
        assert len(template.bank) == gates
        assert list(ctx.padding_spans) == [3]
    # witnesses were built on the solves' own banks
    assert members and member_node_calls
    # the cache holds the padding closure
    fresh = _companion_closure(spec, np.empty((3, 0), dtype=np.int64))
    assert template.bank.gates == fresh.bank.gates
    assert np.array_equal(template.raw_rows, fresh.raw_rows)
    assert [r[1:] for r in template.raw] == [r[1:] for r in fresh.raw]


def test_warm_solve_evaluates_the_closure_once(monkeypatch):
    """A warm a6 solve evaluates the cached closure's leaf nodes once, in
    the wreath algebra, whichever stage decides it."""
    spec = a6()
    calls = []
    original = solver.eval_nodes

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    solve_smp_wreath(spec, _instance(spec, 12, 4, 0))    # warms the context
    monkeypatch.setattr(solver, "eval_nodes", counted)
    stages = set()
    for seed in range(6):
        inst = _instance(spec, 12, 4, seed)
        target = list(inst.target)
        l, u = spec.split(target[0])
        probes = [inst, SmpInstance(inst.generators, [
            spec.pair(spec.left_group.add(l, 1), u)] + target[1:]),
                  SmpInstance(inst.generators, [
            spec.pair(l, (u + 1) % spec.p)] + target[1:])]
        for probe in probes:
            calls.clear()
            verdict = solve_smp_wreath(spec, probe)
            assert calls == [spec.algebra]
            stages.add(verdict.stats["decided_by"])
    assert stages == {"quotient", "image", "full"}


def test_circuits_only_for_a_returned_witness(member_node_calls,
                                             monkeypatch):
    chains = []
    chain = CircuitBank.chain

    def counted(self, *args):
        chains.append(1)
        return chain(self, *args)

    monkeypatch.setattr(CircuitBank, "chain", counted)
    spec = a6()
    inst = _instance(spec, 6, 3, 0)
    verdict = solve_smp_wreath(spec, inst, want_witness=False)
    assert verdict.member and verdict.witness is None
    assert member_node_calls == [] and chains == []
    verdict = solve_smp_wreath(spec, inst)
    assert check_witness(spec, inst, verdict)
    # one member_node, for the base; then one chain of p steps on it for
    # each l-part generator with a nonzero coefficient; this instance uses
    # some
    assert verdict.stats["decided_by"] == "full"
    assert verdict.witness["members"]
    assert member_node_calls == [1]
    assert len(chains) == 1 + len(verdict.witness["members"])
    member_node_calls.clear()
    chains.clear()
    target = list(inst.target)
    l, u = spec.split(target[0])
    target[0] = spec.pair(spec.left_group.add(l, 1), u)
    moved = SmpInstance(inst.generators, target)
    assert not solve_smp_wreath(spec, moved).member
    assert member_node_calls == [] and chains == []


def test_warm_solve_skips_image_and_spanned_differences(monkeypatch):
    """On a warm a6 context at k=60, n=20, every member target's l-part
    lies in the span of the clonoid image, which is assembled plane by
    plane with no elimination, since every coordinate is alone in its
    plane: the image decides by one block-wise reduction, so the solve
    builds no l-part generator and makes no echelon for the subgroup
    test.  The quotient fix eliminates its rows as one
    ``FieldEchelon.extend`` call, the solve's only echelon."""
    spec = a6()
    assert solve_smp_wreath(spec, _instance(spec, 60, 20, 900)).member
    extends, made = [], []
    extend = FieldEchelon.extend

    def counted(self, rows):
        extends.append((self, sys._getframe(1).f_code.co_name))
        return extend(self, rows)

    monkeypatch.setattr(FieldEchelon, "extend", counted)
    span_over = solver.span_over

    def kept(*args, **kwargs):
        made.append(span_over(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(solver, "span_over", kept)
    for seed in range(901, 905):
        inst = _instance(spec, 60, 20, seed)
        for log in (extends, made):
            log.clear()
        verdict = solve_smp_wreath(spec, inst)
        assert verdict.member and check_witness(spec, inst, verdict)
        assert verdict.stats["decided_by"] == "image"
        assert verdict.witness["members"] == []
        # the quotient fix is the solve's only elimination
        (fix,) = made
        assert fix.m == spec.p
        assert [(owner, caller) for owner, caller in extends] \
            == [(fix, "solve_smp_wreath")]


@pytest.mark.xfail(strict=True, reason="check_witness takes clonoid parts on "
                   "trust; checking each against the clonoid image is open")
def test_forged_clonoid_part_is_rejected():
    spec = a6()
    inst = _instance(spec, 6, 3, 0)
    honest = solve_smp_wreath(spec, inst).witness
    # move the l-part of one target coordinate: a non-member
    shift = 1
    target = list(inst.target)
    l, u = spec.split(target[0])
    target[0] = spec.pair(spec.left_group.add(l, shift), u)
    moved = SmpInstance(inst.generators, target)
    assert not solve_smp_wreath(spec, moved).member
    # the honest witness plus one clonoid part holding the l-difference
    part = [spec.left_group.zero] * inst.k
    part[0] = shift
    forged = dict(honest, clonoid=honest["clonoid"] + [
        {"coeff": 1, "value": part}])
    assert not check_witness(spec, moved, SmpVerdict(True, forged))
