import random
import re

import numpy as np
import pytest

from subpower.catalog import a6_symmetric, random_wreath, zmod_algebra
from subpower.circuits import parse_sexpr
from subpower.comprep import maltsev_fold, signature
from subpower.core import (AlgebraError, eval_circuit, smp_oracle,
                           subpower_closure)
from subpower.instances import random_instance
from subpower.solver import (SmpInstance, UnsupportedAlgebraError,
                             check_witness, compute_comprep, dispatch,
                             solve_smp_wreath, validate_prime_quotient_class)
from subpower.wreath import WreathSpec


def random_member_instance(alg, rng, k, n, bias):
    gens = [tuple(rng.randrange(alg.size) for _ in range(k)) for _ in range(n)]
    if rng.random() < bias:
        b = rng.choice(gens)
        for _ in range(rng.randint(0, 3)):
            b = maltsev_fold(alg, b, rng.choice(gens), rng.choice(gens))
    else:
        b = tuple(rng.randrange(alg.size) for _ in range(k))
    return SmpInstance(tuple(gens), b)


def test_generator_is_member(a6_spec):
    inst = SmpInstance(((0, 1, 5), (2, 2, 2)), (0, 1, 5))
    v = solve_smp_wreath(a6_spec, inst)
    assert v.member
    assert check_witness(a6_spec, inst, v)


def test_quotient_mismatch_is_rejected(a6_spec):
    # target whose quotient components cannot arise from the generators
    inst = SmpInstance(((0, 0), (2, 4)), (1, 0))   # u-parts of gens all 0
    v = solve_smp_wreath(a6_spec, inst)
    assert not v.member
    assert not smp_oracle(a6_spec.algebra, inst.generators, inst.target)


@pytest.mark.parametrize("seed", range(4))
def test_wreath_agrees_with_oracle_a6(a6_spec, seed):
    alg = a6_spec.algebra
    rng = random.Random(seed)
    for _ in range(25):
        k = rng.randint(1, 4)
        n = rng.randint(1, 4)
        inst = random_member_instance(alg, rng, k, n, bias=0.5)
        v = solve_smp_wreath(a6_spec, inst)
        assert v.member == smp_oracle(alg, inst.generators, inst.target)
        if v.member:
            assert check_witness(a6_spec, inst, v)


def test_wreath_agrees_with_oracle_w15(w15_spec):
    alg = w15_spec.algebra
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randint(1, 4)
        k = rng.randint(1, 5) if n <= 2 else rng.randint(1, 2)
        inst = random_member_instance(alg, rng, k, n, bias=0.5)
        v = solve_smp_wreath(w15_spec, inst)
        assert v.member == smp_oracle(alg, inst.generators, inst.target)
        if v.member:
            assert check_witness(w15_spec, inst, v)


def test_wreath_agrees_with_oracle_extra_symbol(a6e_spec):
    alg = a6e_spec.algebra
    rng = random.Random(66)
    for _ in range(25):
        k = rng.randint(1, 3)
        n = rng.randint(1, 3)
        inst = random_member_instance(alg, rng, k, n, bias=0.5)
        v = solve_smp_wreath(a6e_spec, inst)
        assert v.member == smp_oracle(alg, inst.generators, inst.target)
        if v.member:
            assert check_witness(a6e_spec, inst, v)


def _seeded(spec, k: int, n: int, bias: float, seed: int) -> SmpInstance:
    d = random_instance(spec, k, n, bias, seed=seed)
    return SmpInstance(d["generators"], d["target"])


def test_wreath_agrees_with_oracle_symmetric():
    # a6_symmetric passes the arity <= 2 clone-containment spot-check that
    # admitted the removed direct-product route, yet that route disagreed
    # with the oracle on 3 of the seeded k=5, n=3 instances below, and
    # called 33 of the 39 k=20 term-value members non-members
    spec = a6_symmetric()
    alg = spec.algebra
    rng = random.Random(2)
    insts = [random_member_instance(alg, rng, rng.randint(1, 3),
                                    rng.randint(1, 3), bias=0.5)
             for _ in range(60)]
    insts += [_seeded(spec, 5, 3, 0.5, seed) for seed in range(1, 40)]
    cases = [(inst, smp_oracle(alg, inst.generators, inst.target))
             for inst in insts]
    # members by construction, past the oracle's reach
    cases += [(_seeded(spec, 20, 6, 1.0, seed), True) for seed in range(1, 40)]
    member_count = 0
    for inst, member in cases:
        v = solve_smp_wreath(spec, inst)
        assert v.member == member
        if v.member:
            assert check_witness(spec, inst, v)
            member_count += 1
    assert member_count > 39


def test_wreath_zero_hat_reduces_to_affine():
    left, left_group = zmod_algebra(3)
    right, _ = zmod_algebra(2)
    flat = WreathSpec(left=left, left_group=left_group, right=right,
                      hat={"m": (0,) * 8}, maltsev=parse_sexpr("(m x1 x2 x3)"))
    rng = random.Random(8)
    for _ in range(10):
        inst = random_member_instance(flat.algebra, rng, 3, 2, bias=0.5)
        v = solve_smp_wreath(flat, inst)
        assert v.member == smp_oracle(flat.algebra, inst.generators,
                                      inst.target)
        if v.member:
            assert check_witness(flat, inst, v)


def test_monotonicity_appending_generator(a6_spec):
    alg = a6_spec.algebra
    rng = random.Random(5)
    for _ in range(15):
        inst = random_member_instance(alg, rng, 3, 2, bias=0.7)
        v1 = solve_smp_wreath(a6_spec, inst)
        extra = tuple(rng.randrange(6) for _ in range(3))
        bigger = SmpInstance(inst.generators + (extra,), inst.target)
        v2 = solve_smp_wreath(a6_spec, bigger)
        if v1.member:
            assert v2.member


def test_permutation_invariance(a6_spec):
    rng = random.Random(6)
    for _ in range(15):
        k = rng.randint(2, 4)
        inst = random_member_instance(a6_spec.algebra, rng, k, 3, bias=0.5)
        perm = list(range(k))
        rng.shuffle(perm)
        permuted = SmpInstance(
            tuple(tuple(g[i] for i in perm) for g in inst.generators),
            tuple(inst.target[i] for i in perm))
        assert solve_smp_wreath(a6_spec, inst).member == \
            solve_smp_wreath(a6_spec, permuted).member


def test_preconditions_reported_before_work():
    inst = SmpInstance(((0,),), (1,))
    # quotient of non-prime order
    spec4 = random_wreath(4, 3, seed=0)
    with pytest.raises(UnsupportedAlgebraError):
        validate_prime_quotient_class(spec4)
    with pytest.raises(UnsupportedAlgebraError):
        solve_smp_wreath(spec4, inst)
    # common factor between the parts
    shared = random_wreath(3, 6, seed=0)
    with pytest.raises(UnsupportedAlgebraError):
        validate_prime_quotient_class(shared)
    with pytest.raises(UnsupportedAlgebraError):
        solve_smp_wreath(shared, inst)


def test_dispatch_routes(a6_spec, z3):
    alg, group = z3
    affine_inst = SmpInstance(((0, 0), (1, 1)), (2, 2))
    v = dispatch((alg, group), affine_inst)
    assert v.member and v.stats["path"] == "affine"
    assert check_witness((alg, group), affine_inst, v)
    v2 = dispatch((alg, group), SmpInstance(((0, 0), (1, 1)), (1, 0)))
    assert not v2.member

    wreath_inst = SmpInstance(((0, 1), (3, 3)), (0, 1))
    vw = dispatch(a6_spec, wreath_inst)
    assert vw.stats["path"] == "wreath" and vw.member


def test_dispatch_oracle_fallback():
    spec4 = random_wreath(4, 3, seed=1)
    inst = SmpInstance(((0, 1), (2, 2)), (0, 1))
    with pytest.raises(UnsupportedAlgebraError):
        dispatch(spec4, inst)
    with pytest.warns(UserWarning):
        v = dispatch(spec4, inst, allow_oracle=True)
    assert v.member and v.stats["path"] == "oracle"


@pytest.mark.parametrize("path", ["wreath", "affine", "oracle"])
@pytest.mark.parametrize("gens, target, entry", [
    (((0, 1.7, 2), (2, 1, 0)), (0, 1, 2), "generators[0][1] = 1.7 is not"),
    (((0, 1, 2), (2, 1, 0)), (0, 1.5, 2), "target[1] = 1.5 is not"),
    (((0, 1, 2), (2, 1, 0)), (0, 2.0, 2), "target[1] = 2.0 is not"),
    (((0, 1, 2), (2, "1", 0)), (0, 1, 2), "generators[1][1] = '1' is not"),
    (((0, 1, 2), (2, 1, 99)), (0, 1, -1), "generators[1][2] = 99 out of"),
    (((0, 1, 2), (2, 1, 0)), (0, 1, 2**70), f"target[2] = {2**70} out of"),
])
def test_instance_entries_must_be_integers_in_range(a6_spec, z3, path, gens,
                                                   target, entry):
    """Every path refuses a non-integer or out-of-range entry, naming the
    first one, before any work: a float is not truncated to an element."""
    algebra = {"wreath": a6_spec, "affine": z3,
               "oracle": random_wreath(4, 3, seed=1)}[path]
    with pytest.raises(AlgebraError, match=re.escape(entry)):
        dispatch(algebra, SmpInstance(gens, target), allow_oracle=True)


def test_instance_rows_keep_integer_inputs(a6_spec):
    # numpy integers and bools are integers, as before
    inst = SmpInstance((tuple(np.arange(3)), (True, 4, 5)), (0, 1, 2))
    assert dispatch(a6_spec, inst).member


def test_direct_calls_refuse_a_float_entry(a6_spec):
    """``check_witness``, ``smp_oracle`` and ``eval_circuit`` check their
    tuples as the solver does: 1.7 is refused, not truncated to 1."""
    verdict = solve_smp_wreath(
        a6_spec, SmpInstance([(0, 1, 2), (3, 4, 5)], (0, 1, 2)))
    gens = [(0, 1.7, 2), (3, 4, 5)]
    assert not check_witness(a6_spec, SmpInstance(gens, (0, 1, 2)), verdict)
    entry = re.escape("[0][1] = 1.7 is not an integer")
    with pytest.raises(AlgebraError, match=entry):
        smp_oracle(a6_spec.algebra, gens, (0, 1, 2))
    circuit = parse_sexpr(verdict.witness["base"]["circuit"], arity=2)
    with pytest.raises(AlgebraError, match=entry):
        eval_circuit(a6_spec.algebra, circuit, gens)
    with pytest.raises(AlgebraError, match=re.escape("target[2] = '2'")):
        smp_oracle(a6_spec.algebra, [(0, 1, 2)], (0, 1, "2"))
    with pytest.raises(AlgebraError, match="unequal lengths"):
        smp_oracle(a6_spec.algebra, [(0, 1, 2), (3, 4)], (0, 1, 2))


def test_dispatch_names_why_the_wreath_path_does_not_apply():
    inst = SmpInstance(((0, 1), (2, 2)), (0, 1))
    for spec, reason in [
            (random_wreath(4, 3, seed=1), "quotient size 4 is not prime"),
            (random_wreath(3, 6, seed=0),
             "left size 6 shares a factor with quotient size 3")]:
        with pytest.raises(UnsupportedAlgebraError) as err:
            dispatch(spec, inst)
        assert reason in str(err.value)
        assert "allow_oracle=True" in str(err.value)


def test_compute_comprep_matches_oracle():
    # wreath compact representations come from the oracle; the removed
    # direct-product construction missed forks on 3 of the k=6 instances
    spec = a6_symmetric()
    rng = random.Random(12)
    gen_sets = []
    for _ in range(8):
        k = rng.randint(1, 3)
        gen_sets.append(tuple(tuple(rng.randrange(6) for _ in range(k))
                              for _ in range(rng.randint(1, 3))))
    gen_sets += [_seeded(spec, 6, 3, 0.5, seed).generators
                 for seed in range(1, 11)]
    for gens in gen_sets:
        rep = compute_comprep(spec, gens, allow_oracle=True)
        closed = subpower_closure(spec.algebra, gens)
        assert set(rep.tuples()) <= closed
        assert signature(rep.tuples()) == signature(sorted(closed))
    with pytest.raises(UnsupportedAlgebraError, match="allow_oracle"):
        compute_comprep(spec, gen_sets[0])


def test_compute_comprep_a6_falls_back_to_oracle(a6_spec):
    # no polynomial representation route for wreath products: refused
    # without the oracle, faithful with it
    gens = ((0, 1), (3, 2))
    with pytest.raises(UnsupportedAlgebraError):
        compute_comprep(a6_spec, gens)
    rep = compute_comprep(a6_spec, gens, allow_oracle=True)
    closed = subpower_closure(a6_spec.algebra, gens)
    assert signature(rep.tuples()) == signature(sorted(closed))
    assert rep.check_circuits(a6_spec.algebra)


def test_randomized_wreath_families():
    # beyond the fixed catalog: random shifts over several (p, |L|) pairs;
    # extraction is exact or certified, and verdicts track the oracle
    total = 0
    for p, lo in [(2, 3), (2, 9), (3, 5), (5, 2)]:
        spec = random_wreath(p, lo, seed=0)
        alg = spec.algebra
        rng = random.Random(1000 * p + lo)
        for _ in range(8):
            k = rng.randint(1, 3)
            n = rng.randint(1, 3)
            inst = random_member_instance(alg, rng, k, n, bias=0.5)
            v = solve_smp_wreath(spec, inst)
            assert v.member == smp_oracle(alg, inst.generators, inst.target,
                                          cap=200_000)
            if v.member:
                assert check_witness(spec, inst, v)
            total += 1
    assert total == 32


def test_random_wreath_3_4_1_builds_and_agrees_with_oracle():
    """Its binary terms neither enumerate under a cap of 3000 nor certify
    a bounded run; the closure over companions builds it exactly."""
    spec = random_wreath(3, 4, seed=1)
    alg = spec.algebra
    rng = random.Random(341)
    verdicts = []
    for _ in range(24):
        k = rng.randint(1, 4)
        n = rng.randint(1, 3)
        inst = random_member_instance(alg, rng, k, n, bias=0.5)
        v = solve_smp_wreath(spec, inst)
        assert v.member == smp_oracle(alg, inst.generators, inst.target)
        if v.member:
            assert check_witness(spec, inst, v)
        verdicts.append(v.member)
    assert any(verdicts) and not all(verdicts)


def test_solver_stats_present(a6_spec):
    inst = SmpInstance(((0, 1, 2),), (0, 1, 2))
    v = solve_smp_wreath(a6_spec, inst)
    assert "tuples_materialized" in v.stats and "elapsed_ms" in v.stats
    assert v.stats["path"] == "wreath"
