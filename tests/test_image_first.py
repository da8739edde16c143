"""The wreath solve's image-first subgroup test against the full path
(``reference_impl.solve_smp_wreath_full``): a target whose l-part the
clonoid image reaches from the base is decided without the l-part
generators, and one the image misses takes the full test, with the same
verdicts, the same witnesses when exp(L) is prime, and accepted witnesses
always; the elimination generator set against the solver's p-step
generators; and the witness self-check that ``python -O`` keeps."""

import os
import random
import subprocess
import sys
from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from subpower.affine import is_prime, span_over
from subpower.catalog import a6, a6_shift, random_wreath, w15
from subpower.instances import random_instance
from subpower.solver import (SmpInstance, SmpVerdict, check_witness,
                             solve_smp_wreath, wreath_context)
from subpower.wreath import clonoid_image_comprep

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# L = Z_9, Z_4 and Z_15 keep Howell exponents in the mix
SPECS = {"a6": a6, "a6_shift": a6_shift, "w15": w15}
SPECS.update({f"random_wreath{args}": (lambda args=args: random_wreath(*args))
              for args in [(3, 2, 1), (2, 9, 3), (5, 4, 2), (2, 15, 1)]})


@cache
def spec_named(name: str):
    spec = SPECS[name]()
    wreath_context(spec)
    return spec


def _with_l(spec, target, l_values) -> tuple:
    return tuple(spec.pair(int(l), spec.split(t)[1])
                 for l, t in zip(l_values, target))


def _solve_both(spec, inst):
    """The solver's verdict and the full path's (member, witness)."""
    return solve_smp_wreath(spec, inst), ref.solve_smp_wreath_full(spec, inst)


def _agree(spec, inst, verdict, full) -> None:
    member, witness = full
    assert verdict.member == member
    if member:
        assert check_witness(spec, inst, verdict)
        if is_prime(spec.left_group.exponent):
            assert verdict.witness == witness


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(SPECS)), k=st.integers(2, 12),
       n=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_image_first_matches_full_path(name, k, n, seed):
    spec = spec_named(name)
    group = spec.left_group
    d = random_instance(spec, k, n, 1.0, seed=seed)
    member = SmpInstance(d["generators"], d["target"])
    ok, witness = ref.solve_smp_wreath_full(spec, member)
    assert ok
    base_l = np.asarray(witness["base"]["value"]) // spec.p
    gen_rows = np.asarray(member.generators) % spec.p
    basis = ref.image_of(clonoid_image_comprep(wreath_context(spec).gens,
                                               gen_rows.tolist())).basis
    rng = random.Random(seed)

    # the base plus a random combination of the image rows: decided early
    combo = np.asarray([rng.randrange(group.exponent)
                        for _ in range(len(basis))], dtype=np.int64)
    reached = group.unembed_array(
        (group.embed_elements(base_l) + combo @ basis)
        % group.exponent)
    inst = SmpInstance(member.generators,
                       _with_l(spec, member.target, reached))
    verdict, full = _solve_both(spec, inst)
    assert verdict.member and verdict.stats["decided_by"] == "image"
    assert verdict.witness["members"] == []
    _agree(spec, inst, verdict, full)

    # the member target with one l-part moved off the image span: the
    # full test decides it
    span = span_over(group.exponent, k * group.rank)
    span.extend(basis)
    l_target = np.asarray(member.target) // spec.p
    shifts = [(i, a) for i in range(k) for a in range(1, group.size)]
    rng.shuffle(shifts)
    for i, a in shifts:
        moved = l_target.copy()
        moved[i] = group.add(int(moved[i]), a)
        diff = group.add_table[moved, group.neg_table[base_l]]
        if span.reduce(group.embed_elements(diff))[0].any():
            inst = SmpInstance(member.generators,
                               _with_l(spec, member.target, moved))
            verdict, full = _solve_both(spec, inst)
            assert verdict.stats["decided_by"] == "full"
            _agree(spec, inst, verdict, full)
            break


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(SPECS)), k=st.integers(1, 10),
       n=st.integers(1, 5), seed=st.integers(0, 10_000),
       kind=st.sampled_from(["member", "shifted", "uniform"]))
def test_elimination_generators_give_the_solvers_verdicts(name, k, n, seed,
                                                          kind):
    """The elimination generator set (a tracked elimination mod exp(L),
    lifted to Z_m) spans, with the clonoid image, what the solver's p-step
    generators span: the same verdicts, and both witnesses accepted."""
    spec = spec_named(name)
    d = random_instance(spec, k, n, 0.0 if kind == "uniform" else 1.0,
                        seed=seed)
    target = list(d["target"])
    if kind == "shifted":
        # the l-part of one coordinate moved: the quotient fix still passes
        i = seed % k
        l, u = spec.split(target[i])
        target[i] = spec.pair(spec.left_group.add(l, 1), u)
    inst = SmpInstance(d["generators"], target)
    verdict = solve_smp_wreath(spec, inst)
    member, witness = ref.solve_smp_wreath_full(spec, inst, elimination=True)
    assert verdict.member == member
    if member:
        assert check_witness(spec, inst, verdict)
        assert check_witness(spec, inst, SmpVerdict(True, witness))


# a full-path member solve whose tracked echelon hands out wrong
# coefficients for the target, so that the members leave a rest outside
# the clonoid image
LYING_SPAN = """
import subpower.solver as solver
from subpower.catalog import a6
from subpower.instances import random_instance
from subpower.solver import SmpInstance, solve_smp_wreath

honest = solver.span_witness


def lying(ech, rows, target_v):
    ok, combo = honest(ech, rows, target_v)
    return ok, [(c + 1) % ech.m for c in combo]


d = random_instance(a6(), 6, 3, 0.5, seed=2)
inst = SmpInstance(d["generators"], d["target"])
verdict = solve_smp_wreath(a6(), inst)
assert verdict.member and verdict.stats["decided_by"] == "full"
solver.span_witness = lying
solve_smp_wreath(a6(), inst)
"""


def test_witness_self_check_survives_optimize():
    """The check that what the members leave of the target lies in the
    clonoid image is a raise, not an ``assert``, so it holds under
    ``python -O`` too."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", LYING_SPAN],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode != 0
    assert "AssertionError: witness verification failed" in proc.stderr
