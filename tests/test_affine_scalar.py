"""Scalar endomorphisms in the affine closure: the rule that calls an
(operation, argument) map scalar, and ``affine_span``, which tests images
only under the non-scalar maps, against the reference closure that tests
every image: the same raw differences, nodes, gates, counts, verdicts and
witnesses."""

import random
from functools import cache
from itertools import product
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from conftest import golden_module
from subpower import solver
from subpower.affine import (AbelianGroupSpec, Echelon, affine_span,
                             endo_scalar, verify_affine)
from subpower.catalog import M_CIRCUIT, a6, w15, zmod_group_algebra
from subpower.circuits import parse_sexpr
from subpower.core import FiniteAlgebra, Operation
from subpower.instances import _random_term_value
from subpower.serialize import dump_json
from subpower.solver import SmpInstance, _extended_rows


def _z2_z4_algebra():
    """Z_2 x Z_4 with zero 5, from the golden corpus: its unary ``a`` is the
    corpus's one non-scalar endomorphism."""
    return golden_module().z2_z4_algebra()


def residue_algebra(orders, ops):
    """Z_o1 x Z_o2 (element a * o2 + b, zero 0) with m and each
    (symbol, arity, f) of `ops`, f taking residue pairs to a residue pair."""
    o1, o2 = orders
    pairs = [(a, b) for a in range(o1) for b in range(o2)]

    def table(arity, f):
        return tuple((r0 % o1) * o2 + r1 % o2
                     for args in product(pairs, repeat=arity)
                     for r0, r1 in [f(*args)])

    def maltsev(x, y, z):
        return x[0] - y[0] + z[0], x[1] - y[1] + z[1]

    return (FiniteAlgebra(o1 * o2, [Operation(sym, r, table(r, f)) for
                                    sym, r, f in [("m", 3, maltsev), *ops]],
                          parse_sexpr(M_CIRCUIT)),
            AbelianGroupSpec(orders))


# every map scalar, none of them c * I entry by entry: diag(2, 1) = 5 * I
# on Z_3 x Z_2, diag(1, 3) = 3 * I and diag(0, 2) = 2 * I on Z_2 x Z_4
SCALAR_MOD_ORDERS = {
    "Z_3 x Z_2, diag(2, 1)": lambda: residue_algebra((3, 2), [
        ("s", 1, lambda x: (2 * x[0] + 1, x[1])),
        ("t", 2, lambda x, y: (x[0] + 2 * y[0], x[1] + y[1]))]),
    "Z_2 x Z_4, diag(1, 3)": lambda: residue_algebra((2, 4), [
        ("s", 1, lambda x: (x[0], 3 * x[1] + 2)),
        ("t", 2, lambda x, y: (x[0], x[1] + 2 * y[1]))]),
}
ALGEBRAS = {f"Z_{m}": (lambda m=m: zmod_group_algebra(m)) for m in (12, 9, 6)}
ALGEBRAS["Z_2 x Z_4, zero 5"] = _z2_z4_algebra
ALGEBRAS.update(SCALAR_MOD_ORDERS)
# a non-scalar map over a prime exponent, whose span is a FieldEchelon
ALGEBRAS["Z_2 x Z_2, shear"] = lambda: residue_algebra((2, 2), [
    ("s", 1, lambda x: (x[0] + x[1], x[1]))])
COMPANIONS = {"a6": a6, "w15": w15}


def test_scalar_modulo_each_order():
    assert endo_scalar(AbelianGroupSpec((2, 4)), [[1, 0], [0, 3]]) == 3
    assert endo_scalar(AbelianGroupSpec((3, 2)), [[2, 0], [0, 1]]) == 5
    assert endo_scalar(AbelianGroupSpec((2, 4)), [[1, 2], [0, 1]]) == 1
    assert endo_scalar(AbelianGroupSpec((4, 4)), [[1, 0], [0, 2]]) is None
    assert endo_scalar(AbelianGroupSpec((12,)), [[7]]) == 7


def test_verify_affine_marks_scalar_arguments():
    alg, group = _z2_z4_algebra()
    scalars = {spec.symbol: spec.scalars for spec in verify_affine(alg, group)}
    assert scalars == {"m": (1, 3, 1), "a": (None,), "b": (1, 2)}
    shear = verify_affine(*ALGEBRAS["Z_2 x Z_2, shear"]())
    assert [spec.scalars for spec in shear] == [(1, 1, 1), (None,)]
    for name, build in SCALAR_MOD_ORDERS.items():
        for spec in verify_affine(*build()):
            assert None not in spec.scalars, (name, spec.symbol)


def _contains_calls(alg, group, gens) -> int:
    with mock.patch.object(Echelon, "contains_rows",
                           autospec=True,
                           side_effect=Echelon.contains_rows) as calls:
        affine_span(alg, group, gens)
    return calls.call_count


def test_no_containment_test_when_every_map_is_scalar():
    gens = [(1, 5, 7), (2, 0, 11), (4, 4, 4)]
    assert _contains_calls(*zmod_group_algebra(12), gens) == 0
    assert _contains_calls(*_z2_z4_algebra(), [(0, 1, 2), (3, 6, 7)]) > 0


@cache
def _algebra(name: str):
    """(algebra, group, wreath spec or None) of a case: a companion's or
    an algebra's."""
    spec = COMPANIONS[name]() if name in COMPANIONS else None
    alg, group = ((spec.companion, spec.companion_group) if spec else
                  ALGEBRAS[name]())
    return alg, group, spec


def _case(name: str, k: int, n: int, rng: random.Random):
    """Generator rows and a target: a random term's value on them or a
    uniform tuple.  A companion's rows are ``_extended_rows`` of n random
    k-tuples of its wreath product."""
    alg, _, spec = _algebra(name)
    if spec is not None:
        gens = _extended_rows(spec, np.asarray(
            [[rng.randrange(spec.size) for _ in range(k)] for _ in range(n)],
            dtype=np.int64)).tolist()
    else:
        gens = [[rng.randrange(alg.size) for _ in range(k)] for _ in range(n)]
    if rng.random() < 0.5:
        target = _random_term_value(alg, gens, rng)
    else:
        target = [rng.randrange(alg.size) for _ in gens[0]]
    return gens, target


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(ALGEBRAS) + sorted(COMPANIONS)),
       k=st.integers(1, 5), n=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_skipping_scalar_images_changes_nothing(name, k, n, seed):
    alg, group, _ = _algebra(name)
    gens, target = _case(name, k, n, random.Random(seed))
    got = affine_span(alg, group, gens)
    want = ref.affine_span_every_image(alg, group, gens)
    assert len(got.raw) == len(want.raw)
    for (gv, gp, gm), (wv, wp, wm) in zip(got.raw, want.raw):
        assert np.array_equal(gv, wv) and (gp, gm) == (wp, wm)
    assert got.bank.gates == want.bank.gates
    assert got.tuples_materialized == want.tuples_materialized

    inst = SmpInstance(gens, target)
    verdicts = []
    for span in (affine_span, ref.affine_span_every_image):
        with mock.patch.object(solver, "affine_span", span):
            verdicts.append(solver._solve_affine(alg, group, inst, True))
    fast, slow = verdicts
    assert fast.member == slow.member
    assert dump_json(fast.witness) == dump_json(slow.witness)
    for stats in (fast.stats, slow.stats):
        del stats["elapsed_ms"]
    assert fast.stats == slow.stats
