import random

import numpy as np
import pytest

from subpower.affine import (AbelianGroupSpec, Echelon, NotAffineError,
                             affine_closure_comprep, affine_member,
                             affine_span, span_members, subgroup_member,
                             verify_affine)
from subpower.catalog import zmod_algebra
from subpower.circuits import parse_sexpr
from subpower.comprep import signature
from subpower.core import FiniteAlgebra, Operation, subpower_closure


def test_subgroup_member_empty_gens():
    g = AbelianGroupSpec((6,))
    assert subgroup_member(g, [], (0,))[0] is True
    assert subgroup_member(g, [], (1,))[0] is False


def test_subgroup_member_z4_square():
    g = AbelianGroupSpec((4,))
    gens = [(2, 0), (0, 2)]
    ok, coeffs = subgroup_member(g, gens, (2, 2))
    assert ok and sum(c * v for c, v in zip(coeffs, [2, 0])) % 4 == 2
    assert subgroup_member(g, gens, (1, 0))[0] is False


def test_subgroup_member_z6():
    g = AbelianGroupSpec((6,))
    assert subgroup_member(g, [(2,)], (4,))[0] is True
    assert subgroup_member(g, [(2,)], (3,))[0] is False


def test_subgroup_witness_exactness():
    rng = random.Random(0)
    g = AbelianGroupSpec((12,))
    for _ in range(50):
        k = rng.randint(1, 4)
        gens = [tuple(rng.randrange(12) for _ in range(k))
                for _ in range(rng.randint(1, 3))]
        target = tuple(rng.randrange(12) for _ in range(k))
        ok, coeffs = subgroup_member(g, gens, target)
        if ok:
            total = [0] * k
            for c, gen in zip(coeffs, gens):
                total = [(t + c * v) % 12 for t, v in zip(total, gen)]
            assert tuple(total) == target


def test_affine_member_examples():
    g3 = AbelianGroupSpec((3,))
    pts = [(0, 0), (1, 1)]
    assert affine_member(g3, pts, (0, 0))[0] is True
    ok, lam = affine_member(g3, pts, (2, 2))
    assert ok and sum(lam) == 1
    assert affine_member(g3, pts, (1, 0))[0] is False


def test_verify_affine_reads_off_coefficients():
    alg, g = zmod_algebra(3)
    (spec,) = verify_affine(alg, g)
    assert [spec.scalar(i) for i in range(3)] == [1, 2, 1]
    assert spec.constant == (0,)


def test_verify_affine_rejects_multiplication():
    mul = tuple((x * y) % 3 for x in range(3) for y in range(3))
    m3 = tuple((x - y + z) % 3 for x in range(3) for y in range(3)
               for z in range(3))
    alg = FiniteAlgebra(3, [Operation("mul", 2, mul), Operation("m", 3, m3)],
                        parse_sexpr("(m x1 x2 x3)"))
    with pytest.raises(NotAffineError) as err:
        verify_affine(alg, AbelianGroupSpec((3,)))
    assert err.value.symbol == "mul"


def test_verify_affine_z2():
    alg, g = zmod_algebra(2)
    (spec,) = verify_affine(alg, g)
    assert [spec.scalar(i) for i in range(3)] == [1, 1, 1]


def test_echelon_idempotent():
    rng = random.Random(3)
    for _ in range(25):
        m = rng.choice([2, 3, 4, 6, 12])
        width = rng.randint(1, 5)
        ech = Echelon(m, width)
        for _ in range(rng.randint(1, 5)):
            ech.insert([rng.randrange(m) for _ in range(width)])
        ech.canonicalize()
        rows_before = [tuple(int(v) for v in r) for r in ech.rows]
        again = Echelon(m, width)
        for r in rows_before:
            again.insert(r)
        again.canonicalize()
        assert [tuple(int(v) for v in r) for r in again.rows] == rows_before


def test_echelon_span_size_matches_enumeration():
    rng = random.Random(4)
    for _ in range(25):
        m = rng.choice([2, 4, 6])
        width = rng.randint(1, 3)
        gens = [[rng.randrange(m) for _ in range(width)]
                for _ in range(rng.randint(1, 3))]
        ech = Echelon(m, width)
        for gvec in gens:
            ech.insert(gvec)
        ech.canonicalize()
        seen = {(0,) * width}
        frontier = [(0,) * width]
        while frontier:
            cur = frontier.pop()
            for gvec in gens:
                nxt = tuple((a + b) % m for a, b in zip(cur, gvec))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert ech.span_size() == len(seen)
        for v in seen:
            assert ech.contains(np.asarray(v))


def test_affine_closure_singleton():
    alg, g = zmod_algebra(3)
    rep = affine_closure_comprep(alg, g, [(1, 2)])
    assert rep.tuples() == [(1, 2)]


def test_affine_closure_diagonal_matches_oracle():
    alg, g = zmod_algebra(3)
    rep = affine_span(alg, g, [(0, 0), (1, 1)])
    assert span_members(rep) == {(0, 0), (1, 1), (2, 2)}
    cr = affine_closure_comprep(alg, g, [(0, 0), (1, 1)])
    assert signature(cr.tuples()) == signature([(0, 0), (1, 1), (2, 2)])
    assert cr.check_circuits(alg)


@pytest.mark.parametrize("order", [3, 4, 6])
def test_affine_closure_equals_oracle(order):
    alg, g = zmod_algebra(order)
    rng = random.Random(order)
    for _ in range(12):
        k = rng.randint(1, 4)
        n = rng.randint(1, 3)
        gens = [tuple(rng.randrange(order) for _ in range(k)) for _ in range(n)]
        rep = affine_span(alg, g, gens)
        assert span_members(rep) == subpower_closure(alg, gens)
        cr = affine_closure_comprep(alg, g, gens)
        assert cr.check_circuits(alg)
        assert signature(cr.tuples()) == signature(sorted(span_members(rep)))


def test_affine_closure_companion_matches_oracle(a6_spec):
    comp = a6_spec.companion
    g = a6_spec.companion_group
    rng = random.Random(9)
    for _ in range(8):
        k = rng.randint(1, 3)
        n = rng.randint(1, 3)
        gens = [tuple(rng.randrange(6) for _ in range(k)) for _ in range(n)]
        rep = affine_span(comp, g, gens)
        assert span_members(rep) == subpower_closure(comp, gens)
