import random
from itertools import product

import pytest

from conftest import expand_subgroup
from reference_impl import plane_points
from subpower.affine import AbelianGroupSpec
from subpower.catalog import _hat_key, a6, random_wreath, zmod_algebra
from subpower.circuits import parse_sexpr
from subpower.core import eval_circuit, verify_maltsev
from subpower.wreath import (ClonoidGenSet, Diagonal, Plane, WreathSpec,
                             WreathSpecError, build_wreath, classify_row,
                             clonoid_image_comprep, companion_eval,
                             diff_clonoid_gens, plane_axes, plane_count)


def test_build_wreath_zero_hat_is_direct_product(a6_spec):
    comp = a6_spec.companion
    # every basic operation acts componentwise
    for args in product(range(6), repeat=3):
        val = eval_circuit(comp, comp.maltsev, [(a,) for a in args])[0]
        ls = [a // 2 for a in args]
        us = [a % 2 for a in args]
        expect = ((ls[0] - ls[1] + ls[2]) % 3) * 2 + (us[0] + us[1] + us[2]) % 2
        assert val == expect


def test_build_wreath_a6_is_maltsev(a6_spec):
    assert a6_spec.algebra.size == 6
    assert verify_maltsev(a6_spec.algebra)


def test_build_wreath_rejects_zero_violation():
    left, left_group = zmod_algebra(3)
    right, _ = zmod_algebra(2)
    bad_left_table = tuple((x - y + z + 1) % 3 for x in range(3)
                           for y in range(3) for z in range(3))
    from subpower.core import FiniteAlgebra, Operation
    bad_left = FiniteAlgebra(3, [Operation("m", 3, bad_left_table)],
                             parse_sexpr("(m x1 x2 x3)"), check=False)
    spec = WreathSpec(left=bad_left, left_group=left_group, right=right,
                      hat={"m": (0,) * 8}, maltsev=parse_sexpr("(m x1 x2 x3)"))
    with pytest.raises(WreathSpecError):
        build_wreath(spec)


def test_build_wreath_rejects_bad_hat():
    left, left_group = zmod_algebra(3)
    right, _ = zmod_algebra(2)
    hat = [0] * 8
    hat[0] = 1          # violates the (u,u,v) constraint at u=v=0
    spec = WreathSpec(left=left, left_group=left_group, right=right,
                      hat={"m": tuple(hat)}, maltsev=parse_sexpr("(m x1 x2 x3)"))
    with pytest.raises(WreathSpecError):
        build_wreath(spec)


def test_build_wreath_refuses_a_float_hat_entry():
    # 1.5 would be truncated to the element 1, and the spec would keep it
    spec = a6()
    hat = {sym: list(table) for sym, table in spec.hat.items()}
    hat["m"][_hat_key(0, 1, 0, 2)] = 1.5
    bad = WreathSpec(spec.left, spec.left_group, spec.right, hat,
                     spec.maltsev)
    with pytest.raises(WreathSpecError,
                       match=r"hat\[m\]\[2\] = 1.5 is not an integer"):
        build_wreath(bad)
    hat["m"][_hat_key(0, 1, 0, 2)] = 3
    with pytest.raises(WreathSpecError, match=r"= 3 out of range 0\.\.2"):
        build_wreath(WreathSpec(spec.left, spec.left_group, spec.right, hat,
                                spec.maltsev))


def test_wreath_spec_is_frozen():
    # a mutated spec would keep serving its cached algebra and context
    from dataclasses import FrozenInstanceError

    from subpower.solver import wreath_context
    spec = a6()
    wreath_context(spec)
    table = spec.algebra.op("m").table
    with pytest.raises(TypeError):
        spec.hat["m"] = (0,) * 8
    with pytest.raises(FrozenInstanceError):
        spec.hat = {"m": (0,) * 8}
    assert spec.hat["m"] == a6().hat["m"]
    assert spec.algebra.op("m").table == table


def test_wreath_spec_copies_hat():
    left, left_group = zmod_algebra(3)
    right, _ = zmod_algebra(2)
    hat = {"m": [0] * 8}
    spec = WreathSpec(left=left, left_group=left_group, right=right,
                      hat=hat, maltsev=parse_sexpr("(m x1 x2 x3)"))
    hat["m"][0] = 1
    assert spec.hat["m"] == (0,) * 8


def test_companion_eval_projection(a6_spec):
    from subpower.circuits import variable
    c = variable(1, 2)
    args = [(0, 3), (5, 1)]
    assert companion_eval(a6_spec, c, args) == \
        eval_circuit(a6_spec.algebra, c, args)


def test_companion_eval_differs_by_hat(a6_spec):
    # m(x, y, x) picks up the shift at (u_x, u_y) = (0, 1); the quotient
    # component is the same either way
    c = parse_sexpr("(m x1 x2 x1)")
    args = [(a6_spec.pair(0, 0),), (a6_spec.pair(0, 1),)]
    in_product = companion_eval(a6_spec, c, args)
    in_wreath = eval_circuit(a6_spec.algebra, c, args)
    assert in_product == (a6_spec.pair(0, 1),)
    assert in_wreath == (a6_spec.pair(1, 1),)


def test_diff_clonoid_zero_hat_empty(a6_spec):
    left, left_group = zmod_algebra(3)
    right, _ = zmod_algebra(2)
    flat = WreathSpec(left=left, left_group=left_group, right=right,
                      hat={"m": (0,) * 8}, maltsev=parse_sexpr("(m x1 x2 x3)"))
    gens = diff_clonoid_gens(flat)
    assert gens.unary == () and gens.binary == ()


def test_diff_clonoid_a6(a6_spec):
    gens = diff_clonoid_gens(a6_spec)
    assert gens.exact
    assert gens.unary == ()
    assert len(gens.binary) == 1
    g = gens.binary[0]
    assert g[0 * 2 + 1] != 0
    assert all(g[x * 2 + x] == 0 for x in range(2))


def test_clonoid_generators_are_frozen(a6_spec):
    """``pair_bases`` is kept on the generator set, so the set and the
    bases refuse writes."""
    gens = diff_clonoid_gens(a6_spec)
    bases, ranks = gens.pair_bases
    with pytest.raises(AttributeError):
        gens.binary.append((0, 1, 2, 0))
    with pytest.raises(AttributeError):
        gens.binary = ()
    with pytest.raises(ValueError):
        bases[0, 0, 0] = 1
    assert len(gens.binary) == 1 and gens.pair_bases[0] is bases


def test_diff_clonoid_shifted_unary(a6e_spec):
    gens = diff_clonoid_gens(a6e_spec)
    assert gens.exact
    assert gens.unary, "the unary symbol's shift must appear"


def test_diff_clonoid_w15(w15_spec):
    gens = diff_clonoid_gens(w15_spec)
    assert gens.binary
    for g in gens.binary:
        assert all(g[x * 3 + x] == 0 for x in range(3))


def test_classify_row_examples():
    assert classify_row((2, 2, 2), 3) == Diagonal(2)
    assert classify_row((1, 2), 3) == Plane(axis=(0, 1), x=1, y=2)
    assert classify_row((0, 1, 1), 2) == Plane(axis=(0, 1, 1), x=0, y=1)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_plane_cover_exhaustive(p, n):
    axes = plane_axes(p, n)
    assert len(axes) == plane_count(p, n)
    point_owners = {}
    for c in axes:
        for w in plane_points(p, c):
            if all(v == w[0] for v in w):
                continue
            assert w not in point_owners, "planes must not overlap off-diagonal"
            point_owners[w] = c
    off_diag = [w for w in product(range(p), repeat=n)
                if not all(v == w[0] for v in w)]
    assert sorted(point_owners) == sorted(off_diag)
    for w in off_diag:
        kind = classify_row(w, p)
        assert isinstance(kind, Plane)
        assert kind.axis == point_owners[tuple(w)]
        rebuilt = tuple((kind.x * (1 - ci) + kind.y * ci) % p
                        for ci in kind.axis)
        assert rebuilt == tuple(w)


def test_classify_row_needs_two_columns():
    from subpower.core import AlgebraError
    with pytest.raises(AlgebraError):
        classify_row((1,), 3)


def literal_unary_image(f, w, p, modulus):
    """The defining sum over all coefficient rows with total 1."""
    total = 0
    n = len(w)
    for a in product(range(p), repeat=n):
        if sum(a) % p != 1:
            continue
        v = sum(ai * wi for ai, wi in zip(a, w)) % p
        total = (total + f[v]) % modulus
    return total


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("modulus", [5, 6])
def test_unary_collapse_rule_equals_literal_sum(p, n, modulus):
    group = AbelianGroupSpec((modulus,))
    diag_scale = pow(p, n - 1, modulus)
    plane_scale = pow(p, n - 2, modulus)
    for f in product(range(modulus), repeat=p):
        fsum = sum(f) % modulus
        for w in product(range(p), repeat=n):
            literal = literal_unary_image(f, w, p, modulus)
            if all(v == w[0] for v in w):
                collapsed = (diag_scale * f[w[0]]) % modulus
            else:
                collapsed = (plane_scale * fsum) % modulus
            assert collapsed == literal


def test_unary_rule_n1_is_f_itself():
    p, modulus = 3, 5
    for f in product(range(modulus), repeat=p):
        for w in range(p):
            assert literal_unary_image(f, (w,), p, modulus) == f[w]


def test_clonoid_image_all_diagonal_rows_zero():
    g3 = AbelianGroupSpec((3,))
    cg = ClonoidGenSet(p=2, group=g3, unary=[],
                       binary=[(0, 1, 0, 0)])
    img = clonoid_image_comprep(cg, [(0, 1, 0), (0, 1, 0)])
    assert img.generators == []


def test_clonoid_image_single_plane_example():
    g3 = AbelianGroupSpec((3,))
    cg = ClonoidGenSet(p=2, group=g3, unary=[], binary=[(0, 1, 0, 0)])
    img = clonoid_image_comprep(cg, [(0, 0, 1), (0, 1, 1)])
    assert img.generators == [(0, 1, 0)]


def test_clonoid_image_unary_collapse():
    g3 = AbelianGroupSpec((3,))
    cg = ClonoidGenSet(p=2, group=g3, unary=[(0, 1)], binary=[])
    img = clonoid_image_comprep(cg, [(0, 0), (0, 1)])
    # rows: (0,0) diagonal -> 2*f(0) = 0; (0,1) off-diagonal -> f(0)+f(1) = 1
    assert img.generators == [(0, 1)]


def test_clonoid_image_diagonal_zero_invariant(a6_spec):
    gens = diff_clonoid_gens(a6_spec)
    rng = random.Random(3)
    for _ in range(20):
        k = rng.randint(1, 4)
        n = rng.randint(2, 3)
        cols = [tuple(rng.randrange(2) for _ in range(k)) for _ in range(n)]
        img = clonoid_image_comprep(gens, cols)
        rows = [tuple(c[i] for c in cols) for i in range(k)]
        for tag, vec in img.emitted:
            if tag[0] != "binary":
                continue
            for i, row in enumerate(rows):
                if all(v == row[0] for v in row):
                    assert vec[i] == 0


def test_clonoid_closure_under_substitution_and_sums(a6_spec):
    # images stay inside the generated subgroup under inner affine
    # substitution of the columns and under sums of generators
    gens = diff_clonoid_gens(a6_spec)
    group = gens.group
    rng = random.Random(4)
    for _ in range(10):
        k = rng.randint(1, 4)
        n = 2
        cols = [tuple(rng.randrange(2) for _ in range(k)) for _ in range(n)]
        img = clonoid_image_comprep(gens, cols)
        span = expand_subgroup(group, img.generators, k)
        # substituted columns: (x, y) -> (y, x) and (x, x)
        for sub in ([1, 0], [0, 0]):
            sub_cols = [cols[j] for j in sub]
            sub_img = clonoid_image_comprep(gens, sub_cols)
            for gvec in sub_img.generators:
                assert tuple(gvec) in span or True
                # substituted images live in the clonoid over the original
                # columns only when the substitution maps are affine in the
                # original ones; (y, x) and (x, x) are, so check membership
                assert tuple(gvec) in span


def test_random_wreath_valid():
    for seed in range(3):
        spec = random_wreath(2, 3, seed)
        assert verify_maltsev(spec.algebra)
        spec5 = random_wreath(3, 5, seed)
        assert verify_maltsev(spec5.algebra)
