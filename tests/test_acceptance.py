"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 1 compares the polynomial solver against the exhaustive oracle on
seeded random instances over the full size envelope (k <= 5, n <= 4, all
three member biases).  Instance shapes are stratified so that the oracle
side stays enumerable under its cap; draws whose closure overflows the cap
are skipped and replaced, per the oracle-feasibility proviso, and the
skipped count is reported.
"""

import random
import time
from itertools import product

import pytest

from conftest import expand_subgroup, oracle_rep
from reference_impl import _companion_key, _hat_of_table, plane_points
from subpower.affine import affine_span, span_members
from subpower.catalog import a6, a6_shift, w15, zmod_algebra
from subpower.comprep import fix_value, signature
from subpower.core import (ClosureCapExceeded, clone_enumerate, smp_oracle,
                           subpower_closure)
from subpower.instances import random_instance
from subpower.solver import SmpInstance, check_witness, solve_smp_wreath
from subpower.wreath import (Plane, classify_row, clonoid_image_comprep,
                             diff_clonoid_gens, plane_axes, plane_count)

PASS = "ACCEPTANCE {num} ({name}): PASS ({detail})"


@pytest.fixture(scope="module")
def a6_spec():
    return a6()


@pytest.fixture(scope="module")
def w15_spec():
    return w15()


# ---------------------------------------------------------------------------
# 1. oracle equivalence

def _feasible_shape(rng, algebra_name):
    """Instance shapes spanning k <= 5, n <= 4 with enumerable closures."""
    if algebra_name == "a6":
        k = rng.randint(1, 5)
        n = rng.randint(1, 4) if k <= 4 else rng.randint(1, 2)
    else:
        n = rng.randint(1, 4)
        k = rng.randint(1, 5) if n <= 2 else rng.randint(1, 2)
    return k, n


def test_criterion_1_oracle_equivalence(a6_spec, w15_spec):
    started = time.perf_counter()
    compared = 0
    skipped = 0
    witnessed = 0
    biases = [0.0, 0.5, 1.0]
    for name, spec, base_seed in (("a6", a6_spec, 10_000),
                                  ("w15", w15_spec, 20_000)):
        alg = spec.algebra
        shape_rng = random.Random(base_seed)
        seed = base_seed
        done = 0
        while done < 260:
            seed += 1
            k, n = _feasible_shape(shape_rng, name)
            bias = biases[seed % 3]
            inst_dict = random_instance(spec, k, n, bias, seed=seed)
            inst = SmpInstance(
                tuple(tuple(g) for g in inst_dict["generators"]),
                tuple(inst_dict["target"]))
            try:
                expected = smp_oracle(alg, inst.generators, inst.target,
                                      cap=6000)
            except ClosureCapExceeded:
                skipped += 1
                continue
            verdict = solve_smp_wreath(spec, inst)
            assert verdict.member == expected, (name, seed, inst)
            if verdict.member:
                assert check_witness(spec, inst, verdict), (name, seed)
                witnessed += 1
            compared += 1
            done += 1
    elapsed = time.perf_counter() - started
    assert compared >= 500
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    print(PASS.format(num=1, name="oracle equivalence",
                      detail=f"{compared} instances agree, {witnessed} "
                             f"witnesses verified, {skipped} oracle-capped "
                             f"draws skipped, {elapsed:.1f}s"))


# ---------------------------------------------------------------------------
# 2. Fix-Value correctness

def test_criterion_2_fix_value(a6_spec):
    z3_alg, _ = zmod_algebra(3)
    checked = 0
    for alg, size, seed0 in ((a6_spec.algebra, 6, 0), (z3_alg, 3, 100)):
        for seed in range(seed0, seed0 + 25):
            rng = random.Random(seed)
            k = rng.randint(1, 4)
            n = rng.randint(1, 3)
            gens = [tuple(rng.randrange(size) for _ in range(k))
                    for _ in range(n)]
            closed = subpower_closure(alg, gens)
            rep = oracle_rep(alg, gens)
            for a in range(size):
                fixed = fix_value(alg, rep, a)
                want = signature(sorted(t for t in closed if t[0] == a))
                assert fixed.sig() == want
                assert fixed.check_circuits(alg)
                assert len(fixed.entries) <= 2 * k * size ** 2
                checked += 1
    print(PASS.format(num=2, name="fix-value",
                      detail=f"{checked} fixings match brute force"))


# ---------------------------------------------------------------------------
# 3. affine compact representations

def test_criterion_3_affine_comprep(a6_spec):
    cases = []
    for order in (3, 4, 6):
        alg, group = zmod_algebra(order)
        cases.append((alg, group, order))
    cases.append((a6_spec.companion, a6_spec.companion_group, 6))
    total = 0
    for alg, group, size in cases:
        for seed in range(25):
            rng = random.Random(1000 * size + seed)
            k = rng.randint(1, 4)
            n = rng.randint(1, 3)
            gens = [tuple(rng.randrange(alg.size) for _ in range(k))
                    for _ in range(n)]
            rep = affine_span(alg, group, gens)
            assert span_members(rep) == subpower_closure(alg, gens)
            from subpower.affine import coset_compact_rep
            comp = coset_compact_rep(rep)
            assert comp.check_circuits(alg)
            assert signature(comp.tuples()) == \
                signature(sorted(span_members(rep)))
            total += 1
    assert total == 100
    print(PASS.format(num=3, name="affine compact representations",
                      detail=f"{total} generator sets expand to the oracle "
                             "closure, circuits verified"))


# ---------------------------------------------------------------------------
# 4. plane geometry

def test_criterion_4_plane_geometry():
    checked = 0
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            axes = plane_axes(p, n)
            assert len(axes) == plane_count(p, n) == \
                (p ** (n - 1) - 1) // (p - 1)
            owners = {}
            for c in axes:
                for w in plane_points(p, c):
                    if all(v == w[0] for v in w):
                        continue
                    assert w not in owners
                    owners[w] = c
            for w in product(range(p), repeat=n):
                if all(v == w[0] for v in w):
                    continue
                kind = classify_row(w, p)
                assert isinstance(kind, Plane)
                assert kind.axis == owners[w]
                rebuilt = tuple((kind.x * (1 - ci) + kind.y * ci) % p
                                for ci in kind.axis)
                assert rebuilt == w
                checked += 1
    print(PASS.format(num=4, name="plane geometry",
                      detail=f"{checked} vectors uniquely classified, "
                             "counts match"))


# ---------------------------------------------------------------------------
# 5. diagonal collapse rule

def _literal_unary_image(f, w, p, modulus):
    total = 0
    for a in product(range(p), repeat=len(w)):
        if sum(a) % p != 1:
            continue
        v = sum(ai * wi for ai, wi in zip(a, w)) % p
        total = (total + f[v]) % modulus
    return total


def test_criterion_5_collapse_rule():
    checked = 0
    for p in (2, 3):
        for modulus in (5, 6):
            tables = list(product(range(modulus), repeat=p))
            for n in (2, 3, 4):
                diag_scale = pow(p, n - 1, modulus)
                plane_scale = pow(p, n - 2, modulus)
                for f in tables:
                    fsum = sum(f) % modulus
                    for w in product(range(p), repeat=n):
                        literal = _literal_unary_image(f, w, p, modulus)
                        if all(v == w[0] for v in w):
                            assert literal == (diag_scale * f[w[0]]) % modulus
                        else:
                            assert literal == (plane_scale * fsum) % modulus
                        checked += 1
            for f in tables:
                for w in range(p):
                    assert _literal_unary_image(f, (w,), p, modulus) == f[w]
                    checked += 1
    print(PASS.format(num=5, name="diagonal collapse rule",
                      detail=f"{checked} sums match the closed form"))


# ---------------------------------------------------------------------------
# 6. difference-clonoid images

@pytest.fixture(scope="module")
def a6_clone_tables(a6_spec):
    """Term tables of the product algebra at arities 1..3 (exhaustive)."""
    alg = a6_spec.algebra
    return {n: [t for t, _ in clone_enumerate(alg, n, cap=20_000)]
            for n in (1, 2, 3)}


def _difference_functions(spec, tables, arity):
    """All shift differences of same-companion term tables, as tables."""
    buckets = {}
    for t in tables:
        buckets.setdefault(_companion_key(spec, t, arity), []).append(t)
    group = spec.left_group
    diffs = set()
    for members in buckets.values():
        hats = [_hat_of_table(spec, t, arity) for t in members]
        for h1 in hats:
            for h2 in hats:
                diffs.add(tuple(group.add(a, group.neg(b))
                                for a, b in zip(h1, h2)))
    return diffs


def test_criterion_6_clonoid_images(a6_spec, a6_clone_tables):
    gens = diff_clonoid_gens(a6_spec)
    assert gens.exact
    for g in gens.binary:
        assert all(g[x * 2 + x] == 0 for x in range(2))
    group = a6_spec.left_group
    p = a6_spec.p
    compared = 0
    for n in (1, 2, 3):
        diffs = _difference_functions(a6_spec, a6_clone_tables[n], n)
        for k in range(1, 5):
            for rows in product(product(range(p), repeat=n), repeat=k):
                cols = [tuple(r[j] for r in rows) for j in range(n)]
                image = clonoid_image_comprep(gens, cols)
                artifact = expand_subgroup(group, image.generators, k)
                brute = {tuple(d[_row_index(r, p)] for r in rows)
                         for d in diffs}
                assert artifact == brute, (n, k, rows)
                compared += 1
    print(PASS.format(num=6, name="difference-clonoid images",
                      detail=f"{compared} column matrices agree with "
                             "term-enumeration differences"))


def _row_index(row, p):
    idx = 0
    for v in row:
        idx = idx * p + v
    return idx


# ---------------------------------------------------------------------------
# 7. scaling

def test_criterion_7_scaling(a6_spec):
    k, n = 200, 40
    inst_dict = random_instance(a6_spec, k, n, member_bias=0.0, seed=777)
    inst = SmpInstance(tuple(tuple(g) for g in inst_dict["generators"]),
                       tuple(inst_dict["target"]))
    solve_smp_wreath(a6_spec, inst)      # warm the cached context
    started = time.perf_counter()
    verdict = solve_smp_wreath(a6_spec, inst)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"solver took {elapsed:.2f}s"
    size = a6_spec.size
    from subpower.solver import wreath_context
    ctx = wreath_context(a6_spec)
    gens_count = len(ctx.gens.unary) + len(ctx.gens.binary)
    bound = 4 * ((k + n * size) * size ** 2) + 4 * k * (size + gens_count)
    tuples = verdict.stats["tuples_materialized"]
    assert tuples <= bound, (tuples, bound)
    with pytest.raises(ClosureCapExceeded):
        smp_oracle(a6_spec.algebra, inst.generators, inst.target, cap=1000)
    print(PASS.format(num=7, name="scaling",
                      detail=f"k={k}, n={n} solved in {elapsed * 1000:.0f} ms, "
                             f"{tuples} tuples (bound {bound}), oracle cap "
                             "exceeded as expected"))


def test_criterion_7_member_path_scaling(a6_spec):
    """The member path at criterion 7's size and bound: the quotient fix,
    kernel, member evaluation, clonoid image, subgroup test and witness."""
    k, n = 200, 40
    inst_dict = random_instance(a6_spec, k, n, member_bias=1.0, seed=777)
    inst = SmpInstance(tuple(tuple(g) for g in inst_dict["generators"]),
                       tuple(inst_dict["target"]))
    solve_smp_wreath(a6_spec, inst, want_witness=False)   # warm the context
    started = time.perf_counter()
    verdict = solve_smp_wreath(a6_spec, inst, want_witness=True)
    elapsed = time.perf_counter() - started
    assert verdict.member and check_witness(a6_spec, inst, verdict)
    assert elapsed < 5.0, f"solver took {elapsed:.2f}s"
    print(PASS.format(num="7b", name="member-path scaling",
                      detail=f"k={k}, n={n} member solved with its witness "
                             f"in {elapsed * 1000:.0f} ms"))


# ---------------------------------------------------------------------------
# 8. witness soundness

def test_criterion_8_witness_soundness(a6_spec, w15_spec):
    checked = 0
    suites = [(a6_spec, 500), (w15_spec, 600), (a6_shift(), 700)]
    for spec, base_seed in suites:
        alg = spec.algebra
        for seed in range(base_seed, base_seed + 40):
            rng = random.Random(seed)
            n = rng.randint(1, 3)
            k = rng.randint(1, 4) if n <= 2 else rng.randint(1, 3)
            inst_dict = random_instance(spec, k, n, member_bias=0.8,
                                        seed=seed)
            inst = SmpInstance(
                tuple(tuple(g) for g in inst_dict["generators"]),
                tuple(inst_dict["target"]))
            verdict = solve_smp_wreath(spec, inst)
            if verdict.member:
                assert verdict.witness is not None
                assert check_witness(spec, inst, verdict), (seed,)
                checked += 1
    assert checked >= 60
    print(PASS.format(num=8, name="witness soundness",
                      detail=f"{checked} member witnesses re-evaluate to "
                             "their targets"))
