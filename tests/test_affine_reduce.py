"""Affine verdicts by one tracked reduction, checked against the Mal'tsev
chain over the compact representation and against the exhaustive oracle;
the closure span, tracked from the start, against a second elimination of
its raw differences; and a witness that costs no elimination."""

import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from conftest import golden_module
from subpower.affine import (Echelon, FieldEchelon, affine_closure_comprep,
                             affine_span, is_prime)
from subpower.catalog import zmod_group_algebra
from subpower.comprep import maltsev_chain_member
from subpower.core import ClosureCapExceeded, smp_oracle
from subpower.instances import _random_term_value
from subpower.solver import SmpInstance, check_witness, dispatch

ORACLE_CAP = 20_000

ALGEBRAS = {f"Z_{m}": zmod_group_algebra(m) for m in (2, 4, 6, 12)}
# Z_2 x Z_4 with zero 5, from the golden corpus
ALGEBRAS["Z_2 x Z_4, zero 5"] = golden_module().z2_z4_algebra()

# composite exponents (Howell), a prime one (GF(7)), and Z_2 x Z_4, whose
# non-scalar unary ``a`` grows the closure queue
SPANS = {f"Z_{m}": zmod_group_algebra(m) for m in (12, 9, 4, 30, 7)}
SPANS["Z_2 x Z_4, zero 5"] = ALGEBRAS["Z_2 x Z_4, zero 5"]


@st.composite
def instances(draw):
    """An algebra, generators, and either a random term's value on them (a
    member) or a uniform target."""
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    alg, _ = ALGEBRAS[name]
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, alg.size - 1), min_size=k, max_size=k)
    gens = [tuple(g) for g in draw(st.lists(row, min_size=n, max_size=n))]
    pool = list(gens)
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(alg.ops))
        args = [pool[draw(st.integers(0, len(pool) - 1))]
                for _ in range(op.arity)]
        pool.append(tuple(alg.apply(op.symbol, tuple(a[i] for a in args))
                          for i in range(k)))
    is_term = draw(st.booleans())
    target = pool[-1] if is_term else tuple(draw(row))
    return name, SmpInstance(tuple(gens), target), is_term


@settings(max_examples=200, deadline=None)
@given(instances())
def test_reduction_agrees_with_chain_and_oracle(case):
    name, inst, is_term = case
    alg_input = ALGEBRAS[name]
    alg, group = alg_input
    verdict = dispatch(alg_input, inst)
    comp = affine_closure_comprep(alg, group, inst.generators)
    chained = maltsev_chain_member(alg, comp, inst.target) is not None
    assert verdict.member == chained
    try:
        assert verdict.member == smp_oracle(alg, inst.generators, inst.target,
                                            cap=ORACLE_CAP)
    except ClosureCapExceeded:
        pass
    if is_term:
        assert verdict.member
    if verdict.member:
        assert check_witness(alg_input, inst, verdict)
    else:
        assert verdict.witness is None


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(SPANS)), k=st.integers(1, 5),
       data=st.data())
def test_tracked_span_is_the_two_pass_echelon(name, k, data):
    """``tracked_echelon``'s canonical rows, coefficients, tail rows and
    reductions are those of a second, sequential elimination of the raw
    differences alone.  It is the closure span itself when that is one
    echelon: the sequential span, or over a prime the lifted span's
    ``FieldEchelon``; over a composite exponent a lifted span holds none,
    and a Howell echelon is made on this first read."""
    alg, group = SPANS[name]
    row = st.tuples(*[st.integers(0, alg.size - 1)] * k)
    gens = data.draw(st.lists(row, min_size=1, max_size=4))
    rep = affine_span(alg, group, gens)
    ech = rep.tracked_echelon
    if rep.lifted is None:
        assert ech is rep.echelon
    elif is_prime(group.exponent):
        assert rep.echelon is None and ech is rep.lifted.echelons[0]
    else:
        assert rep.echelon is None and isinstance(ech, Echelon)
    m, width = group.exponent, len(rep.base_flat)
    reference = ref.ReferenceEchelon(m, width, max(len(rep.raw), 1))
    for vec in rep.raw_rows:
        assert reference.insert(vec)      # every raw difference grows it
    reference.canonicalize()
    assert [r.tolist() for r in ech.rows] == \
        [r.tolist() for r in reference.rows]
    assert [c.tolist() for c in ech.coeffs] == \
        [c.tolist() for c in reference.coeffs]
    for start in range(width + 2):
        assert ech.tail_rows(start) == reference.tail_rows(start)
    combo = data.draw(st.lists(st.integers(0, m - 1), min_size=len(rep.raw),
                               max_size=len(rep.raw)))
    member = np.asarray(combo, dtype=np.int64) @ rep.raw_rows % m
    for t in (member, data.draw(st.lists(st.integers(0, m - 1),
                                         min_size=width, max_size=width))):
        residue, coeffs = ech.reduce(t)
        want_residue, want_coeffs = reference.reduce(t)
        assert residue.tolist() == want_residue.tolist()
        assert coeffs.tolist() == want_coeffs.tolist()


@contextmanager
def _counting_eliminations():
    """Count the vectors eliminated into a span: Howell ``insert`` calls
    (``Echelon.extend`` makes one per row) and ``FieldEchelon.extend``
    rows."""
    counts = {"rows": 0}
    insert, extend = Echelon.insert, FieldEchelon.extend

    def counted_insert(self, v):
        counts["rows"] += 1
        return insert(self, v)

    def counted_extend(self, rows, kernel=False):
        counts["rows"] += len(rows)
        return extend(self, rows, kernel=kernel)

    with mock.patch.object(Echelon, "insert", counted_insert), \
            mock.patch.object(FieldEchelon, "extend", counted_extend):
        yield counts


@pytest.mark.parametrize("name", sorted(SPANS))
def test_a_witness_costs_no_second_elimination(name):
    """A member solve with its witness eliminates exactly the vectors of
    the solve without one.  Reading ``tracked_echelon`` then eliminates
    nothing over a prime exponent or on the sequential span, and the raw
    differences once over a composite exponent whose span was lifted."""
    alg, group = SPANS[name]
    rng = random.Random(5)
    for _ in range(4):
        gens = [[rng.randrange(alg.size) for _ in range(4)]
                for _ in range(3)]
        inst = SmpInstance(gens, _random_term_value(alg, gens, rng))
        rows = []
        for want in (False, True):
            with _counting_eliminations() as counts:
                verdict = dispatch((alg, group), inst, want_witness=want)
            assert verdict.member and (verdict.witness is not None) == want
            rows.append(counts["rows"])
        assert rows[0] == rows[1] > 0
        rep = affine_span(alg, group, gens)
        with _counting_eliminations() as counts:
            rep.tracked_echelon
        composite = not is_prime(group.exponent)
        lifted = rep.lifted is not None
        assert counts["rows"] == (len(rep.raw) if composite and lifted else 0)
