"""The fully reduced GF(q) echelon against the sequential Howell
echelons: the same span, membership and canonical rows.  The GF(q)
echelon grows only by ``extend``; a one-row block is one step of
sequential elimination.  Over a prime exponent ``tracked_echelon`` is a
GF(q) echelon with the Howell one's canonical rows and coefficients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from subpower.affine import Echelon, FieldEchelon, affine_span
from subpower.catalog import zmod_algebra, zmod_group_algebra
from subpower.core import AlgebraError


def _vectors(draw, fresh, combine, count):
    """Zero, duplicate, dependent or fresh vectors, in draw order."""
    out = []
    for _ in range(count):
        kind = draw(st.sampled_from(
            ["fresh", "fresh", "zero", "duplicate", "dependent"]))
        if kind == "duplicate" and out:
            vec = draw(st.sampled_from(out))
        elif kind == "dependent" and out:
            vec = combine(draw(st.sampled_from(out)), draw(st.sampled_from(out)),
                          draw(st.integers(0, 30)))
        else:
            vec = draw(fresh)
            if kind == "zero":
                vec = [0] * len(vec)
        out.append(vec)
    return out


@st.composite
def field_runs(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    width = draw(st.integers(0, 12))
    tracked = draw(st.booleans())
    fresh = st.lists(st.integers(-q, 2 * q), min_size=width, max_size=width)
    gens = _vectors(draw, fresh,
                    lambda u, v, c: [c * a + b for a, b in zip(u, v)],
                    draw(st.integers(0, 10)))
    targets = draw(st.lists(fresh, max_size=3)) + gens[-2:]
    return q, width, tracked, gens, targets


@settings(max_examples=300, deadline=None)
@given(field_runs())
def test_field_echelon_matches_reference(run):
    q, width, tracked, gens, targets = run
    track = max(len(gens), 1) if tracked else None
    old, new = ref.ReferenceEchelon(q, width, track), FieldEchelon(q, width, track)
    for v in gens:
        assert new.extend([v]) == old.insert(v)
    assert new.span_size() == old.span_size()
    assert sorted(new.pivots) == sorted(old.pivots)
    basis = np.asarray(gens, dtype=np.int64).reshape(len(gens), width)
    for t in targets + gens:
        residue, coeffs = new.reduce(t)
        old_residue, _ = old.reduce(t)
        # over a field the residue is the unique one vanishing on the pivots
        assert residue.tolist() == old_residue.tolist()
        assert new.contains_rows(np.reshape(t, (1, width)))[0] == \
            old.contains(t) == (not residue.any())
        if tracked:
            assert np.array_equal(coeffs[:len(gens)] @ basis % q,
                                  (np.asarray(t) - residue) % q)
        else:
            assert coeffs is None
    assert new.contains_rows(np.asarray(targets, dtype=np.int64)
                             .reshape(len(targets), width)).tolist() == \
        [old.contains(t) for t in targets]
    if tracked:
        for row, c in zip(new.rows, new.coeffs):
            assert np.array_equal(c[:len(gens)] @ basis % q, row)
    old.canonicalize()
    new.canonicalize()
    assert [r.tolist() for r in new.rows] == [r.tolist() for r in old.rows]
    for start in range(width + 2):
        assert new.tail_rows(start) == old.tail_rows(start)
    # sorting the rows keeps the span
    for t in targets:
        assert new.reduce(t)[0].tolist() == old.reduce(t)[0].tolist()


def test_field_echelon_rejects_bad_input():
    with pytest.raises(AlgebraError):
        FieldEchelon(6, 3)
    with pytest.raises(AlgebraError):
        FieldEchelon(3, 2).extend([[1, 0, 0]])
    tracked = FieldEchelon(3, 2, track=1)
    tracked.extend([[1, 0]])
    with pytest.raises(AlgebraError):
        tracked.extend([[0, 1]])


def test_field_echelon_rows_stay_valid():
    ech = FieldEchelon(5, 3)
    ech.extend([[1, 2, 3]])
    first = ech.rows[0]
    ech.extend([[0, 1, 4]])
    assert first.tolist() == [1, 2, 3]
    assert ech.rows[0].tolist() == [1, 0, (3 - 2 * 4) % 5]


@st.composite
def seeded_runs(draw):
    """Seed vectors, whose canonical rows seed an echelon, then rows to
    extend it by, in two blocks: fresh, zero, duplicate or dependent ones,
    some in the seeds' span, and some combinations of every earlier row,
    whose unreduced entries take an update from each pivot before them."""
    q = draw(st.sampled_from([2, 3, 5, 7, 31, 65521]))
    width = draw(st.integers(0, 12))
    fresh = st.lists(st.integers(-q, 2 * q), min_size=width, max_size=width)

    def combine(u, v, c):
        return [(c * a + b) % q for a, b in zip(u, v)]

    seeds = _vectors(draw, fresh, combine, draw(st.integers(0, 8)))
    rows = _vectors(draw, fresh, combine, draw(st.integers(0, 16)))
    for _ in range(draw(st.integers(0, 4)) if seeds else 0):
        rows.insert(draw(st.integers(0, len(rows))),
                    combine(draw(st.sampled_from(seeds)),
                            draw(st.sampled_from(seeds)),
                            draw(st.integers(0, 30))))
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        at = draw(st.integers(1, len(rows)))
        coeffs = draw(st.lists(st.integers(0, q - 1), min_size=at,
                               max_size=at))
        rows.insert(at, [sum(c * row[i] for c, row in zip(coeffs, rows)) % q
                         for i in range(width)])
    split = draw(st.integers(0, len(rows)))
    return q, width, draw(st.booleans()), seeds, rows, split


@settings(max_examples=300, deadline=None)
@given(seeded_runs())
def test_seeded_extend_matches_inserts(run):
    """An echelon seeded with canonical rows by one block, then extended by
    two blocks, against one-row blocks in sequence (the same state), and
    against the reference's sequential Howell inserts (the same canonical
    rows)."""
    q, width, tracked, seeds, rows, split = run
    canon = FieldEchelon(q, width)
    for v in seeds:
        canon.extend([v])
    canon.canonicalize()
    basis = np.asarray(canon.rows, dtype=np.int64).reshape(
        len(canon.rows), width)
    rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), width)
    gens = np.vstack([basis, rows])
    track = max(len(gens), 1) if tracked else None
    old = FieldEchelon(q, width, track)
    for v in gens:
        old.extend(v[None])
    new = FieldEchelon(q, width, track)
    new.extend(basis)
    # the canonical rows stay as they are, each in its own generator slot
    assert [r.tolist() for r in new.rows] == basis.tolist()
    # two blocks: the second starts past the first's generator slots
    new.extend(rows[:split])
    new.extend(rows[split:])
    assert np.array_equal(new._aug, old._aug)
    assert new._cols.tolist() == old._cols.tolist()
    assert new.pivots == old.pivots
    assert [None if c is None else c.tolist() for c in new.coeffs] == \
        [None if c is None else c.tolist() for c in old.coeffs]
    assert new._gen_count == old._gen_count == len(basis) + len(rows)
    howell = Echelon(q, width, track)
    howell.extend(gens)
    assert new.span_size() == howell.span_size()
    reference = ref.ReferenceEchelon(q, width, track)
    for v in gens:
        reference.insert(v)
    if tracked:
        for ech in (new, reference):
            for row, c in zip(ech.rows, ech.coeffs):
                assert np.array_equal(c[:len(gens)] @ gens % q, row)
    new.canonicalize()
    reference.canonicalize()
    assert [r.tolist() for r in new.rows] == \
        [r.tolist() for r in reference.rows]


@settings(max_examples=300, deadline=None)
@given(seeded_runs())
def test_extend_reports_the_kernel(run):
    """With `kernel`, two blocks leave the state of one-row blocks, and
    return, for each generator that did not grow the span, in order, a
    coefficient row with 1 at its slot and 0 past it that combines the
    generators to zero: a basis of the combinations that vanish."""
    q, width, _, seeds, rows, split = run
    gens = np.asarray(seeds + rows, dtype=np.int64).reshape(
        len(seeds) + len(rows), width)
    cut = len(seeds) + split
    track = max(len(gens), 1)
    old = FieldEchelon(q, width, track)
    grew = [old.extend(v[None]) for v in gens]
    new = FieldEchelon(q, width, track)
    first = new.extend(gens[:cut], kernel=True)
    second = new.extend(gens[cut:], kernel=True)
    assert np.array_equal(new._aug, old._aug)
    assert new._cols.tolist() == old._cols.tolist()
    assert new._gen_count == old._gen_count
    kernel = np.vstack([first, second])
    assert kernel.shape == (grew.count(False), track)
    assert kernel.dtype == np.int64
    assert kernel.min(initial=0) >= 0 and kernel.max(initial=0) < q
    for row, j in zip(kernel, [j for j, g in enumerate(grew) if not g]):
        assert row[j] == 1 and not row[j + 1:].any()
        assert not (row[:len(gens)] @ gens % q).any()


def test_field_echelon_keeps_products_inside_int64():
    # width * (q - 1)^2 + q must stay below 2^63
    with pytest.raises(AlgebraError, match="2\\^63"):
        FieldEchelon(2**31 - 1, 4)
    big = FieldEchelon(65521, 10**6)
    assert big.span_size() == 1
    # the largest entries a block can hold, eliminated exactly, in the
    # loop types int32 and int64
    for q, loop_type in ((251, np.int32), (65521, np.int64)):
        rows = np.full((3, 3), q - 1, dtype=np.int64)
        rows[1, 0] = rows[2, 1] = 1
        old, new = FieldEchelon(q, 3, 3), FieldEchelon(q, 3, 3)
        assert new._loop_type == loop_type
        for v in rows:
            old.extend(v[None])
        new.extend(rows)
        assert np.array_equal(new._aug, old._aug)


def test_pivot_loop_runs_in_the_narrowest_type():
    """The loop type holds width * (q - 1)^2 + q and no narrower type
    does."""
    for q, width, loop_type in ((2, 126, np.int8), (2, 127, np.int16),
                                (3, 60, np.int16), (3, 8191, np.int16),
                                (3, 8192, np.int32), (7, 800, np.int16),
                                (65521, 1, np.int64)):
        assert FieldEchelon(q, width)._loop_type == loop_type


def test_extend_rejects_more_generators_than_slots():
    ech = FieldEchelon(3, 2, track=2)
    ech.extend([[1, 0]])
    with pytest.raises(AlgebraError):
        ech.extend([[1, 0], [0, 1]])
    # a kernel is read from the coefficient rows
    with pytest.raises(AlgebraError):
        FieldEchelon(3, 2).extend([[1, 0]], kernel=True)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.booleans(), st.integers(1, 5),
       st.data())
def test_tracked_echelon_over_a_prime_matches_howell(m, full, k, data):
    """Compact representations and affine witnesses read the canonical rows
    and coefficients of ``tracked_echelon``, a FieldEchelon over a prime
    exponent: they are those of sequential Howell elimination."""
    alg, group = (zmod_group_algebra if full else zmod_algebra)(m)
    gens = data.draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * k),
                              min_size=1, max_size=4))
    rep = affine_span(alg, group, gens)
    ech = rep.tracked_echelon
    assert isinstance(ech, FieldEchelon)
    width = len(rep.base_flat)
    reference = ref.ReferenceEchelon(m, width, max(len(rep.raw), 1))
    for row in rep.raw_rows:
        reference.insert(row)
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
        old_residue, old_coeffs = reference.reduce(t)
        assert residue.tolist() == old_residue.tolist()
        assert coeffs.tolist() == old_coeffs.tolist()
