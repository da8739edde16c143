"""Seeded inputs of the benchmark workloads, each with a verdict fixed by
its construction.

Every case is labelled before the solver sees it, by a rule that does not
use the solver:

* ``member``: the target is the value of a random term on the generators
  (``random_instance`` with ``member_bias=1.0``).  A target equal to one of
  the generators is redrawn, because its witness is a bare variable and it
  would time nothing but the trivial path.
* ``quotient``: a wreath-product target whose u-parts lie outside the
  GF(p) affine hull of the generators' u-parts.  Every member's u-part lies
  in that hull, so the target is a non-member, rejected by the quotient fix.
* ``probe``: a member target, after coordinate ``j`` of the generators and
  the target has been overwritten by coordinate ``i``, with the l-part of
  the target at ``j`` shifted and its u-part kept.  Every member agrees at
  ``i`` and ``j``, so the target is a non-member; its u-parts are a
  member's, so the quotient fix passes and the l-part subgroup test
  decides.
* ``nonmember``: for an affine algebra with the full group signature, a
  target whose reduction mod a prime ``q`` dividing the exponent lies
  outside the GF(q) span of the reduced generators.  The subalgebra is the
  generated subgroup, and reduction mod ``q`` is a homomorphism, so the
  target is a non-member.

The span tests below are plain Gaussian elimination over GF(p), written
here so that the labels do not depend on the solver's own elimination.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from subpower import SmpInstance, affine, solver
from subpower.catalog import a6, zmod_group_algebra
from subpower.instances import random_instance
from subpower.wreath import WreathSpec

KINDS = ("member", "probe", "quotient", "nonmember")


@dataclass(frozen=True)
class Case:
    kind: str
    inst: SmpInstance
    member: bool               # expected verdict, fixed by construction

    def digest(self) -> str:
        text = repr((self.kind, self.inst.generators, self.inst.target))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable            # a fresh algebra input: WreathSpec or (alg, group)
    cold: bool                # solve on the input built in the same round
    k: int
    n: int
    batch: dict               # kind -> instances per round
    cert_prime: int = 0       # q for ``nonmember`` labels of affine inputs
    fix_k: int = 0            # size of the round's Fix-Value call, 0 for none
    small_k: int = 3          # size of the oracle cross-check sample
    small_n: int = 2


def setup(algebra_input) -> None:
    """The cold solver context a CLI user pays for on every solve.

    Called through the modules, so that tracing sees the calls.
    """
    if isinstance(algebra_input, WreathSpec):
        solver.wreath_context(algebra_input)
    else:
        affine.verify_affine(*algebra_input)


def _rank_mod_p(mat: np.ndarray, p: int) -> int:
    mat = np.array(mat, dtype=np.int64) % p
    rows, cols = mat.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(mat[rank:, c])
        if not len(nz):
            continue
        piv = rank + int(nz[0])
        mat[[rank, piv]] = mat[[piv, rank]]
        mat[rank] = mat[rank] * pow(int(mat[rank, c]), -1, p) % p
        col = mat[:, c].copy()
        col[rank] = 0
        mat = (mat - np.outer(col, mat[rank])) % p
        rank += 1
    return rank


def in_span_mod_p(rows, vec, p: int) -> bool:
    """Is ``vec`` in the GF(p)-linear span of ``rows``?"""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(vec))
    if not len(rows):
        return not np.any(np.asarray(vec) % p)
    return _rank_mod_p(rows, p) == _rank_mod_p(np.vstack([rows, vec]), p)


def in_affine_hull_mod_p(points, vec, p: int) -> bool:
    points = np.asarray(points, dtype=np.int64)
    return in_span_mod_p(points[1:] - points[0], np.asarray(vec) - points[0], p)


def _instance(d: dict) -> SmpInstance:
    return SmpInstance(tuple(tuple(g) for g in d["generators"]),
                       tuple(d["target"]))


def _seeds(tag: str):
    """An endless, reproducible stream of instance seeds for one case."""
    rng = random.Random(tag)
    while True:
        yield rng.randrange(2 ** 31)


def _member(algebra_input, k, n, tag) -> SmpInstance:
    for s in _seeds(tag):
        inst = _instance(random_instance(algebra_input, k, n, 1.0, seed=s))
        if inst.target not in inst.generators:
            return inst
    raise AssertionError("unreachable")


def _quotient(spec: WreathSpec, k, n, tag) -> SmpInstance:
    p = spec.p
    for s in _seeds(tag):
        inst = _instance(random_instance(spec, k, n, 0.0, seed=s))
        us = [spec.u_part(g) for g in inst.generators]
        if not in_affine_hull_mod_p(us, spec.u_part(inst.target), p):
            return inst
    raise AssertionError("unreachable")


def _probe(spec: WreathSpec, k, n, tag) -> SmpInstance:
    inst = _member(spec, k, n, tag)
    rng = random.Random(tag + ":probe")
    i, j = rng.sample(range(k), 2)

    def copy(t):
        t = list(t)
        t[j] = t[i]
        return t

    gens = [copy(g) for g in inst.generators]
    target = copy(inst.target)
    l, u = spec.split(target[j])
    shift = rng.randrange(1, spec.left.size)
    target[j] = spec.pair(spec.left_group.add(l, shift), u)
    return SmpInstance(tuple(map(tuple, gens)), tuple(target))


def _nonmember(algebra_input, q, k, n, tag) -> SmpInstance:
    for s in _seeds(tag):
        inst = _instance(random_instance(algebra_input, k, n, 0.0, seed=s))
        if not in_span_mod_p(inst.generators, inst.target, q):
            return inst
    raise AssertionError("unreachable")


def make_case(wl: Workload, algebra_input, kind: str, k: int, n: int,
              tag: str) -> Case:
    if kind == "member":
        return Case(kind, _member(algebra_input, k, n, tag), True)
    if kind == "quotient":
        return Case(kind, _quotient(algebra_input, k, n, tag), False)
    if kind == "probe":
        return Case(kind, _probe(algebra_input, k, n, tag), False)
    if kind == "nonmember":
        return Case(kind, _nonmember(algebra_input, wl.cert_prime, k, n, tag),
                    False)
    raise ValueError(f"unknown case kind {kind}")


def batch_cases(wl: Workload, algebra_input, seed: int) -> list:
    """The labelled instances every round of a run solves, in solve order."""
    return [make_case(wl, algebra_input, kind, wl.k, wl.n,
                      f"{wl.name}:{seed}:{kind}:{i}")
            for kind in KINDS for i in range(wl.batch.get(kind, 0))]


def fix_case(wl: Workload, algebra_input, seed: int) -> Case:
    return make_case(wl, algebra_input, "member", wl.fix_k, wl.n,
                     f"{wl.name}:{seed}:fix")


def small_cases(wl: Workload, algebra_input, seed: int) -> list:
    """A small-k sample from the same generators, for the oracle cross-check."""
    return [make_case(wl, algebra_input, kind, wl.small_k, wl.small_n,
                      f"{wl.name}:{seed}:small:{kind}")
            for kind in KINDS if wl.batch.get(kind, 0)]


# why each workload exists, and why these sizes: NOTES.md
WORKLOADS = {wl.name: wl for wl in [
    Workload(
        "a6-warm-mixed",
        a6, cold=False, k=60, n=20,
        batch={"member": 16, "probe": 12, "quotient": 4},
        small_k=4, small_n=3),
    Workload(
        "affine-z12",
        lambda: zmod_group_algebra(12), cold=True, k=40, n=12,
        batch={"member": 8, "nonmember": 4},
        cert_prime=3, fix_k=6, small_k=3, small_n=2),
]}
