"""Seeded instance generation and benchmark sweeps."""

from __future__ import annotations

import random
import time

from .core import AlgebraError, FiniteAlgebra
from .circuits import CircuitBank
from .solver import SmpInstance, dispatch, underlying_algebra


def _random_term_value(alg: FiniteAlgebra, gens, rng: random.Random,
                       depth: int = 3):
    """Evaluate a random small term on the generators (guaranteed member)."""
    import numpy as np
    from .core import eval_nodes
    bank = CircuitBank(len(gens))
    symbols = [op for op in alg.ops if op.arity > 0]

    def build(d):
        if d == 0 or not symbols or rng.random() < 0.3:
            return bank.var(rng.randrange(len(gens)) + 1)
        op = rng.choice(symbols)
        return bank.app(op.symbol, tuple(build(d - 1) for _ in range(op.arity)))

    node = build(depth)
    vals = eval_nodes(alg, bank, [node], [np.asarray(g) for g in gens])
    return tuple(int(v) for v in vals[node])


def random_instance(algebra_input, k: int, n: int, member_bias: float,
                    seed: int) -> dict:
    """A seeded instance: uniform generators, target member with the given bias.

    With probability `member_bias` the target is the value of a random small
    term on the generators (hence a member); otherwise it is drawn uniformly
    and its membership is unknown until solved.  Identical seeds give
    identical instances.
    """
    if k < 1 or n < 1:
        raise AlgebraError("instance sizes must be at least 1")
    alg = underlying_algebra(algebra_input)
    rng = random.Random(seed)
    gens = [tuple(rng.randrange(alg.size) for _ in range(k)) for _ in range(n)]
    if rng.random() < member_bias:
        target = _random_term_value(alg, gens, rng)
    else:
        target = tuple(rng.randrange(alg.size) for _ in range(k))
    return {"k": k, "generators": [list(g) for g in gens],
            "target": list(target)}


def bench(algebra_input, grid, seed: int, *, allow_oracle: bool = False,
          cap: int = 1_000_000) -> list:
    """Solve one seeded instance per (k, n) cell; returns benchmark rows.
    `cap` bounds the oracle's closure, as in ``dispatch``."""
    rows = []
    for idx, (k, n) in enumerate(grid):
        inst_dict = random_instance(algebra_input, k, n, member_bias=0.5,
                                    seed=seed + idx)
        inst = SmpInstance(tuple(tuple(g) for g in inst_dict["generators"]),
                           tuple(inst_dict["target"]))
        t0 = time.perf_counter()
        verdict = dispatch(algebra_input, inst, allow_oracle=allow_oracle,
                           cap=cap, want_witness=False)
        elapsed = 1000 * (time.perf_counter() - t0)
        rows.append({
            "k": k, "n": n,
            "path": verdict.stats.get("path", "?"),
            "tuples": verdict.stats.get("tuples_materialized", 0),
            "ms": round(elapsed, 3),
        })
    return rows
