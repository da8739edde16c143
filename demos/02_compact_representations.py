#!/usr/bin/env python3
"""Signatures, compact representations, chains, and Fix-Value.

A subpower of a Mal'tsev algebra is pinned down by its signature: the forks
(i, a, b) witnessed by two members agreeing before coordinate i.  Any
same-signature subset regenerates the whole subpower by chaining forks with
the Mal'tsev operation, which is what makes small representations decide
membership.
"""

from subpower import (eval_circuit, fix_value, fix_values,
                      maltsev_chain_member, serialize_sexpr, signature,
                      subpower_closure, thin_to_compact)
from subpower.catalog import a6, zmod_group_algebra
from subpower.comprep import EnumeratedCompactRep
from subpower.core import closure_with_circuits

print("signature of {(0,0), (0,1)}:", sorted(signature([(0, 0), (0, 1)])))

# --- an enumerated representation: every tuple carries a defining circuit ---
spec = a6()
alg = spec.algebra
gens = [(0, 1, 2), (3, 4, 5)]
tuples, nodes, bank, _ = closure_with_circuits(alg, gens, cap=10_000)
rep = thin_to_compact(EnumeratedCompactRep(tuple(gens),
                                           list(zip(tuples, nodes)), bank))
print(f"\nclosure has {len(tuples)} tuples; thinned representation keeps "
      f"{len(rep.entries)} of them")
print("signatures equal:", rep.sig() == signature(tuples))
idx = len(rep.entries) // 2
circuit = rep.circuit(idx)
print("sample witness circuit:", serialize_sexpr(circuit))
print("it re-evaluates to its tuple:",
      eval_circuit(alg, circuit, gens) == rep.tuples()[idx])

# --- chain membership --------------------------------------------------------
closure = subpower_closure(alg, gens)
inside = sorted(closure)[1]
outside = next(t for t in [(0, 0, 0), (1, 1, 0), (5, 5, 5)]
               if t not in closure)
print("\nchain for a member:", maltsev_chain_member(alg, rep, inside) is not None)
print("chain for a non-member:", maltsev_chain_member(alg, rep, outside))

# --- fixing coordinates ------------------------------------------------------
# Fix-Value restricts a represented subpower to { x : x(1) = a } without
# touching the full closure: projections to coordinate pairs are closed
# under m, then forks are re-witnessed above the fixed value.
for a in range(6):
    fixed = fix_value(alg, rep, a)
    brute = signature(sorted(t for t in closure if t[0] == a))
    status = "empty" if fixed.is_empty() else f"{len(fixed.entries)} entries"
    assert fixed.sig() == brute
    print(f"fix x1={a}: {status}; signature matches brute force")

member = sorted(closure)[3]
print("\nfixing every coordinate of", member, "->",
      fix_values(alg, rep, member).tuples())
