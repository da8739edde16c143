"""Pure-Python reference versions of the prefix walk, the fork builder and
circuit splicing.

These are the straightforward implementations the array code in
``subpower.comprep`` and ``subpower.affine`` and the compiled
``CircuitBank.splice`` replaced; the differential tests check the library
against them, output for output.
"""

import numpy as np

from subpower.affine import AbelianGroupSpec, Echelon, element_rows


def signature(tuples) -> set:
    tuples = [tuple(t) for t in tuples]
    if not tuples:
        return set()
    k = len(tuples[0])
    sig = set()
    group_of = [0] * len(tuples)
    for i in range(k):
        buckets: dict = {}
        for idx, t in enumerate(tuples):
            buckets.setdefault(group_of[idx], {}).setdefault(t[i], []).append(idx)
        reassign: dict = {}
        for gid in buckets:
            for a in buckets[gid]:
                for b in buckets[gid]:
                    sig.add((i + 1, a, b))
        for idx, t in enumerate(tuples):
            key = (group_of[idx], t[i])
            if key not in reassign:
                reassign[key] = len(reassign)
            group_of[idx] = reassign[key]
    return sig


def fork_index(tuples) -> dict:
    """(i, a, b) -> (idx_a, idx_b): lexicographically first witness pair."""
    if not tuples:
        return {}
    k = len(tuples[0])
    order = sorted(range(len(tuples)), key=lambda j: tuples[j])
    index: dict = {}
    groups: dict = {(): order}
    for i in range(k):
        for prefix in sorted(groups):
            members = groups[prefix]
            by_value: dict = {}
            for idx in members:
                by_value.setdefault(tuples[idx][i], []).append(idx)
            for a in sorted(by_value):
                for b in sorted(by_value):
                    key = (i + 1, a, b)
                    if key not in index:
                        index[key] = (by_value[a][0], by_value[b][0])
        next_groups: dict = {}
        for prefix, members in groups.items():
            for idx in members:
                next_groups.setdefault(prefix + (tuples[idx][i],), []).append(idx)
        groups = next_groups
    return index


def thin_entries(entries) -> list:
    """The (tuple, node) entries thin_to_compact keeps, in its order."""
    seen: dict = {}
    for t, n in entries:
        if t not in seen:
            seen[t] = n
    items = sorted(seen.items())
    if not items:
        return []
    k = len(items[0][0])
    keep = set()
    groups: dict = {(): list(range(len(items)))}
    for i in range(k):
        witnessed: dict = {}
        for prefix in sorted(groups):
            members = groups[prefix]
            by_value: dict = {}
            for idx in members:
                by_value.setdefault(items[idx][0][i], []).append(idx)
            for a in sorted(by_value):
                for b in sorted(by_value):
                    if (a, b) not in witnessed:
                        witnessed[(a, b)] = (by_value[a][0], by_value[b][0])
        for ia, ib in witnessed.values():
            keep.add(ia)
            keep.add(ib)
        next_groups: dict = {}
        for prefix, members in groups.items():
            for idx in members:
                next_groups.setdefault(prefix + (items[idx][0][i],), []).append(idx)
        groups = next_groups
    return [items[idx] for idx in sorted(keep)]


def _reachable(add: list, zero: int, elems: list) -> dict:
    combos = {zero: [0] * len(elems)}
    frontier = [zero]
    while frontier:
        v = frontier.pop()
        row = add[v]
        for j, e in enumerate(elems):
            w = row[e]
            if w not in combos:
                c = combos[v].copy()
                c[j] += 1
                combos[w] = c
                frontier.append(w)
    return combos


def fork_coefficients(group: AbelianGroupSpec, ech: Echelon, k: int):
    """The per-coordinate fork combinations, one vector at a time."""
    nrows = len(ech.rows)
    rows = np.asarray(ech.rows, dtype=np.int64).reshape(nrows, k * group.rank)
    at = group.unembed_array(rows).T.tolist()
    add = group.add_table.tolist()
    zero = group.zero
    for i in range(k):
        values = _reachable(add, zero, at[i])
        tail = ech.tail_rows(i * group.rank)
        forks = _reachable(add, zero, [at[i][r] for r in tail])
        for v in sorted(values):
            base = np.asarray(values[v], dtype=np.int64)
            yield base
            for d in sorted(forks):
                if d != zero:
                    total = base.copy()
                    total[tail] += forks[d]
                    yield total


def coset_compact_entries(rep) -> list:
    """The (tuple, node) entries of coset_compact_rep, one combination at a
    time; issues member circuits in rep's bank."""
    m = rep.group.exponent
    ech = rep.tracked_echelon()
    nraw = len(rep.raw)
    coeffs = np.asarray([c[:nraw] for c in ech.coeffs],
                        dtype=np.int64).reshape(len(ech.rows), nraw)
    out = []
    emitted = set()
    for combo in fork_coefficients(rep.group, ech, rep.k):
        raw_c = (combo @ coeffs) % m
        flat = rep.member_flat(raw_c)
        key = flat.tobytes()
        if key in emitted:
            continue
        emitted.add(key)
        out.append((rep.group.unembed(flat), rep.member_node(raw_c)))
    return out


def subgroup_compact_tuples(group: AbelianGroupSpec, k: int, generators) -> list:
    m = group.exponent
    ech = Echelon(m, k * group.rank)
    for g in group.embed_elements(element_rows(group, generators, k)):
        ech.insert(g)
    ech.canonicalize()
    rows = np.asarray(ech.rows, dtype=np.int64).reshape(len(ech.rows),
                                                        k * group.rank)
    out = []
    seen = set()
    for combo in fork_coefficients(group, ech, k):
        flat = (combo @ rows) % m
        key = flat.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(group.unembed(flat))
    return out


def splice(bank, circuit, leaves) -> int:
    """Instantiate `circuit` in `bank` gate by gate, through bank.app."""
    mapped = []
    for gate in circuit.gates:
        if gate[0] == "x":
            mapped.append(leaves[gate[1] - 1])
        else:
            mapped.append(bank.app(gate[0], tuple(mapped[c] for c in gate[1:])))
    return mapped[circuit.output]
