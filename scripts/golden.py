"""Golden outputs of the solver on a fixed, seeded corpus.

Every record is one JSON line: solve verdicts with their witnesses (the
``elapsed_ms`` timing stripped) and the witness check, ``compute_comprep``
representations, one Fix-Value run, and difference-clonoid generators.  A
change that must not alter behaviour keeps the output byte-identical.

    python3 scripts/golden.py             # print the outputs
    python3 scripts/golden.py --write     # regenerate tests/golden_outputs.jsonl
    python3 scripts/golden.py --check     # exit 1 if outputs differ from it,
                                          # naming each differing record and
                                          # its differing JSON fields

Run from the root of a checkout; ``src/`` is put on the import path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden_outputs.jsonl")
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from subpower.affine import AbelianGroupSpec  # noqa: E402
from subpower.catalog import (M_CIRCUIT, a6, a6_shift, a6_symmetric,  # noqa: E402
                              random_wreath, w15, zmod_group_algebra)
from subpower.circuits import parse_sexpr  # noqa: E402
from subpower.comprep import fix_values  # noqa: E402
from subpower.core import FiniteAlgebra, Operation  # noqa: E402
from subpower.instances import random_instance  # noqa: E402
from subpower.serialize import (comprep_to_dict, dump_json,  # noqa: E402
                                instance_to_dict, verdict_to_dict)
from subpower.solver import (SmpInstance, check_witness,  # noqa: E402
                             compute_comprep, dispatch)
from subpower.wreath import WreathSpec, diff_clonoid_gens  # noqa: E402


def z2_z4_algebra():
    """Z_2 x Z_4 with designated zero 5 = (1, 1): m, a unary affine map with
    a non-diagonal endomorphism and a constant, and a binary map.

    The tables are written out on residue pairs here, independently of
    ``AbelianGroupSpec``, so the corpus does not depend on the code under
    test.
    """
    zero = (1, 1)

    def res(x):
        return ((x // 4 - zero[0]) % 2, (x % 4 - zero[1]) % 4)

    def elem(r):
        return ((r[0] + zero[0]) % 2) * 4 + (r[1] + zero[1]) % 4

    dom = range(8)
    m = tuple(elem([res(x)[i] - res(y)[i] + res(z)[i] for i in range(2)])
              for x in dom for y in dom for z in dom)
    a = tuple(elem(((res(x)[0] + res(x)[1] + 1) % 2,
                    (3 * res(x)[1] + 2) % 4)) for x in dom)
    b = tuple(elem(((res(x)[0]) % 2, (res(x)[1] + 2 * res(y)[1]) % 4))
              for x in dom for y in dom)
    alg = FiniteAlgebra(8, [Operation("m", 3, m), Operation("a", 1, a),
                            Operation("b", 2, b)], parse_sexpr(M_CIRCUIT))
    return alg, AbelianGroupSpec((2, 4), zero=elem((0, 0)))


# a member target with the l-part of its first coordinate moved by one: the
# quotient components still fit, so the l-part subgroup test decides
PROBE = "probe"


# name -> (algebra input, [(k, n, member_bias, seed)], comprep (k, n, seed))
def corpus():
    return [
        ("a6", a6(), [(6, 3, 1.0, 1), (6, 3, 0.0, 2), (12, 4, 1.0, 3),
                      (12, 4, 0.5, 4), (20, 5, 1.0, 5), (20, 2, 0.0, 7),
                      (12, 3, PROBE, 8), (20, 4, PROBE, 9)], (3, 2, 6)),
        ("a6_shift", a6_shift(), [(6, 3, 1.0, 11), (8, 3, 0.0, 12),
                                  (12, 4, 1.0, 13), (10, 4, 0.5, 14)],
         (3, 2, 15)),
        ("a6_symmetric", a6_symmetric(), [(6, 3, 1.0, 21), (8, 3, 0.0, 22)],
         (4, 2, 23)),
        ("w15", w15(), [(4, 2, 1.0, 31), (4, 3, 0.0, 32), (6, 3, 1.0, 33),
                        (6, 3, PROBE, 34)],
         None),
        ("random_wreath_3_2_1", random_wreath(3, 2, 1),
         [(6, 3, 1.0, 41), (6, 3, 0.0, 42), (10, 4, 1.0, 43),
          (10, 4, 0.5, 44), (8, 3, PROBE, 46)], (3, 2, 45)),
        ("zmod_group_12", zmod_group_algebra(12),
         [(4, 2, 1.0, 51), (4, 2, 0.0, 52), (8, 3, 1.0, 53),
          (8, 3, 0.5, 54)], (3, 2, 55)),
        ("z2_z4_zero5", z2_z4_algebra(),
         [(4, 2, 1.0, 61), (4, 2, 0.0, 62), (6, 3, 1.0, 63),
          (6, 3, 0.5, 64)], (3, 2, 65)),
    ]


def _instance(alg_input, k, n, bias, seed) -> SmpInstance:
    d = random_instance(alg_input, k, n,
                        member_bias=1.0 if bias == PROBE else bias, seed=seed)
    target = list(d["target"])
    if bias == PROBE:
        p, size = alg_input.p, alg_input.left.size
        l, u = divmod(target[0], p)
        target[0] = ((l + 1) % size) * p + u
    return SmpInstance(tuple(tuple(g) for g in d["generators"]),
                       tuple(target))


def records():
    """The corpus outputs, one dict per record, in a fixed order."""
    for name, alg_input, solves, comp in corpus():
        for k, n, bias, seed in solves:
            inst = _instance(alg_input, k, n, bias, seed)
            verdict = dispatch(alg_input, inst, want_witness=True)
            out = verdict_to_dict(verdict)
            out["stats"] = {key: v for key, v in out["stats"].items()
                            if key != "elapsed_ms"}
            yield {"case": name, "kind": "solve", "seed": seed,
                   "instance": instance_to_dict(inst), "verdict": out,
                   "witness_ok": check_witness(alg_input, inst, verdict)}
        if comp is not None:
            k, n, seed = comp
            inst = _instance(alg_input, k, n, 0.0, seed)
            rep = compute_comprep(alg_input, inst.generators,
                                  allow_oracle=True)
            yield {"case": name, "kind": "comprep", "seed": seed,
                   "generators": [list(g) for g in inst.generators],
                   "comprep": comprep_to_dict(rep)}
            if isinstance(alg_input, tuple):
                fixed = fix_values(alg_input[0], rep, [inst.generators[0][0]])
                yield {"case": name, "kind": "fix", "seed": seed,
                       "fixed": comprep_to_dict(fixed)}
        if isinstance(alg_input, WreathSpec):
            gens = diff_clonoid_gens(alg_input)
            yield {"case": name, "kind": "diff_clonoid", "p": gens.p,
                   "unary": [list(t) for t in gens.unary],
                   "binary": [list(t) for t in gens.binary],
                   "exact_enumeration": gens.exact,
                   "unary_span": gens.unary_span,
                   "binary_span": gens.binary_span}


def render() -> str:
    return "".join(dump_json(r) + "\n" for r in records())


def _field_diffs(got, want, path: str = "") -> list:
    """Dotted paths at which two JSON values differ (list items by index)."""
    if isinstance(got, dict) and isinstance(want, dict):
        out = []
        for key in list(want) + [key for key in got if key not in want]:
            sub = f"{path}.{key}" if path else str(key)
            if key in got and key in want:
                out += _field_diffs(got[key], want[key], sub)
            else:
                out.append(sub)
        return out
    if isinstance(got, list) and isinstance(want, list) and \
            len(got) == len(want):
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += _field_diffs(g, w, f"{path}.{i}" if path else str(i))
        return out
    if type(got) is type(want) and got == want:
        return []
    return [path or "(record)"]


def diff_fields(text: str, want: str) -> list:
    """One line per differing record: its 1-based index, case/kind/seed,
    and the dotted JSON paths that differ."""
    got_lines, want_lines = text.splitlines(), want.splitlines()
    lines = []
    for i in range(max(len(got_lines), len(want_lines))):
        g = got_lines[i] if i < len(got_lines) else None
        w = want_lines[i] if i < len(want_lines) else None
        if g == w:
            continue
        if g is None or w is None:
            record = json.loads(g or w)
            fields = ["(missing in current)" if g is None
                      else "(missing in golden)"]
        else:
            record = json.loads(w)
            fields = _field_diffs(json.loads(g), record)
        label = "/".join(str(record.get(key, "-"))
                         for key in ("case", "kind", "seed"))
        lines.append(f"record {i + 1} ({label}): {', '.join(fields)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help=f"overwrite {os.path.relpath(GOLDEN, ROOT)}")
    mode.add_argument("--check", action="store_true",
                      help="compare against the golden file; print each "
                           "differing record and its differing JSON fields; "
                           "exit 1 on a diff")
    args = ap.parse_args(argv)
    text = render()
    if args.write:
        with open(GOLDEN, "w") as fh:
            fh.write(text)
        return 0
    if args.check:
        with open(GOLDEN) as fh:
            want = fh.read()
        if text == want:
            return 0
        print("\n".join(diff_fields(text, want))
              or "the files differ only in line endings")
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
