"""Spans and counters at the layer boundaries of ``subpower``.

``Tracer.install`` replaces each public function a layer exposes to its
caller with a wrapper, in every ``subpower`` module that holds a reference
to it, so calls between layers are recorded as well as calls from the
benchmark.  Hot methods (``Echelon.insert``, the scalar group methods,
``tuple_add``) are only counted: a span per call would cost more than the
call.  Nothing is recorded outside ``Tracer.op`` blocks, so input
generation and correctness checks stay out of the numbers.  ``uninstall``
puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# span name -> (module, attribute); the name's first part is the layer
SPANS = {
    "solver.dispatch": ("subpower.solver", "dispatch"),
    "solver.solve_smp_wreath": ("subpower.solver", "solve_smp_wreath"),
    "solver.wreath_context": ("subpower.solver", "wreath_context"),
    "solver.check_witness": ("subpower.solver", "check_witness"),
    "solver.compute_comprep": ("subpower.solver", "compute_comprep"),
    "affine.verify_affine": ("subpower.affine", "verify_affine"),
    "affine.affine_span": ("subpower.affine", "affine_span"),
    "affine.subgroup_member": ("subpower.affine", "subgroup_member"),
    "affine.affine_closure_comprep": ("subpower.affine",
                                      "affine_closure_comprep"),
    "wreath.build_wreath": ("subpower.wreath", "build_wreath"),
    "wreath.diff_clonoid_gens": ("subpower.wreath", "diff_clonoid_gens"),
    "wreath.clonoid_image_comprep": ("subpower.wreath",
                                     "clonoid_image_comprep"),
    "core.verify_central": ("subpower.core", "verify_central"),
    "core.closure_with_circuits": ("subpower.core", "closure_with_circuits"),
    "core.eval_nodes": ("subpower.core", "eval_nodes"),
    "core.eval_circuit": ("subpower.core", "eval_circuit"),
    "circuits.serialize_sexpr": ("subpower.circuits", "serialize_sexpr"),
    "circuits.parse_sexpr": ("subpower.circuits", "parse_sexpr"),
    "comprep.maltsev_chain_member": ("subpower.comprep",
                                     "maltsev_chain_member"),
    "comprep.fix_values": ("subpower.comprep", "fix_values"),
    "serialize.verdict_to_dict": ("subpower.serialize", "verdict_to_dict"),
    "serialize.dump_json": ("subpower.serialize", "dump_json"),
}

# counts taken from a span's result
RESULT_COUNTS = {
    "wreath.clonoid_image_comprep": ("wreath.clonoid_image.emitted",
                                     lambda r: len(r.emitted)),
    "wreath.diff_clonoid_gens": ("wreath.clonoid_generators",
                                 lambda r: len(r.unary) + len(r.binary)),
    "core.closure_with_circuits": ("core.closure_with_circuits.tuples",
                                   lambda r: len(r[0])),
}

GROUP_SCALARS = ("vec", "elem", "add", "neg", "scale")


class Tracer:
    def __init__(self):
        self.spans: list = []       # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._op = None
        self._undo: list = []

    @contextmanager
    def op(self, kind: str, op_id: str):
        """Record spans and counts inside this block, tagged with op_id."""
        self._op = op_id
        idx = self._open(f"bench.{kind}")
        try:
            yield
        finally:
            self._close(idx)
            self._op = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        post = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if post is not None:
                self.counts[post[0]] += post[1](result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn, useful=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._op is not None:
                counts[name] += 1
                if useful is not None and result:
                    counts[useful] += 1
            return result
        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "subpower"
                                   or mod_name.startswith("subpower.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        from subpower import affine
        for name, (mod_name, attr) in SPANS.items():
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original,
                                     self._span_wrapper(name, original))
        self._replace_everywhere(
            affine.tuple_add,
            self._count_wrapper("affine.tuple_add.calls", affine.tuple_add))
        self._replace_method(affine.Echelon, "insert", self._count_wrapper(
            "affine.Echelon.insert.calls", affine.Echelon.insert,
            useful="affine.Echelon.insert.useful"))
        for attr in GROUP_SCALARS:
            self._replace_method(affine.AbelianGroupSpec, attr,
                                 self._count_wrapper(
                                     "affine.group_scalar_calls",
                                     getattr(affine.AbelianGroupSpec, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def totals(self, scale=lambda op: 1.0) -> tuple[dict, dict]:
        """Seconds inside each span name, and self seconds (minus children),
        each span's multiplied by ``scale`` of its op id."""
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            total[name] += (end - start) * scale(op)
            if parent >= 0:
                child[parent] += end - start
        own: dict = defaultdict(float)
        for idx, (name, start, end, _, op) in enumerate(self.spans):
            own[name] += (end - start - child[idx]) * scale(op)
        return dict(total), dict(own)

    def op_seconds(self, kind: str, name: str | None = None) -> float:
        """Seconds in the benchmark's ``kind`` ops, or in the ``name`` spans
        inside them."""
        ops = {s[4] for s in self.spans if s[0] == f"bench.{kind}"}
        want = name or f"bench.{kind}"
        return sum(end - start for n, start, end, _, op in self.spans
                   if n == want and op in ops)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([{"name": n, "start": s, "end": e, "parent": p, "op": o}
                       for n, s, e, p, o in self.spans], fh)
