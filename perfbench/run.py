"""Benchmark of the subpower solvers on seeded workloads.

Run from the root of a checkout; the solver is imported from ``src/``:

    python3 perfbench/run.py --workload a6-warm-mixed --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

One process, one thread, closed loop: every call waits for the previous
verdict.  A run generates and labels one seeded batch of instances
(``workloads.py``), untimed, then repeats rounds over it until
``--seconds`` have passed.  A round builds the solver context cold from a
fresh algebra object, decides and serializes each instance, re-checks each
member's witness and, on ``affine-z12``, runs one Fix-Value call.

Every timed operation is preceded by a fixed pure-Python reference loop,
and each round ends with one.  An operation's seconds are divided by its
pace, the mean time of the loops before and after it over ``REF_LOOP_S``:
on a shared virtual machine the speed a process gets can change by 10-50%
from one minute to the next, and the loop, which touches nothing of
``subpower``, shows how fast it runs at the time (NOTES.md gives the
figures, with the hardware).
``--trace 0`` prints the end-to-end metrics in these scaled seconds:
``setup_s`` is the median of the run's set-ups, three per round; each
batch metric is the median over the rounds of the batch's time.
``--trace 1`` alternates untraced rounds with rounds that wrap the layer
boundaries (``tracing.py``), and prints the per-layer metrics as totals
per traced round, with the tracing overhead; its spans are written to
``.perfbench_out/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a summary goes to standard
error.

Every operation is checked.  A verdict that differs from its label, a
member without a witness, a witness that ``check_witness`` rejects, a
Fix-Value result that misses the target, a small-k case on which solver,
label and ``smp_oracle`` disagree, an input that differs from
``pins.json``, or any exception counts as a failed operation.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
PINS = os.path.join(HERE, "pins.json")
OUT_DIR = os.path.join(os.getcwd(), ".perfbench_out")
ORACLE_CAP = 200_000
# seconds of reference_loop() at the speed the scaled metrics are quoted at
REF_LOOP_S = 0.010
# cold set-ups per round, each from a fresh algebra object; the last one is
# solved on by a cold workload
SETUPS_PER_ROUND = 3
# the end-to-end metric a timed operation of each kind belongs to
METRIC_OF = {"member": "member", "probe": "nonmember",
             "quotient": "nonmember", "nonmember": "nonmember"}


def import_solver() -> None:
    """Import ``subpower`` from ./src, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "subpower", "__init__.py")):
        sys.exit("perfbench: src/subpower not found; run from the root of "
                 "a subpower checkout")
    sys.path.insert(0, SRC)
    import subpower
    if not os.path.abspath(subpower.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported subpower from {subpower.__file__}, "
                 f"not from {SRC}")


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok

    def attempt(self, what: str, fn):
        """Run one operation; an exception is reported and counted as failed."""
        try:
            return fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.check(False, f"{what}: exception")
            return None


def _digits(x: int, base: int, width: int) -> tuple:
    out = []
    for _ in range(width):
        x, r = divmod(x, base)
        out.append(r)
    return tuple(out)


def reference_loop() -> float:
    """Seconds for a fixed piece of pure-Python work.

    Its mix of calls, ``divmod``, tuples and dicts is the solver's, and it
    uses nothing of ``subpower``, so its time follows only the speed the
    machine gives this process.  The collector is off while it runs, so the
    solver's heap does not change its cost.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = (0,) * 6
        seen: dict = {}
        rows = []
        for i in range(3000):
            t = _digits(i * 7919, 7, 6)
            acc = tuple((a + b) % 7 for a, b in zip(acc, t))
            seen[acc] = seen.get(acc, 0) + 1
            rows.append(acc)
        return perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def _algebra(algebra_input):
    from subpower.wreath import WreathSpec
    if isinstance(algebra_input, WreathSpec):
        return algebra_input.algebra
    return algebra_input[0]


class Runner:
    """One workload at one seed: rounds of timed operations, all checked."""

    def __init__(self, wl, seed: int, tally: Tally):
        from workloads import batch_cases, fix_case, setup
        self.wl = wl
        self.seed = seed
        self.tally = tally
        # inputs are generated on their own algebra object; a warm workload
        # also solves on it, after one untimed set-up
        self.warm = wl.make()
        if not wl.cold:
            setup(self.warm)
        self.last = self.warm
        self.tracer = None
        # metric -> one batch's seconds per round (one set-up's for "setup"):
        # scaled to the reference speed, and as measured
        self.times: dict = defaultdict(list)
        self.wall: dict = defaultdict(list)
        self.pace: dict = {}        # op id -> loop time around it / REF_LOOP_S
        self._round_ops: list = []  # (op id, metric, seconds, loop before)
        self.tuples = 0
        self.witness_bytes = 0
        self.cases = batch_cases(wl, self.warm, seed)
        self.fix_case = fix_case(wl, self.warm, seed) if wl.fix_k else None

    def _timed(self, kind: str, op_id: str, fn):
        """Run one operation, after a reference loop, and keep its seconds
        until the loop after it has run.

        Under tracing the operation is also one benchmark op span.  Returns
        (result, seconds), or None when it raised.
        """
        def run():
            t0 = perf_counter()
            out = fn()
            return out, perf_counter() - t0
        before = reference_loop()
        if self.tracer is None:
            got = self.tally.attempt(op_id, run)
        else:
            with self.tracer.op(kind, op_id):
                got = self.tally.attempt(op_id, run)
        if got is not None:
            metric = METRIC_OF.get(kind, kind)
            self._round_ops.append((op_id, metric, got[1], before))
        return got

    def round(self, rnd: int) -> None:
        """One round.  Each operation's seconds are divided by its pace: the
        mean of the loops before and after it, over ``REF_LOOP_S``."""
        from workloads import setup
        self._round_ops = []
        for j in range(SETUPS_PER_ROUND):
            fresh = self.wl.make()
            got = self._timed("setup", f"r{rnd}.setup{j}",
                              lambda: setup(fresh))
            if got is None:
                break
            self.tally.check(True, "setup")
        if got is not None:
            target = self.last = fresh if self.wl.cold else self.warm
            checked = []
            for i, case in enumerate(self.cases):
                self.solve(f"r{rnd}.{case.kind}{i}", case, target, checked)
            for op_id, case, verdict in checked:
                self.check_witness(op_id, case, verdict, target)
            if self.fix_case is not None:
                self.fix(f"r{rnd}.fix", target)
        loops = [op[3] for op in self._round_ops] + [reference_loop()]
        scaled: dict = defaultdict(float)
        wall: dict = defaultdict(float)
        for i, (op_id, metric, seconds, _) in enumerate(self._round_ops):
            pace = (loops[i] + loops[i + 1]) / 2 / REF_LOOP_S
            self.pace[op_id] = pace
            if metric == "setup":       # each set-up is a sample of its own
                self.times[metric].append(seconds / pace)
                self.wall[metric].append(seconds)
            else:
                scaled[metric] += seconds / pace
                wall[metric] += seconds
        for metric in scaled:
            self.times[metric].append(scaled[metric])
            self.wall[metric].append(wall[metric])

    def solve(self, op_id, case, target, checked) -> None:
        """Decide and serialize, as ``subpower solve --witness`` does."""
        from subpower import serialize, solver

        def run():
            verdict = solver.dispatch(target, case.inst, want_witness=True)
            serialize.dump_json(serialize.verdict_to_dict(verdict))
            return verdict
        got = self._timed(case.kind, op_id, run)
        if got is None:
            return
        verdict = got[0]
        self.tally.check(verdict.member == case.member,
                         f"{op_id} {case.digest()}: verdict {verdict.member}, "
                         f"expected {case.member}")
        self.tuples += verdict.stats.get("tuples_materialized", 0)
        if verdict.member and self.tally.check(
                verdict.witness is not None,
                f"{op_id} {case.digest()}: member without witness"):
            checked.append((op_id.replace(case.kind, "witness"), case, verdict))
            self.witness_bytes += len(serialize.dump_json(verdict.witness))

    def check_witness(self, op_id, case, verdict, target) -> None:
        from subpower import solver
        got = self._timed("witness", op_id, lambda: solver.check_witness(
            target, case.inst, verdict))
        if got is not None:
            self.tally.check(got[0],
                             f"{op_id} {case.digest()}: witness rejected")

    def fix(self, op_id: str, target) -> None:
        """A compact representation with its first coordinate fixed, as
        ``subpower fix`` computes it."""
        from subpower import comprep, solver
        case = self.fix_case
        alg = _algebra(target)
        value = case.inst.target[0]

        def run():
            rep = solver.compute_comprep(target, case.inst.generators)
            return comprep.fix_values(alg, rep, [value])
        got = self._timed("fix", op_id, run)
        if got is None:
            return
        tuples = got[0].tuples()
        self.tally.check(
            bool(tuples) and all(t[0] == value for t in tuples)
            and comprep.maltsev_chain_member(alg, got[0], case.inst.target)
            is not None,
            f"{op_id} {case.digest()}: fixed representation misses the target")

    def batch_seconds(self, metric: str, times=None) -> float:
        """The median over the rounds of a batch's seconds (of one set-up's,
        for ``setup``)."""
        times = self.times if times is None else times
        return statistics.median(times[metric]) if times.get(metric) else 0.0


def oracle_check(runner: Runner) -> None:
    """Solver, construction label and smp_oracle agree on small instances."""
    from subpower import solver
    from subpower.core import smp_oracle
    from workloads import small_cases
    solver_input = runner.last
    alg = _algebra(solver_input)
    for case in small_cases(runner.wl, runner.warm, runner.seed):
        def run():
            verdict = solver.dispatch(solver_input, case.inst,
                                      want_witness=True)
            oracle = smp_oracle(alg, case.inst.generators, case.inst.target,
                                cap=ORACLE_CAP)
            witness_ok = (not verdict.member or solver.check_witness(
                solver_input, case.inst, verdict))
            return verdict.member, oracle, witness_ok
        got = runner.tally.attempt(f"oracle {case.kind}", run)
        if got is not None:
            runner.tally.check(
                got[0] == got[1] == case.member and got[2],
                f"oracle {case.kind} {case.digest()}: solver {got[0]}, "
                f"oracle {got[1]}, label {case.member}, witness {got[2]}")


def pin_entry(runner: Runner) -> list:
    cases = runner.cases + ([runner.fix_case] if runner.fix_case else [])
    return [[c.kind, c.digest(), c.member] for c in cases]


def pin_check(runner: Runner) -> None:
    """The inputs of a pinned seed must equal the pinned ones."""
    with open(PINS) as fh:
        pinned = json.load(fh).get(runner.wl.name, {}).get(str(runner.seed))
    if pinned is not None:
        runner.tally.check(pin_entry(runner) == pinned,
                           "inputs differ from pins.json")


def run_rounds(runner: Runner, seconds: float, first: int = 0) -> int:
    start = perf_counter()
    rnd = first
    while rnd == first or perf_counter() - start < seconds:
        runner.round(rnd)
        rnd += 1
    return rnd - first


def end_to_end(runner: Runner) -> dict:
    return {
        "setup_s": {"value": runner.batch_seconds("setup"), "unit": "s"},
        "member_solve_s": {"value": runner.batch_seconds("member"),
                           "unit": "s"},
        "nonmember_solve_s": {"value": runner.batch_seconds("nonmember"),
                              "unit": "s"},
        "witness_check_s": {"value": runner.batch_seconds("witness"),
                            "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def per_layer(runner: Runner, tr, rounds: int, traced: int,
              overhead: float) -> dict:
    """Totals per traced round, times scaled as the end-to-end ones are; the
    solver's own counts per round."""
    from tracing import SPANS

    total, own = tr.totals(lambda op_id: 1 / runner.pace.get(op_id, 1.0))
    counts = tr.counts
    out = {f"{name}.ms": 1000 * total.get(name, 0.0) / traced
           for name in SPANS}
    for name in ("solver.solve_smp_wreath", "solver.check_witness"):
        out[f"{name}.self_ms"] = 1000 * own.get(name, 0.0) / traced
    for name in ("affine.tuple_add.calls", "affine.Echelon.insert.calls",
                 "affine.group_scalar_calls", "wreath.clonoid_image.emitted",
                 "wreath.clonoid_generators",
                 "core.closure_with_circuits.tuples"):
        out[name] = counts.get(name, 0) / traced
    calls = counts.get("affine.Echelon.insert.calls", 0)
    out["affine.Echelon.insert.useful_ratio"] = (
        counts.get("affine.Echelon.insert.useful", 0) / calls if calls else 0.0)
    out["solver.tuples_materialized"] = runner.tuples / rounds
    out["solver.witness_bytes"] = runner.witness_bytes / rounds
    out["trace.overhead_ratio"] = overhead
    wall = tr.op_seconds("member")
    inside = sum(tr.op_seconds("member", name) for name in (
        "solver.dispatch", "serialize.verdict_to_dict", "serialize.dump_json"))
    out["trace.member_span_coverage"] = inside / wall if wall else 0.0
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer"]
    return {m["name"]: {"value": out[m["name"]], "unit": m["unit"]}
            for m in declared}


def traced_rounds(runner: Runner, seconds: float, tracer) -> tuple:
    """Alternate untraced and traced rounds until ``seconds`` have passed.

    Returns the rounds run, the traced ones among them, and the overhead:
    the traced rounds' scaled time over the untraced rounds', each taken as
    the sum over the batches of their median rounds.
    """
    plain = runner.times, runner.wall
    traced = defaultdict(list), defaultdict(list)
    start = perf_counter()
    rnd = 0
    while rnd < 2 or perf_counter() - start < seconds:
        if rnd % 2:
            runner.tracer = tracer
            runner.times, runner.wall = traced
            tracer.install()
            try:
                runner.round(rnd)
            finally:
                tracer.uninstall()
                runner.tracer = None
                runner.times, runner.wall = plain
        else:
            runner.round(rnd)
        rnd += 1
    base = sum(statistics.median(ts) for ts in plain[0].values())
    overhead = (sum(statistics.median(ts) for ts in traced[0].values()) / base
                if base else 0.0)
    return rnd, rnd // 2, overhead


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally()
    runner = Runner(wl, seed, tally)
    if not trace:
        rounds = run_rounds(runner, seconds)
        metrics = end_to_end(runner)
    else:
        from tracing import Tracer
        tracer = Tracer()
        rounds, traced, overhead = traced_rounds(runner, seconds, tracer)
        metrics = per_layer(runner, tracer, rounds, traced, overhead)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{wl.name}-{seed}.json"))
        inside = tracer.op_seconds("member", "solver.solve_smp_wreath")
        print(f"trace: {traced} traced rounds of {rounds}; member ops "
              f"{tracer.op_seconds('member'):.3f} s wall, {inside:.3f} s of it "
              f"in solve_smp_wreath; overhead {overhead:.3f}",
              file=sys.stderr)
    oracle_check(runner)
    pin_check(runner)
    summary = {m: (round(runner.batch_seconds(m), 4),
                   round(runner.batch_seconds(m, runner.wall), 4))
               for m in ("setup", "member", "nonmember", "witness", "fix")}
    paces = list(runner.pace.values())
    print(f"{wl.name} seed={seed} rounds={rounds} loop time / REF_LOOP_S "
          f"min {min(paces):.3f} median {statistics.median(paces):.3f} "
          f"max {max(paces):.3f}; batch seconds (scaled, as measured): "
          f"{summary}", file=sys.stderr)
    return {"tally": tally, "metrics": metrics}


def smoke() -> dict:
    """Every workload's generator, solve and gate, once, at tiny sizes."""
    from workloads import WORKLOADS
    tally = Tally()
    for wl in WORKLOADS.values():
        tiny = dataclasses.replace(wl, k=6, n=3, small_k=3, small_n=2,
                                   fix_k=4 if wl.fix_k else 0)
        runner = Runner(tiny, 0, tally)
        runner.round(0)
        oracle_check(runner)
        print(f"smoke {wl.name}: {tally.attempted} attempted, "
              f"{tally.failed} failed so far", file=sys.stderr)
    return {"tally": tally, "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes")
    args = parser.parse_args(argv)
    import_solver()
    from workloads import WORKLOADS
    if args.smoke:
        result = smoke()
    elif args.workload in WORKLOADS:
        result = run_workload(WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    else:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    tally = result["tally"]
    for reason in tally.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(f"error_rate {tally.failed}/{tally.attempted}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
