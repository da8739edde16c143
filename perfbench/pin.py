"""Regenerate pins.json, the pinned inputs of the benchmark.

    python3 perfbench/pin.py            # from the root of a checkout

For every workload and every seed in SEEDS, records the kind, a digest and
the expected verdict of each instance a run at that seed solves.  A run at
a pinned seed whose inputs differ from the pins counts a failed operation,
so a change to the instance generators cannot pass for a change in speed.
Regenerate only in a change that means to alter the inputs, and say so.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import PINS, Runner, Tally, import_solver, pin_entry  # noqa: E402

SEEDS = list(range(0, 32)) + [7919]     # 7919 is the held-out seed


def main() -> int:
    import_solver()
    from workloads import WORKLOADS
    pins = {wl.name: {str(seed): pin_entry(Runner(wl, seed, Tally()))
                      for seed in SEEDS}
            for wl in WORKLOADS.values()}
    with open(PINS, "w") as fh:
        json.dump(pins, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
