"""Solver outputs on the seeded golden corpus stay byte-identical."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _golden_module():
    path = os.path.join(ROOT, "scripts", "golden.py")
    spec = importlib.util.spec_from_file_location("golden", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_golden_outputs_unchanged():
    golden = _golden_module()
    with open(golden.GOLDEN) as fh:
        want = fh.read().splitlines()
    got = golden.render().splitlines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"golden record {i + 1} differs"
