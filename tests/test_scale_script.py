"""``scripts/scale.py``: one seeded a6 solve, a member or with ``--probe``
an l-shifted non-member, or with ``--affine M`` a Z_M member or with
``--probe`` a shifted Z_M non-member, reported as JSON."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _scale(*flags) -> dict:
    proc = subprocess.run(
        [sys.executable, "scripts/scale.py", "--k", "100", "--n", "20",
         "--seed", "7", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.strip().splitlines()
    result = json.loads(line)
    assert result["k"] == 100 and result["n"] == 20 and result["seed"] == 7
    assert result["wall_s"] > 0 and result["peak_rss_mb"] > 0
    assert result["tuples_materialized"] > 0
    assert result["serialize_s"] >= 0 and result["check_s"] >= 0
    if not result["member"]:
        assert result["clonoid_parts"] == result["member_parts"] == 0
        assert result["check_s"] == 0
    return result


def test_scale_member_at_k_100():
    result = _scale()
    assert result["probe"] is False and result["affine"] is None
    assert result["member"] is True and result["witness_ok"] is True
    assert result["witness_bytes"] > 0
    # decided by the clonoid image: its rows make the witness
    assert result["clonoid_parts"] > 0 and result["member_parts"] == 0
    assert result["check_s"] > 0


def test_scale_l_shifted_probe_at_k_100():
    result = _scale("--probe")
    assert result["probe"] is True
    assert result["member"] is False and result["witness_ok"] is False
    assert result["witness_bytes"] == 0


def test_scale_affine_member_at_k_100():
    result = _scale("--affine", "12")
    assert result["probe"] is False and result["affine"] == 12
    assert result["member"] is True and result["witness_ok"] is True
    assert result["witness_bytes"] > 0
    # an affine witness is one circuit, with no parts
    assert result["clonoid_parts"] == result["member_parts"] == 0


def test_scale_affine_probe_at_k_100():
    result = _scale("--affine", "12", "--probe")
    assert result["probe"] is True and result["affine"] == 12
    assert result["member"] is False and result["witness_ok"] is False
    assert result["witness_bytes"] == 0
