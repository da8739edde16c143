"""``scripts/scale.py``: one seeded a6 solve, a member, with ``--probe``
an l-shifted non-member or with ``--quotient`` a u-shifted one, or with
``--affine M`` a Z_M member or with ``--probe`` a shifted Z_M
non-member, reported as JSON.  M = 7 and 12 take one prime and two; 30
takes three, and 9 a second digit of the p-adic lift.  With ``--context``
it times a cold wreath context build instead."""

import json
import os
import subprocess
import sys

import pytest

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
        assert result["member_parts"] == 0 and result["check_s"] == 0
    return result


def test_scale_member_at_k_100():
    result = _scale()
    assert result["probe"] is False and result["affine"] is None
    assert result["quotient"] is False
    assert result["member"] is True and result["witness_ok"] is True
    assert result["decided_by"] == "image"
    assert result["witness_bytes"] > 0
    # decided by the clonoid image: the base alone is the witness
    assert result["member_parts"] == 0
    assert result["check_s"] > 0


def test_scale_l_shifted_probe_at_k_100():
    result = _scale("--probe")
    assert result["probe"] is True
    assert result["member"] is False and result["witness_ok"] is False
    assert result["witness_bytes"] == 0
    # its u-parts are a member's: the l-part test rejects it
    assert result["decided_by"] == "full"


def test_scale_quotient_probe_at_k_100():
    result = _scale("--quotient")
    assert result["quotient"] is True and result["probe"] is False
    assert result["member"] is False and result["witness_ok"] is False
    assert result["witness_bytes"] == 0
    assert result["decided_by"] == "quotient"


def test_scale_affine_member_at_k_100():
    result = _scale("--affine", "12")
    assert result["probe"] is False and result["affine"] == 12
    assert result["member"] is True and result["witness_ok"] is True
    assert result["decided_by"] is None
    assert result["witness_bytes"] > 0
    # an affine witness is one circuit, with no parts
    assert result["member_parts"] == 0


def test_scale_affine_probe_at_k_100():
    result = _scale("--affine", "12", "--probe")
    assert result["probe"] is True and result["affine"] == 12
    assert result["member"] is False and result["witness_ok"] is False
    assert result["witness_bytes"] == 0


@pytest.mark.parametrize("m", [30, 9])
def test_scale_lifted_affine_member_at_k_100(m):
    """Z_30 lifts over three primes, Z_9 by a second 3-adic digit."""
    result = _scale("--affine", str(m))
    assert result["probe"] is False and result["affine"] == m
    assert result["member"] is True and result["witness_ok"] is True
    assert result["witness_bytes"] > 0
    assert result["member_parts"] == 0


@pytest.mark.parametrize("m", [30, 9])
def test_scale_lifted_affine_probe_at_k_100(m):
    result = _scale("--affine", str(m), "--probe")
    assert result["probe"] is True and result["affine"] == m
    assert result["member"] is False and result["witness_ok"] is False
    assert result["witness_bytes"] == 0


def test_scale_context_build_of_a6():
    proc = subprocess.run(
        [sys.executable, "scripts/scale.py", "--context", "a6"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.strip().splitlines()
    result = json.loads(line)
    assert result["context"] == "a6"
    assert result["wall_s"] > 0 and result["peak_rss_mb"] > 0
    # a6's clonoid: no unary generator, one binary (0, 1, 1, 0)
    assert result["unary"] == 0 and result["binary"] == 1


@pytest.mark.parametrize("flags", [["--context", "z12"],
                                   ["--context", "random_wreath:3:4"],
                                   ["--context", "a6", "--probe"]])
def test_scale_context_refuses_bad_use(flags):
    proc = subprocess.run([sys.executable, "scripts/scale.py", *flags],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 2 and "--context" in proc.stderr
