import importlib.util
import os

import pytest

from subpower.catalog import a6, a6_shift, w15, zmod_algebra, zmod_group_algebra
from subpower.comprep import EnumeratedCompactRep, thin_to_compact
from subpower.core import closure_with_circuits

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def golden_module():
    """``scripts/golden.py``, loaded as a module."""
    path = os.path.join(ROOT, "scripts", "golden.py")
    spec = importlib.util.spec_from_file_location("golden", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def pytest_runtest_logreport(report):
    # the acceptance tests print their own PASS lines; mirror failures so
    # every criterion shows exactly one pass/fail line
    if report.when == "call" and report.failed and \
            "test_criterion_" in report.nodeid:
        tag = report.nodeid.split("test_criterion_", 1)[1]
        num = tag.split("_", 1)[0]
        print(f"\nACCEPTANCE {num}: FAIL ({report.nodeid})")


@pytest.fixture(scope="session")
def a6_spec():
    return a6()


@pytest.fixture(scope="session")
def a6e_spec():
    return a6_shift()


@pytest.fixture(scope="session")
def w15_spec():
    return w15()


@pytest.fixture(scope="session")
def z3():
    return zmod_algebra(3)


@pytest.fixture(scope="session")
def z3_group():
    return zmod_group_algebra(3)


def oracle_rep(alg, gens, cap=100_000) -> EnumeratedCompactRep:
    """Enumerated compact representation straight from the closure oracle."""
    tuples, nodes, bank, truncated = closure_with_circuits(alg, gens, cap=cap)
    assert not truncated
    rep = EnumeratedCompactRep(tuple(tuple(g) for g in gens),
                               list(zip(tuples, nodes)), bank)
    return thin_to_compact(rep)


def expand_subgroup(group, generators, k):
    """All elements of the subgroup of L^k spanned by the generators."""
    from subpower.affine import tuple_add
    zero = (group.zero,) * k
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = tuple_add(group, cur, tuple(g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen
