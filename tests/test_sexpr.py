"""The non-recursive s-expression reader and writer against the recursive
references in ``reference_impl``, and circuits nested far deeper than
Python's recursion limit."""

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from subpower.catalog import zmod_algebra, zmod_group_algebra
from subpower.circuits import (Circuit, CircuitBank, CircuitError,
                               parse_sexpr, serialize_sexpr)
from subpower.instances import random_instance
from subpower.serialize import comprep_from_dict, instance_from_dict
from subpower.solver import SmpInstance, SmpVerdict, check_witness, dispatch

DEEP = 3 * sys.getrecursionlimit()


def _outcome(parse, text, arity):
    try:
        return parse(text, arity)
    except CircuitError as e:
        return f"CircuitError: {e}"


@st.composite
def circuits(draw):
    """Random circuits of arity 1-4 with many shared and some unused gates."""
    arity = draw(st.integers(1, 4))
    gates = [("x", i) for i in draw(st.permutations(range(1, arity + 1)))]
    for _ in range(draw(st.integers(0, 12))):
        r = draw(st.sampled_from([0, 1, 2, 3]))
        children = draw(st.lists(st.integers(0, len(gates) - 1),
                                 min_size=r, max_size=r))
        gates.append((draw(st.sampled_from(["m", "f", "g0"])),)
                     + tuple(children))
    return Circuit(arity, tuple(gates), draw(st.integers(0, len(gates) - 1)))


@settings(max_examples=300, deadline=None)
@given(circuits(), st.integers(1, 4))
def test_writer_and_reader_match_reference(circuit, threshold):
    text = serialize_sexpr(circuit, threshold)
    assert text == ref.serialize_sexpr(circuit, threshold)
    ours = parse_sexpr(text, circuit.arity)
    assert ours == ref.parse_sexpr(text, circuit.arity)
    assert serialize_sexpr(ours) == ref.serialize_sexpr(ours)


TOKENS = ["(", ")", "(", ")", "let", "x1", "x2", "x0", "x01", "x3", "g0",
          "g1", "m", "f", "y", "((g0", "(let", "(m", "x1)"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=16),
       st.sampled_from([None, 1, 3]))
def test_reader_matches_reference_on_token_strings(tokens, arity):
    """Same Circuit, or CircuitError with the same message, on arbitrary
    (mostly malformed) token strings."""
    text = " ".join(tokens)
    assert _outcome(parse_sexpr, text, arity) == \
        _outcome(ref.parse_sexpr, text, arity)


@settings(max_examples=300, deadline=None)
@given(circuits(), st.data())
def test_reader_matches_reference_on_damaged_text(circuit, data):
    """Well-formed text with one token deleted, inserted or replaced."""
    tokens = ref._TOKEN.findall(serialize_sexpr(circuit))
    pos = data.draw(st.integers(0, len(tokens)))
    edit = data.draw(st.sampled_from(["delete", "insert", "replace"]))
    word = data.draw(st.sampled_from(TOKENS + ["let", "((", "g0 x1"]))
    if edit == "insert":
        tokens.insert(pos, word)
    elif pos < len(tokens):
        tokens[pos:pos + 1] = [] if edit == "delete" else [word]
    text = " ".join(tokens)
    for arity in (None, circuit.arity):
        assert _outcome(parse_sexpr, text, arity) == \
            _outcome(ref.parse_sexpr, text, arity)


def test_reader_messages():
    cases = {
        "": "empty circuit expression",
        ") x1": "unexpected ')'",
        "(m x1": "unbalanced s-expression",
        "(m x1) x2": "trailing tokens in circuit expression",
        "x1 x2": "trailing tokens in circuit expression",
        "(m ())": "empty application",
        "((m) x1)": "operation symbol expected",
        "(let ((g x1)) g x1)": "let expects bindings and a body",
        "(let (g) g)": "malformed let binding",
        "(let x1 x1)": "malformed let binding",
        "(m y)": "unknown atom 'y'",
        "(m x0)": "input variables are numbered from x1",
        # not hash-consed onto the input gate x1 (m(x1, x2, x1))
        "(m x1 x2 (x x2))": "'x' is reserved for input gates",
        "(let ((g (x x1))) (m g g g))": "'x' is reserved for input gates",
        # a let's names are gone after it
        "(m (let ((g x1)) g) g)": "unknown atom 'g'",
    }
    for text, message in cases.items():
        with pytest.raises(CircuitError, match=re.escape(message)):
            parse_sexpr(text)
        with pytest.raises(CircuitError):
            ref.parse_sexpr(text)


def _nested(depth: int) -> str:
    """(m x1 x1 (m x1 x1 ... x1)): no gate is shared, so nothing is bound."""
    return "(m x1 x1 " * depth + "x1" + ")" * depth


def test_bank_chain_thousands_deep_round_trips():
    bank = CircuitBank(3)
    x1, x2, x3 = bank.var(1), bank.var(2), bank.var(3)
    node = x3
    for _ in range(DEEP):
        node = bank.app("m", (x1, x2, node))
    circuit = bank.extract(node)
    text = serialize_sexpr(circuit)
    assert text == "(m x1 x2 " * DEEP + "x3" + ")" * DEEP
    assert parse_sexpr(text) == circuit


def test_deep_let_nesting_parses():
    text = "(let ((g x1)) " * DEEP + "(m g g g)" + ")" * DEEP
    circuit = parse_sexpr(text)
    assert circuit.gates == (("x", 1), ("m", 0, 0, 0))


def test_check_witness_total_on_deep_text():
    alg, _ = zmod_algebra(5)
    inst = SmpInstance(((1, 2), (3, 4)), (1, 2))
    deep = SmpVerdict(True, {"path": "affine", "circuit": _nested(1200)})
    assert check_witness((alg, None), inst, deep)        # m(x, x, z) = z
    unbalanced = SmpVerdict(True, {"path": "affine",
                                   "circuit": _nested(1200)[:-1]})
    assert check_witness((alg, None), inst, unbalanced) is False


def test_comprep_from_dict_reads_deep_circuits():
    rep = comprep_from_dict({"tuples": [[1, 2]], "circuits": [_nested(1200)]},
                            generators=[(1, 2), (3, 4)])
    alg, _ = zmod_algebra(5)
    assert rep.check_circuits(alg)


def test_z128_solves_with_a_deep_witness():
    alg_input = zmod_group_algebra(128)
    inst = instance_from_dict(random_instance(alg_input, 60, 24, 1.0, seed=4))
    verdict = dispatch(alg_input, inst)
    assert verdict.member
    text = verdict.witness["circuit"]
    depth = max_depth = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        max_depth = max(max_depth, depth)
    assert max_depth > sys.getrecursionlimit() // 2
    assert check_witness(alg_input, inst, verdict)
