import pytest

from subpower.circuits import (Circuit, CircuitBank, CircuitError,
                               parse_sexpr, serialize_sexpr, variable)


def test_parse_simple_application():
    c = parse_sexpr("(m x1 x2 x3)")
    assert c.arity == 3
    assert c.gates[c.output] == ("m", 0, 1, 2)


def test_parse_nested_and_roundtrip():
    text = "(m x1 (m x2 x2 x3) x3)"
    c = parse_sexpr(text)
    assert serialize_sexpr(c) == text
    assert parse_sexpr(serialize_sexpr(c)).gates == c.gates


def test_parse_let_sharing():
    c = parse_sexpr("(let ((g (m x1 x2 x3))) (m g g x1))")
    # the bound gate appears once in the gate list
    assert sum(1 for gate in c.gates if gate[0] == "m") == 2


def test_serialize_shares_repeated_gates():
    bank = CircuitBank(2)
    inner = bank.app("f", (bank.var(1), bank.var(2)))
    outer = bank.app("f", (inner, inner))
    text = serialize_sexpr(bank.extract(outer))
    assert text.startswith("(let ")
    again = parse_sexpr(text)
    assert serialize_sexpr(again) == text


def test_variable_and_bad_inputs():
    v = variable(2, 3)
    assert v.gates == (("x", 2),)
    with pytest.raises(CircuitError):
        parse_sexpr("(m x1 x9)", arity=3)
    with pytest.raises(CircuitError):
        parse_sexpr("(m x1")
    with pytest.raises(CircuitError):
        Circuit(2, (("x", 5),), 0)
    with pytest.raises(CircuitError):
        Circuit(2, (("f", 1), ("x", 1)), 0)  # child after gate


def test_bank_splice_and_extract():
    c = parse_sexpr("(m x1 x2 x3)")
    bank = CircuitBank(3)
    n1 = bank.splice(c, [bank.var(1), bank.var(2), bank.var(3)])
    n2 = bank.splice(c, [n1, bank.var(2), bank.var(3)])
    # hash-consing: splicing the same structure twice reuses nodes
    n1_again = bank.splice(c, [bank.var(1), bank.var(2), bank.var(3)])
    assert n1 == n1_again
    ext = bank.extract(n2)
    assert ext.size == 5  # three vars + two gates


def test_bank_splice_rejects_bad_leaves():
    c = parse_sexpr("(m x1 x2 x3)")
    bank = CircuitBank(3)
    leaves = [bank.var(1), bank.var(2), bank.var(3)]
    size = len(bank)
    with pytest.raises(CircuitError):
        bank.splice(c, [leaves[0], leaves[1], size])      # out of range
    with pytest.raises(CircuitError):
        bank.splice(c, [leaves[0], -1, leaves[2]])        # negative
    with pytest.raises(CircuitError):
        bank.splice(c, leaves[:2])                        # wrong count
    with pytest.raises(CircuitError):
        bank.splice(c, leaves + [leaves[0]])
    assert len(bank) == size                              # nothing added
