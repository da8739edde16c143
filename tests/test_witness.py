"""check_witness is total: malformed witnesses give False, never an error."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpower.catalog import zmod_group_algebra
from subpower.solver import SmpInstance, SmpVerdict, check_witness, dispatch

# a6 instance whose wreath witness uses a member; its second generator,
# a term value with its circuit, has a u-part other than the target's
INST = SmpInstance(((4, 0, 3, 2), (0, 0, 1, 5)), (0, 0, 1, 0))
OFF_FIBRE = {"value": [0, 0, 1, 5], "circuit": "x2"}


@pytest.fixture(scope="module")
def wreath_verdict(a6_spec):
    verdict = dispatch(a6_spec, INST)
    assert verdict.member
    w = verdict.witness
    assert w["members"] and set(w) == {"path", "base", "members"}
    assert check_witness(a6_spec, INST, verdict)
    return verdict


def _mutated(verdict, change) -> SmpVerdict:
    witness = copy.deepcopy(verdict.witness)
    change(witness)
    return SmpVerdict(True, witness, dict(verdict.stats))


def _wrap_first(part, by):
    part["value"][0] += by


MALFORMED = {
    # a value shifted by -6 indexes the same element if negative indices
    # wrap
    "member value out of range (negative)":
        lambda w: _wrap_first(w["members"][0], -6),
    "base value out of range (too large)":
        lambda w: _wrap_first(w["base"], 6),
    "member value too short": lambda w: w["members"][0]["value"].pop(),
    # a length-one row would broadcast against the other tuples
    "member value of length one":
        lambda w: w["members"][0].update(value=w["members"][0]["value"][:1]),
    "member value too long": lambda w: w["members"][0]["value"].append(0),
    "member value out of range":
        lambda w: w["members"][0]["value"].__setitem__(0, 6),
    "string coefficient": lambda w: w["members"][0].update(coeff="2"),
    "float coefficient": lambda w: w["members"][0].update(coeff=2.0),
    "missing base": lambda w: w.pop("base"),
    "missing members": lambda w: w.pop("members"),
    "missing circuit": lambda w: w["members"][0].pop("circuit"),
    "unparsable circuit":
        lambda w: w["base"].update(circuit="(m x1"),
    "circuit on a missing variable":
        lambda w: w["base"].update(circuit="x7"),
    "base value not a list": lambda w: w["base"].update(value=17),
    "member entry not a dict": lambda w: w["members"].__setitem__(0, [1]),
    # a term value with its circuit, off the target's u-part: each leaves
    # a rest in the clonoid image, at the one coordinate whose u-parts
    # differ
    "member off the target's u-part":
        lambda w: w.update(members=[dict(OFF_FIBRE, coeff=1)]),
    "base off the target's u-part":
        lambda w: w.update(base=OFF_FIBRE, members=[]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_wreath_witness_is_false(a6_spec, wreath_verdict, name):
    bad = _mutated(wreath_verdict, MALFORMED[name])
    assert check_witness(a6_spec, INST, bad) is False


def test_malformed_verdicts_are_false(a6_spec, wreath_verdict):
    assert check_witness(a6_spec, INST, SmpVerdict(True, ["wreath"])) is False
    assert check_witness(a6_spec, INST, SmpVerdict(True, {})) is False
    assert check_witness(a6_spec, INST, None) is False
    unknown = _mutated(wreath_verdict, lambda w: w.update(path="other"))
    assert check_witness(a6_spec, INST, unknown) is False


def test_malformed_directproduct_witness_is_false(a6_spec):
    # the removed direct-product route's witness, a Mal'tsev chain over
    # tuples taken on trust, is no witness even when it starts at the target
    start = list(INST.target)
    for witness in ({"path": "directproduct", "start": start, "steps": []},
                    {"path": "directproduct", "start": [-6] + start[1:],
                     "steps": []},
                    {"path": "directproduct", "start": start[:-1],
                     "steps": []},
                    {"path": "directproduct", "start": start,
                     "steps": [[start]]},
                    {"path": "directproduct", "start": start}):
        assert check_witness(a6_spec, INST, SmpVerdict(True, witness)) \
            is False


def test_malformed_affine_witness_is_false():
    alg_group = zmod_group_algebra(12)
    inst = SmpInstance(((3, 8, 8, 2), (3, 3, 8, 4)), (3, 8, 8, 2))
    verdict = dispatch(alg_group, inst)
    assert verdict.member and check_witness(alg_group, inst, verdict)
    for change in (lambda w: w.update(circuit="(add x1"),
                   lambda w: w.update(circuit=5),
                   # x names input gates, not an operation
                   lambda w: w.update(circuit="(x x1)"),
                   lambda w: w.pop("circuit")):
        assert check_witness(alg_group, inst, _mutated(verdict, change)) \
            is False


json_leaf = st.one_of(st.integers(-10, 10), st.text(max_size=3), st.none(),
                      st.booleans(), st.floats(allow_nan=False, width=16))
json_value = st.recursive(
    json_leaf, lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.sampled_from(["value", "coeff", "circuit",
                                         "base", "members", "clonoid",
                                         "path"]), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_check_witness_never_raises(a6_spec, wreath_verdict, data):
    witness = copy.deepcopy(wreath_verdict.witness)
    # replace one node of the witness tree with arbitrary JSON
    node, key = witness, None
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(sorted(keys, key=str)))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or \
                data.draw(st.booleans()):
            break
        node = child
    node[key] = data.draw(json_value)
    result = check_witness(a6_spec, INST, SmpVerdict(True, witness))
    assert isinstance(result, bool)
