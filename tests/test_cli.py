import json

import pytest

from subpower.catalog import a6, a6_symmetric, random_wreath, zmod_algebra
from subpower.cli import main
from subpower.comprep import signature
from subpower.core import subpower_closure
from subpower.serialize import (algebra_to_dict, dump_json, wreath_to_dict)


@pytest.fixture()
def a6_file(tmp_path):
    path = tmp_path / "a6.json"
    path.write_text(dump_json(wreath_to_dict(a6())))
    return str(path)


@pytest.fixture()
def z3_file(tmp_path):
    alg, group = zmod_algebra(3)
    path = tmp_path / "z3.json"
    path.write_text(dump_json(algebra_to_dict(alg, group)))
    return str(path)


def write_instance(tmp_path, gens, target, name="inst.json"):
    path = tmp_path / name
    path.write_text(dump_json({"k": len(target),
                               "generators": [list(g) for g in gens],
                               "target": list(target)}))
    return str(path)


def test_solve_member_exit0(tmp_path, a6_file, capsys):
    inst = write_instance(tmp_path, [(0, 1), (3, 3)], (0, 1))
    rc = main(["solve", "--algebra", a6_file, "--instance", inst, "--witness"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["member"] is True
    assert out["stats"]["path"] == "wreath"
    assert out["witness"]["base"]["circuit"]


def test_solve_nonmember_exit1(tmp_path, a6_file, capsys):
    inst = write_instance(tmp_path, [(0, 0), (2, 4)], (1, 0))
    rc = main(["solve", "--algebra", a6_file, "--instance", inst])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1 and out["member"] is False


def test_solve_affine_path(tmp_path, z3_file, capsys):
    inst = write_instance(tmp_path, [(0, 0), (1, 1)], (2, 2))
    rc = main(["solve", "--algebra", z3_file, "--instance", inst,
               "--witness"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["stats"]["path"] == "affine"
    assert out["witness"]["circuit"]


def test_verify_good_and_bad(tmp_path, a6_file, capsys):
    assert main(["verify", "--algebra", a6_file]) == 0
    capsys.readouterr()
    alg, group = zmod_algebra(3)
    bad = algebra_to_dict(alg, group)
    bad["maltsev"] = "x1"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(dump_json(bad))
    rc = main(["verify", "--algebra", str(bad_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "(0, 1)" in err or "(1, 0)" in err


def test_oracle_cap_exit3(tmp_path, capsys):
    from subpower.catalog import zmod_group_algebra
    alg, group = zmod_group_algebra(6)
    path = tmp_path / "z6.json"
    path.write_text(dump_json(algebra_to_dict(alg, group)))
    inst = write_instance(tmp_path, [(1, 0), (0, 1)], (3, 3))
    rc = main(["oracle", "--algebra", str(path), "--instance", inst,
               "--cap", "10"])
    assert rc == 3
    assert "cap" in capsys.readouterr().err


def test_usage_error_exit2(tmp_path, a6_file, capsys):
    inst = write_instance(tmp_path, [(0, 7)], (0, 0))
    rc = main(["solve", "--algebra", a6_file, "--instance", inst])
    assert rc == 2


def test_solve_refuses_a_float_entry(tmp_path, a6_file, capsys):
    # 1.7 would truncate to the element 1 and solve as a member
    inst = write_instance(tmp_path, [(0, 1.7, 2), (3, 4, 5)], (0, 1, 2))
    rc = main(["solve", "--algebra", a6_file, "--instance", inst])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "generators[0][1] = 1.7 is not an integer" in captured.err


def test_solve_refuses_a_float_hat_entry(tmp_path, capsys):
    d = wreath_to_dict(a6())
    d["hat"]["m"][2] = 1.5
    path = tmp_path / "a6_float_hat.json"
    path.write_text(dump_json(d))
    inst = write_instance(tmp_path, [(0, 1, 2), (3, 4, 5)], (0, 1, 2))
    rc = main(["solve", "--algebra", str(path), "--instance", inst])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "hat[m][2] = 1.5 is not an integer" in captured.err


def _set_domain_size(d, value):
    d["domain_size"] = value


def _set_order(d, value):
    d["group"]["cyclic_orders"] = [value]


def _set_zero(d, value):
    d["group"]["zero"] = value


def _set_arity(d, value):
    d["ops"][0]["arity"] = value


@pytest.mark.parametrize("command, edit, value, field", [
    ("verify", _set_domain_size, 3.9, "domain_size = 3.9"),
    ("verify", _set_order, 3.5, "cyclic_orders[0] = 3.5"),
    ("verify", _set_zero, 1.7, "zero = 1.7"),
    ("verify", _set_arity, 2.6, "arity = 2.6"),
    ("verify", _set_domain_size, "3", "domain_size = '3'"),
    ("solve", None, 2.5, "k = 2.5"),
], ids=["domain_size", "cyclic_orders", "zero", "arity", "domain_size_str",
        "k"])
def test_loaders_refuse_a_non_integer_field(tmp_path, capsys, command, edit,
                                            value, field):
    """Each of these used to load truncated (or converted) and pass."""
    from subpower.catalog import zmod_group_algebra
    d = algebra_to_dict(*zmod_group_algebra(3))
    if edit is not None:
        edit(d, value)
    path = tmp_path / "z3.json"
    path.write_text(dump_json(d))
    argv = [command, "--algebra", str(path)]
    if command == "solve":
        inst = tmp_path / "inst.json"
        inst.write_text(dump_json({"k": value, "generators": [[0, 1]],
                                   "target": [0, 1]}))
        argv += ["--instance", str(inst)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field} is not an integer" in captured.err


def _without(d, name):
    return {key: value for key, value in d.items() if key != name}


# (command, file, edit, what the error names): each used to end in a
# TypeError, KeyError or AttributeError traceback, and the stray hat symbol
# was ignored, so ``verify`` reported the file as valid
BAD_SHAPES = {
    "cyclic_orders_number": (
        "verify", "algebra",
        lambda d: {**d, "group": {**d["group"], "cyclic_orders": 3}},
        "algebra.group.cyclic_orders = 3 is not a list"),
    "table_number": (
        "verify", "algebra",
        lambda d: {**d, "ops": [{**d["ops"][0], "table": 5}] + d["ops"][1:]},
        "algebra.ops[0].table = 5 is not a list"),
    "ops_number": ("verify", "algebra", lambda d: {**d, "ops": 5},
                   "algebra.ops = 5 is not a list"),
    "group_list": ("verify", "algebra", lambda d: {**d, "group": [3]},
                   "algebra.group = [3] is not a dict"),
    "group_without_orders": (
        "verify", "algebra", lambda d: {**d, "group": {"zero": 0}},
        "algebra.group is missing field 'cyclic_orders'"),
    "maltsev_number": ("verify", "algebra", lambda d: {**d, "maltsev": 5},
                       "algebra.maltsev = 5 is not a str"),
    "generators_number": ("solve", "instance",
                          lambda d: {**d, "generators": 5},
                          "instance.generators = 5 is not a list"),
    "generator_number": ("solve", "instance",
                         lambda d: {**d, "generators": [5]},
                         "instance.generators[0] = 5 is not a list"),
    "target_number": ("solve", "instance", lambda d: {**d, "target": 3},
                      "instance.target = 3 is not a list"),
    "target_missing": ("solve", "instance", lambda d: _without(d, "target"),
                       "instance is missing field 'target'"),
    "instance_list": ("solve", "instance", lambda d: [d],
                      "instance = [{"),
    "hat_number": ("verify", "wreath", lambda d: {**d, "hat": 5},
                   "wreath spec.hat = 5 is not a dict"),
    "L_missing": ("verify", "wreath", lambda d: _without(d, "L"),
                  "wreath spec is missing field 'L'"),
    "hat_table_number": ("solve", "wreath", lambda d: {**d, "hat": {"m": 5}},
                         "hat[m] = 5 is not a list"),
    "hat_symbol_unknown": (
        "verify", "wreath",
        lambda d: {**d, "hat": {**d["hat"], "q": [0] * 8}},
        "hat table for 'q', which is not in the language"),
}


@pytest.mark.parametrize("command, kind, edit, field",
                         BAD_SHAPES.values(), ids=BAD_SHAPES.keys())
def test_loaders_refuse_a_badly_shaped_field(tmp_path, capsys, command, kind,
                                             edit, field):
    from subpower.catalog import zmod_group_algebra
    algebra = (wreath_to_dict(a6()) if kind == "wreath"
               else algebra_to_dict(*zmod_group_algebra(3)))
    inst = {"k": 2, "generators": [[0, 1]], "target": [0, 1]}
    if kind == "instance":
        inst = edit(inst)
    else:
        algebra = edit(algebra)
    path = tmp_path / "algebra.json"
    path.write_text(dump_json(algebra))
    argv = [command, "--algebra", str(path)]
    if command == "solve":
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(dump_json(inst))
        argv += ["--instance", str(inst_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


def test_random_instance_deterministic(a6_file, capsys):
    rc = main(["random-instance", "--algebra", a6_file, "--k", "4",
               "--n", "3", "--seed", "11", "--member-bias", "1.0"])
    first = capsys.readouterr().out
    rc2 = main(["random-instance", "--algebra", a6_file, "--k", "4",
                "--n", "3", "--seed", "11", "--member-bias", "1.0"])
    second = capsys.readouterr().out
    assert rc == rc2 == 0 and first == second


def test_random_instance_member_bias_one(tmp_path, a6_file, capsys):
    for seed in range(5):
        rc = main(["random-instance", "--algebra", a6_file, "--k", "3",
                   "--n", "2", "--seed", str(seed), "--member-bias", "1.0"])
        inst = json.loads(capsys.readouterr().out)
        path = tmp_path / f"i{seed}.json"
        path.write_text(dump_json(inst))
        rc = main(["solve", "--algebra", a6_file, "--instance", str(path)])
        capsys.readouterr()
        assert rc == 0


def test_diff_clonoid_output(a6_file, capsys):
    rc = main(["diff-clonoid", "--algebra", a6_file])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["p"] == 2
    assert out["binary"] == [[0, 1, 1, 0]]
    assert out["exact_enumeration"] is True


@pytest.mark.parametrize("command", ["diff-clonoid", "verify"])
def test_cap_is_refused_where_it_limits_nothing(a6_file, command, capsys):
    """Extraction is exact with no cap, and verification runs no closure:
    neither command takes ``--cap``."""
    assert main([command, "--algebra", a6_file, "--cap", "5"]) == 2
    assert "--cap" in capsys.readouterr().err


def test_comprep_and_fix(tmp_path, z3_file, capsys):
    inst = write_instance(tmp_path, [(0, 0), (1, 1)], (0, 0))
    rc = main(["comprep", "--algebra", z3_file, "--instance", inst])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0 and sorted(rep["tuples"]) == [[0, 0], [1, 1], [2, 2]]
    rc = main(["fix", "--algebra", z3_file, "--instance", inst,
               "--values", "2"])
    fixed = json.loads(capsys.readouterr().out)
    assert rc == 0 and fixed["tuples"] == [[2, 2]]


def test_solve_outside_the_wreath_class_names_the_reason(tmp_path, capsys):
    path = tmp_path / "wreath_4_3.json"
    path.write_text(dump_json(wreath_to_dict(random_wreath(4, 3, seed=1))))
    inst = write_instance(tmp_path, [(0, 1), (2, 2)], (0, 1))
    argv = ["solve", "--algebra", str(path), "--instance", inst]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "quotient size 4 is not prime" in captured.err
    assert "--allow-oracle" in captured.err
    with pytest.warns(UserWarning):
        assert main(argv + ["--allow-oracle"]) == 0
    assert json.loads(capsys.readouterr().out)["stats"]["path"] == "oracle"


def test_comprep_and_fix_on_wreath_need_the_oracle(tmp_path, capsys):
    spec = a6_symmetric()
    path = tmp_path / "a6_symmetric.json"
    path.write_text(dump_json(wreath_to_dict(spec)))
    gens = [(1, 3, 5), (3, 1, 3)]
    inst = write_instance(tmp_path, gens, (1, 3, 5))
    for argv in (["comprep"], ["fix", "--values", "1"]):
        argv += ["--algebra", str(path), "--instance", inst]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--allow-oracle" in captured.err
        assert main(argv + ["--allow-oracle"]) == 0
        tuples = [tuple(t) for t in json.loads(capsys.readouterr().out)["tuples"]]
        closed = subpower_closure(spec.algebra, gens)
        if argv[0] == "fix":
            closed = {t for t in closed if t[0] == 1}
        assert set(tuples) <= closed
        assert signature(tuples) == signature(sorted(closed))


def test_bench_csv(a6_file, capsys):
    rc = main(["bench", "--algebra", a6_file, "--grid", "3:2,5:3",
               "--seed", "4", "--format", "csv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out[0] == "k,n,path,tuples,ms"
    assert len(out) == 3


def test_bench_cap_reaches_the_oracle(tmp_path, capsys):
    """``--cap`` bounds the oracle under ``bench`` as it does under
    ``solve``: on a6's product algebra, outside the polynomial classes."""
    path = tmp_path / "a6_algebra.json"
    path.write_text(dump_json(algebra_to_dict(a6().algebra)))
    inst = write_instance(tmp_path, [(0, 1, 2), (3, 4, 5)], (0, 1, 2))
    with pytest.warns(UserWarning):
        assert main(["solve", "--algebra", str(path), "--instance", inst,
                     "--allow-oracle", "--cap", "5"]) == 3
    assert "cap" in capsys.readouterr().err
    with pytest.warns(UserWarning):
        assert main(["bench", "--algebra", str(path), "--grid", "3:2",
                     "--allow-oracle", "--cap", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "cap" in captured.err


def test_missing_file_exit2(capsys):
    rc = main(["verify", "--algebra", "/nonexistent/path.json"])
    assert rc == 2


def _deep_maltsev(depth: int) -> str:
    # m(x1, x2, m(x2, x2, ... m(x2, x2, x3))) is x1 - x2 + x3 again
    return "(m x1 x2 " + "(m x2 x2 " * depth + "x3" + ")" * (depth + 1)


def test_verify_deep_circuit_file(tmp_path, capsys):
    alg, group = zmod_algebra(3)
    deep = algebra_to_dict(alg, group)
    deep["maltsev"] = _deep_maltsev(3000)
    path = tmp_path / "deep.json"
    path.write_text(dump_json(deep))
    assert main(["verify", "--algebra", str(path)]) == 0
    capsys.readouterr()
    deep["maltsev"] = _deep_maltsev(3000)[:-1]          # unbalanced
    path.write_text(dump_json(deep))
    assert main(["verify", "--algebra", str(path)]) == 2
    assert "unbalanced" in capsys.readouterr().err
    deep["maltsev"] = "(x)"                             # an input gate
    path.write_text(dump_json(deep))
    assert main(["verify", "--algebra", str(path)]) == 2
    assert "input gate" in capsys.readouterr().err


def test_solve_witness_z128(tmp_path, capsys):
    from subpower.catalog import zmod_group_algebra
    from subpower.instances import random_instance
    alg_input = zmod_group_algebra(128)
    path = tmp_path / "z128.json"
    path.write_text(dump_json(algebra_to_dict(*alg_input)))
    inst = tmp_path / "inst.json"
    inst.write_text(dump_json(random_instance(alg_input, 30, 8, 1.0, seed=3)))
    rc = main(["solve", "--algebra", str(path), "--instance", str(inst),
               "--witness"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["member"] is True and out["witness"]["circuit"]


def test_solve_rejects_an_operation_named_x(tmp_path, capsys):
    alg, group = zmod_algebra(3)
    d = algebra_to_dict(alg, group)
    d["ops"].append({"symbol": "x", "arity": 1, "table": [0, 1, 2]})
    path = tmp_path / "x_op.json"
    path.write_text(dump_json(d))
    inst = write_instance(tmp_path, [(0, 0), (1, 1)], (2, 2))
    rc = main(["solve", "--algebra", str(path), "--instance", inst])
    assert rc == 2
    assert "operation symbol 'x' is reserved" in capsys.readouterr().err
