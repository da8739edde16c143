"""Solver outputs on the seeded golden corpus stay byte-identical."""

import json

from conftest import golden_module


def test_golden_outputs_unchanged():
    golden = golden_module()
    with open(golden.GOLDEN) as fh:
        want = fh.read().splitlines()
    got = golden.render().splitlines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"golden record {i + 1} differs"


def test_check_names_exactly_the_doctored_field(tmp_path, monkeypatch,
                                                capsys):
    golden = golden_module()
    with open(golden.GOLDEN) as fh:
        text = fh.read()
    # the rendered corpus equals the golden file (test above); reuse it
    monkeypatch.setattr(golden, "render", lambda: text)
    path = tmp_path / "golden.jsonl"
    path.write_text(text)
    monkeypatch.setattr(golden, "GOLDEN", str(path))
    assert golden.main(["--check"]) == 0
    capsys.readouterr()

    lines = text.splitlines(keepends=True)
    idx, record = next((i, json.loads(line)) for i, line in enumerate(lines)
                       if json.loads(line)["kind"] == "solve"
                       and json.loads(line)["verdict"]["witness"])
    record["verdict"]["stats"]["tuples_materialized"] += 1
    lines[idx] = golden.dump_json(record) + "\n"
    path.write_text("".join(lines))
    assert golden.main(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"record {idx + 1} ({record['case']}/solve/"
                   f"{record['seed']}): verdict.stats.tuples_materialized"]


def test_field_diffs_paths():
    golden = golden_module()
    want = {"a": [1, {"b": 2}], "c": True, "d": 0}
    assert golden._field_diffs(want, want) == []
    got = {"a": [1, {"b": 3}], "c": 1, "e": 0}
    assert golden._field_diffs(got, want) == ["a.1.b", "c", "d", "e"]
    assert golden._field_diffs({"a": [1]}, want) == ["a", "c", "d"]
