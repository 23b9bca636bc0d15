import ast
import csv
import importlib
import json
import math
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import platoonnet
from platoonnet import cli
from platoonnet.cli import main
from platoonnet.connectivity import ROBUSTNESS_LIMIT, connectivity_report, knn_closed_forms
from platoonnet.graph import Graph, PlatoonSpec, build_knn_platoon, lambda2_bounds, save_graph

from helpers import csv_writer_rows

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def read_manifest(outdir):
    with open(Path(outdir) / "manifest.json") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ----------------------------------------------------------------- analyze


def test_analyze_platoon_matches_library(tmp_path, capsys):
    assert main(["analyze", "--platoon", "10,3", "--out", str(tmp_path)]) == 0
    manifest = read_manifest(tmp_path)
    (name,) = manifest["outputs"]
    with open(tmp_path / name) as fh:
        got = json.load(fh)
    g = build_knn_platoon(PlatoonSpec(10, 3))
    want = connectivity_report(g).to_json_dict()
    assert got == want
    assert manifest["seed"] is None
    assert "timestamp" not in json.dumps(manifest)


def test_analyze_graph_file(tmp_path):
    gpath = tmp_path / "g.json"
    save_graph(build_knn_platoon(PlatoonSpec(6, 2)), gpath)
    out = tmp_path / "out"
    assert main(["analyze", "--graph", str(gpath), "--out", str(out)]) == 0
    (name,) = read_manifest(out)["outputs"]
    with open(out / name) as fh:
        got = json.load(fh)
    assert got["vertex_connectivity"] == 2
    # an edge list of P(6, 2) is read as that platoon
    lower, upper = lambda2_bounds(PlatoonSpec(6, 2))
    assert got["lambda2_bounds"] == {"lower": lower, "upper": upper}


def platoon_inputs(tmp_path, n, k):
    """The three `analyze` arguments that give P(n, k): --platoon, a graph
    file of the platoon form and a graph file listing its edges."""
    (tmp_path / "platoon.json").write_text(json.dumps({"platoon": [n, k]}))
    save_graph(build_knn_platoon(PlatoonSpec(n, k)), tmp_path / "edges.json")
    return [["--platoon", f"{n},{k}"], ["--graph", str(tmp_path / "platoon.json")],
            ["--graph", str(tmp_path / "edges.json")]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_analyze_reports_every_input_form_of_a_platoon_alike(tmp_path, fmt):
    reports = []
    for idx, source in enumerate(platoon_inputs(tmp_path, 10, 3)):
        out = tmp_path / f"out{idx}"
        assert main(["analyze", *source, "--format", fmt, "--out", str(out)]) == 0
        (name,) = read_manifest(out)["outputs"]
        reports.append((out / name).read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert b"lambda2_bounds" in reports[0]


def test_analyze_refuses_every_input_form_of_a_platoon_alike(tmp_path, capsys):
    errors = []
    for source in platoon_inputs(tmp_path, 20, 4):
        out = tmp_path / "out"
        assert main(["analyze", *source, "--robustness", "--out", str(out)]) == 3
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors[0] == errors[1] == errors[2]
    assert errors[0].splitlines()[1] == "closed-form values for P(20,4): robustness=4, iso=1/1"


def test_analyze_long_graph_file(tmp_path):
    # 1000 vehicles: vertex and edge connectivity are linear in n
    gpath = tmp_path / "long.json"
    save_graph(build_knn_platoon(PlatoonSpec(1000, 3)), gpath)
    out = tmp_path / "out"
    assert main(["analyze", "--graph", str(gpath), "--out", str(out)]) == 0
    (name,) = read_manifest(out)["outputs"]
    got = json.loads((out / name).read_text())
    assert got["vertex_connectivity"] == got["edge_connectivity"] == 3


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_analyze_graph_of_one_vehicle(tmp_path, fmt):
    gpath = tmp_path / "one.json"
    gpath.write_text('{"n": 1, "edges": []}\n')
    out = tmp_path / "out"
    assert main(["analyze", "--graph", str(gpath), "--format", fmt, "--out", str(out)]) == 0
    (name,) = read_manifest(out)["outputs"]
    if fmt == "json":
        got = json.loads((out / name).read_text())
        assert got["isoperimetric"] is None and got["robustness"] == 1
        assert got["isoperimetric_note"] == "undefined: n < 2"
    else:
        rows = dict(read_csv(out / name)[1:])
        assert rows["isoperimetric"] == "" and rows["isoperimetric_note"] == "undefined: n < 2"


def test_analyze_graph_file_rejects_boolean_vertex_ids(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"n": 3, "edges": [[true, 0], [1, 2]]}\n')
    out = tmp_path / "out"
    assert main(["analyze", "--graph", str(gpath), "--out", str(out)]) == 2
    assert "pair of integers" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_requires_exactly_one_source(tmp_path, capsys):
    assert main(["analyze", "--out", str(tmp_path)]) == 2
    assert main(["analyze", "--platoon", "5,2", "--graph", "x.json"]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_analyze_bad_platoon_argument(capsys):
    assert main(["analyze", "--platoon", "10"]) == 2
    assert main(["analyze", "--platoon", "10,0"]) == 2
    assert "k must satisfy" in capsys.readouterr().err
    assert main(["analyze", "--platoon", "65537,3"]) == 2
    assert capsys.readouterr().err == "error: --platoon: platoon size must be at most 65536\n"


@pytest.mark.parametrize("text, message", [
    # text that is not two integers
    ("5", "--platoon expects 'n,k' integers, got '5'"),
    ("a,b", "--platoon expects 'n,k' integers, got 'a,b'"),
    ("5,2,1", "--platoon expects 'n,k' integers, got '5,2,1'"),
    ("5,2.0", "--platoon expects 'n,k' integers, got '5,2.0'"),
    ("", "--platoon expects 'n,k' integers, got ''"),
    # two integers that break a PlatoonSpec rule
    ("5,9", "--platoon: neighbor range k must satisfy 1 <= k <= n-1, got k=9 for n=5"),
    ("0,1", "--platoon: platoon size must be a positive integer, got 0"),
])
def test_analyze_platoon_error_names_its_cause(tmp_path, capsys, text, message):
    out = tmp_path / "out"
    assert main(["analyze", "--platoon", text, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("under_file", [False, True])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, under_file):
    # --out naming a file, or a path under one: one line, no traceback,
    # and nothing written
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    out = blocker / "sub" if under_file else blocker
    assert main(["analyze", "--platoon", "5,2", "--out", str(out)]) == 2
    reason = "Not a directory" if under_file else "File exists"
    assert capsys.readouterr().err == (
        f"error: --out: cannot create directory ({reason}): {out}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]
    assert blocker.read_text() == "keep\n"


def test_analyze_refuses_large_exhaustive_with_fallback(tmp_path, capsys):
    code = main(["analyze", "--platoon", "30,4", "--robustness", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "exceeds limit 19" in err
    assert err.splitlines()[1] == "closed-form values for P(30,4): robustness=4, iso=2/3"
    assert not (tmp_path / "manifest.json").exists()  # refusal writes nothing


def test_analyze_refusal_caps_closed_form_robustness(tmp_path, capsys):
    code = main(["analyze", "--platoon", "30,20", "--robustness", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "robustness=15," in err
    assert "iso=12/1" in err
    assert [line for line in err.splitlines() if line.startswith("warning:")] == [
        "warning: robustness: closed-form upper bound, not verified exhaustively: k > floor(n/2)",
        "warning: isoperimetric constant: closed-form upper bound, not verified exhaustively: "
        "k > floor(n/2)",
    ]


def test_analyze_refusal_warns_past_the_robustness_table(tmp_path, capsys):
    # k = floor(n/2), but n = 30 lies past the exhaustive table, where
    # robustness = k already fails at P(14, 7)
    code = main(["analyze", "--platoon", "30,15", "--robustness", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "robustness=15," in err
    assert [line for line in err.splitlines() if line.startswith("warning:")] == [
        "warning: robustness: closed-form upper bound, not verified exhaustively: n > 12",
    ]


def test_analyze_limit_override_can_refuse_small(tmp_path, capsys):
    code = main(
        ["analyze", "--platoon", "10,3", "--robustness", "--exhaustive-limit", "8",
         "--out", str(tmp_path)]
    )
    assert code == 3
    assert "exceeds limit 8" in capsys.readouterr().err


def test_analyze_limit_zero_is_a_limit(tmp_path, capsys):
    code = main(
        ["analyze", "--platoon", "10,3", "--robustness", "--exhaustive-limit", "0",
         "--out", str(tmp_path / "refused")]
    )
    assert code == 3
    assert "exceeds limit 0" in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()
    out = tmp_path / "skipped"
    code = main(["analyze", "--platoon", "10,3", "--exhaustive-limit", "0", "--out", str(out)])
    assert code == 0
    report = json.loads(next(out.glob("analyze-*.json")).read_text())
    assert report["robustness"] is None and report["isoperimetric"] is None
    assert report["robustness_note"] == report["isoperimetric_note"] == "skipped: n too large"


@pytest.mark.parametrize("limit", ["23", "-1", "40"])
def test_analyze_rejects_a_limit_outside_the_ceiling(tmp_path, capsys, limit):
    out = tmp_path / "out"
    code = main(["analyze", "--platoon", "10,3", "--exhaustive-limit", limit, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --exhaustive-limit must lie in 0..22, got {limit}"]
    assert not out.exists()


def test_analyze_refusal_warns_with_the_closed_form_notes(tmp_path, capsys):
    # the refusal's warning lines are the notes of knn_closed_forms, one per
    # measure that carries a note, and nothing else
    for n in range(2, 41):
        for k in range(1, n):
            code = main(["analyze", "--platoon", f"{n},{k}", "--robustness",
                         "--exhaustive-limit", "0", "--out", str(tmp_path)])
            assert code == 3
            err = capsys.readouterr().err.splitlines()
            closed = knn_closed_forms(PlatoonSpec(n, k))
            want = [f"warning: {measure}: {note}" for measure, note in (
                ("robustness", closed.robustness_note),
                ("isoperimetric constant", closed.iso_note)) if note is not None]
            assert err[0] == f"error: exhaustive search refused: robustness on n={n} exceeds limit 0"
            assert err[1] == (f"closed-form values for P({n},{k}): robustness={closed.robustness}, "
                              f"iso={closed.iso.numerator}/{closed.iso.denominator}")
            assert err[2:] == want, (n, k)
    assert not (tmp_path / "manifest.json").exists()


def test_analyze_refusal_runs_no_eigensolver(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called behind a refusal")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    code = main(["analyze", "--platoon", "3000,3", "--robustness", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: exhaustive search refused: robustness on n=3000 exceeds limit 19",
        "closed-form values for P(3000,3): robustness=3, iso=1/250",
        "warning: robustness: closed-form upper bound, not verified exhaustively: n > 12",
    ]


def test_analyze_refusal_without_platoon_has_no_closed_form(tmp_path, capsys):
    # P(20, 2) less one edge is no platoon in its own vertex order
    gpath = tmp_path / "big.json"
    platoon = build_knn_platoon(PlatoonSpec(ROBUSTNESS_LIMIT + 1, 2))
    save_graph(Graph(platoon.n, platoon.edges[1:]), gpath)
    code = main(["analyze", "--graph", str(gpath), "--robustness", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "closed-form" not in err


def test_analyze_out_of_memory_exits_cleanly(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 32.0 GiB for an array with shape "
                          "(65536, 65536) and data type float64")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for argv in (["analyze", "--platoon", "30,2"],
                 ["formation", "--config", str(SCENARIOS / "formation-worst-case.json")]):
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: not enough memory: Unable to allocate 32.0 GiB for an array with shape "
            "(65536, 65536) and data type float64"]
        assert not out.exists()


# ---------------------------------------------------------------- estimate


def test_estimate_fixture_curve(tmp_path, capsys):
    scenario = SCENARIOS / "estimation-single-fault.json"
    assert main(["estimate", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    manifest = read_manifest(tmp_path)
    rows = read_csv(tmp_path / manifest["outputs"][0])
    assert rows[0] == ["step", "error"]
    assert len(rows) == 11  # header + one row per measurement step
    final_error = float(rows[-1][1])
    assert final_error < 1e-6
    assert float(rows[1][1]) > 1.0  # one measurement cannot recover the state
    assert manifest["results"]["unique"] is True
    assert manifest["results"]["consistent_candidates"] == [[4]]


def test_estimate_is_bitwise_deterministic(tmp_path):
    scenario = SCENARIOS / "estimation-single-fault.json"
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["estimate", "--scenario", str(scenario), "--out", str(a)]) == 0
    assert main(["estimate", "--scenario", str(scenario), "--out", str(b)]) == 0
    (name,) = read_manifest(a)["outputs"]
    assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_estimate_seed_override_changes_run(tmp_path):
    scenario = SCENARIOS / "estimation-single-fault.json"
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["estimate", "--scenario", str(scenario), "--out", str(a)]) == 0
    assert main(["estimate", "--scenario", str(scenario), "--seed", "99", "--out", str(b)]) == 0
    ma, mb = read_manifest(a), read_manifest(b)
    assert ma["seed"] == 7 and mb["seed"] == 99
    assert ma["outputs"] != mb["outputs"]  # config hash includes the seed


@pytest.mark.parametrize("command, scenario", [
    ("estimate", "estimation-single-fault.json"),
    ("consensus", "consensus-ramp-tolerated.json"),
])
def test_negative_seed_override_is_a_validation_error(tmp_path, capsys, command, scenario):
    argv = [command, "--scenario", str(SCENARIOS / scenario), "--seed", "-1", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "error: --seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_estimate_scenario_validation_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"graph": {"platoon": [10, 3]}, "seed": 1}')
    assert main(["estimate", "--scenario", str(bad)]) == 2
    assert "invalid at /" in capsys.readouterr().err

    bad.write_text(json.dumps({
        "graph": {"platoon": [10, 3]}, "seed": 1, "faulty": [4],
        "phi": [[5, 0, 1.0]], "observer": 0, "f": 1,
    }))
    assert main(["estimate", "--scenario", str(bad)]) == 2
    assert "/phi/0" in capsys.readouterr().err

    bad.write_text(json.dumps({
        "graph": {"platoon": [10, 3]}, "seed": 1, "faulty": [0],
        "phi": [], "observer": 0, "f": 1,
    }))
    assert main(["estimate", "--scenario", str(bad)]) == 2
    assert "observer cannot be" in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    ({"phi": [[3, 0, 1.0], [3, 0, 5.0]]}, "invalid at /phi/1: vehicle 3, step 0 is given twice"),
    ({"phi": [[3, 0, 1.0], [3, 6, 5.0]]}, "invalid at /phi/1: step 6 outside 0..5"),
    # ids are spelled as the integers they are, as _vehicle spells them
    ({"phi": [[5.0, 0, 1.0]]}, "invalid at /phi/0: vehicle 5 is not in the faulty set"),
    ({"phi": [[3, 9.0, 1.0]]}, "invalid at /phi/0: step 9 outside 0..5"),
    ({"phi": [[3.0, 0, 1.0], [3, 0.0, 5.0]]}, "invalid at /phi/1: vehicle 3, step 0 is given twice"),
    # no fault set of size f = 0 explains the injected signal
    ({"phi": [[3, 0, 1.0]], "f": 0},
     "scenario is inconsistent with the fault model: no candidate fault set of size <= 0"),
])
def test_estimate_refusals_exit_2_without_output(tmp_path, capsys, change, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"graph": {"platoon": [8, 3]}, "seed": 1, "faulty": [3],
                               "observer": 0, "f": 1, "horizon": 6, **change}))
    assert main(["estimate", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_estimate_rejects_non_finite_numbers(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    scenario = json.loads((SCENARIOS / "estimation-single-fault.json").read_text())
    scenario["phi"][3][2] = float("nan")
    bad.write_text(json.dumps(scenario))
    assert main(["estimate", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    assert "invalid at /phi/3/2: NaN is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_deeply_nested_json_is_a_validation_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main(["estimate", "--scenario", str(deep)]) == 2
    assert "scenario: JSON nested too deeply" in capsys.readouterr().err
    assert main(["analyze", "--graph", str(deep)]) == 2
    assert "JSON nested too deeply" in capsys.readouterr().err


def test_malformed_scenario_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "graph": {"platoon": [10, 3]},\n  "seed": 1,\n}')
    assert main(["estimate", "--scenario", str(bad)]) == 2
    assert "line 4" in capsys.readouterr().err
    assert main(["estimate", "--scenario", str(tmp_path / "nope.json")]) == 2


def _naming_a_graph_file(command, doc):
    """argv builder for a run whose document names the input file as its graph."""
    def argv(tmp_path, name):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**doc, "graph": name}))
        return [command, "--config" if command == "formation" else "--scenario", str(path)]
    return argv


INPUT_ENTRY_POINTS = {
    "analyze-graph": lambda tmp_path, name: ["analyze", "--graph", str(tmp_path / name)],
    "estimate-scenario": lambda tmp_path, name: ["estimate", "--scenario", str(tmp_path / name)],
    "consensus-scenario": lambda tmp_path, name: ["consensus", "--scenario", str(tmp_path / name)],
    "formation-config": lambda tmp_path, name: ["formation", "--config", str(tmp_path / name)],
    "scenario-graph-file": _naming_a_graph_file(
        "estimate", {"seed": 1, "faulty": [], "phi": [], "observer": 0, "f": 0}),
    "config-graph-file": _naming_a_graph_file("formation", {"kp": 5.0, "ku": 10.0}),
}


@pytest.mark.parametrize("entry", INPUT_ENTRY_POINTS)
def test_unreadable_input_file_is_a_validation_error(tmp_path, capsys, entry):
    (tmp_path / "directory.json").mkdir()
    (tmp_path / "latin1.json").write_bytes(b'{"n": "\xe9"}')
    (tmp_path / "malformed.json").write_text('{\n  "n": 4,\n}')
    (tmp_path / "deep.json").write_text("[" * 100_000)
    (tmp_path / "long-integer.json").write_text("9" * 5000)
    out = tmp_path / "out"
    for name in ("missing.json", "directory.json", "latin1.json", "malformed.json", "deep.json",
                 "long-integer.json"):
        argv = INPUT_ENTRY_POINTS[entry](tmp_path, name)
        assert main([*argv, "--out", str(out)]) == 2, name
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and line.count(str(tmp_path / name)) == 1, line
        assert not out.exists()


def test_integral_numbers_read_as_integers(tmp_path):
    # the schemas count 4.0 as an integer; it runs exactly as 4 does
    estimate = {"graph": {"platoon": [10, 3]}, "seed": 1, "faulty": [4], "phi": [[4, 2, 1.5]],
                "observer": 0, "f": 1}
    p62 = [list(e) for e in build_knn_platoon(PlatoonSpec(6, 2)).edges]
    inline = {**estimate, "graph": {"n": 6, "edges": p62}, "faulty": [], "phi": [], "f": 0}
    consensus = {"graph": {"platoon": [8, 3]}, "seed": 5, "f": 1, "T": 30, "adversaries": [
        {"vehicle": 4, "strategy": "seeded-random", "params": {"low": -1.0, "high": 12.0}}]}
    cases = [
        ("estimate", estimate, {**estimate, "observer": 0.0}),
        ("estimate", estimate, {**estimate, "graph": {"platoon": [10.0, 3]}}),
        ("estimate", inline, {**inline, "graph": {"n": 6.0, "edges": [[0.0, 1]] + p62[1:]}}),
        ("consensus", consensus, {**consensus, "adversaries": [
            {**consensus["adversaries"][0], "vehicle": 4.0}]}),
    ]
    scenario = tmp_path / "scenario.json"
    for idx, (command, whole, integral) in enumerate(cases):
        outputs = []
        for spelling, doc in (("int", whole), ("float", integral)):
            scenario.write_text(json.dumps(doc))  # one path: the config hash is the same
            out = tmp_path / f"{idx}-{spelling}"
            assert main([command, "--scenario", str(scenario), "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1], cases[idx]


@pytest.mark.parametrize("command, doc, pointer", [
    ("estimate", {"graph": {"platoon": [10, 3]}, "seed": 1, "faulty": [3, 10], "phi": [],
                  "observer": 0, "f": 1}, "/faulty/1"),
    ("estimate", {"graph": {"platoon": [10, 3]}, "seed": 1, "faulty": [3], "phi": [],
                  "observer": 10, "f": 1}, "/observer"),
    ("consensus", {"graph": {"platoon": [10, 3]}, "seed": 1, "f": 1, "adversaries": [
        {"vehicle": 2, "strategy": "constant", "params": {"value": 1.0}},
        {"vehicle": 10, "strategy": "constant", "params": {"value": 1.0}}]},
     "/adversaries/1/vehicle"),
    ("formation", {"graph": {"platoon": [10, 3]}, "kp": 5.0, "ku": 10.0,
                   "disturbance": {"kind": "step", "vehicle": 10}}, "/disturbance/vehicle"),
])
def test_vehicle_out_of_range_names_its_pointer(tmp_path, capsys, command, doc, pointer):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    flag = "--config" if command == "formation" else "--scenario"
    assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"invalid at {pointer}: vehicle 10 out of range for n=10" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, doc, pointer", [
    ("estimate", {"graph": {"platoon": [8, 3]}, "seed": 1, "faulty": [3, 3], "phi": [],
                  "observer": 0, "f": 1}, "/faulty/1"),
    # 3.0 is the integer 3 to the schema
    ("estimate", {"graph": {"platoon": [8, 3]}, "seed": 1, "faulty": [5, 3, 3.0], "phi": [],
                  "observer": 0, "f": 2}, "/faulty/2"),
    ("consensus", {"graph": {"platoon": [8, 3]}, "seed": 1, "f": 1, "adversaries": [
        {"vehicle": 3, "strategy": "constant", "params": {"value": 1.0}},
        {"vehicle": 3, "strategy": "ramp", "params": {"start": 0.0, "slope": 1.0}}]},
     "/adversaries/1/vehicle"),
])
def test_repeated_vehicle_names_its_pointer(tmp_path, capsys, command, doc, pointer):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: scenario: invalid at {pointer}: vehicle 3 is given twice\n"
    assert not (tmp_path / "out").exists()


def test_seeded_random_low_above_high_names_its_pointer(tmp_path, capsys):
    # refused while the scenario is read: before run_wmsr, its locality
    # warning and any file
    doc = {"graph": {"platoon": [8, 2]}, "seed": 3, "f": 1, "T": 20, "adversaries": [
        {"vehicle": 1, "strategy": "constant", "params": {"value": 1.0}},
        {"vehicle": 2, "strategy": "seeded-random", "params": {"low": 12.0, "high": -3.0}}]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["consensus", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: scenario: invalid at /adversaries/1/params: low 12.0 is above high -3.0\n")
    assert not (tmp_path / "out").exists()


def test_scenario_graph_variants(tmp_path):
    # inline edge list
    inline = tmp_path / "inline.json"
    inline.write_text(json.dumps({
        "graph": {"n": 6, "edges": [[i, i + 1] for i in range(5)] + [[i, i + 2] for i in range(4)]},
        "seed": 3, "faulty": [], "phi": [], "observer": 0, "f": 0,
    }))
    assert main(["estimate", "--scenario", str(inline), "--out", str(tmp_path / "o1")]) == 0
    # graph file referenced relative to the scenario location
    save_graph(build_knn_platoon(PlatoonSpec(6, 2)), tmp_path / "g.json")
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({
        "graph": "g.json", "seed": 3, "faulty": [], "phi": [], "observer": 0, "f": 0,
    }))
    assert main(["estimate", "--scenario", str(ref), "--out", str(tmp_path / "o2")]) == 0
    m1, m2 = read_manifest(tmp_path / "o1"), read_manifest(tmp_path / "o2")
    r1 = read_csv(tmp_path / "o1" / m1["outputs"][0])
    r2 = read_csv(tmp_path / "o2" / m2["outputs"][0])
    assert r1 == r2  # identical graph and seed, identical run


# Graph objects with the pointer at which an inline one is refused (None: it
# runs).  graph_from_json judges each one, inline or as a graph file, so the
# two agree on every object and give the same message.
GRAPH_OBJECTS = [
    ({"edges": [[0, 1]]}, "/graph"),  # no n
    ({"n": 0, "edges": []}, "/graph"),
    ({"n": 2.5, "edges": []}, "/graph"),
    ({"n": True, "edges": []}, "/graph"),
    ({"n": "4", "edges": []}, "/graph"),
    ({"n": 4, "edges": {"0": 1}}, "/graph"),  # edges not a list
    ({"n": 4, "edges": [[0, 1, 2]]}, "/graph/edges/0"),  # a triple
    ({"n": 4, "edges": [[0, 1], [2.5, 3]]}, "/graph/edges/1"),
    ({"n": 4, "edges": [[0, 1], [1, True]]}, "/graph/edges/1"),
    ({"n": 4, "edges": [[0, 1], [2, 2.0]]}, "/graph/edges/1"),  # a self-loop
    ({"n": 4, "edges": [[0, 1], [1, 4]]}, "/graph/edges/1"),  # out of range
    ({"n": 4, "edges": [[0, 1], [1, 2], [0, 1]]}, "/graph/edges/2"),  # a duplicate
    ({"n": 4, "edges": [[0, 1], [1, 2], [1, 0]]}, "/graph/edges/2"),  # reversed
    ({"n": 4, "edges": [], "extra": 1}, "/graph"),  # an unknown key
    ({"platoon": [6]}, "/graph"),
    ({"platoon": [6, 2, 1]}, "/graph"),
    ({"platoon": [6, 2.5]}, "/graph"),
    ({"platoon": [[6], 2]}, "/graph"),
    ({"platoon": [6, 6]}, "/graph"),  # k >= n
    ({"platoon": [6, 2], "n": 6}, "/graph"),  # both forms mixed
    ({"platoon": [6, 2], "n": 6, "edges": []}, "/graph"),
    # past graph.MAX_VERTICES, before any vertex-sized structure is built
    ({"n": 1e300, "edges": []}, "/graph"),
    ({"n": 10**21, "edges": []}, "/graph"),
    ({"n": 65537, "edges": []}, "/graph"),
    ({"platoon": [65537, 3]}, "/graph"),
    # integral numbers are integers, in files too
    ({"n": 4.0, "edges": [[0, 1.0], [1, 2], [2.0, 3]]}, None),
    ({"platoon": [4.0, 1]}, None),
    ({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}, None),
]


@pytest.mark.parametrize("obj, pointer", GRAPH_OBJECTS)
def test_graph_objects_one_rule_inline_and_in_files(tmp_path, capsys, obj, pointer):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(obj))
    estimate = {"graph": obj, "seed": 1, "faulty": [], "phi": [], "observer": 0, "f": 0}
    formation = {"graph": obj, "kp": 5.0, "ku": 10.0, "T": 0.5}
    runs = [("scenario", ["estimate", "--scenario"], estimate),
            ("config", ["formation", "--config"], formation),
            (str(graph), ["analyze", "--graph"], None)]
    messages = []
    for what, argv, doc in runs:
        path = graph if doc is None else tmp_path / f"{what}.json"
        if doc is not None:
            path.write_text(json.dumps(doc))
        out = tmp_path / f"out-{argv[0]}"
        code = main([*argv, str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == (0 if pointer is None else 2), (argv[0], err)
        if pointer is None:
            continue
        head = f"error: {what}: " + ("" if doc is None else f"invalid at {pointer}: ")
        assert err.startswith(head) and err.count("\n") == 1, err
        messages.append(err[len(head):-1])
        assert not out.exists()
    if messages:  # the same message in each form; a file adds the failing edge's line
        inline, _, file = messages
        assert messages[1] == inline
        assert file in (inline, f"{inline} (line 1)"), messages


# --------------------------------------------------------------- consensus


def test_consensus_fixture_converges(tmp_path, capsys):
    scenario = SCENARIOS / "consensus-ramp-tolerated.json"
    assert main(["consensus", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    manifest = read_manifest(tmp_path)
    res = manifest["results"]
    assert res["f_local"] is True
    assert res["converged_at"] is not None
    assert res["final_spread"] < 1e-9
    assert res["safety_violations"] == 0
    rows = read_csv(tmp_path / manifest["outputs"][0])
    assert rows[0] == ["step", "vehicle", "value", "is_adversary"]
    assert len(rows) == 1 + 501 * 10
    # vehicle 4 is flagged as the adversary on every step
    flags = {r[1]: r[3] for r in rows[1:11]}
    assert flags["4"] == "1"
    assert all(flags[str(v)] == "0" for v in range(10) if v != 4)


def test_consensus_overwhelmed_fixture_fails_to_agree(tmp_path, capsys):
    scenario = SCENARIOS / "consensus-overwhelmed.json"
    assert main(["consensus", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: adversary set [4, 5] is not 1-local; resilient-consensus guarantees do not apply"
    ]
    res = read_manifest(tmp_path)["results"]
    assert res["f_local"] is False
    assert res["converged_at"] is None
    assert res["final_spread"] > 0.1


def test_consensus_json_format(tmp_path):
    scenario = SCENARIOS / "consensus-ramp-tolerated.json"
    assert main(["consensus", "--scenario", str(scenario), "--format", "json",
                 "--out", str(tmp_path)]) == 0
    (name,) = read_manifest(tmp_path)["outputs"]
    assert name.endswith(".json")
    with open(tmp_path / name) as fh:
        rows = json.load(fh)
    assert rows[0] == {"step": 0, "vehicle": 0, "value": rows[0]["value"], "is_adversary": False}
    assert any(r["is_adversary"] for r in rows)


def test_consensus_strategy_param_validation(tmp_path, capsys):
    # an adversary's params are checked against the schema its strategy's
    # STRATEGY_PARAMS entry gives, and reported in the pointer form
    bad = tmp_path / "bad.json"

    def run(strategy, params):
        bad.write_text(json.dumps({
            "graph": {"platoon": [8, 2]}, "seed": 1, "f": 1,
            "adversaries": [{"vehicle": 2, "strategy": strategy, "params": params}],
        }))
        assert main(["consensus", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
        return capsys.readouterr().err

    assert run("ramp", {"slope": 1.0}) == (
        'error: scenario: invalid at /adversaries/0/params: missing required key "start"\n')
    assert run("ramp", {"start": 0.0, "slope": 1.0, "speed": 2.0}) == (
        'error: scenario: invalid at /adversaries/0/params: unknown key "speed"\n')
    assert "/adversaries/0" in run("warp", {})
    # not a list, not a string float() would accept, not a boolean
    for value, text in (([1, 2], "[1, 2]"), ("NaN", '"NaN"'), (True, "true")):
        assert run("constant", {"value": value}) == (
            f"error: scenario: invalid at /adversaries/0/params/value: expected number, got {text}\n")
    assert not (tmp_path / "manifest.json").exists()


def test_consensus_rejects_non_finite_numbers(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    scenario = json.loads((SCENARIOS / "consensus-ramp-tolerated.json").read_text())
    scenario["tol"] = float("nan")
    bad.write_text(json.dumps(scenario))
    assert main(["consensus", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    assert "invalid at /tol: NaN is not a finite number" in capsys.readouterr().err
    scenario["tol"] = 1e-9
    scenario["adversaries"][0]["params"]["slope"] = float("inf")
    bad.write_text(json.dumps(scenario))
    assert main(["consensus", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    assert ("invalid at /adversaries/0/params/slope: Infinity is not a finite number"
            in capsys.readouterr().err)
    assert not (tmp_path / "manifest.json").exists()


# --------------------------------------------------------------- formation


def test_formation_fixture_outputs(tmp_path):
    config = SCENARIOS / "formation-worst-case.json"
    assert main(["formation", "--config", str(config), "--out", str(tmp_path)]) == 0
    manifest = read_manifest(tmp_path)
    veh_name, edge_name = manifest["outputs"]
    assert veh_name.endswith("-vehicles.csv") and edge_name.endswith("-edges.csv")
    veh = read_csv(tmp_path / veh_name)
    assert veh[0] == ["t", "vehicle", "p", "u"]
    edges = read_csv(tmp_path / edge_name)
    assert edges[0] == ["t", "edge", "spacing_error"]
    assert edges[1][1] == "0-1"
    res = manifest["results"]
    # the worst-case input never drives the output past the closed-form gain
    assert res["max_abs_spacing_error"] <= res["hinf_closed_form"] * 1.02
    # peak frequency of this configuration is zero, so the sinusoid request
    # resolves to a step disturbance
    assert manifest["config"]["disturbance"]["kind"] == "step"


@pytest.mark.parametrize("case", ["resonant", "fixture"])
def test_formation_peak_is_the_closed_form_frequency(tmp_path, case):
    config = SCENARIOS / "formation-worst-case.json"
    if case == "resonant":  # P(12,2) with kp = 8, ku = 1 is in the resonant branch
        config = tmp_path / "resonant.json"
        config.write_text(json.dumps({
            "graph": {"platoon": [12, 2]}, "kp": 8.0, "ku": 1.0, "T": 1.0,
            "disturbance": {"kind": "sinusoid", "vehicle": 3, "phase": 0.4, "omega": "peak"}}))
    assert main(["formation", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    manifest = read_manifest(tmp_path / "out")
    res, disturbance = manifest["results"], manifest["config"]["disturbance"]
    gain, branch, peak = platoonnet.hinf_closed_form(res["lambda2"], manifest["config"]["kp"],
                                                     manifest["config"]["ku"])
    assert (res["hinf_closed_form"], res["branch"]) == (gain, branch)
    if case == "resonant":
        assert branch == "underdamped-peak" and peak > 0
        assert disturbance == {"kind": "sinusoid", "vehicle": 3, "amplitude": 1.0,
                               "omega": peak, "phase": 0.4}
    else:
        cfg = json.loads(config.read_text())["disturbance"]
        assert branch == "static-gain" and peak == 0.0
        assert disturbance == {"kind": "step", "vehicle": cfg["vehicle"],
                               "amplitude": cfg["amplitude"] * math.cos(cfg.get("phase", 0.0))}


def test_formation_json_format(tmp_path):
    config = SCENARIOS / "formation-worst-case.json"
    assert main(["formation", "--config", str(config), "--format", "json",
                 "--out", str(tmp_path)]) == 0
    (name,) = read_manifest(tmp_path)["outputs"]
    with open(tmp_path / name) as fh:
        payload = json.load(fh)
    assert set(payload) == {"t", "positions", "velocities", "edges", "spacing_errors"}
    assert len(payload["edges"]) == build_knn_platoon(PlatoonSpec(10, 2)).m


def test_formation_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"graph": {"platoon": [6, 2]}, "kp": -1.0, "ku": 2.0}))
    assert main(["formation", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({
        "graph": {"platoon": [6, 2]}, "kp": 5.0, "ku": 10.0,
        "disturbance": {"kind": "step", "vehicle": 9},
    }))
    assert main(["formation", "--config", str(bad)]) == 2
    assert "out of range" in capsys.readouterr().err
    # the exact discretisation has no step-size limit; only h <= 0 is invalid
    bad.write_text(json.dumps({
        "graph": {"platoon": [6, 2]}, "kp": 5.0, "ku": 10.0, "h": 0.0,
    }))
    assert main(["formation", "--config", str(bad)]) == 2
    assert "/h" in capsys.readouterr().err


@pytest.mark.parametrize("disturbance, resolved", [
    (None, {"kind": "none"}),
    ({"kind": "none"}, {"kind": "none"}),
    ({"kind": "step"}, {"kind": "step", "vehicle": 0, "amplitude": 1.0}),
    ({"kind": "step", "vehicle": 2, "amplitude": -0.5},
     {"kind": "step", "vehicle": 2, "amplitude": -0.5}),
])
def test_formation_manifest_records_the_resolved_disturbance(tmp_path, disturbance, resolved):
    config = {"graph": {"platoon": [6, 2]}, "kp": 5.0, "ku": 10.0, "T": 2.0}
    if disturbance is not None:
        config["disturbance"] = disturbance
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["formation", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    manifest = read_manifest(tmp_path / "out")
    assert manifest["config"]["disturbance"] == resolved
    # started at equilibrium, the platoon moves only under a disturbance
    moved = manifest["results"]["max_abs_spacing_error"] > 1e-3
    assert moved == (resolved["kind"] == "step")


@pytest.mark.parametrize("phase", [0.0, math.pi / 2])
def test_formation_zero_omega_follows_the_sinusoid(tmp_path, phase):
    # amplitude sin(omega t + phase) is continuous in omega: an explicit
    # omega of 0 is the constant amplitude sin(phase), not a step of cos(phase)
    results = []
    for omega in (0.0, 1e-9):
        config = tmp_path / f"config-{omega}.json"
        config.write_text(json.dumps({
            "graph": {"platoon": [6, 2]}, "kp": 5.0, "ku": 10.0, "T": 10.0,
            "disturbance": {"kind": "sinusoid", "amplitude": 1.0, "omega": omega, "phase": phase},
        }))
        out = tmp_path / f"out-{omega}"
        assert main(["formation", "--config", str(config), "--format", "json",
                     "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["config"]["disturbance"]["omega"] == omega
        with open(out / manifest["outputs"][0]) as fh:
            results.append((manifest["results"]["max_abs_spacing_error"],
                            np.array(json.load(fh)["spacing_errors"])))
    (peak0, errors0), (peak1, errors1) = results
    assert abs(peak0 - peak1) < 1e-7
    np.testing.assert_allclose(errors0, errors1, rtol=0, atol=1e-7)
    if phase:
        assert peak0 > 0.05  # a constant input of amplitude 1 moves the platoon


@pytest.mark.parametrize("graph", [
    {"n": 4, "edges": [[0, 1], [2, 3]]},
    {"n": 5, "edges": [[0, 1], [2, 3], [3, 4]]},  # eigvalsh can leave lambda2 ~ 4e-17
    {"n": 1, "edges": []},
])
def test_formation_refuses_a_graph_without_closed_form_before_simulating(
        tmp_path, capsys, monkeypatch, graph):
    def refuse(*args, **kwargs):
        raise AssertionError("simulate_formation called")

    monkeypatch.setattr(cli, "simulate_formation", refuse)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"graph": graph, "kp": 5, "ku": 10}))
    assert main(["formation", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "lambda2 must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, pointer", [
    ("kp", float("nan"), "/kp"),
    ("T", float("inf"), "/T"),
    ("h", float("-inf"), "/h"),
    ("disturbance", {"kind": "sinusoid", "amplitude": 1.0, "phase": float("nan")},
     "/disturbance/phase"),
])
def test_formation_rejects_non_finite_numbers(tmp_path, capsys, key, value, pointer):
    # the schema admits these (JSON Schema's `number` includes NaN and
    # +-Infinity); a NaN gain would write NaN traces, T = Infinity overflow
    bad = tmp_path / "bad.json"
    config = json.loads((SCENARIOS / "formation-worst-case.json").read_text())
    config[key] = value
    bad.write_text(json.dumps(config))
    assert main(["formation", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert f"config: invalid at {pointer}: " in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


# ------------------------------------------------------------------- sweep


def test_sweep_csv_surface(tmp_path):
    assert main(["sweep", "--n", "5,10", "--k", "1:3", "--kp", "5", "--ku", "10",
                 "--spot-check", "corners", "--out", str(tmp_path)]) == 0
    manifest = read_manifest(tmp_path)
    rows = read_csv(tmp_path / manifest["outputs"][0])
    assert rows[0] == ["n", "k", "kp", "ku", "lambda2", "lb", "ub", "hinf", "branch"]
    assert [r[:2] for r in rows[1:]] == [
        ["5", "1"], ["5", "2"], ["5", "3"], ["10", "1"], ["10", "2"], ["10", "3"]
    ]
    checks = manifest["results"]["spot_checks"]
    assert {(c["n"], c["k"]) for c in checks} == {(5, 1), (5, 3), (10, 1), (10, 3)}
    assert all(c["rel_err"] < 1e-3 for c in checks)


def test_sweep_no_spot_checks(tmp_path):
    # (5, 5) breaks 1 <= k <= n - 1 and is left out of the surface
    assert main(["sweep", "--n", "5:6", "--k", "1,2,5", "--kp", "5", "--ku", "10",
                 "--spot-check", "none", "--out", str(tmp_path)]) == 0
    manifest = read_manifest(tmp_path)
    assert manifest["results"]["spot_checks"] == []
    rows = read_csv(tmp_path / manifest["outputs"][0])
    assert [r[:2] for r in rows[1:]] == [["5", "1"], ["5", "2"], ["6", "1"], ["6", "2"], ["6", "5"]]


def test_sweep_range_validation(capsys):
    assert main(["sweep", "--n", "4:3", "--k", "1", "--kp", "5", "--ku", "10"]) == 2
    assert main(["sweep", "--n", "x", "--k", "1", "--kp", "5", "--ku", "10"]) == 2
    assert main(["sweep", "--n", "3", "--k", "9", "--kp", "5", "--ku", "10"]) == 2
    assert "no valid" in capsys.readouterr().err


@pytest.mark.parametrize("flag, text", [("--n", "5,5"), ("--k", "1,2,1")])
def test_sweep_refuses_a_repeated_value(tmp_path, capsys, flag, text):
    ranges = {"--n": "5:6", "--k": "1:2", flag: text}
    argv = ["sweep", *(item for pair in ranges.items() for item in pair),
            "--kp", "5", "--ku", "10", "--spot-check", "all", "--out", str(tmp_path)]
    assert main(argv) == 2
    repeated = text.split(",")[0]
    assert capsys.readouterr().err.splitlines() == [
        f"error: bad range {text!r}: repeated value {repeated}"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--kp", "--ku"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_sweep_rejects_non_finite_gains(tmp_path, capsys, flag, value):
    gains = {"--kp": "5", "--ku": "3", flag: value}
    argv = ["sweep", "--n", "5:6", "--k", "1:2", "--spot-check", "none", "--out", str(tmp_path),
            *(f"{name}={text}" for name, text in gains.items())]  # `=`, or -inf reads as a flag
    assert main(argv) == 2
    assert "gains kp and ku must be finite and positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------- outputs

OUTPUT_RUNS = {
    "analyze": ["analyze", "--platoon", "8,2"],
    "estimate": ["estimate", "--scenario", str(SCENARIOS / "estimation-single-fault.json")],
    "consensus": ["consensus", "--scenario", str(SCENARIOS / "consensus-ramp-tolerated.json")],
    "consensus-overwhelmed": ["consensus", "--scenario",
                              str(SCENARIOS / "consensus-overwhelmed.json")],
    "formation": ["formation", "--config", str(SCENARIOS / "formation-worst-case.json")],
    "sweep": ["sweep", "--n", "5:6", "--k", "1:2", "--kp", "5", "--ku", "10",
              "--spot-check", "none"],
}


def run_as(argv, fmt, out):
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    return read_manifest(out)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("run", OUTPUT_RUNS)
def test_outputs_are_named_by_command_and_config_hash(tmp_path, run, fmt):
    argv = OUTPUT_RUNS[run]
    manifest = run_as(argv, fmt, tmp_path)
    config = manifest["config"]
    assert manifest["command"] == config["command"] == argv[0]
    assert config["format"] == fmt
    suffixes = [".json"]
    if fmt == "csv":
        suffixes = ["-vehicles.csv", "-edges.csv"] if argv[0] == "formation" else [".csv"]
    stem = f"{argv[0]}-{cli._config_hash(config)}"
    assert manifest["outputs"] == [stem + suffix for suffix in suffixes]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*manifest["outputs"],
                                                                 "manifest.json"])


@pytest.mark.parametrize("run", ["estimate", "consensus", "sweep"])
def test_csv_and_json_tables_carry_the_same_rows(tmp_path, run):
    argv = OUTPUT_RUNS[run]
    by_format = {fmt: run_as(argv, fmt, tmp_path / fmt) for fmt in ("csv", "json")}
    rows = read_csv(tmp_path / "csv" / by_format["csv"]["outputs"][0])
    with open(tmp_path / "json" / by_format["json"]["outputs"][0]) as fh:
        records = json.load(fh)
    header = rows[0]
    assert sorted(records[0]) == sorted(header)
    # the CSV spells booleans 0 and 1, and floats as their shortest repr, as JSON does
    assert [[str(int(v)) if isinstance(v, bool) else str(v) for v in map(r.get, header)]
            for r in records] == rows[1:]
    assert by_format["csv"]["results"] == by_format["json"]["results"]


def library_trace_files(fixture: str, fmt: str) -> list[str]:
    """The text of each trace file of a fixture run, rebuilt row by row from
    the library's own trace arrays with csv.writer (csv_writer_rows) or
    json.dump, in the order of the manifest's outputs."""
    path = str(SCENARIOS / f"{fixture}.json")
    if fixture.startswith("consensus"):
        g, seed, adversaries, f, T, tol = cli.load_consensus_scenario(path)
        trace = cli.run_wmsr(g, cli.scenario_x0(seed, g.n, 0.0, 10.0), adversaries, f=f, T=T,
                             tol=tol)
        rows = [(step, v, x, v in trace.adversaries)
                for step, values in enumerate(trace.values.tolist()) for v, x in enumerate(values)]
        header = ["step", "vehicle", "value", "is_adversary"]
        if fmt == "json":
            return [json.dumps([dict(zip(header, row)) for row in rows], indent=2,
                               sort_keys=True) + "\n"]
        return [csv_writer_rows(header, list(zip(*[(*row[:3], int(row[3])) for row in rows])))]
    system, T, h, record_every, dist_cfg = cli.load_formation_config(path)
    peak_frequency = cli.hinf_closed_form(system.lambda2, system.kp, system.ku)[2]
    disturbance, _ = cli._build_disturbance(system, dist_cfg, peak_frequency)
    trace = cli.simulate_formation(system, disturbance=disturbance, T=T, h=h,
                                   record_every=record_every)
    t, edges = trace.t.tolist(), [f"{i}-{j}" for i, j in system.graph.edges]
    positions, velocities = trace.positions.tolist(), trace.velocities.tolist()
    spans = trace.span_errors.tolist()
    if fmt == "json":
        fields = {"t": t, "positions": positions, "velocities": velocities, "edges": edges,
                  "spacing_errors": spans}
        return [json.dumps(fields, indent=2, sort_keys=True) + "\n"]
    vehicles = [(ti, v, p, u) for ti, ps, us in zip(t, positions, velocities)
                for v, (p, u) in enumerate(zip(ps, us))]
    edge_rows = [(ti, e, x) for ti, row in zip(t, spans) for e, x in zip(edges, row)]
    return [csv_writer_rows(["t", "vehicle", "p", "u"], list(zip(*vehicles))),
            csv_writer_rows(["t", "edge", "spacing_error"], list(zip(*edge_rows)))]


@pytest.mark.parametrize("chunk_rows", [7, cli._CHUNK_ROWS])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("fixture", ["formation-worst-case", "consensus-ramp-tolerated",
                                     "consensus-overwhelmed"])
def test_trace_files_equal_the_library_arrays_written_by_csv_and_json(
        tmp_path, monkeypatch, fixture, fmt, chunk_rows):
    # pins the repeated t and step columns end to end, across chunk bounds
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    flag = "--config" if fixture.startswith("formation") else "--scenario"
    manifest = run_as([fixture.split("-")[0], flag, str(SCENARIOS / f"{fixture}.json")], fmt,
                      tmp_path)
    got = [(tmp_path / name).read_bytes() for name in manifest["outputs"]]
    assert got == [text.encode("utf-8") for text in library_trace_files(fixture, fmt)]


# ------------------------------------------------------------------ parser


def test_help_and_unknown_flags():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--bogus"])
    assert exc.value.code == 2


def test_exhaustive_limit_help_names_the_default_limits(capsys):
    # the numbers are written into the help text so that `--help` does not
    # import the connectivity module
    from platoonnet.connectivity import EXHAUSTIVE_CEILING, ISO_LIMIT, ROBUSTNESS_LIMIT

    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"limits, 0 to {EXHAUSTIVE_CEILING} " in text
    assert f"(defaults: robustness {ROBUSTNESS_LIMIT}, isoperimetric {ISO_LIMIT})" in text


# ----------------------------------------------------------------- writers

TRICKY_FLOATS = [-0.0, 5e-324, 1e16, 0.1 + 0.2, float("nan"), float("inf"), float("-inf"), 2.5]
# runs of bitwise-equal neighbours, and neighbours equal as numbers but not as bits
RUN_FLOATS = [0.0, -0.0, -0.0, 0.0, math.nan, math.nan, math.inf, math.inf, 1.0, 1.0, 1.0]
# how csv.writer and json.dump spell Python values, quotes and escapes included
MIXED_CELLS = [None, True, 3, 2.5, "a,b", 'say "hi"', "two\nlines", "cr\r", " lead", "", -0.0]


def as_list(column) -> list:
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def assert_writers_match_oracles(tmp_path, columns: dict, arrays: dict) -> None:
    """cli's CSV, JSON-records and JSON-arrays writers against csv_writer_rows
    and json.dump, byte for byte."""
    header = list(columns)
    cli._write_csv(tmp_path / "got.csv", header, list(columns.values()))
    assert (tmp_path / "got.csv").read_bytes().decode("utf-8") == csv_writer_rows(
        header, list(columns.values()))

    cli._write_json_records(tmp_path / "records.json", columns)
    records = [dict(zip(columns, row)) for row in zip(*map(as_list, columns.values()))]
    want = json.dumps(records, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "records.json").read_text(encoding="utf-8") == want

    cli._write_json_arrays(tmp_path / "arrays.json", arrays)
    want = json.dumps({k: v.tolist() for k, v in arrays.items()}, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "arrays.json").read_text(encoding="utf-8") == want


@pytest.mark.parametrize("chunk_rows", [3, 4096])
def test_column_writers_match_csv_and_json_dump(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    floats = np.array(TRICKY_FLOATS)
    ints = np.arange(len(floats)) * 7 - 20
    flags = ints % 3 == 0
    names = np.array(["0-1", "a,b", 'say "hi"', "\u00e9", "", "x", "y y", "z"])
    columns = {"f": floats, "i": ints, "b": flags, "s": names}
    arrays = {"t": floats, "edges": names, "grid": np.stack([floats, floats[::-1]], axis=1),
              "none": np.zeros((0,)), "hollow": np.zeros((4, 0))}
    assert_writers_match_oracles(tmp_path, columns, arrays)
    text = (tmp_path / "arrays.json").read_text()
    assert "NaN" in text and "Infinity" in text and "nan" not in text

    runs = np.array(RUN_FLOATS)
    repeated = np.repeat(np.arange(4) - 1, [3, 3, 2, 3])
    tiled = np.tile(np.array(["0-1", "a,b", ""]), 4)[: len(runs)]
    columns = {"run": runs, "rep": repeated, "tile": tiled, "mixed": MIXED_CELLS}
    arrays = {"run": runs, "rep": repeated, "tile": tiled,
              "grid": np.stack([runs, runs[::-1]], axis=1)}
    assert_writers_match_oracles(tmp_path, columns, arrays)


NAN_PAYLOAD = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
CELL_POOLS = [
    np.array([0.0, -0.0, 5e-324, -1e-310, *NAN_PAYLOAD, math.nan, math.inf, -math.inf,
              0.1 + 0.2, 1e16, -1.5]),
    np.array([0, -1, 7, 2**40, -(2**62)]),
    np.array([0, 3, -5, 127], dtype=np.int8),
    np.array([True, False]),
    np.array(["", "x", "a,b", 'q"q', "l\nm", "r\r", " s", "\u00e9"]),
]


def random_column(rng, rows: int) -> np.ndarray:
    """A column of `rows` cells drawn from one pool: runs (np.repeat) or a
    repeated pattern (np.tile), sometimes read backwards (a strided view)."""
    pool = CELL_POOLS[rng.integers(len(CELL_POOLS))]
    if rng.random() < 0.5:
        cells = rng.choice(pool, size=rows + 1)
        column = np.repeat(cells, rng.integers(1, 9, size=rows + 1))[:rows]
    else:
        column = np.tile(rng.choice(pool, size=rng.integers(1, 5)), rows)[:rows]
    return column[::-1] if rng.random() < 0.25 else column


def test_column_writers_match_oracles_on_random_tables(tmp_path, monkeypatch):
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        rows = int(rng.integers(0, 40))
        columns = {f"c{i}" if i != 1 else 'c "1",': random_column(rng, rows)
                   for i in range(rng.integers(2, 6))}
        first = next(iter(columns.values()))
        arrays = {**columns, "grid": np.stack([first, first[::-1]], axis=1)}
        for chunk_rows in (1, 3, 4096):
            monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
            assert_writers_match_oracles(tmp_path, columns, arrays)


def test_column_writers_match_oracles_through_numtext(tmp_path, monkeypatch):
    # the tables above are short, so their numbers are spelled value by
    # value; here every float chunk goes through numtext, however short
    monkeypatch.setattr(cli, "_KERNEL_CELLS", 0)
    floats = np.array(TRICKY_FLOATS + RUN_FLOATS)
    assert_writers_match_oracles(tmp_path, {"f": floats, "i": np.arange(len(floats)) - 9},
                                 {"grid": np.stack([floats, floats[::-1]], axis=1)})
    rng = np.random.default_rng(20261019)
    for _ in range(100):
        rows = int(rng.integers(0, 40))
        columns = {f"c{i}": random_column(rng, rows) for i in range(rng.integers(2, 6))}
        first = next(iter(columns.values()))
        arrays = {**columns, "grid": np.stack([first, first[::-1]], axis=1)}
        for chunk_rows in (1, 3, 4096):
            monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
            assert_writers_match_oracles(tmp_path, columns, arrays)


def test_integer_columns_over_their_whole_range(tmp_path, monkeypatch):
    # numtext spells floats only: integer chunks of any width and length are
    # spelled value by value, never handed to it
    def floats_only(part, json_style=False):
        assert part.dtype.kind == "f", part.dtype
        return number_cells(part, json_style)

    from platoonnet import numtext
    number_cells = numtext.number_cells
    monkeypatch.setattr(numtext, "number_cells", floats_only)
    info64, unsigned = np.iinfo(np.int64), np.iinfo(np.uint64)
    rng = np.random.default_rng(3)
    rows = 2 * cli._KERNEL_CELLS
    signed = np.concatenate([[info64.min, info64.min + 1, info64.max, 0, -1, 1],
                             -(10 ** np.arange(19)), 10 ** np.arange(19) - 1,
                             rng.integers(info64.min, info64.max, size=rows)]).astype(np.int64)[:rows]
    columns = {"i64": signed,
               "u64": np.concatenate([np.array([unsigned.max, 0, 2**63, 2**64 - 10], np.uint64),
                                      rng.integers(0, unsigned.max, size=rows, dtype=np.uint64)])[:rows]}
    for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32):
        info = np.iinfo(dtype)
        columns[np.dtype(dtype).name] = rng.integers(info.min, info.max, size=rows, endpoint=True,
                                                     dtype=dtype)
    columns["f"] = rng.normal(size=rows)  # the float column still goes through numtext
    assert_writers_match_oracles(tmp_path, columns, columns)
    assert spelled_by_cli(np.array([info64.min])) == "-9223372036854775808"
    assert spelled_by_cli(np.array([unsigned.max], dtype=np.uint64)) == "18446744073709551615"


def spelled_by_cli(part: np.ndarray) -> str:
    return bytes(c for c in cli._cells(part, False).ravel() if c != cli._PAD).decode()


@pytest.mark.parametrize("chunk_rows", [3, 4096])
def test_indexed_columns_write_the_gathered_values(tmp_path, monkeypatch, chunk_rows):
    # a column given as (values, index) stands for values[index]: its values
    # are spelled once (floats of numtext's size through numtext) and their
    # text gathered by index, in every chunk
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(20261020)
    floats = np.concatenate([TRICKY_FLOATS, RUN_FLOATS, rng.normal(size=cli._KERNEL_CELLS)])
    bases = {"t": floats, "edge": np.array(["0-1", "a,b", 'say "hi"', "\u00e9", ""]),
             "flag": np.array([True, False]), "step": np.array([0, -7, 2**40])}
    for rows in (5, 1, 3 * len(floats), 0):
        columns = {name: (base, rng.integers(0, len(base), rows)) for name, base in bases.items()}
        if not rows:  # an empty index, and one over no values at all
            columns["step"] = (np.zeros(0, int), columns["step"][1])
        columns["x"] = rng.choice(floats, rows)  # a plain column among them
        gathered = {name: c[0][c[1]] if isinstance(c, tuple) else c for name, c in columns.items()}
        header = list(columns)
        cli._write_csv(tmp_path / "got.csv", header, list(columns.values()))
        assert (tmp_path / "got.csv").read_bytes().decode("utf-8") == csv_writer_rows(
            header, list(gathered.values()))
        cli._write_json_records(tmp_path / "records.json", columns)
        records = [dict(zip(gathered, row)) for row in zip(*map(as_list, gathered.values()))]
        want = json.dumps(records, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "records.json").read_text(encoding="utf-8") == want


def test_writers_keep_a_nul_inside_a_string_cell(tmp_path):
    # cells are padded with 0xFF, which UTF-8 never uses; a NUL is text
    names = np.array(["a\x00b", "\x00c", "d"])
    cells = ["x\x00", "\x00", "y\x00z"]
    columns = {"names": names, "cells": cells, "f": np.array([0.5, -0.0, 1e-7])}
    assert_writers_match_oracles(tmp_path, columns, {"names": names})
    assert b"a\x00b," in (tmp_path / "got.csv").read_bytes()


def fresh_python(code: str, cwd=None) -> list[str]:
    """stderr lines of `code` run in a new interpreter on this checkout's
    sources, which writes bytecode into the checkout only if this one does."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {"PYTHONPATH": src, "PATH": ""}
    if sys.dont_write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    code = f"import sys\nassert sys.dont_write_bytecode is {sys.dont_write_bytecode}\n{code}"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env, cwd=cwd)
    return out.stderr.splitlines()


def test_cli_import_leaves_jsonschema_unloaded(tmp_path):
    # neither importing the CLI nor validating a scenario loads jsonschema
    runs = [["estimate", "--scenario", str(SCENARIOS / "estimation-single-fault.json")],
            ["consensus", "--scenario", str(SCENARIOS / "consensus-ramp-tolerated.json")],
            ["formation", "--config", str(SCENARIOS / "formation-worst-case.json")]]
    code = ("import sys, platoonnet.cli as cli; print('jsonschema' in sys.modules, file=sys.stderr); "
            f"codes = [cli.main(argv + ['--out', {str(tmp_path)!r}]) for argv in {runs!r}]; "
            "print(codes, 'jsonschema' in sys.modules, file=sys.stderr)")
    assert fresh_python(code) == ["False", "[0, 0, 0] False"]


def test_cli_help_and_analyze_leave_numtext_unloaded(tmp_path):
    # the number-spelling kernel is compiled only by runs that write a
    # numeric column: not by --help, nor by analyze in either format
    runs = [["analyze", "--platoon", "14,3", "--format", fmt] for fmt in ("csv", "json")]
    code = ("import sys, platoonnet.cli as cli\n"
            "print('platoonnet.numtext' in sys.modules, file=sys.stderr)\n"
            "try:\n    cli.main(['--help'])\nexcept SystemExit:\n    pass\n"
            "print('platoonnet.numtext' in sys.modules, file=sys.stderr)\n"
            f"codes = [cli.main(argv + ['--out', {str(tmp_path)!r}]) for argv in {runs!r}]\n"
            "print(codes, 'platoonnet.numtext' in sys.modules, file=sys.stderr)")
    assert fresh_python(code) == ["False", "False", "[0, 0] False"]


def test_cli_help_and_refusal_leave_hashlib_unloaded(tmp_path):
    # only a run that writes files hashes its config: --help and a refused
    # run (exit 3) do not load hashlib and its OpenSSL backend
    out = ["--out", str(tmp_path)]
    code = ("import sys, platoonnet.cli as cli\n"
            "try:\n    cli.main(['--help'])\nexcept SystemExit:\n    pass\n"
            "print('hashlib' in sys.modules, file=sys.stderr)\n"
            f"codes = [cli.main(['analyze', '--platoon', '30,3', '--robustness', *{out!r}])]\n"
            "print(codes, 'hashlib' in sys.modules, file=sys.stderr)\n"
            f"codes.append(cli.main(['analyze', '--platoon', '8,2', *{out!r}]))\n"
            "print(codes, 'hashlib' in sys.modules, file=sys.stderr)")
    lines = fresh_python(code)
    assert [lines[0], *lines[-2:]] == ["False", "[3] False", "[3, 0] True"]


def test_cli_import_leaves_importlib_metadata_unloaded():
    code = ("import sys; before = 'importlib.metadata' in sys.modules; import platoonnet.cli; "
            "print(before, 'importlib.metadata' in sys.modules, file=sys.stderr)")
    assert fresh_python(code) == ["False False"]


SUBCOMMANDS = ("analyze", "estimate", "consensus", "formation", "sweep")


# A run loads cli, graph and its own module, and numtext if it writes a long
# numeric column; numpy.ma never.  --help and argparse's usage errors (exit
# 2) load cli alone, and no numpy at all.
@pytest.mark.parametrize("argv, code, loaded", [
    (["analyze", "--platoon", "8,2"], 0, ["cli", "graph", "connectivity"]),
    (["estimate", "--scenario", str(SCENARIOS / "estimation-single-fault.json")], 0,
     ["cli", "graph", "estimation"]),
    (["consensus", "--scenario", str(SCENARIOS / "consensus-ramp-tolerated.json")], 0,
     ["cli", "graph", "consensus", "numtext"]),
    (["formation", "--config", str(SCENARIOS / "formation-worst-case.json")], 0,
     ["cli", "graph", "formation", "numtext"]),
    (["sweep", "--n", "5:8", "--k", "1:3", "--kp", "5", "--ku", "10"], 0,
     ["cli", "graph", "formation"]),
    (["--help"], 0, ["cli"]),
    *[([command, "--help"], 0, ["cli"]) for command in SUBCOMMANDS],
    ([], 2, ["cli"]),
    (["analyze", "--nope"], 2, ["cli"]),
    (["sweep", "--n", "5", "--k", "1", "--kp", "x", "--ku", "1"], 2, ["cli"]),
])
def test_each_subcommand_imports_only_its_own_module(tmp_path, argv, code, loaded):
    script = ("import json, sys\n"
              "from platoonnet import cli\n"
              "try:\n"
              f"    code = cli.main({argv!r})\n"
              "except SystemExit as exc:\n"
              "    code = exc.code\n"
              "loaded = sorted(m.split('.')[1] for m in sys.modules if m.startswith('platoonnet.'))\n"
              "numpy = ['numpy' in sys.modules, 'numpy.ma' in sys.modules]\n"
              "print(json.dumps([code, loaded, *numpy]), file=sys.stderr)")
    numpy_loaded = loaded != ["cli"]
    got = json.loads(fresh_python(script, cwd=tmp_path)[-1])
    assert got == [code, sorted(loaded), numpy_loaded, False]


def test_cli_calls_a_name_replaced_before_its_subcommand_runs(tmp_path):
    # how perfbench/tracing.py wraps the subcommands' calls: look the name up
    # on the cli module (which imports its module), then replace it there
    scenario = str(SCENARIOS / "consensus-ramp-tolerated.json")
    code = ("import sys\n"
            "from platoonnet import cli\n"
            "loaded = 'platoonnet.consensus' in sys.modules\n"
            "original = getattr(cli, 'run_wmsr')\n"
            "from platoonnet import consensus\n"
            "print(loaded, original is consensus.run_wmsr, file=sys.stderr)\n"
            "calls = []\n"
            "cli.run_wmsr = lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs)\n"
            f"code = cli.main(['consensus', '--scenario', {scenario!r}])\n"
            "try:\n"
            "    getattr(cli, 'no_such_name')\n"
            "except AttributeError as exc:\n"
            "    print(code, len(calls), exc, file=sys.stderr)")
    assert fresh_python(code, cwd=tmp_path) == [
        "False True", "0 1 module 'platoonnet.cli' has no attribute 'no_such_name'"]
    # the same lookup in this process, where an earlier test may have bound the name
    assert cli.__getattr__("run_wmsr") is importlib.import_module("platoonnet.consensus").run_wmsr
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.__getattr__("no_such_name")


def test_cli_calls_a_graph_name_replaced_before_its_subcommand_runs(tmp_path):
    # graph's names are bound as lazily as a domain module's: the lookup loads
    # graph alone, and the subcommand's own binding keeps the replacement
    code = ("import sys\n"
            "from platoonnet import cli\n"
            "original = getattr(cli, 'build_knn_platoon')\n"
            "print(sorted(m for m in sys.modules if m.startswith('platoonnet.')), file=sys.stderr)\n"
            "calls = []\n"
            "cli.build_knn_platoon = lambda spec: calls.append(spec) or original(spec)\n"
            "code = cli.main(['analyze', '--platoon', '6,2'])\n"
            "print(code, calls, file=sys.stderr)")
    assert fresh_python(code, cwd=tmp_path) == [
        "['platoonnet.cli', 'platoonnet.graph']", "0 [PlatoonSpec(n=6, k=2)]"]


def test_package_exports_resolve_to_their_modules():
    # dir() lists every export without importing a submodule
    assert fresh_python(
        "import sys, platoonnet\n"
        "names = dir(platoonnet)\n"
        "print(set(platoonnet.__all__) <= set(names), file=sys.stderr)\n"
        "print(sorted(m for m in sys.modules if m.startswith('platoonnet.')), file=sys.stderr)\n"
        "platoonnet.run_wmsr\n"
        "print(sorted(m for m in sys.modules if m.startswith('platoonnet.')), file=sys.stderr)"
    ) == ["True", "[]", "['platoonnet.consensus', 'platoonnet.graph']"]
    for name in platoonnet.__all__:
        obj = getattr(platoonnet, name)
        assert obj.__module__.startswith("platoonnet.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    namespace = {}
    exec("from platoonnet import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == platoonnet.__all__
    with pytest.raises(AttributeError):
        platoonnet.no_such_name
    with pytest.raises(ImportError):
        exec("from platoonnet import no_such_name", {})


def test_library_holds_no_test_only_names():
    # A public name that no other line of src/ mentions, that is not exported
    # and that the README does not document runs only in the tests: such an
    # oracle belongs in tests/helpers.py.  Public: the top-level functions
    # and classes, and the methods of the classes, not named _*.
    root = Path(__file__).resolve().parent.parent
    texts = [path.read_text(encoding="utf-8") for path in sorted((root / "src/platoonnet").glob("*.py"))]
    readme = (root / "README.md").read_text(encoding="utf-8")
    nodes = [node for text in texts for top in ast.parse(text).body
             for node in [top, *(top.body if isinstance(top, ast.ClassDef) else [])]]
    defined = Counter(node.name for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not node.name.startswith("_"))
    unused = [
        name for name, count in sorted(defined.items())
        if sum(len(re.findall(rf"\b{name}\b", text)) for text in texts) <= count
        and name not in platoonnet.__all__ and not re.search(rf"\b{name}\b", readme)
    ]
    assert unused == []


def test_only_the_cli_reports_on_stderr():
    # The library returns its verdicts, such as ConsensusTrace.f_local and the
    # notes of a connectivity report; cli.py alone prints them as warning: lines.
    root = Path(__file__).resolve().parent.parent / "src/platoonnet"
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names = [f"{node.func.id}()"]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ("warnings", "print()")]
    assert found == []


def test_cli_defines_no_name_it_binds_lazily():
    # cli._bind keeps a name already bound in cli (so that a replaced name
    # stays replaced), so a top-level definition or import in cli.py that
    # shares a name with a domain module's export would silently win over it.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    top = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            top.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            top |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            top |= {t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)}
    exported = {name for names in platoonnet._EXPORTS.values() for name in names}
    assert "STRATEGY_PARAMS" in top and "run_wmsr" in exported
    assert sorted(top & exported) == []


def test_manifest_version_is_the_project_version(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert platoonnet.__version__ == version
    assert main(["analyze", "--platoon", "6,2", "--out", str(tmp_path)]) == 0
    assert read_manifest(tmp_path)["versions"]["platoonnet"] == version
