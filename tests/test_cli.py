import json
import os
import subprocess
import sys

import pytest

import modcalc
from modcalc import (
    MetricMeasureSpace,
    cli,
    connecting_family,
    grid_space,
    make_curve,
    path_space,
    sobolev,
)
from modcalc.cli import main
from modcalc.plans import plan_to_json, point_mass
from modcalc.space import space_to_json


@pytest.fixture
def files(tmp_path):
    space = path_space(3)
    paths = {}
    paths["space"] = tmp_path / "space.json"
    paths["space"].write_text(json.dumps(space_to_json(space)))
    paths["family"] = tmp_path / "family.json"
    paths["family"].write_text(
        json.dumps(
            {"type": "connecting", "E": ["0"], "F": ["2"], "max_hops": 2, "simple": True}
        )
    )
    paths["f"] = tmp_path / "f.json"
    paths["f"].write_text(json.dumps({"values": {"0": 0.0, "1": 1.0, "2": 2.0}}))
    paths["g"] = tmp_path / "g.json"
    paths["g"].write_text(json.dumps({"values": {"0": 1.0, "1": 1.0, "2": 1.0}}))
    paths["E"] = tmp_path / "E.json"
    paths["E"].write_text(json.dumps(["0"]))
    paths["C"] = tmp_path / "C.json"
    paths["C"].write_text(json.dumps(["0"]))
    plan = point_mass(make_curve(space, ["0", "1", "2"]))
    paths["plan"] = tmp_path / "plan.json"
    paths["plan"].write_text(json.dumps(plan_to_json(plan)))
    return tmp_path, paths


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_space_validate(files, capsys):
    _, p = files
    code, out, _ = run(["space-validate", "--space", str(p["space"])], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["vertices"] == 3
    assert payload["config"]["command"] == "space-validate"


def test_modulus_single_path(files, capsys):
    _, p = files
    argv = [
        "modulus",
        "--space",
        str(p["space"]),
        "--family",
        str(p["family"]),
        "--p",
        "2",
        "--lambda",
        "0",
        "--tol",
        "1e-6",
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["value"] == pytest.approx(2.0 / 3.0, rel=1e-6)
    assert payload["result"]["gap"] <= 1e-6


def test_byte_identical_reruns(files, capsys):
    _, p = files
    argv = [
        "modulus",
        "--space",
        str(p["space"]),
        "--family",
        str(p["family"]),
        "--p",
        "1.5",
    ]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_modulus_artifact_lists_the_curves_solved_on(tmp_path, capsys):
    # corner to corner on the 4x4 grid with h <= 8: 356 walks, and the duals
    # list the 20 geodesics that modulus solves on, each once
    grid = grid_space(4, 4)
    space, family = tmp_path / "grid.json", tmp_path / "walks.json"
    space.write_text(json.dumps(space_to_json(grid)))
    family.write_text(json.dumps({"type": "connecting", "E": ["0,0"], "F": ["3,3"], "max_hops": 8}))
    argv = ["modulus", "--space", str(space), "--family", str(family), "--p", "2", "--lambda", "1"]
    code, out, _ = run(argv, capsys)
    assert code == 0 and run(argv, capsys)[1] == out
    listed = [tuple(d["vertices"]) for d in json.loads(out)["result"]["dual_weights"]]
    walks = {c.vertices for c in connecting_family(grid, ["0,0"], ["3,3"], 8)}
    assert len(listed) == len(set(listed)) == 20 and set(listed) <= walks


def test_malformed_space_exits_2(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [{"id": "a", "m": 0.0}], "edges": []}))
    code, out, err = run(["space-validate", "--space", str(bad)], capsys)
    assert code == 2
    error = json.loads(err)["error"]
    assert "nonpositive measure" in error["message"]
    assert "a" in error["message"]  # names the offending vertex


def test_family_over_the_curve_budget_exits_2(tmp_path, capsys):
    grid = grid_space(20, 20)
    space = tmp_path / "grid.json"
    space.write_text(json.dumps(space_to_json(grid)))
    family = tmp_path / "walks.json"
    every = list(grid.vertices)
    family.write_text(
        json.dumps({"type": "connecting", "E": every, "F": every, "max_hops": 6})
    )
    code, out, err = run(["modulus", "--space", str(space), "--family", str(family)], capsys)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "SpaceError"
    assert "constraint generation" in error["message"]


def test_plan_command(files, capsys):
    _, p = files
    argv = [
        "plan",
        "--space",
        str(p["space"]),
        "--plan",
        str(p["plan"]),
        "--q",
        "2",
        "--f",
        str(p["f"]),
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["is_test_plan"] is True
    assert result["energy"] == pytest.approx(4.0)
    assert result["derivation"]["1"] == pytest.approx(1.0)


def test_plan_command_on_empty_plan_writes_floats(files, capsys):
    tmp, p = files
    empty = tmp / "empty.json"
    empty.write_text(json.dumps({"support": []}))
    argv = ["plan", "--space", str(p["space"]), "--plan", str(empty), "--f", str(p["f"])]
    code, out, _ = run(argv, capsys)
    assert code == 0
    result = json.loads(out)["result"]
    for field in ("barycenter", "derivation", "divergence"):
        assert all(type(x) is float for x in result[field].values()), field
    assert result["compression"] == 0.0 and type(result["compression"]) is float


def test_gradient_command(files, capsys):
    _, p = files
    fam_all = {"type": "connecting", "E": ["0", "1", "2"], "F": ["0", "1", "2"], "max_hops": 2, "simple": True}
    fam_path = p["family"].parent / "fam_all.json"
    fam_path.write_text(json.dumps(fam_all))
    argv = [
        "gradient",
        "--space",
        str(p["space"]),
        "--family",
        str(fam_path),
        "--f",
        str(p["f"]),
        "--p",
        "2",
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["value"] == pytest.approx(8.0 / 3.0, rel=1e-5)


def test_capacity_command(files, capsys):
    _, p = files
    argv = [
        "capacity",
        "--space",
        str(p["space"]),
        "--family",
        str(p["family"]),
        "--E",
        str(p["E"]),
        "--p",
        "2",
        "--truncated",
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["value"] > 0
    assert result["f"]["0"] >= 1.0 - 1e-9


def test_relax_command(files, capsys):
    _, p = files
    f0 = p["f"].parent / "f0.json"
    f0.write_text(json.dumps({"values": {"0": 0.0, "1": 50.0, "2": 50.0}}))
    argv = [
        "relax",
        "--space",
        str(p["space"]),
        "--f",
        str(f0),
        "--g",
        str(p["g"]),
        "--C",
        str(p["C"]),
        "--delta",
        "1.0",
        "--M",
        "10.0",
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["relaxed"] == {"0": 0.0, "1": 1.0, "2": 2.0}


def test_equivalence_command_with_csv(files, capsys, tmp_path):
    _, p = files
    csv_path = tmp_path / "table.csv"
    argv = [
        "equivalence",
        "--space",
        str(p["space"]),
        "--f",
        str(p["f"]),
        "--p",
        "2",
        "--max-hops",
        "2",
        "--csv",
        str(csv_path),
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["n_value"] == pytest.approx(8.0 / 3.0, rel=1e-5)
    assert csv_path.exists() and "n_value" in csv_path.read_text()


def test_equivalence_command_without_dual_mass(tmp_path, capsys):
    # f is constant on each component of the space, so the plan is empty
    space = MetricMeasureSpace(list("abcd"), [("a", "b", 1.0), ("c", "d", 1.0)], dict.fromkeys("abcd", 1.0))
    argv = ["equivalence"]
    for name, obj in [("space", space_to_json(space)), ("f", {"values": {"a": 0, "b": 0, "c": 1, "d": 1}})]:
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    code, out, _ = run(argv, capsys)
    assert code == 0
    (entry,) = json.loads(out)["result"]["subfamilies"]
    assert entry["duality_product"] is None


def test_overflowing_p_exits_2(files, capsys):
    _, p = files
    argv = ["gradient", "--space", str(p["space"]), "--family", str(p["family"]), "--f", str(p["f"])]
    code, out, err = run(argv + ["--p", "1e308"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_selftest_and_output_file(files, capsys, tmp_path):
    out_path = tmp_path / "self.json"
    code, out, _ = run(["selftest", "--output", str(out_path)], capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["result"]["benchmark_ok"] is True
    assert payload["result"]["single_edge_modulus"] == pytest.approx(2.0, abs=1e-6)


def test_artifact_independent_of_output_path(files, capsys):
    tmp, p = files
    argv = ["capacity", "--space", str(p["space"]), "--family", str(p["family"]),
            "--E", str(p["E"]), "--p", "2"]
    first, second = tmp / "first.json", tmp / "sub" / "second.json"
    second.parent.mkdir()
    assert run(argv + ["--output", str(first)], capsys)[0] == 0
    assert run(argv + ["--output", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_modulus_infinite_value(files, capsys, tmp_path):
    _, p = files
    fam = tmp_path / "endpoints.json"
    fam.write_text(json.dumps({"type": "endpoints", "E": ["0", "2"], "max_hops": 2}))
    argv = [
        "modulus",
        "--space",
        str(p["space"]),
        "--family",
        str(fam),
        "--p",
        "2",
        "--lambda",
        "0",
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    result = json.loads(out)["result"]  # json reads Infinity back as inf
    assert result["value"] == float("inf") and result["rho"] is None

    argv[argv.index("0", argv.index("--lambda"))] = "1"
    code2, out2, _ = run(argv, capsys)
    assert code2 == 0
    assert json.loads(out2)["result"]["value"] < float("inf")


def test_missing_file_exits_2(files, capsys):
    tmp, p = files
    nowhere = str(tmp / "missing" / "out.json")
    equivalence = ["equivalence", "--space", str(p["space"]), "--f", str(p["f"])]
    for argv, kind in [
        (["space-validate", "--space", "/nonexistent.json"], "SpaceError"),
        (["space-validate", "--space", str(tmp)], "SpaceError"),  # a directory
        # an artifact or CSV path in a missing directory
        (["space-validate", "--space", str(p["space"]), "--output", nowhere], "FileNotFoundError"),
        (equivalence + ["--csv", nowhere], "FileNotFoundError"),
    ]:
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "", argv
        assert json.loads(err)["error"]["type"] == kind


def test_relax_records_delta_and_m(tmp_path, capsys):
    grid = grid_space(3, 3)
    paths = {}
    for name, obj in [
        ("space", space_to_json(grid)),
        ("f", {"values": {v: 0.0 if v == "0,0" else 10.0 for v in grid.vertices}}),
        ("g", {"values": {v: 2.0 for v in grid.vertices}}),
        ("C", ["0,0"]),
    ]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    argv = ["relax"] + [x for k, v in paths.items() for x in (f"--{k}", str(v))]
    payloads = []
    for delta in ("1", "0.5"):
        code, out, _ = run(argv + ["--delta", delta, "--M", "10"], capsys)
        assert code == 0
        payloads.append(json.loads(out))
    first, second = payloads
    assert first["result"]["relaxed"] != second["result"]["relaxed"]
    assert first["config"] != second["config"]
    assert (first["config"]["delta"], first["config"]["M"]) == (1.0, 10.0)
    assert (second["config"]["delta"], second["config"]["M"]) == (0.5, 10.0)


# the required flags of every command; everything else is left at its default
REQUIRED = {
    "space-validate": ["space"],
    "modulus": ["space", "family"],
    "plan": ["space", "plan"],
    "gradient": ["space", "family", "f"],
    "capacity": ["space", "family", "E"],
    "relax": ["space", "f", "g", "C"],
    "equivalence": ["space", "f"],
    "selftest": [],
}

# the options each command declares, at their defaults (relax's are required)
DECLARED = {
    "space-validate": {},
    "modulus": {"p": 2.0, "lam": 0, "tol": 1e-6},
    "plan": {"q": 2.0, "lam": 0},
    "gradient": {"p": 2.0, "tol": 1e-6},
    "capacity": {"p": 2.0, "truncated": False, "tol": 1e-6},
    "relax": {"delta": 1.0, "M": 10.0},
    "equivalence": {"p": 2.0, "max_hops": 3, "tol": 1e-6},
    "selftest": {"tol": 1e-6},
}


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_config_defaults_and_help(command, files, capsys):
    _, p = files
    inputs = {k: str(p[k]) for k in REQUIRED[command]}
    argv = [command] + [x for k, v in inputs.items() for x in (f"--{k}", v)]
    if command == "relax":
        argv += ["--delta", "1", "--M", "10"]
    code, out, err = run(argv, capsys)
    assert code == 0, err
    recorded = {"command": command, "inputs": inputs, **DECLARED[command]}
    assert json.loads(out)["config"] == recorded

    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"usage: modcalc {command}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, text",
    [
        (["--p", "0.5"], None),
        (["--tol", "0"], None),
        ([], "{not json"),
        ([], '{"vals": {"0": 0.0, "1": 1.0, "2": 2.0}}'),
        ([], '{"values": {"0": 0.0, "1": 1.0}}'),
        ([], '{"values": {"0": NaN, "1": 1.0, "2": 2.0}}'),
        (["--tol", "inf"], None),
    ],
    ids=["p-below-one", "tol-zero", "invalid-json", "no-values", "missing-vertex", "nan-value", "tol-inf"],
)
def test_validation_exits(flags, text, files, capsys):
    tmp, p = files
    f = p["f"]
    if text is not None:
        f = tmp / "bad_f.json"
        f.write_text(text)
    argv = ["gradient", "--space", str(p["space"]), "--family", str(p["family"])]
    code, out, err = run(argv + ["--f", str(f)] + flags, capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "SpaceError"


MALFORMED = {
    "plan-not-object": ("plan", "[]"),
    "plan-no-curve": ("plan", '{"support": [{"w": 1.0}]}'),
    "plan-no-w": ("plan", '{"support": [{"curve": {"vertices": ["0", "1"]}}]}'),
    "plan-item-not-object": ("plan", '{"support": [5]}'),
    "plan-support-not-list": ("plan", '{"support": {"curve": {"vertices": ["0"]}, "w": 1}}'),
    "plan-w-bool": ("plan", '{"support": [{"curve": {"vertices": ["0", "1"]}, "w": true}]}'),
    "plan-w-string": ("plan", '{"support": [{"curve": {"vertices": ["0", "1"]}, "w": "1"}]}'),
    "plan-times-bool": ("plan", '{"support": [{"curve": {"vertices": ["0", "1"], "times": [false, true]}, "w": 1}]}'),
    "family-max-hops-null": ("family", '{"type": "connecting", "E": ["0"], "F": ["2"], "max_hops": null}'),
    "family-max-hops-float": ("family", '{"type": "connecting", "E": ["0"], "F": ["2"], "max_hops": 3.7}'),
    "family-max-hops-string": ("family", '{"type": "connecting", "E": ["0"], "F": ["2"], "max_hops": "x"}'),
    "family-max-hops-bool": ("family", '{"type": "through", "E": ["0"], "max_hops": true}'),
    "family-simple-string": ("family", '{"type": "connecting", "E": ["0"], "F": ["2"], "max_hops": 2, "simple": "false"}'),
    "family-E-not-list": ("family", '{"type": "connecting", "E": "0", "F": ["2"]}'),
    "family-F-not-list": ("family", '{"type": "connecting", "E": ["0"], "F": 2}'),
    "family-curves-not-list": ("family", '{"type": "explicit", "curves": 5}'),
    "family-not-object": ("family", "[]"),
    "family-unknown-type": ("family", '{"type": "spiral"}'),
    "family-curve-no-vertices": ("family", '{"type": "explicit", "curves": [{"times": [0, 1]}]}'),
    "family-times-string": ("family", '{"type": "explicit", "curves": [{"vertices": ["0", "1"], "times": ["0", "1"]}]}'),
    "E-not-list": ("E", '{"0": 1}'),
    "C-not-list": ("C", '"0"'),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_2(name, files, capsys):
    tmp, p = files
    key, text = MALFORMED[name]
    bad = tmp / "bad.json"
    bad.write_text(text)
    command = {"plan": "plan", "family": "capacity", "E": "capacity", "C": "relax"}[key]
    argv = [command] + [x for k in REQUIRED[command] for x in (f"--{k}", str(p[k]))]
    argv[argv.index(f"--{key}") + 1] = str(bad)
    if command == "relax":
        argv += ["--delta", "1", "--M", "10"]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] in ("PlanError", "CurveError", "SpaceError")


@pytest.mark.parametrize("command", ["modulus", "gradient", "capacity", "equivalence"])
def test_unconverged_solve_writes_the_artifact_and_exits_3(command, tmp_path, capsys, monkeypatch):
    grid = grid_space(4, 4)
    paths = {}
    for name, obj in [
        ("space", space_to_json(grid)),
        ("family", {"type": "connecting", "E": ["0,0"], "F": ["3,3"], "max_hops": 6}),
        ("f", {"values": {v: float(sum(map(int, v.split(",")))) for v in grid.vertices}}),
        ("E", ["0,0"]),
    ]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    solve = {"modulus": "modulus", "gradient": "n_gradient", "capacity": "capacity"}
    # the harness's one gradient solve is the one that stops early
    module, name = (sobolev, "n_gradient") if command == "equivalence" else (cli, solve[command])
    full = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: full(*a, max_iter=1))
    out = tmp_path / "out.json"
    argv = [command] + [x for k in REQUIRED[command] for x in (f"--{k}", str(paths[k]))]
    # p = 1 takes the LP path, which one iteration leaves open on this grid
    code, stdout, err = run(argv + ["--p", "1", "--output", str(out)], capsys)
    assert code == 3 and stdout == "" and err == ""
    result = json.loads(out.read_text())["result"]
    if command == "equivalence":
        result = result["subfamilies"][0]
    assert result["converged"] is False and result["gap"] > 1e-6


def test_inputs_load_through_the_module_parsers(files, capsys, monkeypatch):
    # the traced benchmark wraps these names on the module: main must look
    # them up when it loads, not keep the functions it saw at import
    _, p = files
    seen = []
    for name in ("build_space", "family_from_json", "plan_from_json"):
        parse = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _n=name, _f=parse: seen.append(_n) or _f(*a))
    assert run(["modulus", "--space", str(p["space"]), "--family", str(p["family"])], capsys)[0] == 0
    assert seen == ["build_space", "family_from_json"]
    assert run(["plan", "--space", str(p["space"]), "--plan", str(p["plan"])], capsys)[0] == 0
    assert seen[2:] == ["build_space", "plan_from_json"]


def test_artifacts_do_not_depend_on_the_hash_seed(files):
    # every command, run in a fresh process under two string-hash seeds: set
    # and dict order must not reach an artifact.  One process per seed runs
    # them all.
    tmp, p = files
    walks = {"type": "connecting", "E": ["0", "1"], "F": ["2"], "max_hops": 3}
    (tmp / "walks.json").write_text(json.dumps(walks))
    (tmp / "through.json").write_text(json.dumps({"type": "through", "E": ["1"], "max_hops": 2}))
    common = {
        "space-validate": [],
        "modulus": ["--family", str(tmp / "walks.json"), "--p", "2", "--lambda", "1"],
        "plan": ["--plan", str(p["plan"]), "--f", str(p["f"]), "--q", "2"],
        "gradient": ["--family", str(tmp / "through.json"), "--f", str(p["f"]), "--p", "1.5"],
        "capacity": ["--family", str(p["family"]), "--E", str(p["E"]), "--p", "2", "--truncated"],
        "relax": ["--f", str(p["f"]), "--g", str(p["g"]), "--C", str(p["C"]),
                  "--delta", "1.5", "--M", "9"],
        "equivalence": ["--f", str(p["f"]), "--p", "2", "--max-hops", "2"],
    }
    script = (
        "import json, sys\nfrom modcalc.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0, argv\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(modcalc.__file__)))
    outputs = {}
    for seed in ("1", "2"):
        out = tmp / f"seed{seed}"
        out.mkdir()
        runs = [["selftest", "--output", str(out / "selftest.json")]]
        for cmd, args in common.items():
            runs.append([cmd, "--space", str(p["space"]), *args, "--output", str(out / f"{cmd}.json")])
        runs[-1] += ["--csv", str(out / "equivalence.csv")]
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env, check=True, timeout=300)
        outputs[seed] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert len(outputs["1"]) == 9
    assert outputs["1"] == outputs["2"]
