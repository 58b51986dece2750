"""CLI behavior: outputs, exit codes, and byte-level determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from jccopt import algorithms, cli
from jccopt.algorithms import applicable_methods
from jccopt.cases import bundled_case_path
from jccopt.cli import main
from jccopt.dispatch import build_ccp, load_case
from jccopt.model import SampleSet, evaluate_group, problem_to_dict
from jccopt.scenarios import ScenarioGenSpec, spec_from_dict
from jccopt.toys import INTERVAL_SCENARIOS, interval_toy, two_group_toy

from helpers import over_cap_problem

OVERLAP = str(bundled_case_path("overlap"))
THREE_BUS = str(bundled_case_path("three_bus"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_example1_reproduces_reference_objectives(capsys):
    code, out, _ = run(capsys, "example1", "--method", "also-x")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert "eps=0.00" in lines[0] and "infeasible" in lines[0]
    assert "objective=3.000000" in lines[2]
    assert "objective=2.000000" in lines[3]
    assert "objective=1.000000" in lines[4]


def test_example1_rejects_bad_eps(capsys):
    code, _, err = run(capsys, "example1", "--eps", "1.5")
    assert code == 1
    assert "outside" in err


def test_example2_trace_schema_and_determinism(tmp_path, capsys):
    out_dir = tmp_path / "e2"
    code, out1, _ = run(capsys, "example2", "--seed", "0",
                        "--out", str(out_dir))
    assert code == 0
    trace = out_dir / "example2_also-x_trace.csv"
    header = trace.read_text().splitlines()[0]
    assert header == "iteration,objective,vp_group1,vp_group2"
    first = trace.read_bytes()
    code, out2, _ = run(capsys, "example2", "--seed", "0",
                        "--out", str(out_dir))
    assert code == 0
    assert out1 == out2
    assert trace.read_bytes() == first


def test_solve_report_round_trip(tmp_path, capsys):
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(problem_to_dict(interval_toy(0.4))))
    report_file = tmp_path / "r.json"
    code, out, _ = run(capsys, "solve", str(problem_file),
                       "--method", "also-x", "--f-lower", "0",
                       "--f-upper", "8", "--out", str(report_file))
    assert code == 0
    assert "objective=3.000000" in out
    report = json.loads(report_file.read_text())
    assert report["results"]["also-x"]["status"] == "feasible"
    assert report["results"]["also-x"]["objective"] == pytest.approx(3.0)
    first = report_file.read_bytes()
    run(capsys, "solve", str(problem_file), "--method", "also-x",
        "--f-lower", "0", "--f-upper", "8", "--out", str(report_file))
    assert report_file.read_bytes() == first


def test_solve_requires_both_bounds(capsys, tmp_path):
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(problem_to_dict(interval_toy(0.4))))
    code, _, err = run(capsys, "solve", str(problem_file), "--f-lower", "1")
    assert code == 1
    assert "together" in err


def test_solve_rejects_inverted_or_non_finite_bracket(capsys, tmp_path):
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(problem_to_dict(interval_toy(0.4))))
    for lo, hi in (("8", "0"), ("nan", "8"), ("0", "inf")):
        code, out, err = run(capsys, "solve", str(problem_file), "--method",
                             "also-x", "--f-lower", lo, "--f-upper", hi)
        assert code == 1
        assert out == ""
        assert "must be finite and ordered" in err


@pytest.mark.parametrize("problem", [
    interval_toy(0.4), two_group_toy(0), over_cap_problem()],
    ids=["interval", "two-group", "over-cap"])
def test_solve_method_all_runs_the_applicable_methods(tmp_path, capsys,
                                                      problem):
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(problem_to_dict(problem)))
    code, out, _ = run(capsys, "solve", str(problem_file), "--method", "all",
                       "--out", str(tmp_path / "r.json"))
    assert code == 0
    ran = [line.split()[0].removeprefix("method=")
           for line in out.splitlines() if line.startswith("method=")]
    assert ran == applicable_methods(problem)


def test_dispatch_report_audits_and_determinism(tmp_path, capsys):
    out_dir = tmp_path / "d"
    args = ("dispatch", OVERLAP, "--rho", "0.0", "--method", "all",
            "--out", str(out_dir))
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert "method=cvar" in out1 and "infeasible" in out1
    report = json.loads((out_dir / "dispatch_report.json").read_text())
    assert report["results"]["also-x"]["dispatch_cost"] == pytest.approx(25.8)
    assert report["audits"]["also-x"]["balance"] <= 1e-6
    lower = out_dir / "trajectory_adn0_lower.csv"
    header = lower.read_text().splitlines()[0].split(",")
    assert header[:3] == ["t", "energy", "energy_plus_reserve"]
    assert header[3] == "bound_sample_0" and header[-1] == "bound_sample_9"
    snap = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    code, out2, _ = run(capsys, *args)
    assert code == 0
    assert out1 == out2
    for p in out_dir.iterdir():
        assert p.read_bytes() == snap[p.name]


def test_dispatch_report_does_not_depend_on_the_case_path(tmp_path, capsys):
    reports = []
    for where in ("a", "a_much_longer_directory_name"):
        case = tmp_path / where / "overlap.json"
        case.parent.mkdir()
        case.write_bytes(Path(OVERLAP).read_bytes())
        out_dir = tmp_path / ("out_" + where)
        code, _, _ = run(capsys, "dispatch", str(case), "--rho", "0.0",
                         "--method", "also-x", "--out", str(out_dir))
        assert code == 0
        reports.append((out_dir / "dispatch_report.json").read_bytes())
    assert reports[0] == reports[1]



@pytest.mark.parametrize("edit, path", [
    (lambda d: d.update(options=None), "/options"),
    (lambda d: d["generators"][0].update(p_max="ten"), "/generators/0/p_max"),
    (lambda d: d.update(network={"buses": 3}), "/network/buses"),
    (lambda d: d.update(horizon=2.5), "/horizon"),
    (lambda d: d["generators"][0].update(bus=False), "/generators/0/bus"),
], ids=["options", "p_max", "buses", "fractional-horizon", "boolean-bus"])
def test_dispatch_wrong_typed_field_is_an_input_error(tmp_path, capsys, edit, path):
    data = json.loads(Path(OVERLAP).read_text())
    edit(data)
    case = tmp_path / "case.json"
    case.write_text(json.dumps(data))
    code, out, err = run(capsys, "dispatch", str(case), "--method", "also-x",
                         "--out", str(tmp_path / "d"))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("edit, path", [
    (lambda d: d["groups"][0].update(epsilon="x"), "/groups/0/epsilon"),
    (lambda d: d.update(polytope=None), "/polytope"),
    (lambda d: d["polytope"].update(bounds=[{}, {}]), "/polytope/bounds"),
], ids=["epsilon", "polytope", "bounds"])
def test_solve_wrong_typed_field_is_an_input_error(tmp_path, capsys, edit, path):
    data = problem_to_dict(interval_toy(0.4))
    edit(data)
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "solve", str(problem_file))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: ")

# String fields given null or a number.  A null variant reads as absent,
# like every null field whose default is None.
@pytest.mark.parametrize("path, edit", [
    ("/network/lines/0/name", lambda d, v: d["network"]["lines"][0].update(name=v)),
    ("/generators/0/name", lambda d, v: d["generators"][0].update(name=v)),
    ("/adns/0/name", lambda d, v: d["adns"][0].update(name=v)),
    ("/adns/0/boundary_samples/csv",
     lambda d, v: d["adns"][0].update(boundary_samples={"csv": v})),
], ids=["line-name", "generator-name", "adn-name", "csv"])
@pytest.mark.parametrize("value", [None, 7], ids=["null", "number"])
def test_dispatch_non_string_field_is_an_input_error(tmp_path, capsys, path,
                                                     edit, value):
    _dispatch_rejects_non_string(tmp_path, capsys, path, lambda d: edit(d, value))


def test_dispatch_non_string_variant_is_an_input_error(tmp_path, capsys):
    _dispatch_rejects_non_string(tmp_path, capsys, "/options/variant",
                                 lambda d: d.update(options={"variant": 7}))


def _dispatch_rejects_non_string(tmp_path, capsys, path, edit):
    data = json.loads(Path(THREE_BUS).read_text())
    edit(data)
    case = tmp_path / "case.json"
    case.write_text(json.dumps(data))
    code, out, err = run(capsys, "dispatch", str(case), "--method", "also-x",
                         "--out", str(tmp_path / "d"))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: expected a string, got ")


@pytest.mark.parametrize("key", ["norm", "label"])
@pytest.mark.parametrize("value", [None, 7], ids=["null", "number"])
def test_solve_non_string_field_is_an_input_error(tmp_path, capsys, key, value):
    data = problem_to_dict(interval_toy(0.4))
    data["groups"][0][key] = value
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "solve", str(problem_file))
    assert code == 1 and out == ""
    assert err.startswith(f"error: /groups/0/{key}: expected a string, got ")


@pytest.mark.parametrize("norm", ["l2", "l3"])
def test_solve_unknown_norm_names_its_path(tmp_path, capsys, monkeypatch, norm):
    data = problem_to_dict(interval_toy(0.4))
    data["groups"][0]["norm"] = norm
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(data))
    monkeypatch.setattr(algorithms, "solve", None)  # no solve may start
    code, out, err = run(capsys, "solve", str(problem_file))
    assert (code, out) == (1, "")
    assert err == (f"error: /groups/0/norm: unknown norm '{norm}'; expected "
                   "one of ('l1', 'linf')\n")


def test_solve_bound_infinite_on_the_wrong_side_fails_at_load(
        tmp_path, capsys, monkeypatch):
    data = problem_to_dict(interval_toy(0.4))
    data["polytope"]["bounds"] = [{"lower": "INF"}]
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(data).replace('"INF"', "Infinity"))
    monkeypatch.setattr(algorithms, "solve", None)  # no solve may start
    code, out, err = run(capsys, "solve", str(problem_file))
    assert (code, out) == (1, "")
    assert err == ("error: polytope: a lower bound may not be +inf, nor an "
                   "upper bound -inf\n")


@pytest.mark.parametrize("groups", [[], None], ids=["empty", "missing"])
def test_solve_without_groups_is_an_input_error(tmp_path, capsys, groups):
    data = {"objective": [1.0],
            "polytope": {"bounds": [{"lower": 1.0, "upper": 3.0}]}}
    if groups is not None:
        data["groups"] = groups
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "solve", str(problem_file), "--method", "all")
    assert code == 1 and out == ""
    assert err.startswith("error: /groups: ")


def _set(*keys):
    """An edit that sets the field at ``keys`` of a JSON document."""
    def edit(data, value):
        for key in keys[:-1]:
            data = data[key]
        data[keys[-1]] = value
    return edit


NAN, INF = float("nan"), float("inf")
SPEC = {"n": 4, "columns": 2, "distribution": {"kind": "uniform"}}
GAUSSIAN_SPEC = {"n": 4, "columns": 2, "distribution": {"kind": "gaussian"}}


# Number fields given a string, a boolean, NaN or an infinity; json writes
# and reads the NaN and Infinity literals.
@pytest.mark.parametrize("command, base, keys, value", [
    ("dispatch", OVERLAP, ("generators", 0, "p_max"), "10.0"),
    ("dispatch", OVERLAP, ("generators", 0, "reserve_cost_up"), True),
    ("dispatch", OVERLAP, ("generators", 0, "epsilon"), False),
    ("dispatch", OVERLAP, ("generators", 0, "p_max"), NAN),
    ("dispatch", OVERLAP, ("step",), INF),
    ("dispatch", OVERLAP, ("network", "buses", 0, "fixed_load"), ["5", "5"]),
    ("dispatch", OVERLAP, ("network", "buses", 0, "fixed_load"), [True, 5.0]),
    ("dispatch", OVERLAP, ("adns", 0, "boundary_samples"), [["1"] * 8] * 10),
    ("solve", None, ("objective",), [INF]),
    ("solve", None, ("groups", 0, "samples"), [["1", "3"]] * 5),
    ("solve", None, ("groups", 0, "constraints", 0, "d"), "0"),
    ("solve", None, ("var_names",), [7]),
    ("solve", None, ("var_names",), [None]),
    ("solve", None, ("polytope", "bounds", 0, "lower"), NAN),
    ("solve", None, ("polytope", "bounds", 0, "upper"), "8"),
    ("generate", SPEC, ("distribution", "low"), "0"),
    ("generate", SPEC, ("distribution", "low"), NAN),
    ("generate", GAUSSIAN_SPEC, ("distribution", "std"), True),
], ids=["p_max-string", "reserve_cost_up-true", "epsilon-false", "p_max-nan",
        "step-infinity", "fixed_load-strings", "fixed_load-boolean",
        "boundary_samples-strings", "objective-infinity", "samples-strings",
        "d-string", "var_names-number", "var_names-null", "lower-nan",
        "upper-string", "low-string",
        "low-nan", "std-true"])
def test_number_field_takes_only_finite_numbers(tmp_path, capsys, command,
                                                base, keys, value):
    if command == "dispatch":
        data = json.loads(Path(base).read_text())
    elif command == "solve":
        data = problem_to_dict(interval_toy(0.4))
    else:
        data = json.loads(json.dumps(base))
    _set(*keys)(data, value)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path)]
    if command == "dispatch":
        argv += ["--method", "also-x", "--out", str(tmp_path / "d")]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: /{'/'.join(map(str, keys))}: ")
    assert not (tmp_path / "scenarios.csv").exists()


def test_dispatch_trajectories_center_on_family_mean(tmp_path, capsys):
    out_dir = tmp_path / "d"
    run(capsys, "dispatch", OVERLAP, "--method", "also-x",
        "--out", str(out_dir))
    case = json.loads(Path(OVERLAP).read_text())
    rows = np.asarray(case["adns"][0]["boundary_samples"])
    T = case["horizon"]
    e_upper = rows[:, 3 * T:]
    table = np.loadtxt(out_dir / "trajectory_adn0_upper.csv", delimiter=",",
                       skiprows=1)
    # centered samples must average to zero at each t
    samples = table[:, 3:]
    np.testing.assert_allclose(samples.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(samples, (e_upper - e_upper.mean(axis=0)).T,
                               atol=1e-12)


def test_dispatch_sweep_csv_schema(tmp_path, capsys):
    out_dir = tmp_path / "s"
    code, _, _ = run(capsys, "dispatch", OVERLAP, "--rho-grid", "0.0,0.01",
                     "--method", "also-x", "--out", str(out_dir))
    assert code == 0
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "rho,method,group,status,cost,reliability"
    assert len(lines) == 1 + 2 * 2  # 2 radii x 2 groups, all feasible
    assert lines[1].startswith("0.0,also-x,g1,feasible,")


def test_dispatch_sweep_row_of_an_infeasible_method(tmp_path, capsys):
    # cvar keeps the overlap case's rogue scenario in its tail at every
    # radius: one row with the status and no group, cost or reliability.
    code, out, _ = run(capsys, "dispatch", OVERLAP, "--rho-grid", "0",
                       "--method", "cvar", "--out", str(tmp_path))
    assert code == 0
    assert out.startswith("rho=0 method=cvar    infeasible cost=n/a\n")
    assert (tmp_path / "sweep.csv").read_text() == (
        "rho,method,group,status,cost,reliability\n0.0,cvar,,infeasible,,\n")


def test_dispatch_empty_rho_grid_is_an_input_error(tmp_path, capsys):
    code, out, err = run(capsys, "dispatch", OVERLAP, "--rho-grid", ",",
                         "--out", str(tmp_path))
    assert (code, out, err) == (1, "", "error: --rho-grid: empty grid\n")
    assert not (tmp_path / "sweep.csv").exists()


def test_dispatch_rejects_rho_and_grid_together(capsys):
    code, _, err = run(capsys, "dispatch", OVERLAP, "--rho", "0",
                       "--rho-grid", "0,1")
    assert code == 1
    assert "not both" in err


def test_dispatch_rejects_non_finite_rho(tmp_path, capsys):
    for flag, value in (("--rho", "nan"), ("--rho", "inf"),
                        ("--rho-grid", "nan")):
        code, _, err = run(capsys, "dispatch", OVERLAP, flag, value,
                           "--out", str(tmp_path))
        assert code == 1
        assert "rho" in err and "finite and nonnegative" in err


def test_evaluate_from_solve_report(tmp_path, capsys):
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(problem_to_dict(interval_toy(0.4))))
    report_file = tmp_path / "r.json"
    run(capsys, "solve", str(problem_file), "--method", "also-x",
        "--f-lower", "0", "--f-upper", "8", "--out", str(report_file))
    test_csv = tmp_path / "t.csv"
    SampleSet(INTERVAL_SCENARIOS).to_csv(test_csv)
    code, out, _ = run(capsys, "evaluate", str(report_file), str(test_csv))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "group,reliability"
    assert lines[1] == "interval,0.6"


def test_evaluate_reads_the_dispatch_report_sparse_or_dense(tmp_path, capsys):
    # The report writes each constraint's A as its stored entries; evaluate
    # scores the held-out rows from it as the in-memory model does, and
    # reads a report whose A is written dense the same way.
    code, _, _ = run(capsys, "dispatch", THREE_BUS, "--method", "cvar",
                     "--out", str(tmp_path / "d"))
    assert code == 0
    report_file = tmp_path / "d" / "dispatch_report.json"
    model = build_ccp(load_case(Path(THREE_BUS)))
    x = algorithms.solve(model.problem, "cvar").x
    held_out = model.test_sample_sets()[0]
    held_out.to_csv(tmp_path / "t.csv")
    want = "group,reliability\n" + "".join(
        f"{g.label},{evaluate_group(g, x, held_out).rate!r}\n"
        for g in model.problem.groups if g.samples.dim == held_out.dim)
    code, out, _ = run(capsys, "evaluate", str(report_file), str(tmp_path / "t.csv"))
    assert code == 0 and out == want

    report = json.loads(report_file.read_text())
    assert report["results"]["cvar"]["x"] == x.tolist()
    for gd, g in zip(report["problem"]["groups"], model.problem.groups):
        for cd, con in zip(gd["constraints"], g.constraints):
            assert cd["A"]["index"] == con.A_index.tolist()
            cd["A"] = con.A.tolist()
    dense = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert 5 * report_file.stat().st_size <= len(dense)
    report_file.write_text(dense)
    code, out, _ = run(capsys, "evaluate", str(report_file), str(tmp_path / "t.csv"))
    assert code == 0 and out == want


def _interval_report(tmp_path, capsys) -> Path:
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(problem_to_dict(interval_toy(0.4))))
    report_file = tmp_path / "r.json"
    run(capsys, "solve", str(problem_file), "--method", "also-x",
        "--f-lower", "0", "--f-upper", "8", "--out", str(report_file))
    return report_file


@pytest.mark.parametrize("keys, value, path", [
    (("results",), [], "/results"),
    (("results", "also-x"), [], "/results/also-x"),
    (("results", "also-x", "x"), ["3.0"], "/results/also-x/x"),
    (("results", "also-x", "x"), [True], "/results/also-x/x"),
    (("results", "also-x", "x"), [3.0, 3.0], "/results/also-x/x"),
    (("results", "also-x", "x"), "x", "/results/also-x/x"),
    (("results", "also-x", "x"), [[3.0]], "/results/also-x/x"),
], ids=["results-list", "result-list", "x-string-entry", "x-boolean",
        "x-wrong-length", "x-string", "x-nested"])
def test_evaluate_malformed_report_is_an_input_error(tmp_path, capsys, keys,
                                                     value, path):
    report_file = _interval_report(tmp_path, capsys)
    report = json.loads(report_file.read_text())
    _set(*keys)(report, value)
    report_file.write_text(json.dumps(report))
    test_csv = tmp_path / "t.csv"
    SampleSet(INTERVAL_SCENARIOS).to_csv(test_csv)
    code, out, err = run(capsys, "evaluate", str(report_file), str(test_csv))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("keys, value, message", [
    (("problem", "objective"), ["1"],
     "/problem/objective: expected numbers, got str"),
    (("problem", "groups", 0, "epsilon"), "0.4",
     "/problem/groups/0/epsilon: expected a number, got str"),
    (("problem", "polytope", "bounds", 0), {"lower": "0"},
     "/problem/polytope/bounds/0/lower: expected a number, got str"),
], ids=["objective", "group-epsilon", "bound"])
def test_evaluate_problem_errors_name_their_path_in_the_report(
        tmp_path, capsys, keys, value, message):
    report_file = _interval_report(tmp_path, capsys)
    report = json.loads(report_file.read_text())
    _set(*keys)(report, value)
    report_file.write_text(json.dumps(report))
    test_csv = tmp_path / "t.csv"
    SampleSet(INTERVAL_SCENARIOS).to_csv(test_csv)
    code, out, err = run(capsys, "evaluate", str(report_file), str(test_csv))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_evaluate_non_finite_scenario_cell_names_file_and_line(
        tmp_path, capsys, cell):
    report_file = _interval_report(tmp_path, capsys)
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text(f"xi0,xi1\n1.0,2.0\n3.0,{cell}\n")
    code, out, err = run(capsys, "evaluate", str(report_file), str(bad_csv))
    assert code == 1 and out == ""
    assert err == f"error: {bad_csv}: non-finite value on line 3\n"


def test_dispatch_non_finite_csv_scenario_cell_names_file_and_line(
        tmp_path, capsys):
    data = json.loads(Path(THREE_BUS).read_text())
    rows = [list(row) for row in data["wind"]["errors"]]
    rows[1][0] = float("nan")
    csv = tmp_path / "w.csv"
    csv.write_text("\n".join(",".join(map(repr, row)) for row in rows) + "\n")
    data["wind"]["errors"] = {"csv": "w.csv"}
    case = tmp_path / "case.json"
    case.write_text(json.dumps(data))
    code, out, err = run(capsys, "dispatch", str(case), "--method", "also-x",
                         "--out", str(tmp_path / "d"))
    assert code == 1 and out == ""
    assert err == f"error: {csv}: non-finite value on line 2\n"


def test_dispatch_malformed_held_out_rows_fail_at_load(tmp_path, capsys):
    # The held-out rows are checked when the case loads, not only when a
    # sweep scores against them.
    data = json.loads(Path(THREE_BUS).read_text())
    for row in data["wind"]["test_errors"]:
        del row[-1]
    case = tmp_path / "bad.json"
    case.write_text(json.dumps(data))
    code, out, err = run(capsys, "dispatch", str(case), "--rho", "0",
                         "--method", "cvar", "--out", str(tmp_path / "d"))
    assert code == 1 and out == ""
    assert err == "error: wind test_errors rows are 3 wide, expected W*T = 4\n"
    assert not (tmp_path / "d").exists()


def test_dispatch_line_to_an_unknown_bus_exits_one(tmp_path, capsys):
    data = json.loads(Path(THREE_BUS).read_text())
    data["network"]["lines"][0]["to_bus"] = 7
    case = tmp_path / "bad.json"
    case.write_text(json.dumps(data))
    code, out, err = run(capsys, "dispatch", str(case), "--rho", "0",
                         "--method", "cvar", "--out", str(tmp_path / "d"))
    assert (code, out, err) == (1, "", "error: unknown bus id 7\n")
    assert not (tmp_path / "d").exists()


def test_dispatch_rho_grid_that_is_not_numbers_is_an_input_error(tmp_path,
                                                                  capsys):
    code, out, err = run(capsys, "dispatch", OVERLAP, "--rho-grid", "a,b",
                         "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: --rho-grid: ")
    assert not (tmp_path / "sweep.csv").exists()


def test_evaluate_group_restricts_the_scores(tmp_path, capsys):
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(problem_to_dict(two_group_toy(0))))
    report_file = tmp_path / "r.json"
    run(capsys, "solve", str(problem_file), "--method", "cvar",
        "--out", str(report_file))
    test_csv = tmp_path / "t.csv"
    two_group_toy(1).groups[0].samples.to_csv(test_csv)
    code, everything, _ = run(capsys, "evaluate", str(report_file), str(test_csv))
    assert code == 0
    header, loose, tight = everything.splitlines()
    assert tight.startswith("tight,")
    code, out, _ = run(capsys, "evaluate", str(report_file), str(test_csv),
                       "--group", "tight")
    assert code == 0 and out == f"{header}\n{tight}\n"
    code, out, err = run(capsys, "evaluate", str(report_file), str(test_csv),
                         "--group", "none")
    assert (code, out, err) == (1, "", "error: no group labelled 'none'\n")


def test_evaluate_dimension_mismatch(tmp_path, capsys):
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(problem_to_dict(interval_toy(0.4))))
    report_file = tmp_path / "r.json"
    run(capsys, "solve", str(problem_file), "--method", "also-x",
        "--f-lower", "0", "--f-upper", "8", "--out", str(report_file))
    bad_csv = tmp_path / "bad.csv"
    SampleSet(np.ones((3, 5))).to_csv(bad_csv)
    code, _, err = run(capsys, "evaluate", str(report_file), str(bad_csv))
    assert code == 1
    assert "match no group" in err


def test_evaluate_drops_groups_of_another_dimension_before_scoring(
        tmp_path, capsys, monkeypatch):
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(problem_to_dict(interval_toy(0.4))))
    report_file = tmp_path / "r.json"
    run(capsys, "solve", str(problem_file), "--method", "also-x",
        "--f-lower", "0", "--f-upper", "8", "--out", str(report_file))
    bad_csv = tmp_path / "bad.csv"
    SampleSet(np.ones((3, 5))).to_csv(bad_csv)

    def score(*args):
        raise AssertionError("a group of another dimension was scored")

    monkeypatch.setattr(cli, "evaluate_group", score)
    assert run(capsys, "evaluate", str(report_file), str(bad_csv)) == (
        1, "", f"error: {bad_csv}: 5 columns match no group's uncertainty "
        "dimension\n")


def test_generate_deterministic_and_from_file(tmp_path, capsys):
    spec = {"n": 4, "columns": 2, "seed": 9,
            "distribution": {"kind": "gaussian", "mean": 1.0, "std": 0.5},
            "output": "draw.csv"}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "generate", str(spec_file))
    assert code == 0 and "4 rows x 2 columns" in out
    first = (tmp_path / "draw.csv").read_bytes()
    run(capsys, "generate", str(spec_file))
    assert (tmp_path / "draw.csv").read_bytes() == first

    copy_spec = {"distribution": {"kind": "from-file", "path": "draw.csv"},
                 "output": "copy.csv"}
    copy_file = tmp_path / "copy.json"
    copy_file.write_text(json.dumps(copy_spec))
    code, _, _ = run(capsys, "generate", str(copy_file))
    assert code == 0
    assert (tmp_path / "copy.csv").read_bytes() == first


@pytest.mark.parametrize("spec, path", [
    ({"n": "ten", "columns": 2, "distribution": {"kind": "uniform"}}, "/n"),
    ({"n": 2.7, "columns": 2, "distribution": {"kind": "uniform"}}, "/n"),
    ({"n": 4, "columns": True, "distribution": {"kind": "uniform"}}, "/columns"),
    ({"n": 4, "columns": 2, "seed": -1, "distribution": {"kind": "uniform"}},
     "/seed"),
    ({"n": 4, "columns": 2, "distribution": {"kind": "uniform", "low": "a"}},
     "/distribution/low"),
    ({"n": 4, "columns": 2, "distribution": {"low": 0.0}}, "/distribution"),
    ({"n": 4, "columns": 2, "output": None, "distribution": {"kind": "uniform"}},
     "/output"),
    ([{"n": 4}], "/"),
    # bad at both levels: the top-level fields are read first
    ({"n": 4, "columns": 2, "seed": 1.5, "distribution": {"kind": 7}}, "/seed"),
], ids=["n-string", "n-fraction", "columns-boolean", "seed-negative",
        "low-string", "no-kind", "output-null", "array", "both-levels"])
def test_generate_bad_spec_is_an_input_error(tmp_path, capsys, spec, path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    code, out, err = run(capsys, "generate", str(spec_file))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: ")
    assert not (tmp_path / "scenarios.csv").exists()


def test_generate_spec_reads_the_dataclass_defaults(tmp_path, capsys):
    spec = {"n": 3, "columns": 2, "distribution": {"kind": "uniform"}}
    assert spec_from_dict(spec) == ScenarioGenSpec(3, 2, "uniform")
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    code, _, _ = run(capsys, "generate", str(spec_file))
    assert code == 0
    want = np.random.default_rng(0).uniform(0.0, 1.0, size=(3, 2))
    got = SampleSet.from_csv(tmp_path / "scenarios.csv").data
    assert np.array_equal(got, want)


def test_missing_input_file_is_usage_error(capsys):
    code, _, err = run(capsys, "solve", "/no/such/file.json")
    assert code == 1
    assert "error" in err


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dispatch", OVERLAP, "--bogus"])
    assert exc.value.code == 1
