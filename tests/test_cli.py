"""CLI subcommands exercised in-process; exit-code contract."""

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import fcuc.drivers
from conftest import desk_scenario
from fcuc.boundary import NadirCut
from fcuc.cli import EXIT_SOLVER_LIMIT, main
from fcuc.drivers import compare_runs, load_report
from fcuc.dynamics import TechClass, check_compliance, response_metrics
from fcuc.scenario import load_scenario, save_scenario
from fcuc.solver import MilpResult
from fcuc.ucmodel import COMMITTED_CLASSES, fleet_capacity_mw, fleet_mix
from oracles import parse_mps


@pytest.fixture(scope="module")
def desk_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "desk.json"
    save_scenario(desk_scenario(), str(path))
    return str(path)


@pytest.fixture(scope="module")
def overload_path(tmp_path_factory):
    s = desk_scenario()
    bad = dataclasses.replace(s, demand=tuple(3.0 * d for d in s.demand))
    path = tmp_path_factory.mktemp("cli") / "overload.json"
    save_scenario(bad, str(path))
    return str(path)


def test_simulate(desk_path, capsys, tmp_path):
    trace = tmp_path / "trace.tsv"
    rc = main([
        "simulate", "--scenario", desk_path, "--hour", "12",
        "--trace-out", str(trace), "--decimate", "100",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "nadir_hz" in out and "compliant" in out
    assert trace.exists() and trace.read_text().startswith("time_s")
    # the printed metrics are the ones the loop decides on
    s = desk_scenario()
    mix = fleet_mix(s, 12).with_capacities({c: fleet_capacity_mw(s, c) for c in COMMITTED_CLASSES})
    met = response_metrics(mix)
    printed = dict(line.split("\t") for line in out.splitlines())
    for name in ("nadir_hz", "initial_rocof_hz_s", "qss_dev_hz"):
        assert printed[name] == f"{getattr(met, name):.4f}"
    assert printed["time_of_nadir_s"] == f"{met.time_of_nadir_s:.3f}"
    assert printed["compliant"] == str(check_compliance(met, s.limits).passed)


@pytest.mark.parametrize("value", ["0", "-5"])
def test_simulate_refuses_a_decimate_below_one(desk_path, capsys, tmp_path, value):
    trace = tmp_path / "trace.tsv"
    argv = ["simulate", "--scenario", desk_path, "--trace-out", str(trace), "--decimate", value]
    assert main(argv) == 1
    assert "argument --decimate: " in capsys.readouterr().err
    assert not trace.exists()


def test_an_override_of_an_absent_class_adds_its_default_inertia(capsys):
    # the example has no condensers: 500 MW of them add 2 * 3 s * 500 MW of inertia
    example = str(pathlib.Path(__file__).resolve().parents[1] / "scripts" / "example_scenario.json")
    s = load_scenario(example)
    assert fleet_capacity_mw(s, TechClass.CONDENSER) == 0.0
    mix = fleet_mix(s, 12).with_capacities({c: fleet_capacity_mw(s, c) for c in COMMITTED_CLASSES})
    m = mix.system_inertia_mws
    assert main(["simulate", "--scenario", example, "--override", "condenser=500"]) == 0
    printed = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    rocof = s.contingency_mw * s.nominal_freq_hz / (m + 2.0 * 3.0 * 500.0)
    assert printed["initial_rocof_hz_s"] == f"{rocof:.4f}"


def test_simulate_override_changes_metrics(desk_path, capsys):
    assert main(["simulate", "--scenario", desk_path]) == 0
    base = capsys.readouterr().out
    assert main([
        "simulate", "--scenario", desk_path, "--override", "combined_cycle=2000",
    ]) == 0
    boosted = capsys.readouterr().out

    def nadir(text):
        return float([l for l in text.splitlines() if l.startswith("nadir_hz")][0].split("\t")[1])

    assert nadir(boosted) > nadir(base)


@pytest.mark.parametrize("mw", ["nan", "inf", "-inf"])
def test_a_non_finite_capacity_is_a_usage_error(desk_path, capsys, mw):
    assert main(["simulate", "--scenario", desk_path, "--override", f"steam={mw}"]) == 1
    assert main([
        "study", "equivalence", "--scenario", desk_path, "--tech-a", "gfm",
        "--tech-b", "condenser", "--backdrop", f"hydro_reservoir={mw}",
    ]) == 1
    out, err = capsys.readouterr()
    assert "compliant" not in out
    assert err.count(f"={mw}: {mw}: must be finite") == 2


@pytest.mark.parametrize("argv", [
    ["study", "gfm-sensitivity", "--scenario", "{desk}", "--time-constants", "0.1", "nan"],
    ["solve", "--model", "industry", "--scenario", "{desk}", "--escalation", "nan"],
    ["plan", "npv", "--savings", "nan", "--capex", "1000"],
    ["plan", "npv", "--savings", "100", "--capex", "inf"],
    ["export-mps", "--scenario", "{desk}", "--out", "{desk}.mps", "--uniform-reserve", "inf"],
])
def test_a_non_finite_option_is_a_usage_error(desk_path, capsys, argv):
    value = next(a for a in argv if a in ("nan", "inf"))
    assert main([a.format(desk=desk_path) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f": {value}: must be finite" in err


@pytest.mark.parametrize("command", ["simulate", "boundary"])
@pytest.mark.parametrize("hour", [0, 25])
def test_an_hour_out_of_range_is_a_usage_error(desk_path, capsys, command, hour):
    argv = [command, "--scenario", desk_path, "--hour", str(hour)]
    if command == "boundary":
        argv += ["--axis", "combined_cycle:0:1200:200"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"hour {hour} out of range 1..24" in err


@pytest.mark.parametrize("flag, value, reason", [
    ("--override", "steam", "expected tech=MW"),
    ("--override", "steam=lots", "could not convert"),
    ("--backdrop", "coal=10", "not a valid TechClass"),
    ("--backdrop", "=10", "not a valid TechClass"),
])
def test_a_malformed_capacity_is_a_usage_error(desk_path, capsys, flag, value, reason):
    if flag == "--override":
        argv = ["simulate", "--scenario", desk_path]
    else:
        argv = ["study", "equivalence", "--scenario", desk_path, "--tech-a", "gfm",
                "--tech-b", "condenser"]
    assert main([*argv, flag, value]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: {value}: " in err and reason in err


def test_boundary(desk_path, capsys, tmp_path):
    grid = tmp_path / "grid.tsv"
    cut = tmp_path / "cut.json"
    rc = main([
        "boundary", "--scenario", desk_path, "--hour", "1",
        "--axis", "combined_cycle:0:1200:200",
        "--grid-out", str(grid), "--cut-out", str(cut),
    ])
    assert rc == 0
    lines = grid.read_text().strip().splitlines()
    assert lines[0].startswith("combined_cycle\tpass")
    assert len(lines) == 1 + 7  # inclusive lattice 0..1200 step 200
    doc = json.loads(cut.read_text())
    assert doc["coeffs"] and doc["intercept"] > 0
    assert list(doc) == ["hour", "coeffs", "intercept", "context_id"]
    loaded = NadirCut.from_dict(doc)
    assert loaded.context_id == "hour=1" and loaded.coeff(TechClass.COMBINED_CYCLE) > 0
    assert {"hour": 1, **loaded.to_dict()} == doc


def test_boundary_axis_that_cannot_comply_alone_exit_3(desk_path, capsys):
    rc = main([
        "boundary", "--scenario", desk_path,
        "--axis", "combined_cycle:0:1200:200", "--axis", "condenser:0:1200:200",
    ])
    assert rc == 3
    assert "condenser" in capsys.readouterr().err


def test_boundary_bad_axis_format(desk_path, capsys):
    assert main(["boundary", "--scenario", desk_path, "--axis", "steam-0-100"]) == 1


@pytest.mark.parametrize("axis", ["steam:0:inf:50", "steam:0:nan:50"])
def test_boundary_non_finite_axis_is_a_usage_error(desk_path, capsys, axis):
    assert main(["boundary", "--scenario", desk_path, "--axis", axis]) == 1
    assert "steam axis: max_mw must be finite" in capsys.readouterr().err


_SOLVE = "import sys; from fcuc.cli import main; sys.exit(main(sys.argv[1:]))"


def test_solve_report_is_identical_across_hash_seeds(tmp_path):
    """Two processes with different string-hash seeds write the same report
    JSON, byte for byte apart from its wall time."""
    root = pathlib.Path(__file__).resolve().parents[1]
    src = str(pathlib.Path(fcuc.drivers.__file__).resolve().parents[1])
    runs = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}.json"
        argv = ["solve", "--model", "proposed", "--report-out", str(out),
                "--scenario", str(root / "scripts" / "example_scenario.json")]
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.Popen([sys.executable, "-c", _SOLVE, *argv], env=env,
                                stdout=subprocess.DEVNULL)
        runs.append((out, proc))
    reports = []
    for out, proc in runs:
        assert proc.wait(timeout=300) == 0
        reports.append([ln for ln in out.read_text().splitlines() if '"wall_time_s"' not in ln])
    assert json.loads(runs[0][0].read_text())["cuts"]  # the run learned cuts
    assert reports[0] == reports[1]


def test_solve_proposed(desk_path, capsys, tmp_path):
    report = tmp_path / "prop.json"
    dispatch = tmp_path / "dispatch.tsv"
    rc = main([
        "solve", "--model", "proposed", "--scenario", desk_path,
        "--max-iter", "12", "--report-out", str(report),
        "--dispatch-out", str(dispatch),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status\tconverged" in out and "cuts_added" in out
    assert json.loads(report.read_text())["model"] == "proposed"
    assert dispatch.read_text().startswith("hour\t")


def test_solve_industry_and_compare(desk_path, capsys, tmp_path):
    rep_i = tmp_path / "ind.json"
    rep_p = tmp_path / "prop.json"
    rc = main([
        "solve", "--model", "industry", "--scenario", desk_path,
        "--escalation", "1.1", "--max-iter", "40", "--report-out", str(rep_i),
    ])
    assert rc == 0
    assert "final_reserve_mw" in capsys.readouterr().out
    assert main([
        "solve", "--model", "proposed", "--scenario", desk_path,
        "--max-iter", "12", "--report-out", str(rep_p),
    ]) == 0
    capsys.readouterr()
    assert main(["compare", str(rep_p), str(rep_i)]) == 0
    assert "gap_percent" in capsys.readouterr().out


_REPORT = {"model": "proposed", "scenario_name": "desk", "status": "converged",
           "iterations": 1, "objective": 1.0}


@pytest.mark.parametrize("doc, reason", [
    ({k: v for k, v in _REPORT.items() if k != "model"}, "'model'"),
    ([_REPORT], "a report must be a JSON object, not list"),
    ({**_REPORT, "hourly_metrics": []}, "'hourly_metrics'"),
    ({**_REPORT, "hourly_metrics": {"1": {"nadir": 49.5}}}, "'hourly_metrics'"),
    ({**_REPORT, "hourly_committed_mw": []}, "'hourly_committed_mw'"),
    ({**_REPORT, "cuts": [{"hour": 1, "intercept": 1.0}]}, "'cuts'"),  # no coeffs
    ({**_REPORT, "cuts": 5}, "'cuts'"),
    ({**_REPORT, "objective": "x"}, "report field 'objective' is not float: 'x'"),
    ({**_REPORT, "cost_breakdown": []}, "'cost_breakdown'"),
    ({**_REPORT, "cost_breakdown": {"fuel": "1"}}, "'cost_breakdown'"),
    ({**_REPORT, "iterations": "3"}, "report field 'iterations' is not int: '3'"),
    ({**_REPORT, "iterations": 2.0}, "'iterations'"),
    ({**_REPORT, "iterations": True}, "'iterations'"),
    ({**_REPORT, "model": 3}, "'model'"),
    ({**_REPORT, "final_reserve_mw": "5"}, "'final_reserve_mw'"),
    ({**_REPORT, "reserve_trajectory_mw": [1.0, None]}, "'reserve_trajectory_mw'"),
    ({**_REPORT, "wall_time_s": None}, "'wall_time_s'"),
])
def test_compare_refuses_a_malformed_report(tmp_path, capsys, doc, reason):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_REPORT))
    bad.write_text(json.dumps(doc))
    assert main(["compare", str(good), str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err


@pytest.mark.parametrize("objectives", [(math.nan, 100.0), (100.0, math.nan), (math.nan, math.nan)])
def test_compare_gap_is_nan_when_either_objective_is_nan(tmp_path, capsys, objectives):
    """A run that is infeasible or stopped at a limit has a NaN objective: its
    gap to any run is NaN, in either order, and never 0."""
    paths = []
    for k, objective in enumerate(objectives):
        status = "infeasible" if math.isnan(objective) else "converged"
        path = tmp_path / f"report_{k}.json"
        path.write_text(json.dumps({**_REPORT, "status": status, "objective": objective}))
        paths.append(str(path))
    assert math.isnan(compare_runs(*map(load_report, paths)).gap_percent)
    assert main(["compare", *paths]) == 0
    assert "gap_percent\tnan\n" in capsys.readouterr().out


def test_solve_non_convergence_exit_2(desk_path, capsys):
    rc = main([
        "solve", "--model", "proposed", "--scenario", desk_path, "--max-iter", "1",
    ])
    assert rc == 2


def test_solve_infeasible_exit_3(overload_path, capsys):
    rc = main(["solve", "--model", "proposed", "--scenario", overload_path])
    assert rc == 3


def test_solve_solver_limit_exit_4(desk_path, capsys, monkeypatch):
    """A MILP that stops on a solver limit is reported as "limit", not infeasible."""
    monkeypatch.setattr(fcuc.drivers, "solve_milp", lambda p, **kw: MilpResult(status="limit"))
    s = load_scenario(desk_path)
    assert fcuc.drivers.run_proposed(s).status == "limit"
    assert fcuc.drivers.run_industry(s).status == "limit"
    for model in ("proposed", "industry"):
        rc = main(["solve", "--model", model, "--scenario", desk_path])
        assert rc == EXIT_SOLVER_LIMIT == 4
        assert "status\tlimit" in capsys.readouterr().out


def test_plan_npv(capsys):
    rc = main(["plan", "npv", "--savings", "100", "--capex", "1000"])
    out = capsys.readouterr().out
    assert rc == 0
    annuity = float([l for l in out.splitlines() if l.startswith("annuity")][0].split("\t")[1])
    assert annuity == pytest.approx(11.4699, abs=1e-4)
    assert main(["plan", "npv", "--savings", "1", "--capex", "1", "--rate", "0"]) == 1


def test_study_equivalence(desk_path, capsys):
    rc = main([
        "study", "equivalence", "--scenario", desk_path,
        "--tech-a", "combined_cycle", "--tech-b", "steam",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "edge_combined_cycle_mw" in out


def test_study_gfm_sensitivity(desk_path, capsys):
    # SCs cannot reach the nadir target in an empty context: infeasible study
    rc = main(["study", "gfm-sensitivity", "--scenario", desk_path])
    assert rc == 3
    capsys.readouterr()
    rc = main([
        "study", "gfm-sensitivity", "--scenario", desk_path,
        "--backdrop", "combined_cycle=400",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("time_constant_s") and len(out.strip().splitlines()) == 4


def test_export_mps(desk_path, capsys, tmp_path):
    out_path = tmp_path / "model.mps"
    rc = main(["export-mps", "--scenario", desk_path, "--out", str(out_path)])
    assert rc == 0
    p = parse_mps(str(out_path))
    assert p.ncols > 0 and p.nrows > 0


def test_usage_errors(desk_path, capsys, tmp_path):
    assert main(["no-such-command"]) == 1
    assert main(["solve", "--scenario", desk_path]) == 1  # --model missing
    assert main(["simulate", "--scenario", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["simulate", "--scenario", str(bad)]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
