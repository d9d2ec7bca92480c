"""End-to-end drivers: iterative-cut model, uniform-reserve model, reports."""

import copy
import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import fcuc.boundary
import fcuc.drivers
from conftest import battery_scenario, desk_scenario
from fcuc.drivers import (
    MILP_GAP_TOL,
    RunReport,
    audit_report,
    compare_runs,
    load_report,
    report_from_dict,
    report_to_dict,
    run_industry,
    run_proposed,
    save_report,
    write_dispatch_table,
)
from fcuc.dynamics import TechClass, response_metrics_rows
from fcuc.scenario import FrequencyLimits
from fcuc.solver import MilpResult
from fcuc.mps import export_mps
from fcuc.ucmodel import (
    COMMITTED_CLASSES,
    BuildOptions,
    build_fcuc,
    fleet_capacity_mw,
    fleet_mix,
    units_of,
)


@pytest.fixture(scope="module")
def desk():
    return desk_scenario()


@pytest.fixture(scope="module")
def proposed(desk):
    return run_proposed(desk, max_iter=12)


@pytest.fixture(scope="module")
def industry(desk):
    return run_industry(desk, escalation_factor=1.1, max_iter=40)


def test_trivial_limits_converge_first_pass(desk):
    lax = dataclasses.replace(desk, limits=FrequencyLimits(5.0, 45.0, 2.0))
    rep = run_proposed(lax, max_iter=3)
    assert rep.status == "converged"
    assert rep.iterations == 1
    assert rep.cuts == []


def test_proposed_converges_with_cuts(desk, proposed):
    rep = proposed
    assert rep.status == "converged" and rep.compliant
    assert rep.cuts, "the desk system needs nadir cuts to comply"
    assert 1 < rep.iterations <= 12
    for t, m in rep.hourly_metrics.items():
        assert m.nadir_hz >= desk.limits.nadir_min_hz
        assert m.qss_dev_hz <= desk.limits.qss_max_dev_hz + 1e-9
        assert m.initial_rocof_hz_s <= desk.limits.rocof_limit_hz_s + 1e-9
    assert audit_report(desk, rep) == []


def test_industry_converges_with_escalating_reserve(desk, industry):
    rep = industry
    assert rep.status == "converged"
    traj = rep.reserve_trajectory_mw
    assert traj[0] == pytest.approx(desk.contingency_mw)
    assert all(b > a for a, b in zip(traj, traj[1:]))
    assert rep.final_reserve_mw == pytest.approx(traj[-1])
    assert audit_report(desk, rep) == []


def test_proposed_no_costlier_than_industry(proposed, industry):
    assert proposed.objective <= industry.objective + 1e-6


def test_comparison(proposed, industry):
    cmp = compare_runs(proposed, industry)
    assert cmp.objective_a == pytest.approx(proposed.objective)
    assert cmp.gap_percent >= 0.0
    text = cmp.to_text()
    assert "gap_percent" in text and "committed_delta_" in text
    other = dataclasses.replace(industry, scenario_name="other")
    with pytest.raises(ValueError, match="different scenarios"):
        compare_runs(proposed, other)


def _paired(paired_runs, name):
    """The scenario and proposed-model report of one paired corpus day."""
    return next((s, prop) for s, prop, _ in paired_runs[0] if s.name == name)


def test_hydro_only_system_learns_one_dimensional_cuts(paired_runs):
    s, rep = _paired(paired_runs, "hydro-heavy")
    assert rep.status == "converged"
    assert rep.cuts
    for _, cut in rep.cuts:
        assert set(cut.coeffs) == {TechClass.HYDRO_RESERVOIR}
    assert audit_report(s, rep) == []


def _reachable(s, cls):
    """Every capacity the MILP can commit of a class: the sum of each subset
    of its units."""
    units = units_of(s, cls)
    return sorted({sum(u.pmax_mw for u in subset)
                   for n in range(len(units) + 1) for subset in itertools.combinations(units, n)})


def test_no_cut_admits_a_failing_reachable_commitment(desk, proposed, paired_runs):
    """Every hour of a 50 MW demand level with a cut holds that level's one
    cut, named for the hour. Every cut, at its own hour (where it was
    learned or where the level placed it, failing or not), excludes every
    commitment the MILP can make that fails the nadir floor there."""
    runs = [(desk, proposed)] + [(s, prop) for s, prop, _ in paired_runs[0]]
    for s, rep in runs:
        level = {t: round(s.demand[t - 1] / 50.0) for t in range(1, s.periods + 1)}
        held = dict(rep.cuts)
        assert len(held) == len(rep.cuts), s.name
        for hour, cut in rep.cuts:
            assert cut.context_id == f"hour={hour}", s.name
            for t in (t for t in level if level[t] == level[hour]):
                assert t in held, f"{s.name} hour {t}"
                assert dataclasses.replace(held[t], context_id=cut.context_id) == cut, s.name
        axes = [c for c in COMMITTED_CLASSES if units_of(s, c)]
        points = list(itertools.product(*(_reachable(s, c) for c in axes)))
        contexts = [fleet_mix(s, hour) for hour, _ in rep.cuts]
        rows = [ctx.with_capacities(dict(zip(axes, p))).capacities_mw()
                for ctx in contexts for p in points]
        owner = [k for k in range(len(contexts)) for _ in points]
        failing = 0
        for (k, p), met in zip(itertools.product(range(len(contexts)), points),
                               response_metrics_rows(contexts, rows, owner)):
            if met.nadir_hz < s.limits.nadir_min_hz:
                failing += 1
                hour, cut = rep.cuts[k]
                assert not cut.satisfied(dict(zip(axes, p))), f"{s.name} hour {hour}: {p}"
        assert failing > 0 or not rep.cuts, s.name
    assert len(proposed.cuts) == 24


def test_each_level_is_learned_once_at_its_lowest_demand_hour(hydro_heavy, monkeypatch):
    """Hydro-heavy learns each 50 MW demand level at the level's
    lowest-demand hour of the day, failing or not, once; its cuts then
    cover every hour that would fail in the next solve."""
    learn, learned = fcuc.drivers._learn_cuts, []

    def recorded(s, hours, axes):
        learned.extend(hours)
        return learn(s, hours, axes)

    monkeypatch.setattr(fcuc.drivers, "_learn_cuts", recorded)
    rep = run_proposed(hydro_heavy, max_iter=12)
    demand = dict(enumerate(hydro_heavy.demand, start=1))
    level = {t: round(d / 50.0) for t, d in demand.items()}
    assert learned and len({level[h] for h in learned}) == len(learned)
    for h in learned:
        assert h == min((t for t in level if level[t] == level[h]), key=demand.get)
    assert (rep.status, rep.iterations) == ("converged", 2)


def test_cuts_are_repaired_on_the_reachable_commitments_or_the_lattice(desk, monkeypatch):
    """Desk's cuts are repaired on the 4 x 4 x 4 commitments its units can
    make. With five coal units of distinct ratings there are more than the
    7 x 7 x 7 lattice points, so the hour evaluates exactly that lattice on
    [0, fleet], and its cut excludes every failing lattice point. Learning
    hours in one batch gives each hour's own cut."""
    rows, grids = [], []
    batch, repair = fcuc.boundary.response_metrics_rows, fcuc.drivers.make_conservative

    def recorded(contexts, capacities, owner):
        rows.append(len(capacities))
        return batch(contexts, capacities, owner)

    def recorded_repair(cut, grid):
        grids.append(grid)
        return repair(cut, grid)

    monkeypatch.setattr(fcuc.boundary, "response_metrics_rows", recorded)
    monkeypatch.setattr(fcuc.drivers, "make_conservative", recorded_repair)
    axes = list(COMMITTED_CLASSES)
    cuts = fcuc.drivers._learn_cuts(desk, [3, 12, 18], axes)
    assert [len(g.passed.flat) for g in grids] == [64] * 3 and rows[-1] == 3 * 64
    for grid in grids:
        assert [list(v) for v in grid.axis_values] == [_reachable(desk, c) for c in axes]
    assert cuts == {h: fcuc.drivers._learn_cuts(desk, [h], axes)[h] for h in (3, 12, 18)}

    coal = desk.thermal_units[0]
    units = tuple(dataclasses.replace(coal, id=f"coal_{i}", pmax_mw=mw, pmin_mw=20.0)
                  for i, mw in enumerate((101.0, 117.0, 133.0, 149.0, 171.0)))
    s = dataclasses.replace(desk, thermal_units=units + desk.thermal_units[2:])
    assert math.prod(len(_reachable(s, c)) for c in axes) > 7 ** 3
    rows.clear()
    grids.clear()
    cut = fcuc.drivers._learn_cuts(s, [12], axes)[12]
    [grid] = grids
    assert rows[-1] == grid.passed.size == 7 ** 3
    for axis, values in zip(grid.axes, grid.axis_values):
        assert values[0] == 0.0 and len(values) == 7
        assert values[-1] == fleet_capacity_mw(s, axis.tech)
        assert np.allclose(np.diff(values), values[-1] / 6)
    techs = [a.tech for a in grid.axes]
    failing = [caps for caps, ok, _ in grid.points() if not ok]
    assert techs == axes and failing
    assert not any(cut.satisfied(dict(zip(techs, caps))) for caps in failing)


def test_hydro_heavy_cuts_are_repaired_on_its_eight_reachable_commitments(
    paired_runs, monkeypatch
):
    """Hydro-heavy's one axis, reservoir hydro, can commit 8 capacities, far
    fewer than the repair bound, so every hour's cut is repaired on exactly
    those 8 points and not on a 7-point lattice."""
    s, rep = _paired(paired_runs, "hydro-heavy")
    grids = []
    repair = fcuc.drivers.make_conservative

    def recorded_repair(cut, grid):
        grids.append(grid)
        return repair(cut, grid)

    monkeypatch.setattr(fcuc.drivers, "make_conservative", recorded_repair)
    axis = TechClass.HYDRO_RESERVOIR
    cuts = fcuc.drivers._learn_cuts(s, [hour for hour, _ in rep.cuts], [axis])
    reachable = _reachable(s, axis)
    assert len(reachable) == 8
    assert len(grids) == sum(cut is not None for cut in cuts.values()) > 0
    for grid in grids:
        assert [a.tech for a in grid.axes] == [axis]
        assert [list(v) for v in grid.axis_values] == [reachable]


def test_paired_corpus_matches_its_recorded_results(paired_runs):
    """Both models on each paired corpus day give the results recorded in
    corpus_results.json: status, iterations and cut count exactly, the
    objective and the final reserve within the MILP gap, relative."""
    recorded = json.loads((Path(__file__).parent / "corpus_results.json").read_text())
    runs, _ = paired_runs
    assert sorted(recorded) == sorted(s.name for s, _, _ in runs)
    for s, prop, ind in runs:
        for rep in (prop, ind):
            want, where = recorded[s.name][rep.model], f"{s.name} {rep.model}"
            assert (rep.status, rep.iterations, len(rep.cuts)) == (
                want["status"], want["iterations"], want["cuts"]), where
            assert math.isclose(rep.objective, float(want["objective"]),
                                rel_tol=MILP_GAP_TOL), where
            reserve = want["final_reserve_mw"]
            assert (rep.final_reserve_mw is None) == (reserve is None), where
            if reserve is not None:
                assert math.isclose(rep.final_reserve_mw, reserve, rel_tol=MILP_GAP_TOL), where


def test_non_convergence_at_iteration_cap(desk):
    rep = run_proposed(desk, max_iter=1)
    assert rep.status == "non_convergence"
    assert rep.iterations == 1
    assert not rep.compliant
    # the report describes the last MILP solved: the first one, with no cuts
    assert rep.cuts == []
    assert audit_report(desk, rep) == []  # no nadir_cut row it never saw
    ind = run_industry(desk, escalation_factor=1.1, max_iter=2)
    assert ind.status == "non_convergence" and ind.iterations == 2
    assert ind.final_reserve_mw == ind.reserve_trajectory_mw[-1]
    assert audit_report(desk, ind) == []


def test_failed_solve_reports_no_metrics_of_an_earlier_milp(desk, monkeypatch):
    """A solver limit after a successful solve leaves no hourly results behind:
    the report describes only the MILP that failed."""
    solve = fcuc.drivers.solve_milp
    calls = []

    def limit_on_second_call(problem, **kw):
        calls.append(problem)
        return MilpResult(status="limit") if len(calls) == 2 else solve(problem, **kw)

    monkeypatch.setattr(fcuc.drivers, "solve_milp", limit_on_second_call)
    rep = run_proposed(desk, max_iter=12)
    assert len(calls) == 2
    assert rep.status == "limit" and rep.iterations == 2
    assert rep.hourly_metrics == {}
    assert rep.hourly_committed_mw == {}


def _solver_form(p, path):
    """What a solve sees of a problem: its MPS file, its split_rows arrays and
    its solver arrays."""
    export_mps(p, str(path))
    a_ub, b_ub, a_eq, b_eq = p.split_rows()
    arrays = p.solver_arrays()
    return (path.read_bytes(),
            [m.indptr.tobytes() + m.indices.tobytes() + m.data.tobytes() for m in (a_ub, a_eq)],
            [b.tobytes() for b in (b_ub, b_eq)],
            [getattr(arrays, f.name).tobytes() if isinstance(getattr(arrays, f.name), np.ndarray)
             else getattr(arrays, f.name) for f in dataclasses.fields(arrays)])


@pytest.mark.parametrize("model", ["proposed", "industry"])
@pytest.mark.parametrize("make", [desk_scenario, battery_scenario], ids=["desk", "desk-batt"])
def test_the_edited_model_equals_a_fresh_build_at_every_iteration(
    make, model, tmp_path, monkeypatch
):
    """The loop builds one MILP per day and edits it in place: at every solve
    it is the model build_fcuc gives for that solve's options, byte for byte
    in its MPS file, its split_rows arrays and its solver arrays. The options
    of solve k come from the report: the cuts of a proposed run stopped at k
    iterations, the k-th reserve of the industry run's trajectory."""
    s = make()

    def run(max_iter):
        if model == "proposed":
            return run_proposed(s, max_iter=max_iter)
        return run_industry(s, escalation_factor=1.1, max_iter=max_iter)

    solve, seen = fcuc.drivers.solve_milp, []

    def recorded(problem, **kw):
        seen.append(_solver_form(problem, tmp_path / f"edited_{len(seen)}.mps"))
        return solve(problem, **kw)

    monkeypatch.setattr(fcuc.drivers, "solve_milp", recorded)
    rep = run(40)
    monkeypatch.undo()
    assert rep.iterations == len(seen) >= 2
    for k, edited in enumerate(seen, 1):
        if model == "proposed":
            opts = BuildOptions(nadir_cuts=tuple(run(k).cuts) if k < len(seen) else tuple(rep.cuts))
        else:
            opts = BuildOptions(uniform_reserve_mw=rep.reserve_trajectory_mw[k - 1])
        fresh = _solver_form(build_fcuc(s, opts), tmp_path / f"fresh_{k}.mps")
        assert edited == fresh, f"{s.name} {model}: solve {k}"
    assert rep.status == "converged"


def test_escalation_factor_must_exceed_one(desk):
    for factor in (1.0, float("nan")):
        with pytest.raises(ValueError, match="escalation_factor"):
            run_industry(desk, escalation_factor=factor)


def test_max_iter_must_be_positive(desk):
    for run in (run_proposed, run_industry):
        with pytest.raises(ValueError, match="max_iter"):
            run(desk, max_iter=0)


def test_report_round_trip(tmp_path, proposed, desk):
    path = tmp_path / "report.json"
    save_report(proposed, str(path))
    back = load_report(str(path))
    assert back.solution is None  # the solution is deliberately not serialized
    stripped = dataclasses.replace(proposed, solution=None)
    assert back == stripped
    assert report_from_dict(report_to_dict(proposed)) == stripped
    with pytest.raises(ValueError, match="no solution"):
        audit_report(desk, back)


def test_every_paired_report_survives_save_load_save(tmp_path, paired_runs):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for _, *reports in paired_runs[0]:
        for report in reports:
            save_report(report, str(first))
            back = load_report(str(first))
            save_report(back, str(second))
            assert first.read_bytes() == second.read_bytes()
            assert back == dataclasses.replace(report, solution=None)


_REQUIRED = {"model": "industry", "scenario_name": "desk", "status": "limit",
             "iterations": 3, "objective": 12.5}


def test_a_document_of_the_required_fields_loads_with_every_default():
    report = report_from_dict(dict(_REQUIRED))
    assert report == RunReport(**_REQUIRED)
    assert report.hourly_metrics == {} and report.cuts == [] and report.final_reserve_mw is None


def test_a_document_may_hold_a_nan_objective_integer_numbers_and_no_reserve():
    """What a failed or hand-written report holds: NaN (Python's json writes
    and reads it), an integer where a float is annotated, a null reserve."""
    doc = {**_REQUIRED, "objective": math.nan, "final_reserve_mw": None,
           "reserve_trajectory_mw": [100, 110.0], "cost_breakdown": {"fuel": 3}}
    report = report_from_dict(json.loads(json.dumps(doc)))
    assert math.isnan(report.objective) and report.final_reserve_mw is None
    assert report.reserve_trajectory_mw == [100, 110.0] and report.cost_breakdown == {"fuel": 3}


@pytest.mark.parametrize("missing", sorted(_REQUIRED))
def test_a_document_without_a_required_field_is_refused(missing):
    doc = {k: v for k, v in _REQUIRED.items() if k != missing}
    with pytest.raises(ValueError, match=f"report lacks the field '{missing}'"):
        report_from_dict(doc)


@pytest.mark.parametrize("doc", [[_REQUIRED], "report", None, 3.0])
def test_a_document_that_is_not_an_object_is_refused(doc):
    with pytest.raises(ValueError, match="a report must be a JSON object"):
        report_from_dict(doc)


def _containers(doc):
    """Every dict and list of a JSON document, the document first."""
    if isinstance(doc, (dict, list)):
        yield doc
        for v in doc.values() if isinstance(doc, dict) else doc:
            yield from _containers(v)


def test_a_document_shares_no_dict_or_list_with_its_report(proposed, industry):
    for report in (proposed, industry):
        before = copy.deepcopy(report)
        for container in list(_containers(report_to_dict(report))):
            container.clear()
        assert report == before


def test_a_loaded_report_shares_no_dict_or_list_with_its_document(proposed, industry):
    for report in (proposed, industry):
        doc = report_to_dict(report)
        back = report_from_dict(doc)
        for container in list(_containers(doc)):
            container.clear()
        assert back == dataclasses.replace(report, solution=None)


def test_dispatch_table(tmp_path, desk, proposed):
    path = tmp_path / "dispatch.tsv"
    write_dispatch_table(desk, proposed, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + desk.periods
    header = lines[0].split("\t")
    assert header[0] == "hour" and "coal_mw" in header
    # generation columns minus battery must reproduce demand
    idx = {name: k for k, name in enumerate(header)}
    for line in lines[1:]:
        cells = line.split("\t")
        gen = sum(
            float(cells[idx[c]])
            for c in ("coal_mw", "gas_mw", "hydro_reservoir_mw",
                      "run_of_river_mw", "renewable_mw", "battery_net_mw")
        )
        assert gen == pytest.approx(float(cells[idx["demand_mw"]]), abs=0.1)
