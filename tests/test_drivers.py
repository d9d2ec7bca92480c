"""End-to-end drivers: iterative-cut model, uniform-reserve model, reports."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import fcuc.boundary
import fcuc.drivers
from conftest import battery_scenario, desk_scenario, hydro_heavy_scenario
from fcuc.drivers import (
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
from fcuc.ucmodel import COMMITTED_CLASSES, fleet_capacity_mw, fleet_mix, units_of


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


def test_hydro_only_system_learns_one_dimensional_cuts():
    s = hydro_heavy_scenario()
    rep = run_proposed(s, max_iter=12)
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


@pytest.fixture(scope="module")
def batt():
    s = battery_scenario()
    return s, run_proposed(s, max_iter=12)


def test_no_cut_admits_a_failing_reachable_commitment(desk, proposed, batt):
    """Every cut of a run, at its own hour (where it was learned or where
    the demand-level cache reused it), excludes every commitment the MILP
    can make that fails the nadir floor there."""
    for s, rep in ((desk, proposed), batt):
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
        assert len(rep.cuts) == 24 and failing > 0


def test_cuts_are_repaired_on_the_reachable_commitments_or_the_lattice(desk, monkeypatch):
    """Desk's cuts are repaired on the 4 x 4 x 4 commitments its units can
    make. With five coal units of distinct ratings there are more than the
    7 x 7 x 7 lattice points, so the hour evaluates exactly that lattice on
    [0, max(fleet, edge)], and its cut excludes every failing lattice point.
    Learning hours in one batch gives each hour's own cut."""
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
        assert values[-1] >= fleet_capacity_mw(s, axis.tech)
        assert np.allclose(np.diff(values), values[-1] / 6)
    techs = [a.tech for a in grid.axes]
    failing = [caps for caps, ok, _ in grid.points() if not ok]
    assert techs == axes and failing
    assert not any(cut.satisfied(dict(zip(techs, caps))) for caps in failing)


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
