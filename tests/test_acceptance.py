"""Acceptance gate: one test per criterion, tolerances stated in each test.

These are the binding checks for the toolkit; the per-module suites cover the
same ground in more detail. Shared expensive artifacts (driver runs) are
computed once at module scope.
"""

import random
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp as scipy_milp

from conftest import (
    battery_scenario,
    desk_scenario,
    hydro_heavy_scenario,
    random_scenario,
    tiny_scenario,
)
from fcuc.boundary import SweepAxis, SweepSpec, find_edge_points, fit_hyperplane, make_conservative, sweep_grid
from fcuc.drivers import audit_report, run_industry, run_proposed
from fcuc.dynamics import (
    TechClass,
    analytic_qss,
    assemble_state_space,
    compute_metrics,
    make_mix,
    response_metrics,
    simulate_response,
)
from fcuc.mps import export_mps, parse_mps
from fcuc.scenario import FrequencyLimits
from fcuc.solver import brute_force_milp, solve_milp
from fcuc.studies import gfm_sensitivity, npv_analysis, study_context
from fcuc.ucmodel import build_fcuc


def _random_mix(rng: random.Random):
    return make_mix(
        capacities_mw={c: rng.uniform(50.0, 900.0) for c in TechClass},
        load_damping_mw_per_pu=rng.uniform(200.0, 1500.0),
        contingency_mw=rng.uniform(50.0, 300.0),
    )


# ---------------------------------------------------------------------------
# shared driver runs (criteria 7 and 8)

@pytest.fixture(scope="module")
def paired_runs():
    scenarios = [random_scenario(seed) for seed in range(8)]
    scenarios.append(battery_scenario())
    scenarios.append(hydro_heavy_scenario())
    t0 = time.perf_counter()
    runs = []
    for s in scenarios:
        prop = run_proposed(s, max_iter=12)
        ind = run_industry(s, escalation_factor=1.1, max_iter=40)
        runs.append((s, prop, ind))
    return runs, time.perf_counter() - t0


def test_criterion_01_integrator_oracle():
    """Swing+damping closed form within 1e-6 p.u. over 30 s at 1 ms; < 1 s."""
    mix = make_mix(
        capacities_mw={TechClass.CONDENSER: 500.0},
        load_damping_mw_per_pu=800.0,
        contingency_mw=120.0,
    )
    t0 = time.perf_counter()
    trace = simulate_response(assemble_state_space(mix), 30.0, 0.001)
    elapsed = time.perf_counter() - t0
    m, k = mix.system_inertia_mws, mix.load_damping_mw_per_pu
    expected = -(120.0 / k) * (1.0 - np.exp(-k * trace.time_s / m))
    assert np.max(np.abs(trace.delta_pu - expected)) < 1e-6
    assert elapsed < 1.0


def test_criterion_02_qss_oracle():
    """Reported QSS equals the final-value closed form within 1e-3 Hz on 100
    randomized mixes; < 10 s total."""
    rng = random.Random(2)
    t0 = time.perf_counter()
    for _ in range(100):
        mix = _random_mix(rng)
        assert response_metrics(mix).qss_dev_hz == pytest.approx(
            analytic_qss(mix), abs=1e-3
        )
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_rocof_identity():
    """Initial RoCoF equals contingency * f0 / inertia within 1% on 100 mixes."""
    rng = random.Random(3)
    for _ in range(100):
        mix = _random_mix(rng)
        expected = mix.contingency_mw * mix.nominal_freq_hz / mix.system_inertia_mws
        assert response_metrics(mix).initial_rocof_hz_s == pytest.approx(
            expected, rel=0.01
        )


def test_criterion_04_boundary_conservativeness():
    """Every lattice point admitted by a learned cut passes simulation; zero
    tolerance, across a corpus of 2-D sweeps."""
    limits = FrequencyLimits(2.0, 49.3, 0.8)
    rng = random.Random(4)
    pairs = [
        (TechClass.STEAM, TechClass.HYDRO_RESERVOIR),
        (TechClass.COMBINED_CYCLE, TechClass.HYDRO_RESERVOIR),
        (TechClass.STEAM, TechClass.COMBINED_CYCLE),
    ]
    for a, b in pairs:
        ctx = make_mix(
            capacities_mw={TechClass.CONDENSER: 100.0},
            load_damping_mw_per_pu=rng.uniform(500.0, 1200.0),
            contingency_mw=rng.uniform(100.0, 180.0),
        )
        axes = (SweepAxis(a, 0.0, 2400.0, 300.0), SweepAxis(b, 0.0, 2400.0, 300.0))
        grid = sweep_grid(SweepSpec(axes, ctx, limits))
        edges = find_edge_points([a, b], ctx, limits, hi_mw=30000.0)
        cut = make_conservative(fit_hyperplane(edges), grid)
        for caps, ok, _ in grid.points():
            if cut.satisfied({axes[k].tech: caps[k] for k in range(2)}):
                assert ok, f"cut admits failing point {caps} on ({a},{b})"


def test_criterion_05_monotonicity_and_concavity():
    """Nadir non-decreasing along every capacity axis on >= 20 grids; hydro
    marginal gains non-increasing."""
    rng = random.Random(5)
    limits = FrequencyLimits(2.0, 49.3, 0.8)
    checked = 0
    pairs = [
        (TechClass.STEAM, TechClass.COMBINED_CYCLE),
        (TechClass.COMBINED_CYCLE, TechClass.HYDRO_RESERVOIR),
        (TechClass.GFM, TechClass.HYDRO_RESERVOIR),
        (TechClass.STEAM, TechClass.GFM),
    ]
    for a, b in pairs:
        for _ in range(5):
            ctx = make_mix(
                capacities_mw={TechClass.CONDENSER: 100.0},
                load_damping_mw_per_pu=rng.uniform(400.0, 1400.0),
                contingency_mw=rng.uniform(80.0, 200.0),
            )
            grid = sweep_grid(SweepSpec(
                (SweepAxis(a, 0.0, 900.0, 180.0), SweepAxis(b, 0.0, 900.0, 180.0)),
                ctx, limits,
            ))
            assert np.all(np.diff(grid.nadir_hz, axis=0) > -1e-9)
            assert np.all(np.diff(grid.nadir_hz, axis=1) > -1e-9)
            checked += 1
    assert checked >= 20
    # hydro concavity
    ctx = make_mix(
        capacities_mw={TechClass.CONDENSER: 100.0},
        load_damping_mw_per_pu=900.0,
        contingency_mw=120.0,
    )
    nadirs = [
        response_metrics(ctx.with_capacity(TechClass.HYDRO_RESERVOIR, c)).nadir_hz
        for c in np.arange(200.0, 2001.0, 200.0)
    ]
    gains = np.diff(nadirs)
    assert np.all(gains > 0) and np.all(np.diff(gains) < 1e-9)


def test_criterion_06_milp_oracle():
    """solve_milp matches exhaustive enumeration within 1e-6 relative on 50
    instances with <= 12 binaries; < 60 s total."""
    t0 = time.perf_counter()
    for seed in range(50):
        p = build_fcuc(tiny_scenario(seed))
        assert len(p.binary_columns()) <= 12
        exact = brute_force_milp(p, max_binaries=12)
        ours = solve_milp(p, gap_tol=1e-9)
        assert ours.status == exact.status, f"seed {seed}"
        if exact.status == "optimal":
            assert ours.objective == pytest.approx(
                exact.objective, abs=1e-6, rel=1e-6
            ), f"seed {seed}"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_feasibility_audit(paired_runs):
    """Every driver-produced solution passes the independent audit at 1e-6."""
    runs, _ = paired_runs
    for s, prop, ind in runs:
        assert audit_report(s, prop, tol=1e-6) == [], s.name
        assert audit_report(s, ind, tol=1e-6) == [], s.name


def test_criterion_08_paired_model_dominance(paired_runs):
    """On 10 synthetic 24 h scenarios (one with GFM batteries, one hydro-only)
    both drivers converge and proposed objective <= industry objective;
    full set < 5 min."""
    runs, elapsed = paired_runs
    assert len(runs) == 10
    names = {s.name for s, _, _ in runs}
    assert any("batt" in n for n in names) and any("hydro" in n for n in names)
    for s, prop, ind in runs:
        assert prop.status == "converged", s.name
        assert ind.status == "converged", s.name
        assert prop.objective <= ind.objective + 1e-6, s.name
    assert elapsed < 300.0


def test_criterion_09_effectiveness_orderings():
    """Per-MW nadir effect: combined cycle > steam > reservoir hydro, and
    GFM much greater than condensers, under default dynamic parameters."""

    def nadir(cls):
        return response_metrics(make_mix(
            capacities_mw={cls: 300.0},
            load_damping_mw_per_pu=800.0,
            contingency_mw=100.0,
        )).nadir_hz

    assert nadir(TechClass.COMBINED_CYCLE) > nadir(TechClass.STEAM) > nadir(
        TechClass.HYDRO_RESERVOIR
    )
    assert nadir(TechClass.GFM) - nadir(TechClass.CONDENSER) > 1.0


def test_criterion_10_gfm_time_constant_robustness():
    """Edge points for inverter lags {0.02, 0.1} s agree within measurement
    granularity (10 MW), and between those lags the GFM:SC ratio shifts by
    < 10% relative. A 1 s lag is checked for direction and by the RK4 oracle,
    not bounded.

    The GFM model is droop through a first-order lag with instantaneous
    emulated inertia (README "Known limitations"). At the GFM-only edge the
    GFM droop itself arrests the fall, so a 1 s lag on that droop moves the
    edge: the measured 1 s ratio shift is 0.32-0.47 across nine governor
    backdrops (0.370 on this one). What the model does promise at 1 s is that
    the SC edge, which carries no governor, does not depend on the lag, and
    that a slower droop never needs less GFM capacity. Every GFM edge is
    confirmed by RK4 integration, independent of the modal fast path and of
    the bisection: the oracle nadir complies at the edge and fails 10 MW
    below it.

    The backdrop is 800 MW of steam: its SC edge has an interior nadir
    (about 7 s) above an asymptote that complies, so the SC edge is not set
    by the simulation horizon, and its GFM edges sit well above 10 MW.
    """
    desk = desk_scenario()
    limits = desk.limits
    ctx = study_context(desk).with_capacities({TechClass.STEAM: 800.0})
    lags = (0.02, 0.1, 1.0)
    sweep = gfm_sensitivity(desk, lags, context=ctx, tol_mw=1.0)
    by_tc = {tc: res for tc, res in sweep}
    assert abs(by_tc[0.02].edge_a_mw - by_tc[0.1].edge_a_mw) <= 10.0
    shift = abs(by_tc[0.1].ratio_b_per_a - by_tc[0.02].ratio_b_per_a) / by_tc[
        0.02
    ].ratio_b_per_a
    assert shift < 0.10
    assert len({res.edge_b_mw for _, res in sweep}) == 1
    gfm_edges = [res.edge_a_mw for _, res in sweep]
    assert gfm_edges == sorted(gfm_edges)

    def rk4_nadir(tc, gfm_mw):
        mix = replace(ctx, dynamics=replace(ctx.dynamics, gfm_lag_s=tc)).with_capacities(
            {TechClass.GFM: gfm_mw, TechClass.CONDENSER: 0.0}
        )
        trace = simulate_response(
            assemble_state_space(mix), mix.dynamics.horizon_s, mix.dynamics.step_s
        )
        return compute_metrics(trace).nadir_hz

    for tc in lags:
        edge = by_tc[tc].edge_a_mw
        assert rk4_nadir(tc, edge) >= limits.nadir_min_hz, tc
        assert rk4_nadir(tc, edge - 10.0) < limits.nadir_min_hz, tc


def test_criterion_11_npv_arithmetic():
    """annuity(0.06, 20) = 11.4699 +/- 1e-4; npv identity exact."""
    res = npv_analysis(100.0, 500.0, rate=0.06, years=20)
    assert res.annuity_factor == pytest.approx(11.4699, abs=1e-4)
    assert res.npv == res.annual_savings * res.annuity_factor - res.capex


def test_criterion_12_mps_cross_check(tmp_path):
    """External solver on the exported desk-scale MPS matches the internal
    optimum within the 1e-6 solve gap."""
    p = build_fcuc(desk_scenario())
    path = tmp_path / "desk.mps"
    export_mps(p, str(path))
    q = parse_mps(str(path))
    a_ub, b_ub, a_eq, b_eq = q.split_rows()
    lb, ub = q.bounds()
    integrality = np.zeros(q.ncols)
    integrality[q.binary_columns()] = 1
    res = scipy_milp(
        q.objective(),
        constraints=[
            LinearConstraint(a_ub, -np.inf, b_ub),
            LinearConstraint(a_eq, b_eq, b_eq),
        ],
        bounds=Bounds(lb, ub),
        integrality=integrality,
        options={"mip_rel_gap": 1e-9},
    )
    assert res.status == 0
    internal = solve_milp(p, gap_tol=1e-6)
    assert internal.status == "optimal"
    assert internal.objective == pytest.approx(float(res.fun), rel=2e-6)
