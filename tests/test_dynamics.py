"""Dynamic-model tests: integrator oracle, metric identities, orderings."""

import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

import fcuc.dynamics
from fcuc.dynamics import (
    DEFAULT_INERTIA_H,
    GOVERNOR_CLASSES,
    DynamicParams,
    SimulationDiverged,
    TechClass,
    ZeroInertiaError,
    assemble_state_space,
    check_compliance,
    compute_metrics,
    export_trace,
    response_metrics,
    simulate_response,
)
from fcuc.boundary import SweepAxis, SweepSpec, sweep_grid
from fcuc.scenario import FrequencyLimits, validate_scenario
from fcuc.ucmodel import fleet_mix
from oracles import analytic_qss, make_mix, own_context_metrics


def _random_mix(rng: random.Random, classes=None, **kwargs):
    classes = classes if classes is not None else list(TechClass)
    caps = {c: rng.uniform(50.0, 900.0) for c in classes}
    defaults = dict(
        capacities_mw=caps,
        load_damping_mw_per_pu=rng.uniform(200.0, 1500.0),
        contingency_mw=rng.uniform(50.0, 300.0),
    )
    defaults.update(kwargs)
    return make_mix(**defaults)


# ---------------------------------------------------------------------------
# integrator oracle (criterion 1): inertia + damping only has a closed form

def test_swing_damping_closed_form():
    mix = make_mix(
        capacities_mw={TechClass.CONDENSER: 500.0},
        load_damping_mw_per_pu=800.0,
        contingency_mw=120.0,
    )
    sys = assemble_state_space(mix)
    t0 = time.perf_counter()
    trace = simulate_response(sys, 30.0, 0.001)
    assert time.perf_counter() - t0 < 1.0
    m = mix.system_inertia_mws
    k = mix.load_damping_mw_per_pu
    # m delta' = -k delta - dPe  ->  delta(t) = -(dPe/k)(1 - exp(-k t / m))
    expected = -(120.0 / k) * (1.0 - np.exp(-k * trace.time_s / m))
    assert np.max(np.abs(trace.delta_pu - expected)) < 1e-6


def test_integrator_matches_modal_solution():
    rng = random.Random(7)
    for _ in range(5):
        mix = _random_mix(rng)
        sys = assemble_state_space(mix)
        trace = simulate_response(sys, 30.0, 0.001)
        met_fast = response_metrics(mix)
        met_trace = compute_metrics(trace)
        assert met_fast.nadir_hz == pytest.approx(met_trace.nadir_hz, abs=1e-9)
        assert met_fast.time_of_nadir_s == pytest.approx(met_trace.time_of_nadir_s, abs=1e-9)


def _counted_rk4(monkeypatch):
    calls = []
    rk4 = fcuc.dynamics.simulate_response

    def counted_rk4(*args):
        calls.append(args)
        return rk4(*args)

    monkeypatch.setattr(fcuc.dynamics, "simulate_response", counted_rk4)
    return calls


# ---------------------------------------------------------------------------
# QSS oracle (criterion 2)

def test_qss_matches_final_value_theorem():
    rng = random.Random(11)
    for _ in range(100):
        mix = _random_mix(rng)
        met = response_metrics(mix)
        assert met.qss_dev_hz == pytest.approx(analytic_qss(mix), abs=1e-3)


def test_qss_settles_in_long_trace():
    # the hydro governor's slow reset means settling takes minutes, not the
    # nadir window; a long integration must land on the closed form
    rng = random.Random(13)
    for _ in range(3):
        mix = _random_mix(rng)
        trace = simulate_response(assemble_state_space(mix), 400.0, 0.002)
        final_dev_hz = abs(mix.nominal_freq_hz * trace.delta_pu[-1])
        assert final_dev_hz == pytest.approx(analytic_qss(mix), abs=1e-3)


def test_qss_zero_gain_raises():
    mix = make_mix(
        capacities_mw={TechClass.CONDENSER: 200.0},
        load_damping_mw_per_pu=0.0,
        contingency_mw=10.0,
    )
    with pytest.raises(ZeroDivisionError):
        analytic_qss(mix)


# ---------------------------------------------------------------------------
# RoCoF identity (criterion 3)

def test_initial_rocof_identity():
    rng = random.Random(17)
    for _ in range(100):
        mix = _random_mix(rng)
        sys = assemble_state_space(mix)
        trace = simulate_response(sys, 0.02, 0.0005)
        slope = abs(
            mix.nominal_freq_hz
            * (trace.delta_pu[1] - trace.delta_pu[0])
            / trace.step_s
        )
        expected = mix.contingency_mw * mix.nominal_freq_hz / mix.system_inertia_mws
        assert slope == pytest.approx(expected, rel=0.01)
        assert response_metrics(mix).initial_rocof_hz_s == pytest.approx(expected, rel=1e-9)


@pytest.fixture
def defective(desk):
    """A desk-day context whose A is defective: with the steam chest and
    reheat lags equal and no steam online, -1/T_CH is a double eigenvalue
    with one eigenvector. Scenario validation accepts it."""
    s = replace(desk, dynamics=replace(desk.dynamics, steam_reheat_s=desk.dynamics.steam_chest_s))
    assert validate_scenario(s) == []
    context = fleet_mix(s, 12)
    assert context.tech(TechClass.STEAM).online_mw == 0.0
    return s, context


def test_defective_a_matches_rk4_on_every_row_without_calling_it(defective, monkeypatch):
    # every row of the defective context against RK4: the kernel is exact
    # for a defective A, and it never calls the integrator
    s, context = defective
    axis = SweepAxis(TechClass.COMBINED_CYCLE, 0.0, 1500.0, 300.0)
    mixes = [context.with_capacity(axis.tech, float(mw)) for mw in axis.values()]
    for mix in [context, *mixes]:  # every row's A is (numerically) defective
        assert np.linalg.cond(np.linalg.eig(assemble_state_space(mix).a)[1]) > 1e10
    traces = [simulate_response(assemble_state_space(mix)) for mix in [context, *mixes]]
    rk4_calls = _counted_rk4(monkeypatch)
    met = response_metrics(context)
    grid = sweep_grid(SweepSpec((axis,), context, s.limits))
    batch = own_context_metrics(mixes)
    assert rk4_calls == []
    timed = 0
    for got, trace in zip([met, *batch], traces):
        ref = compute_metrics(trace)
        assert got.nadir_hz == pytest.approx(ref.nadir_hz, abs=1e-9)
        assert got.initial_rocof_hz_s == ref.initial_rocof_hz_s
        # without CC online only damping arrests the fall, and the response
        # ends on a plateau where the time of the minimum is rounding noise
        if ref.nadir_hz < trace.nominal_freq_hz * (1.0 + trace.delta_pu[-1]) - 1e-9:
            assert got.time_of_nadir_s == ref.time_of_nadir_s
            timed += 1
    assert timed == len(mixes) - 1  # every row with CC online
    assert grid.nadir_hz.tolist() == [m.nadir_hz for m in batch]
    assert met.qss_dev_hz == pytest.approx(analytic_qss(context), abs=1e-9)


def test_defective_context_evaluates_in_milliseconds(defective):
    # RK4 takes about 90 ms a row on this context, about 2.9 s for 32 rows;
    # the kernel takes milliseconds, and the bound leaves room for a slow host
    _, context = defective
    mixes = [context.with_capacity(TechClass.COMBINED_CYCLE, 50.0 * i) for i in range(32)]
    own_context_metrics(mixes)
    t0 = time.perf_counter()
    own_context_metrics(mixes)
    assert time.perf_counter() - t0 < 0.5


# ---------------------------------------------------------------------------
# structural properties

def test_linearity_in_contingency():
    mix = _random_mix(random.Random(23))
    sys1 = assemble_state_space(mix)
    sys2 = assemble_state_space(replace(mix, contingency_mw=2.0 * mix.contingency_mw))
    t1 = simulate_response(sys1, 10.0, 0.001)
    t2 = simulate_response(sys2, 10.0, 0.001)
    assert np.allclose(2.0 * t1.delta_pu, t2.delta_pu, atol=1e-12)


def test_zero_inertia_rejected():
    mix = make_mix(capacities_mw={}, load_damping_mw_per_pu=500.0, contingency_mw=50.0)
    with pytest.raises(ZeroInertiaError):
        assemble_state_space(mix)


def test_an_unstable_response_raises_diverged():
    # negative damping makes the swing equation grow past the float range
    mix = make_mix(
        capacities_mw={TechClass.CONDENSER: 50.0},
        load_damping_mw_per_pu=-1e5,
        contingency_mw=100.0,
    )
    with pytest.raises(SimulationDiverged):
        response_metrics(mix)


def test_zero_inertia_without_disturbance_has_flat_response():
    flat = make_mix(capacities_mw={}, load_damping_mw_per_pu=500.0, contingency_mw=0.0)
    met = response_metrics(flat)
    assert (met.initial_rocof_hz_s, met.nadir_hz, met.qss_dev_hz) == (0.0, 50.0, 0.0)
    # its singular A leaves the other mixes of a batch as they are alone
    other = _random_mix(random.Random(3))
    assert own_context_metrics([other, flat]) == [response_metrics(other), met]


def test_higher_damping_raises_nadir():
    base = dict(capacities_mw={TechClass.HYDRO_RESERVOIR: 400.0}, contingency_mw=100.0)
    low = response_metrics(make_mix(load_damping_mw_per_pu=500.0, **base))
    high = response_metrics(make_mix(load_damping_mw_per_pu=1200.0, **base))
    assert high.nadir_hz > low.nadir_hz


def _per_mw_nadir(cls: TechClass, mw: float = 300.0) -> float:
    mix = make_mix(
        capacities_mw={cls: mw},
        load_damping_mw_per_pu=800.0,
        contingency_mw=100.0,
    )
    return response_metrics(mix).nadir_hz


def test_per_mw_effect_ordering():
    """Criterion 9: combined cycle > steam > reservoir hydro; GFM >> condenser."""
    cc = _per_mw_nadir(TechClass.COMBINED_CYCLE)
    steam = _per_mw_nadir(TechClass.STEAM)
    hydro = _per_mw_nadir(TechClass.HYDRO_RESERVOIR)
    gfm = _per_mw_nadir(TechClass.GFM)
    sc = _per_mw_nadir(TechClass.CONDENSER)
    assert cc > steam > hydro
    assert gfm > sc
    assert gfm - sc > 1.0  # "much greater": whole Hertz, not ties


def test_compliance_closed_thresholds():
    limits = FrequencyLimits(1.5, 49.0, 0.6)
    from fcuc.dynamics import FrequencyMetrics

    at_limit = FrequencyMetrics(49.0, 1.5, 0.6, 5.0)
    rep = check_compliance(at_limit, limits)
    assert rep.passed
    below = FrequencyMetrics(48.999, 1.5, 0.6, 5.0)
    assert not check_compliance(below, limits).nadir_ok


def test_trace_export(tmp_path):
    mix = _random_mix(random.Random(29))
    trace = simulate_response(assemble_state_space(mix), 1.0, 0.001)
    out = tmp_path / "trace.tsv"
    export_trace(trace, str(out), decimate=100)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("time_s\tdelta_f_hz")
    assert len(lines) == 1 + math.ceil(len(trace.time_s) / 100)


@pytest.mark.parametrize("decimate", [0, -5])
def test_trace_export_refuses_a_decimate_below_one(tmp_path, decimate):
    trace = simulate_response(assemble_state_space(_random_mix(random.Random(29))), 0.01, 0.001)
    out = tmp_path / "trace.tsv"
    with pytest.raises(ValueError, match="decimate"):
        export_trace(trace, str(out), decimate=decimate)
    assert not out.exists()  # refused before the file is opened


def test_governor_classes_and_defaults_cover_all():
    assert set(GOVERNOR_CLASSES) == {
        TechClass.STEAM, TechClass.COMBINED_CYCLE, TechClass.HYDRO_RESERVOIR, TechClass.GFM
    }
    assert set(DEFAULT_INERTIA_H) == set(TechClass)


def test_dynamics_defaults_are_positive():
    d = DynamicParams()
    assert all(v > 0 for v in d.time_constants().values())
    assert d.horizon_s == 30.0 and d.step_s == 0.001
