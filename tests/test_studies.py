"""Planning studies: NPV arithmetic, equivalence ratios, inverter-lag sweep."""

from dataclasses import replace

import pytest

import fcuc.boundary
from conftest import desk_scenario
from fcuc.boundary import BracketingError
from fcuc.dynamics import TechClass
from fcuc.studies import equivalence_study, gfm_sensitivity, npv_analysis, study_context
from fcuc.ucmodel import fleet_mix


@pytest.fixture(scope="module")
def desk():
    return desk_scenario()


# ---------------------------------------------------------------------------
# NPV

def test_annuity_factor_reference_value():
    res = npv_analysis(1.0, 0.0, rate=0.06, years=20)
    assert res.annuity_factor == pytest.approx(11.4699, abs=1e-4)


def test_npv_identity():
    res = npv_analysis(250_000.0, 2_000_000.0, rate=0.08, years=15)
    assert res.npv == pytest.approx(
        res.annual_savings * res.annuity_factor - res.capex
    )
    assert res.pays_back == (res.npv >= 0.0)


def test_npv_break_even_is_exact():
    base = npv_analysis(1.0, 0.0, rate=0.05, years=10)
    exact = npv_analysis(100.0, 100.0 * base.annuity_factor, rate=0.05, years=10)
    assert exact.npv == pytest.approx(0.0, abs=1e-9)
    assert exact.pays_back


def test_npv_input_validation():
    with pytest.raises(ValueError, match="rate"):
        npv_analysis(1.0, 1.0, rate=0.0)
    with pytest.raises(ValueError, match="years"):
        npv_analysis(1.0, 1.0, years=0)


def test_npv_refuses_a_nan_rate():
    # `rate <= 0` once let NaN through to an NPV of NaN
    with pytest.raises(ValueError, match="rate"):
        npv_analysis(100.0, 1000.0, rate=float("nan"))


# ---------------------------------------------------------------------------
# equivalence ratios

def test_equivalence_ratio_is_edge_quotient(desk):
    res = equivalence_study(desk, TechClass.COMBINED_CYCLE, TechClass.STEAM)
    assert res.ratio_b_per_a == pytest.approx(res.edge_b_mw / res.edge_a_mw)
    # steam is less effective per MW, so more of it is needed
    assert res.ratio_b_per_a > 1.0


def test_equivalence_matches_per_mw_ordering(desk):
    cc_vs_hydro = equivalence_study(desk, TechClass.COMBINED_CYCLE, TechClass.HYDRO_RESERVOIR)
    cc_vs_steam = equivalence_study(desk, TechClass.COMBINED_CYCLE, TechClass.STEAM)
    # hydro is weaker than steam per MW, so its equivalent capacity is larger
    assert cc_vs_hydro.ratio_b_per_a > cc_vs_steam.ratio_b_per_a


def test_study_context_fills_absent_classes(desk):
    ctx = study_context(desk)
    # desk has no GFM units, yet the class must be sweepable
    gfm = ctx.tech(TechClass.GFM)
    assert gfm.online_mw == 0.0 and gfm.inertia_h_s > 0.0 and gfm.droop > 0.0
    # it is the fleet mix of the hour whose demand is closest to the average
    avg = sum(desk.demand) / len(desk.demand)
    hour = min(range(1, desk.periods + 1), key=lambda t: abs(desk.demand[t - 1] - avg))
    assert ctx == fleet_mix(desk, hour)


# ---------------------------------------------------------------------------
# GFM inverter-lag sensitivity

@pytest.fixture(scope="module")
def lag_sweep(desk):
    # condensers add no governor power, so a pure-SC axis can only reach the
    # nadir target on top of some fixed governor-bearing backdrop capacity
    ctx = study_context(desk).with_capacities({TechClass.COMBINED_CYCLE: 400.0})
    return gfm_sensitivity(
        desk, time_constants_s=(0.02, 0.1, 1.0), context=ctx, tol_mw=1.0
    )


def test_fast_lags_leave_edge_nearly_unchanged(lag_sweep):
    # at 10 MW measurement granularity a 0.02 -> 0.1 s lag change is invisible
    by_tc = {tc: res for tc, res in lag_sweep}
    assert abs(by_tc[0.02].edge_a_mw - by_tc[0.1].edge_a_mw) <= 10.0


def test_slower_lag_needs_more_capacity_but_gfm_stays_dominant(lag_sweep):
    # the binding minimum at the GFM-only edge is set by the GFM response
    # itself, so its time constant directly moves the edge: edges grow
    # monotonically with the lag, while the SC edge is lag-independent
    edges = [res.edge_a_mw for _, res in lag_sweep]
    assert edges == sorted(edges)
    sc_edges = {res.edge_b_mw for _, res in lag_sweep}
    assert len(sc_edges) == 1
    for _, res in lag_sweep:
        assert res.ratio_b_per_a > 10.0  # GFM remains far better per MW


def test_gfm_sensitivity_rejects_nonpositive_lag(desk):
    for lag in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            gfm_sensitivity(desk, time_constants_s=(0.02, lag))


def test_gfm_sensitivity_is_one_search_over_every_lag(desk, monkeypatch):
    """The lag sweep gives each lag's own equivalence_study bit for bit, from
    one edge search over every lag: no more kernel calls than the slowest lag
    takes alone. Without an edge, it raises as the first lag's study does."""
    calls = []
    batch = fcuc.boundary.response_metrics_rows

    def counted(contexts, capacities, owner):
        calls.append(len(capacities))
        return batch(contexts, capacities, owner)

    monkeypatch.setattr(fcuc.boundary, "response_metrics_rows", counted)
    lags = (0.02, 0.1, 1.0)

    def at_lag(ctx, tc):
        return replace(ctx, dynamics=replace(ctx.dynamics, gfm_lag_s=tc))

    ctx = study_context(desk).with_capacities({TechClass.STEAM: 800.0})
    singles, single_calls = [], []
    for tc in lags:
        calls.clear()
        res = equivalence_study(desk, TechClass.GFM, TechClass.CONDENSER, at_lag(ctx, tc))
        singles.append((tc, res))
        single_calls.append(len(calls))
    calls.clear()
    assert gfm_sensitivity(desk, lags, context=ctx) == singles
    assert 0 < len(calls) <= max(single_calls)

    bare = study_context(desk)
    with pytest.raises(BracketingError) as one:
        equivalence_study(desk, TechClass.GFM, TechClass.CONDENSER, at_lag(bare, lags[0]))
    with pytest.raises(BracketingError, match="condenser") as many:
        gfm_sensitivity(desk, lags, context=bare)
    assert str(many.value) == str(one.value)
