"""Shared scenario builders for the test suite.

All builders return fully validated SystemScenario objects. Costs are made
deliberately distinct between same-class units so commitment problems have
unique optima (no symmetric branching).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import replace

import pytest

from fcuc.dynamics import response_metrics
from fcuc.scenario import (
    Battery,
    FrequencyLimits,
    HydroUnit,
    RenewableUnit,
    SyncCondenser,
    SystemScenario,
    ThermalUnit,
    validate_scenario,
)

T = 24


def _sin_demand(base: float, swing: float, periods: int = T) -> tuple[float, ...]:
    return tuple(
        base + swing * math.sin(2.0 * math.pi * (t - 7) / periods) for t in range(1, periods + 1)
    )


def _pv_profile(peak: float, periods: int = T) -> tuple[float, ...]:
    out = []
    for t in range(1, periods + 1):
        if 7 <= t <= 19:
            out.append(peak * math.sin(math.pi * (t - 7) / 12.0))
        else:
            out.append(0.0)
    return tuple(out)


def _calibrate_nadir_floor(s: SystemScenario, margin_hz: float = 0.05) -> SystemScenario:
    """Set the nadir floor just below what the full fleet achieves at its
    worst hour, so a compliant commitment always exists while the economic
    commitment typically does not.
    """
    from fcuc.ucmodel import COMMITTED_CLASSES, fleet_capacity_mw, fleet_mix

    worst = math.inf
    for t in range(1, s.periods + 1):
        mix = fleet_mix(s, t).with_capacities(
            {c: fleet_capacity_mw(s, c) for c in COMMITTED_CLASSES}
        )
        worst = min(worst, response_metrics(mix).nadir_hz)
    floor = min(max(worst - margin_hz, s.nominal_freq_hz - 5.0), s.nominal_freq_hz - 0.3)
    return replace(s, limits=replace(s.limits, nadir_min_hz=floor))


def desk_scenario(
    contingency_mw: float = 150.0,
    nadir_min_hz: float = 49.3,
    name: str = "desk",
) -> SystemScenario:
    """Mixed thermal/hydro/solar day used throughout the unit tests."""
    thermal = (
        ThermalUnit("coal_a", "coal_steam", 200.0, 80.0, 30.0, 400.0, 900.0, 150.0,
                    min_up_h=4, min_down_h=4, initial_commit=True),
        ThermalUnit("coal_b", "coal_steam", 180.0, 70.0, 33.0, 380.0, 850.0, 140.0,
                    min_up_h=4, min_down_h=4),
        ThermalUnit("gas_a", "gas_cc", 250.0, 90.0, 45.0, 250.0, 500.0, 90.0,
                    min_up_h=2, min_down_h=2, initial_commit=True),
        ThermalUnit("gas_b", "gas_cc", 220.0, 80.0, 48.0, 240.0, 480.0, 85.0,
                    min_up_h=2, min_down_h=2),
    )
    hydro = (
        HydroUnit("res_a", "reservoir", 200.0, 30.0, cost_var=5.0,
                  daily_energy_mwh=1400.0, initial_commit=True),
        HydroUnit("res_b", "reservoir", 160.0, 25.0, cost_var=6.0,
                  daily_energy_mwh=1000.0),
        HydroUnit("ror_a", "run_of_river", 80.0, 0.0,
                  avail_profile_mw=tuple(60.0 + 10.0 * math.sin(t / 4.0) for t in range(T))),
    )
    renew = (RenewableUnit("pv_a", 0.0, _pv_profile(220.0)),)
    s = SystemScenario(
        name=name,
        periods=T,
        thermal_units=thermal,
        hydro_units=hydro,
        renewable_units=renew,
        batteries=(),
        condensers=(),
        demand=_sin_demand(700.0, 180.0),
        contingency_mw=contingency_mw,
        base_power_mw=1000.0,
        nominal_freq_hz=50.0,
        limits=FrequencyLimits(1.5, nadir_min_hz, 0.6),
        load_damping_mw_per_pu=900.0,
    )
    assert validate_scenario(s) == []
    return s


def battery_scenario(name: str = "desk-batt") -> SystemScenario:
    """Desk scenario plus storage (one grid-forming, one grid-following) and a
    synchronous condenser."""
    base = desk_scenario(name=name)
    batteries = (
        Battery("bess_gfm", "gfm_vsm", 80.0, 320.0, 32.0, 160.0,
                cost_var=2.0, inertia_h_s=5.0, droop=0.05, gfm_time_constant_s=0.02),
        Battery("bess_gfl", "gfl", 60.0, 240.0, 24.0, 120.0, cost_var=2.0),
    )
    condensers = (SyncCondenser("cond_a", 50.0, inertia_h_s=3.0),)
    s = SystemScenario(
        name=base.name,
        periods=base.periods,
        thermal_units=base.thermal_units,
        hydro_units=base.hydro_units,
        renewable_units=base.renewable_units,
        batteries=batteries,
        condensers=condensers,
        demand=base.demand,
        contingency_mw=base.contingency_mw,
        base_power_mw=base.base_power_mw,
        nominal_freq_hz=base.nominal_freq_hz,
        limits=base.limits,
        dynamics=base.dynamics,
        load_damping_mw_per_pu=base.load_damping_mw_per_pu,
    )
    assert validate_scenario(s) == []
    return s


def hydro_heavy_scenario(name: str = "hydro-heavy") -> SystemScenario:
    """Future-fleet day: reservoir hydro is the only governor class (storage
    is grid-following, condensers contribute inertia only), so learned cuts
    are one-dimensional hydro-capacity floors."""
    hydro = (
        HydroUnit("res_a", "reservoir", 300.0, 45.0, cost_var=4.0,
                  daily_energy_mwh=3600.0, initial_commit=True),
        HydroUnit("res_b", "reservoir", 260.0, 40.0, cost_var=5.0,
                  daily_energy_mwh=3000.0, initial_commit=True),
        HydroUnit("res_c", "reservoir", 220.0, 35.0, cost_var=6.0,
                  daily_energy_mwh=2400.0),
        HydroUnit("ror_a", "run_of_river", 100.0, 0.0,
                  avail_profile_mw=tuple(80.0 + 12.0 * math.sin(t / 3.0) for t in range(T))),
    )
    renew = (RenewableUnit("pv_big", 0.0, _pv_profile(300.0)),)
    batteries = (
        Battery("bess_gfl", "gfl", 100.0, 400.0, 40.0, 200.0, cost_var=2.0),
    )
    s = SystemScenario(
        name=name,
        periods=T,
        thermal_units=(),
        hydro_units=hydro,
        renewable_units=renew,
        batteries=batteries,
        condensers=(SyncCondenser("cond_a", 60.0),),
        demand=_sin_demand(480.0, 110.0),
        contingency_mw=140.0,
        base_power_mw=1000.0,
        nominal_freq_hz=50.0,
        limits=FrequencyLimits(1.5, 49.3, 0.6),
        load_damping_mw_per_pu=800.0,
    )
    s = _calibrate_nadir_floor(s)
    assert validate_scenario(s) == []
    return s


def random_scenario(seed: int) -> SystemScenario:
    """Randomized but always-feasible day for paired-driver stress runs."""
    rng = random.Random(seed)
    n_coal = rng.randint(1, 2)
    n_gas = rng.randint(1, 2)
    thermal = []
    for i in range(n_coal):
        cap = rng.uniform(150.0, 220.0)
        thermal.append(ThermalUnit(
            f"coal_{i}", "coal_steam", cap, 0.4 * cap,
            rng.uniform(28.0, 36.0), rng.uniform(300.0, 450.0),
            rng.uniform(700.0, 1000.0), rng.uniform(100.0, 180.0),
            min_up_h=rng.choice((3, 4)), min_down_h=rng.choice((3, 4)),
            initial_commit=(i == 0)))
    for i in range(n_gas):
        cap = rng.uniform(180.0, 260.0)
        thermal.append(ThermalUnit(
            f"gas_{i}", "gas_cc", cap, 0.35 * cap,
            rng.uniform(42.0, 52.0), rng.uniform(200.0, 300.0),
            rng.uniform(400.0, 600.0), rng.uniform(70.0, 110.0),
            min_up_h=2, min_down_h=2, initial_commit=(i == 0)))
    hydro = [
        HydroUnit("res_0", "reservoir", rng.uniform(170.0, 240.0), 30.0,
                  cost_var=rng.uniform(4.0, 7.0),
                  daily_energy_mwh=rng.uniform(1100.0, 1800.0), initial_commit=True),
        HydroUnit("ror_0", "run_of_river", 80.0, 0.0,
                  avail_profile_mw=tuple(
                      55.0 + rng.uniform(-5.0, 5.0) + 10.0 * math.sin(t / 4.0)
                      for t in range(T))),
    ]
    if rng.random() < 0.5:
        hydro.insert(1, HydroUnit(
            "res_1", "reservoir", rng.uniform(120.0, 180.0), 25.0,
            cost_var=rng.uniform(5.0, 8.0),
            daily_energy_mwh=rng.uniform(700.0, 1200.0)))
    renew = (RenewableUnit("pv_0", 0.0, _pv_profile(rng.uniform(150.0, 260.0))),)
    total_cap = sum(u.pmax_mw for u in thermal) + sum(h.pmax_mw for h in hydro)
    base_demand = rng.uniform(0.5, 0.6) * total_cap
    s = SystemScenario(
        name=f"random-{seed}",
        periods=T,
        thermal_units=tuple(thermal),
        hydro_units=tuple(hydro),
        renewable_units=renew,
        batteries=(),
        condensers=(),
        demand=_sin_demand(base_demand, 0.22 * base_demand),
        # The droop-based reserve caps need roughly 5x the contingency in
        # committable governor capacity at a 0.6 Hz QSS budget; stay inside.
        contingency_mw=rng.uniform(0.12, 0.18) * total_cap,
        base_power_mw=1000.0,
        nominal_freq_hz=50.0,
        limits=FrequencyLimits(1.5, 49.3, 0.6),
        load_damping_mw_per_pu=rng.uniform(700.0, 1000.0),
    )
    s = _calibrate_nadir_floor(s, margin_hz=rng.uniform(0.03, 0.08))
    assert validate_scenario(s) == []
    return s


def tiny_scenario(seed: int) -> SystemScenario:
    """2-3 period, 2-4 committed-unit instance small enough for exhaustive
    commitment enumeration (<= 10 binaries)."""
    rng = random.Random(seed)
    periods = rng.choice((2, 3))
    n_units = rng.randint(2, 10 // periods)
    thermal = []
    hydro = []
    for i in range(n_units):
        cap = rng.uniform(80.0, 200.0)
        kind = rng.random()
        if kind < 0.4:
            thermal.append(ThermalUnit(
                f"coal_{i}", "coal_steam", cap, rng.uniform(0.2, 0.45) * cap,
                rng.uniform(25.0, 40.0), rng.uniform(100.0, 400.0),
                rng.uniform(200.0, 800.0), rng.uniform(50.0, 150.0),
                min_up_h=rng.randint(1, periods), min_down_h=rng.randint(1, periods),
                initial_commit=rng.random() < 0.5))
        elif kind < 0.8:
            thermal.append(ThermalUnit(
                f"gas_{i}", "gas_cc", cap, rng.uniform(0.2, 0.4) * cap,
                rng.uniform(40.0, 60.0), rng.uniform(100.0, 300.0),
                rng.uniform(150.0, 500.0), rng.uniform(40.0, 120.0),
                min_up_h=1, min_down_h=1, initial_commit=rng.random() < 0.5))
        else:
            hydro.append(HydroUnit(
                f"res_{i}", "reservoir", cap, rng.uniform(0.1, 0.3) * cap,
                cost_var=rng.uniform(3.0, 9.0),
                daily_energy_mwh=rng.uniform(0.6, 1.0) * cap * periods,
                initial_commit=rng.random() < 0.5))
    total_cap = sum(u.pmax_mw for u in thermal) + sum(h.pmax_mw for h in hydro)
    demand = tuple(rng.uniform(0.3, 0.55) * total_cap for _ in range(periods))
    s = SystemScenario(
        name=f"tiny-{seed}",
        periods=periods,
        thermal_units=tuple(thermal),
        hydro_units=tuple(hydro),
        renewable_units=(),
        batteries=(),
        condensers=(),
        demand=demand,
        contingency_mw=rng.uniform(0.05, 0.14) * total_cap,
        base_power_mw=500.0,
        nominal_freq_hz=50.0,
        limits=FrequencyLimits(2.5, 49.0, 0.8),
        load_damping_mw_per_pu=rng.uniform(300.0, 800.0),
    )
    assert validate_scenario(s) == []
    return s


@pytest.fixture(scope="session")
def milp_oracle():
    """Exhaustive-enumeration optima of `build_fcuc(tiny_scenario(seed))` for
    seeds 0..49, with the seconds the enumeration took. Computed once per
    session; acceptance criterion 6 charges those seconds to its 60 s bound."""
    from fcuc.ucmodel import build_fcuc
    from oracles import brute_force_milp

    t0 = time.perf_counter()
    exact = [brute_force_milp(build_fcuc(tiny_scenario(seed)), max_binaries=12)
             for seed in range(50)]
    return exact, time.perf_counter() - t0


@pytest.fixture(scope="session")
def paired_runs():
    """Both operating models on the 10-day paired corpus of acceptance
    criteria 7 and 8, with the seconds they took; run once per session and
    shared by every suite that reads these runs."""
    from fcuc.drivers import run_industry, run_proposed

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


@pytest.fixture
def desk():
    return desk_scenario()


@pytest.fixture
def desk_batt():
    return battery_scenario()


@pytest.fixture
def hydro_heavy():
    return hydro_heavy_scenario()
