"""Inputs for the benchmark.

The day builders are the benchmark's own copies of the test-suite builders
(`random_scenario`, `battery_scenario`, `hydro_heavy_scenario` and the desk day
they extend), so edits to the tests cannot move the benchmark's inputs.

Days are fixed by name. Given a seeded `rng`, `make_day` also draws the day's
governor and turbine time constants within +/-JITTER of their nominal values,
which moves the simulated responses and the learned cuts but not the MILP
data.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import replace

from fcuc.dynamics import TechClass, response_metrics
from fcuc.scenario import (
    Battery,
    FrequencyLimits,
    HydroUnit,
    RenewableUnit,
    SyncCondenser,
    SystemScenario,
    ThermalUnit,
    load_scenario,
    scenario_to_dict,
    validate_scenario,
)
from fcuc.ucmodel import fleet_mix

T = 24
JITTER = 0.03
JITTERED_CONSTANTS = (
    "steam_governor_s",
    "steam_chest_s",
    "steam_reheat_s",
    "cc_lag_s",
    "hydro_water_s",
    "hydro_reset_s",
)


def _sin_demand(base: float, swing: float, periods: int = T) -> tuple[float, ...]:
    return tuple(
        base + swing * math.sin(2.0 * math.pi * (t - 7) / periods) for t in range(1, periods + 1)
    )


def _pv_profile(peak: float, periods: int = T) -> tuple[float, ...]:
    return tuple(
        peak * math.sin(math.pi * (t - 7) / 12.0) if 7 <= t <= 19 else 0.0
        for t in range(1, periods + 1)
    )


def _checked(s: SystemScenario) -> SystemScenario:
    violations = validate_scenario(s)
    if violations:
        raise ValueError(f"{s.name}: invalid benchmark day: {violations}")
    return s


def calibrate_nadir_floor(s: SystemScenario, margin_hz: float = 0.05) -> SystemScenario:
    """Set the nadir floor just below what the full fleet achieves at its
    worst hour, so a compliant commitment always exists while the economic
    commitment typically does not. Costs one response evaluation per hour.
    """
    worst = math.inf
    for t in range(1, s.periods + 1):
        mix = fleet_mix(s, t).with_capacities({
            TechClass.STEAM: sum(u.pmax_mw for u in s.coal_units()),
            TechClass.COMBINED_CYCLE: sum(u.pmax_mw for u in s.gas_units()),
            TechClass.HYDRO_RESERVOIR: sum(h.pmax_mw for h in s.reservoir_units()),
        })
        worst = min(worst, response_metrics(mix).nadir_hz)
    floor = min(max(worst - margin_hz, s.nominal_freq_hz - 5.0), s.nominal_freq_hz - 0.3)
    return replace(s, limits=replace(s.limits, nadir_min_hz=floor))


def desk_scenario() -> SystemScenario:
    """Mixed thermal/hydro/solar day (the base of `battery_scenario`)."""
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
    return _checked(SystemScenario(
        name="desk",
        periods=T,
        thermal_units=thermal,
        hydro_units=hydro,
        renewable_units=(RenewableUnit("pv_a", 0.0, _pv_profile(220.0)),),
        batteries=(),
        condensers=(),
        demand=_sin_demand(700.0, 180.0),
        contingency_mw=150.0,
        base_power_mw=1000.0,
        nominal_freq_hz=50.0,
        limits=FrequencyLimits(1.5, 49.3, 0.6),
        load_damping_mw_per_pu=900.0,
    ))


def battery_scenario() -> SystemScenario:
    """Desk day plus storage (one grid-forming, one grid-following) and a
    synchronous condenser."""
    batteries = (
        Battery("bess_gfm", "gfm_vsm", 80.0, 320.0, 32.0, 160.0,
                cost_var=2.0, inertia_h_s=5.0, droop=0.05, gfm_time_constant_s=0.02),
        Battery("bess_gfl", "gfl", 60.0, 240.0, 24.0, 120.0, cost_var=2.0),
    )
    return _checked(replace(
        desk_scenario(),
        name="desk-batt",
        batteries=batteries,
        condensers=(SyncCondenser("cond_a", 50.0, inertia_h_s=3.0),),
    ))


def hydro_heavy_scenario() -> SystemScenario:
    """Future-fleet day: reservoir hydro is the only governor class. Its nadir
    floor is set by `calibrate_nadir_floor`."""
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
    return SystemScenario(
        name="hydro-heavy",
        periods=T,
        thermal_units=(),
        hydro_units=hydro,
        renewable_units=(RenewableUnit("pv_big", 0.0, _pv_profile(300.0)),),
        batteries=(Battery("bess_gfl", "gfl", 100.0, 400.0, 40.0, 200.0, cost_var=2.0),),
        condensers=(SyncCondenser("cond_a", 60.0),),
        demand=_sin_demand(480.0, 110.0),
        contingency_mw=140.0,
        base_power_mw=1000.0,
        nominal_freq_hz=50.0,
        limits=FrequencyLimits(1.5, 49.3, 0.6),
        load_damping_mw_per_pu=800.0,
    )


def random_scenario(seed: int) -> tuple[SystemScenario, float]:
    """A day from the criterion-8 distribution, before its nadir floor is
    calibrated, and the calibration margin drawn for it."""
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
        contingency_mw=rng.uniform(0.12, 0.18) * total_cap,
        base_power_mw=1000.0,
        nominal_freq_hz=50.0,
        limits=FrequencyLimits(1.5, 49.3, 0.6),
        load_damping_mw_per_pu=rng.uniform(700.0, 1000.0),
    )
    return s, rng.uniform(0.03, 0.08)


def jitter_dynamics(s: SystemScenario, rng: random.Random) -> SystemScenario:
    """Scale each governor/turbine time constant by a factor in [1-JITTER, 1+JITTER]."""
    scaled = {
        name: getattr(s.dynamics, name) * (1.0 + rng.uniform(-JITTER, JITTER))
        for name in JITTERED_CONSTANTS
    }
    return replace(s, dynamics=replace(s.dynamics, **scaled))


def make_day(name: str, example_path: str, rng: random.Random | None = None) -> SystemScenario:
    """Build, validate and, given `rng`, jitter one named day.

    `example` is the worked example file; `random-<k>` is day k of the
    criterion-8 corpus and `hydro-heavy` and `desk-batt` are its hydro-only and
    battery days. `random-<k>` and `hydro-heavy` get their nadir floor
    calibrated after the jitter, as the corpus does; the others keep their
    stated floors.
    """
    def jitter(s):
        return s if rng is None else jitter_dynamics(s, rng)

    if name == "example":
        return _checked(jitter(load_scenario(example_path)))
    if name == "desk-batt":
        return _checked(jitter(battery_scenario()))
    if name == "hydro-heavy":
        return _checked(calibrate_nadir_floor(jitter(hydro_heavy_scenario())))
    if name.startswith("random-"):
        s, margin = random_scenario(int(name.removeprefix("random-")))
        return _checked(calibrate_nadir_floor(jitter(s), margin_hz=margin))
    raise ValueError(f"unknown benchmark day {name!r}")


def digest(days: list[SystemScenario]) -> str:
    """Short content hash of the generated inputs, to show two runs used the
    same ones."""
    doc = json.dumps([scenario_to_dict(s) for s in days], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]
