"""Scenario data model: units, batteries, limits, dynamic parameters.

A scenario is a single JSON document describing one 24-period system.
Every other module consumes the types defined here.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Iterator

__all__ = [
    "ThermalUnit",
    "HydroUnit",
    "RenewableUnit",
    "Battery",
    "SyncCondenser",
    "FrequencyLimits",
    "DynamicParams",
    "SystemScenario",
    "Violation",
    "ScenarioParseError",
    "ScenarioValidationError",
    "load_scenario",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "validate_scenario",
]


class ScenarioParseError(ValueError):
    """Raised when a scenario document cannot be decoded at all."""


class ScenarioValidationError(ValueError):
    """Raised when a decoded scenario violates its invariants."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__(
            "invalid scenario:\n" + "\n".join(f"  {v.path}: {v.message}" for v in violations)
        )


@dataclass(frozen=True)
class Violation:
    path: str
    message: str


@dataclass(frozen=True)
class ThermalUnit:
    id: str
    fuel: str  # "coal_steam" | "gas_cc"
    pmax_mw: float
    pmin_mw: float
    cost_var: float
    cost_fixed: float
    cost_startup: float
    cost_shutdown: float
    min_up_h: int = 1
    min_down_h: int = 1
    inertia_h_s: float = 5.0
    droop: float = 0.05
    initial_commit: bool = False


@dataclass(frozen=True)
class HydroUnit:
    id: str
    kind: str  # "reservoir" | "run_of_river"
    pmax_mw: float
    pmin_mw: float = 0.0
    cost_var: float = 0.0  # water opportunity cost, reservoir only
    daily_energy_mwh: float = 0.0  # reservoir only
    avail_profile_mw: tuple[float, ...] = ()  # run-of-river only
    inertia_h_s: float = 4.0
    droop: float = 0.05
    initial_commit: bool = False


@dataclass(frozen=True)
class RenewableUnit:
    id: str
    pmin_mw: float
    avail_profile_mw: tuple[float, ...]


@dataclass(frozen=True)
class Battery:
    id: str
    inverter: str  # "gfl" | "gfm_vsm"
    pmax_mw: float
    emax_mwh: float
    emin_mwh: float
    e_init_mwh: float
    eff_charge: float = 0.95
    eff_discharge: float = 0.95
    cost_var: float = 0.0  # degradation cost per MWh cycled
    inertia_h_s: float = 0.0  # gfm only
    droop: float = 0.0  # gfm only
    gfm_time_constant_s: float = 0.02


@dataclass(frozen=True)
class SyncCondenser:
    id: str
    rating_mw: float
    inertia_h_s: float = 3.0


@dataclass(frozen=True)
class FrequencyLimits:
    rocof_limit_hz_s: float
    nadir_min_hz: float
    qss_max_dev_hz: float


@dataclass(frozen=True)
class DynamicParams:
    """Per-technology governor/turbine constants plus simulation controls.

    Defaults are textbook-typical values for the governor models used; any
    scenario may override them.
    """

    steam_governor_s: float = 0.2  # T_G
    steam_chest_s: float = 0.3  # T_CH
    steam_reheat_s: float = 7.0  # T_RH
    steam_hp_fraction: float = 0.3  # F_HP
    cc_lag_s: float = 0.5  # T_CC
    hydro_water_s: float = 1.0  # T_w
    hydro_transient_droop: float = 0.38  # R_T
    hydro_reset_s: float = 5.0  # T_R
    gfm_lag_s: float = 0.02  # T_GFM
    horizon_s: float = 30.0
    step_s: float = 0.001

    def time_constants(self) -> dict[str, float]:
        return {
            "steam_governor_s": self.steam_governor_s,
            "steam_chest_s": self.steam_chest_s,
            "steam_reheat_s": self.steam_reheat_s,
            "cc_lag_s": self.cc_lag_s,
            "hydro_water_s": self.hydro_water_s,
            "hydro_reset_s": self.hydro_reset_s,
            "gfm_lag_s": self.gfm_lag_s,
        }


@dataclass(frozen=True)
class SystemScenario:
    name: str
    periods: int
    thermal_units: tuple[ThermalUnit, ...]
    hydro_units: tuple[HydroUnit, ...]
    renewable_units: tuple[RenewableUnit, ...]
    batteries: tuple[Battery, ...]
    condensers: tuple[SyncCondenser, ...]
    demand: tuple[float, ...]
    contingency_mw: float
    base_power_mw: float
    nominal_freq_hz: float
    limits: FrequencyLimits
    dynamics: DynamicParams = field(default_factory=DynamicParams)
    load_damping_mw_per_pu: float = 0.0

    # -- convenience selectors used throughout the MILP and drivers --

    def coal_units(self) -> tuple[ThermalUnit, ...]:
        return tuple(u for u in self.thermal_units if u.fuel == "coal_steam")

    def gas_units(self) -> tuple[ThermalUnit, ...]:
        return tuple(u for u in self.thermal_units if u.fuel == "gas_cc")

    def reservoir_units(self) -> tuple[HydroUnit, ...]:
        return tuple(h for h in self.hydro_units if h.kind == "reservoir")

    def ror_units(self) -> tuple[HydroUnit, ...]:
        return tuple(h for h in self.hydro_units if h.kind == "run_of_river")

    def gfm_batteries(self) -> tuple[Battery, ...]:
        return tuple(b for b in self.batteries if b.inverter == "gfm_vsm")

    def committed_units(self):
        """Units that carry commitment binaries: thermal plus reservoir hydro."""
        return tuple(self.thermal_units) + self.reservoir_units()

    def damping_at(self, t: int) -> float:
        """Load damping K^D for 1-based hour t, scaled with that hour's demand.

        The scenario-level coefficient is referenced to the average demand, so
        higher-demand hours damp more. Every mix of an hour reads it, so it
        refuses an hour outside 1..periods.
        """
        if not 1 <= t <= self.periods:
            raise ValueError(f"hour {t} out of range 1..{self.periods}")
        avg = sum(self.demand) / len(self.demand)
        if avg <= 0:
            return self.load_damping_mw_per_pu
        return self.load_damping_mw_per_pu * self.demand[t - 1] / avg

    def all_unit_ids(self) -> Iterator[str]:
        for group in (
            self.thermal_units,
            self.hydro_units,
            self.renewable_units,
            self.batteries,
            self.condensers,
        ):
            for u in group:
                yield u.id


# ---------------------------------------------------------------------------
# validation

_FUELS = {"coal_steam", "gas_cc"}
_HYDRO_KINDS = {"reservoir", "run_of_river"}
_INVERTERS = {"gfl", "gfm_vsm"}


def _non_finite(obj, prefix: str = "") -> Iterator[str]:
    """Paths of every NaN or infinite number in a scenario dataclass, its
    nested dataclasses and the entries of its tuples, in one walk."""
    for name in obj.__dataclass_fields__:
        value, path = getattr(obj, name), prefix + name
        if isinstance(value, float):
            if not math.isfinite(value):
                yield path
        elif isinstance(value, tuple):
            for i, v in enumerate(value):
                if isinstance(v, float):
                    if not math.isfinite(v):
                        yield f"{path}[{i}]"
                elif is_dataclass(v):
                    yield from _non_finite(v, f"{path}[{i}]({v.id}).")
        elif is_dataclass(value):
            yield from _non_finite(value, f"{path}.")


def validate_scenario(s: SystemScenario) -> list[Violation]:
    """Return every invariant violation; empty list means the scenario is valid."""
    bad = [Violation(path, "must be finite") for path in _non_finite(s)]

    def check(ok: bool, path: str, message: str) -> None:
        if not ok:
            bad.append(Violation(path, message))

    check(s.periods >= 1, "periods", "must be >= 1")
    check(len(s.demand) == s.periods, "demand", f"length {len(s.demand)} != periods {s.periods}")
    check(all(d >= 0 for d in s.demand), "demand", "entries must be >= 0")
    check(s.contingency_mw > 0, "contingency_mw", "must be > 0")
    check(s.base_power_mw > 0, "base_power_mw", "must be > 0")
    check(s.nominal_freq_hz > 0, "nominal_freq_hz", "must be > 0")
    check(s.load_damping_mw_per_pu >= 0, "load_damping_mw_per_pu", "must be >= 0")

    lim = s.limits
    check(lim.rocof_limit_hz_s > 0, "limits.rocof_limit_hz_s", "must be > 0")
    check(lim.nadir_min_hz > 0, "limits.nadir_min_hz", "must be > 0")
    check(lim.qss_max_dev_hz > 0, "limits.qss_max_dev_hz", "must be > 0")
    check(
        lim.nadir_min_hz < s.nominal_freq_hz,
        "limits.nadir_min_hz",
        "must be below nominal frequency",
    )

    dyn = s.dynamics
    for name, tc in dyn.time_constants().items():
        check(tc > 0, f"dynamics.{name}", "time constant must be > 0")
    check(dyn.hydro_transient_droop > 0, "dynamics.hydro_transient_droop", "must be > 0")
    check(0 < dyn.steam_hp_fraction <= 1, "dynamics.steam_hp_fraction", "must be in (0, 1]")
    check(dyn.horizon_s > 0, "dynamics.horizon_s", "must be > 0")
    smallest = min(dyn.time_constants().values()) if all(
        tc > 0 for tc in dyn.time_constants().values()
    ) else None
    if smallest is not None:
        check(
            dyn.step_s > 0 and dyn.step_s < smallest / 5,
            "dynamics.step_s",
            f"must be positive and < smallest time constant / 5 ({smallest / 5:g})",
        )

    seen: set[str] = set()
    for uid in s.all_unit_ids():
        check(uid not in seen, f"id[{uid}]", "duplicate unit id")
        seen.add(uid)

    for i, u in enumerate(s.thermal_units):
        p = f"thermal_units[{i}]({u.id})"
        check(u.fuel in _FUELS, f"{p}.fuel", f"unknown fuel {u.fuel!r}")
        check(0 <= u.pmin_mw <= u.pmax_mw, f"{p}.pmin_mw", "requires 0 <= pmin <= pmax")
        check(u.min_up_h >= 1, f"{p}.min_up_h", "must be >= 1")
        check(u.min_down_h >= 1, f"{p}.min_down_h", "must be >= 1")
        check(u.droop > 0, f"{p}.droop", "must be > 0")
        check(u.inertia_h_s >= 0, f"{p}.inertia_h_s", "must be >= 0")

    for i, h in enumerate(s.hydro_units):
        p = f"hydro_units[{i}]({h.id})"
        check(h.kind in _HYDRO_KINDS, f"{p}.kind", f"unknown kind {h.kind!r}")
        check(0 <= h.pmin_mw <= h.pmax_mw, f"{p}.pmin_mw", "requires 0 <= pmin <= pmax")
        check(h.inertia_h_s >= 0, f"{p}.inertia_h_s", "must be >= 0")
        if h.kind == "reservoir":
            check(h.daily_energy_mwh >= 0, f"{p}.daily_energy_mwh", "must be >= 0")
            check(h.droop > 0, f"{p}.droop", "must be > 0")
        else:
            check(
                len(h.avail_profile_mw) == s.periods,
                f"{p}.avail_profile_mw",
                f"length {len(h.avail_profile_mw)} != periods {s.periods}",
            )
            if h.avail_profile_mw:
                check(
                    h.pmin_mw <= min(h.avail_profile_mw),
                    f"{p}.pmin_mw",
                    "must not exceed the minimum of the availability profile",
                )

    for i, r in enumerate(s.renewable_units):
        p = f"renewable_units[{i}]({r.id})"
        check(
            len(r.avail_profile_mw) == s.periods,
            f"{p}.avail_profile_mw",
            f"length {len(r.avail_profile_mw)} != periods {s.periods}",
        )
        check(r.pmin_mw >= 0, f"{p}.pmin_mw", "must be >= 0")
        check(
            all(r.pmin_mw <= v for v in r.avail_profile_mw),
            f"{p}.pmin_mw",
            "must not exceed any profile entry",
        )

    for i, b in enumerate(s.batteries):
        p = f"batteries[{i}]({b.id})"
        check(b.inverter in _INVERTERS, f"{p}.inverter", f"unknown inverter {b.inverter!r}")
        check(b.pmax_mw >= 0, f"{p}.pmax_mw", "must be >= 0")
        check(
            0 <= b.emin_mwh <= b.e_init_mwh <= b.emax_mwh,
            f"{p}.e_init_mwh",
            "requires 0 <= emin <= e_init <= emax",
        )
        check(0 < b.eff_charge <= 1, f"{p}.eff_charge", "must be in (0, 1]")
        check(0 < b.eff_discharge <= 1, f"{p}.eff_discharge", "must be in (0, 1]")
        check(b.gfm_time_constant_s > 0, f"{p}.gfm_time_constant_s", "must be > 0")
        if b.inverter == "gfl":
            # GFL inverters provide no frequency response; declaring dynamic
            # parameters for one is almost certainly a data error.
            check(b.droop == 0, f"{p}.droop", "gfl battery must not declare droop")
            check(b.inertia_h_s == 0, f"{p}.inertia_h_s", "gfl battery must not declare inertia")
        else:
            check(b.droop > 0, f"{p}.droop", "gfm battery requires droop > 0")

    for i, c in enumerate(s.condensers):
        p = f"condensers[{i}]({c.id})"
        check(c.rating_mw >= 0, f"{p}.rating_mw", "must be >= 0")
        check(c.inertia_h_s >= 0, f"{p}.inertia_h_s", "must be >= 0")

    return bad


# ---------------------------------------------------------------------------
# (de)serialization

def scenario_to_dict(s: SystemScenario) -> dict:
    return asdict(s)


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ScenarioParseError(f"{path}: expected an object, got {type(data).__name__}")
    fields = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(data) - fields
    if unknown:
        raise ScenarioParseError(f"{path}: unknown fields {sorted(unknown)}")
    kwargs = dict(data)
    for key, value in kwargs.items():
        if isinstance(value, list):
            kwargs[key] = tuple(value)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc


def scenario_from_dict(doc: dict) -> SystemScenario:
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be an object")
    data = dict(doc)

    def sub(key, cls):
        items = data.get(key, [])
        if not isinstance(items, (list, tuple)):
            raise ScenarioParseError(f"{key}: expected an array")
        data[key] = tuple(_build(cls, item, f"{key}[{i}]") for i, item in enumerate(items))

    sub("thermal_units", ThermalUnit)
    sub("hydro_units", HydroUnit)
    sub("renewable_units", RenewableUnit)
    sub("batteries", Battery)
    sub("condensers", SyncCondenser)
    if "limits" not in data:
        raise ScenarioParseError("missing required field 'limits'")
    data["limits"] = _build(FrequencyLimits, data["limits"], "limits")
    if "dynamics" in data:
        data["dynamics"] = _build(DynamicParams, data["dynamics"], "dynamics")
    if "demand" in data:
        data["demand"] = tuple(data["demand"])
    data.setdefault("name", "unnamed")
    scenario = _build(SystemScenario, data, "scenario")

    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioValidationError(violations)
    return scenario


def load_scenario(path: str) -> SystemScenario:
    """Load and validate a scenario JSON document."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: malformed JSON ({exc})") from exc
    return scenario_from_dict(doc)


def save_scenario(s: SystemScenario, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2)
        fh.write("\n")
