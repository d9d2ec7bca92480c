"""Frequency-constrained unit-commitment model: builder, solution decoding,
independent feasibility audit, and the bridge to the dynamic model.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from .boundary import NadirCut
from .dynamics import DEFAULT_INERTIA_H, GOVERNOR_CLASSES, OnlineMix, TechClass, TechState
from .milp import EQ, GE, LE, MilpProblem
from .scenario import SyncCondenser, SystemScenario, Violation

__all__ = [
    "BuildOptions",
    "UcSolution",
    "build_fcuc",
    "add_nadir_cut",
    "set_uniform_reserve",
    "decode_solution",
    "check_feasibility",
    "online_mix",
    "fleet_mix",
    "COMMITTED_CLASSES",
    "units_of",
    "fleet_capacity_mw",
]

DT_H = 1.0  # hourly stages throughout

#: availabilities below this are built as 0 MW: a residue such as sin(pi) * peak
#: (~1e-14 MW) is no power, and HiGHS warns about so small a column bound
AVAIL_TOL_MW = 1e-9

#: the scenario units that make up each technology class
_CLASS_UNITS = {
    TechClass.STEAM: SystemScenario.coal_units,
    TechClass.COMBINED_CYCLE: SystemScenario.gas_units,
    TechClass.HYDRO_RESERVOIR: SystemScenario.reservoir_units,
    TechClass.GFM: SystemScenario.gfm_batteries,
    TechClass.RUN_OF_RIVER: SystemScenario.ror_units,
    TechClass.CONDENSER: lambda s: s.condensers,
}

#: classes whose online capacity is commitment-dependent
COMMITTED_CLASSES = (TechClass.STEAM, TechClass.COMBINED_CYCLE, TechClass.HYDRO_RESERVOIR)


def units_of(s: SystemScenario, cls: TechClass) -> tuple:
    """The scenario's units of one technology class."""
    return _CLASS_UNITS[cls](s)


def _rating_mw(u) -> float:
    return u.rating_mw if isinstance(u, SyncCondenser) else u.pmax_mw


def fleet_capacity_mw(s: SystemScenario, cls: TechClass) -> float:
    """Installed capacity of a class: condenser ratings, unit pmax otherwise."""
    return sum(_rating_mw(u) for u in units_of(s, cls))


@dataclass(frozen=True)
class BuildOptions:
    """What the operating loop varies between solves: the nadir cuts (proposed
    model) and the uniform reserve requirement (industry model)."""

    nadir_cuts: tuple[tuple[int, NadirCut], ...] = ()
    uniform_reserve_mw: float | None = None


@dataclass
class UcSolution:
    commit: dict[tuple[str, int], float]
    startup: dict[tuple[str, int], float]
    shutdown: dict[tuple[str, int], float]
    power: dict[tuple[str, int], float]
    reserve: dict[tuple[str, int], float]
    batt_charge: dict[tuple[str, int], float]
    batt_discharge: dict[tuple[str, int], float]
    batt_res_charge: dict[tuple[str, int], float]
    batt_res_discharge: dict[tuple[str, int], float]
    batt_energy: dict[tuple[str, int], float]
    damping_reserve: dict[int, float]
    inertia_mws: dict[int, float]
    objective: float
    cost_breakdown: dict[str, float] = field(default_factory=dict)

    def committed_capacity_mw(self, s: SystemScenario, hour: int, cls: TechClass) -> float:
        if cls not in COMMITTED_CLASSES:
            raise ValueError(f"{cls.value} has no commitment variables")
        return sum(u.pmax_mw * self.commit[(u.id, hour)] for u in units_of(s, cls))


# ---------------------------------------------------------------------------
# column names

def _n(prefix: str, uid: str, t: int) -> str:
    return f"{prefix}_{uid}_{t}"


def _qss_factor(s: SystemScenario) -> float:
    return s.limits.qss_max_dev_hz / s.nominal_freq_hz


def build_fcuc(s: SystemScenario, opts: BuildOptions | None = None) -> MilpProblem:
    """Assemble the daily commitment MILP: cost objective, balance, commitment
    logic, min up/down windows, hydro energy budgets, renewable bounds,
    battery SOC and reserve coupling, QSS reserve caps tied to commitment,
    system reserve, inertia with its RoCoF floor, and the nadir cut rows.
    """
    opts = opts or BuildOptions()
    reserve_req = s.contingency_mw if opts.uniform_reserve_mw is None \
        else _checked_reserve(s, opts.uniform_reserve_mw)
    T = s.periods
    qf = _qss_factor(s)
    p = MilpProblem(s.name)

    committed = s.committed_units()
    for g in committed:
        is_thermal = hasattr(g, "fuel")
        for t in range(1, T + 1):
            p.add_var(_n("u", g.id, t), binary=True,
                      cost=g.cost_fixed if is_thermal else 0.0)
            p.add_var(_n("y", g.id, t), 0.0, 1.0,
                      cost=g.cost_startup if is_thermal else 0.0)
            p.add_var(_n("z", g.id, t), 0.0, 1.0,
                      cost=g.cost_shutdown if is_thermal else 0.0)
            p.add_var(_n("p", g.id, t), 0.0, g.pmax_mw, cost=g.cost_var)
            p.add_var(_n("r", g.id, t), 0.0, qf * g.pmax_mw / g.droop)

    for g in s.renewable_units + s.ror_units():
        for t in range(1, T + 1):
            lo, hi = g.pmin_mw, g.avail_profile_mw[t - 1]
            if hi < AVAIL_TOL_MW:  # validation keeps pmin <= avail: both are residues
                lo = hi = 0.0
            p.add_var(_n("p", g.id, t), lo, hi)

    for b in s.batteries:
        # GFL: reserve provision forced to zero
        batt_res_cap = qf * b.pmax_mw / b.droop if b.inverter == "gfm_vsm" else 0.0
        for t in range(1, T + 1):
            p.add_var(_n("pch", b.id, t), 0.0, b.pmax_mw, cost=b.cost_var)
            p.add_var(_n("pdis", b.id, t), 0.0, b.pmax_mw, cost=b.cost_var)
            p.add_var(_n("rch", b.id, t), 0.0, batt_res_cap)
            p.add_var(_n("rdis", b.id, t), 0.0, batt_res_cap)
            p.add_var(_n("e", b.id, t), 0.0, b.emax_mwh)

    for t in range(1, T + 1):
        p.add_var(f"rpf_{t}", 0.0, qf * s.damping_at(t))
        p.add_var(f"m_{t}", 0.0, np.inf)

    # -- energy balance --
    for t in range(1, T + 1):
        coeffs = {}
        for g in committed:
            coeffs[p.col(_n("p", g.id, t))] = 1.0
        for g in s.renewable_units + s.ror_units():
            coeffs[p.col(_n("p", g.id, t))] = 1.0
        for b in s.batteries:
            coeffs[p.col(_n("pdis", b.id, t))] = 1.0
            coeffs[p.col(_n("pch", b.id, t))] = -1.0
        p.add_row(f"balance_{t}", coeffs, EQ, s.demand[t - 1])

    # -- commitment logic and output bounds --
    for g in committed:
        init = 1.0 if g.initial_commit else 0.0
        for t in range(1, T + 1):
            u, y, z = p.col(_n("u", g.id, t)), p.col(_n("y", g.id, t)), p.col(_n("z", g.id, t))
            if t == 1:
                p.add_row(f"logic_{g.id}_{t}", {y: 1.0, z: -1.0, u: -1.0}, EQ, -init)
            else:
                up = p.col(_n("u", g.id, t - 1))
                p.add_row(f"logic_{g.id}_{t}", {y: 1.0, z: -1.0, u: -1.0, up: 1.0}, EQ, 0.0)
            pv, rv = p.col(_n("p", g.id, t)), p.col(_n("r", g.id, t))
            p.add_row(f"cap_{g.id}_{t}", {pv: 1.0, rv: 1.0, u: -g.pmax_mw}, LE, 0.0)
            p.add_row(f"pmin_{g.id}_{t}", {pv: 1.0, u: -g.pmin_mw}, GE, 0.0)
            # r <= cap * u: the column bound again at u = 1, and at u = 0
            # `cap` already forces r = 0. Exact at integer points, but the
            # LP relaxation can no longer buy reserve from a fractional u.
            p.add_row(f"rqss_{g.id}_{t}", {rv: 1.0, u: -qf * g.pmax_mw / g.droop}, LE, 0.0)

    # -- minimum up/down windows, cut short at the end of the horizon --
    for g in committed:
        for t in range(1, T + 1):
            window = range(t, min(t + getattr(g, "min_up_h", 1), T + 1))
            coeffs = {p.col(_n("u", g.id, tau)): 1.0 for tau in window}
            coeffs[p.col(_n("y", g.id, t))] = -float(len(window))
            p.add_row(f"up_{g.id}_{t}", coeffs, GE, 0.0)
            # sum (1 - u) >= len z  ->  -sum u - len z >= -len
            window = range(t, min(t + getattr(g, "min_down_h", 1), T + 1))
            coeffs = {p.col(_n("u", g.id, tau)): -1.0 for tau in window}
            coeffs[p.col(_n("z", g.id, t))] = -float(len(window))
            p.add_row(f"down_{g.id}_{t}", coeffs, GE, -float(len(window)))

    # -- reservoir daily energy --
    for h in s.reservoir_units():
        coeffs = {p.col(_n("p", h.id, t)): DT_H for t in range(1, T + 1)}
        p.add_row(f"energy_{h.id}", coeffs, LE, h.daily_energy_mwh)

    # -- batteries --
    for b in s.batteries:
        for t in range(1, T + 1):
            pch = p.col(_n("pch", b.id, t))
            pdis = p.col(_n("pdis", b.id, t))
            rch = p.col(_n("rch", b.id, t))
            rdis = p.col(_n("rdis", b.id, t))
            e = p.col(_n("e", b.id, t))
            p.add_row(f"bdis_{b.id}_{t}", {pdis: 1.0, rdis: 1.0}, LE, b.pmax_mw)
            p.add_row(f"brch_{b.id}_{t}", {rch: 1.0, pch: -1.0}, LE, 0.0)
            if b.inverter == "gfm_vsm":
                # the QSS cap holds for the battery's total reserve, as the audit checks
                p.add_row(f"bqss_{b.id}_{t}", {rch: 1.0, rdis: 1.0}, LE, qf * b.pmax_mw / b.droop)
            soc = {e: 1.0, pch: -b.eff_charge * DT_H, pdis: DT_H / b.eff_discharge}
            if t == 1:
                p.add_row(f"soc_{b.id}_{t}", soc, EQ, b.e_init_mwh)
            else:
                soc[p.col(_n("e", b.id, t - 1))] = -1.0
                p.add_row(f"soc_{b.id}_{t}", soc, EQ, 0.0)
            p.add_row(
                f"bres_{b.id}_{t}",
                {e: 1.0, rch: -b.eff_charge * DT_H, rdis: -DT_H / b.eff_discharge},
                GE,
                b.emin_mwh,
            )
        p.add_row(f"bterm_{b.id}", {p.col(_n("e", b.id, T)): 1.0}, EQ, b.e_init_mwh)

    # -- system reserve --
    for t in range(1, T + 1):
        coeffs = {p.col(_n("r", g.id, t)): 1.0 for g in committed}
        for b in s.gfm_batteries():
            coeffs[p.col(_n("rch", b.id, t))] = 1.0
            coeffs[p.col(_n("rdis", b.id, t))] = 1.0
        coeffs[p.col(f"rpf_{t}")] = 1.0
        p.add_row(f"reserve_{t}", coeffs, GE, reserve_req)

    # -- inertia accounting and RoCoF floor --
    const_inertia = (
        sum(2.0 * h.inertia_h_s * h.pmax_mw for h in s.ror_units())
        + sum(2.0 * b.inertia_h_s * b.pmax_mw for b in s.gfm_batteries())
        + sum(2.0 * c.inertia_h_s * c.rating_mw for c in s.condensers)
    )
    floor = s.contingency_mw * s.nominal_freq_hz / s.limits.rocof_limit_hz_s
    for t in range(1, T + 1):
        coeffs = {p.col(f"m_{t}"): 1.0}
        for g in committed:
            coeffs[p.col(_n("u", g.id, t))] = -2.0 * g.inertia_h_s * g.pmax_mw
        p.add_row(f"inertia_{t}", coeffs, EQ, const_inertia)
        p.add_row(f"rocof_{t}", {p.col(f"m_{t}"): 1.0}, GE, floor)

    for hour, cut in opts.nadir_cuts:
        add_nadir_cut(p, s, cut, hour)

    return p


def _checked_reserve(s: SystemScenario, reserve_mw: float) -> float:
    if not reserve_mw >= s.contingency_mw:
        raise ValueError(
            "uniform reserve requirement must not be below the contingency "
            f"({reserve_mw} < {s.contingency_mw})"
        )
    return reserve_mw


def set_uniform_reserve(p: MilpProblem, s: SystemScenario, reserve_mw: float) -> MilpProblem:
    """Set the system reserve requirement of every hour of a built problem
    to `reserve_mw`, which must not be below the contingency."""
    _checked_reserve(s, reserve_mw)
    for t in range(1, s.periods + 1):
        p.set_rhs(f"reserve_{t}", reserve_mw)
    return p


def add_nadir_cut(p: MilpProblem, s: SystemScenario, cut: NadirCut, hour: int) -> MilpProblem:
    """Append one compliance cut at `hour` over committed capacities.

    Constant-capacity classes (GFM, RoR, SC) fold into the right-hand side.
    Adding the same (cut, hour) twice is a no-op.
    """
    if not 1 <= hour <= s.periods:
        raise ValueError(f"hour {hour} out of range 1..{s.periods}")
    if all(c == 0.0 for c in cut.coeffs.values()):
        raise ValueError("degenerate nadir cut: all coefficients are zero")
    coeffs: dict[int, float] = {}
    constant = 0.0
    for tech, coeff in cut.coeffs.items():
        if coeff == 0.0:
            continue
        if tech not in COMMITTED_CLASSES:
            constant += coeff * fleet_capacity_mw(s, tech)
            continue
        units = units_of(s, tech)
        if not units:
            raise ValueError(
                f"nadir cut references {tech.value} but the scenario has no such units"
            )
        for u in units:
            col = p.col(_n("u", u.id, hour))
            coeffs[col] = coeffs.get(col, 0.0) + coeff * u.pmax_mw
    # hash() of a str is salted per process; a digest names the row the same in every run
    digest = hashlib.blake2b(repr(cut.key()).encode(), digest_size=6).hexdigest()
    name = f"nadir_{hour}_{digest}"
    if not p.has_row(name):
        p.add_row(name, coeffs, GE, cut.intercept - constant)
    return p


# ---------------------------------------------------------------------------
# decoding

#: per problem, the scenario it was decoded for and the columns each field reads
_DECODE_COLUMNS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _decode_columns(p: MilpProblem, s: SystemScenario) -> dict[str, tuple[list, np.ndarray]]:
    """The keys of each decoded field and the column each key reads: one name
    lookup per column, once per problem and scenario."""
    cached = _DECODE_COLUMNS.get(p)
    if cached is not None and cached[0] is s:
        return cached[1]
    hours = range(1, s.periods + 1)
    cids = [g.id for g in s.committed_units()]
    bids = [b.id for b in s.batteries]
    families = {
        "commit": ("u", cids), "startup": ("y", cids), "shutdown": ("z", cids),
        "power": ("p", cids + [g.id for g in s.renewable_units + s.ror_units()]),
        "reserve": ("r", cids), "batt_charge": ("pch", bids), "batt_discharge": ("pdis", bids),
        "batt_res_charge": ("rch", bids), "batt_res_discharge": ("rdis", bids),
        "batt_energy": ("e", bids),
    }
    columns = {}
    for name, (prefix, ids) in families.items():
        keys = [(uid, t) for uid in ids for t in hours]
        columns[name] = keys, np.array([p.col(_n(prefix, uid, t)) for uid, t in keys], dtype=int)
    for name, prefix in (("damping_reserve", "rpf"), ("inertia_mws", "m")):
        columns[name] = list(hours), np.array([p.col(f"{prefix}_{t}") for t in hours], dtype=int)
    _DECODE_COLUMNS[p] = s, columns
    return columns


def decode_solution(p: MilpProblem, s: SystemScenario, x: np.ndarray, objective: float) -> UcSolution:
    T = s.periods
    decoded = {name: dict(zip(keys, x[cols].tolist()))
               for name, (keys, cols) in _decode_columns(p, s).items()}
    power, commit = decoded["power"], decoded["commit"]
    startup, shutdown = decoded["startup"], decoded["shutdown"]
    charge, discharge = decoded["batt_charge"], decoded["batt_discharge"]

    def cost(units, rate: str, values) -> float:
        return sum(getattr(u, rate) * values[(u.id, t)] for u in units for t in range(1, T + 1))

    return UcSolution(
        **decoded,
        objective=objective,
        cost_breakdown={
            "thermal_variable": cost(s.thermal_units, "cost_var", power),
            "thermal_fixed": cost(s.thermal_units, "cost_fixed", commit),
            "thermal_startup": cost(s.thermal_units, "cost_startup", startup),
            "thermal_shutdown": cost(s.thermal_units, "cost_shutdown", shutdown),
            "hydro_opportunity": cost(s.reservoir_units(), "cost_var", power),
            "battery_degradation": sum(
                b.cost_var * (charge[(b.id, t)] + discharge[(b.id, t)])
                for b in s.batteries
                for t in range(1, T + 1)
            ),
        },
    )


# ---------------------------------------------------------------------------
# independent feasibility audit

def check_feasibility(
    s: SystemScenario,
    sol: UcSolution,
    tol: float = 1e-6,
    opts: BuildOptions | None = None,
) -> list[Violation]:
    """Re-check every model constraint by direct arithmetic on the solution.

    Deliberately independent of MilpProblem: equations are recomputed from
    the scenario data, so a builder bug cannot hide a violation.
    """
    opts = opts or BuildOptions()
    T = s.periods
    qf = _qss_factor(s)
    bad: list[Violation] = []

    def flag(family: str, who: str, t, residual: float):
        where = f"{family}[{who}" + (f",t={t}]" if t is not None else "]")
        bad.append(Violation(where, f"residual {residual:.3e}"))

    committed = s.committed_units()

    for t in range(1, T + 1):
        total = sum(sol.power[(g.id, t)] for g in committed)
        total += sum(sol.power[(g.id, t)] for g in s.renewable_units + s.ror_units())
        total += sum(
            sol.batt_discharge[(b.id, t)] - sol.batt_charge[(b.id, t)] for b in s.batteries
        )
        if abs(total - s.demand[t - 1]) > tol:
            flag("balance", "system", t, total - s.demand[t - 1])

    for g in committed:
        init = 1.0 if g.initial_commit else 0.0
        for t in range(1, T + 1):
            u, y, z = sol.commit[(g.id, t)], sol.startup[(g.id, t)], sol.shutdown[(g.id, t)]
            for name, v in (("u", u), ("y", y), ("z", z)):
                if min(abs(v), abs(v - 1.0)) > tol:
                    flag(f"binary_{name}", g.id, t, min(abs(v), abs(v - 1.0)))
            prev = sol.commit[(g.id, t - 1)] if t > 1 else init
            if abs((y - z) - (u - prev)) > tol:
                flag("logic", g.id, t, (y - z) - (u - prev))
            pw, rv = sol.power[(g.id, t)], sol.reserve[(g.id, t)]
            if pw + rv > g.pmax_mw * u + tol:
                flag("cap", g.id, t, pw + rv - g.pmax_mw * u)
            if pw < g.pmin_mw * u - tol:
                flag("pmin", g.id, t, g.pmin_mw * u - pw)
            if rv < -tol:
                flag("reserve_sign", g.id, t, rv)
            if rv > qf * g.pmax_mw / g.droop + tol:
                flag("qss_cap", g.id, t, rv - qf * g.pmax_mw / g.droop)
            # a start (stop) holds the unit on (off) to the end of its window
            window = range(t, min(t + getattr(g, "min_up_h", 1), T + 1))
            tot = sum(sol.commit[(g.id, tau)] for tau in window)
            if tot < len(window) * y - tol:
                flag("min_up", g.id, t, len(window) * y - tot)
            window = range(t, min(t + getattr(g, "min_down_h", 1), T + 1))
            tot = sum(1.0 - sol.commit[(g.id, tau)] for tau in window)
            if tot < len(window) * z - tol:
                flag("min_down", g.id, t, len(window) * z - tot)

    for h in s.reservoir_units():
        tot = sum(sol.power[(h.id, t)] for t in range(1, T + 1)) * DT_H
        if tot > h.daily_energy_mwh + tol:
            flag("daily_energy", h.id, None, tot - h.daily_energy_mwh)

    for g in s.renewable_units + s.ror_units():
        for t in range(1, T + 1):
            pw = sol.power[(g.id, t)]
            avail = g.avail_profile_mw[t - 1]
            if pw > avail + tol:
                flag("avail", g.id, t, pw - avail)
            if pw < g.pmin_mw - tol:
                flag("profile_min", g.id, t, g.pmin_mw - pw)

    for b in s.batteries:
        gfl = b.inverter == "gfl"
        prev_e = b.e_init_mwh
        for t in range(1, T + 1):
            pch = sol.batt_charge[(b.id, t)]
            pdis = sol.batt_discharge[(b.id, t)]
            rch = sol.batt_res_charge[(b.id, t)]
            rdis = sol.batt_res_discharge[(b.id, t)]
            e = sol.batt_energy[(b.id, t)]
            if pdis + rdis > b.pmax_mw + tol:
                flag("batt_dis_cap", b.id, t, pdis + rdis - b.pmax_mw)
            if pch > b.pmax_mw + tol:
                flag("batt_cha_cap", b.id, t, pch - b.pmax_mw)
            if rch > pch + tol:
                flag("batt_res_cha", b.id, t, rch - pch)
            if min(pch, pdis, rch, rdis) < -tol:
                flag("batt_sign", b.id, t, min(pch, pdis, rch, rdis))
            if gfl and max(rch, rdis) > tol:
                flag("gfl_reserve", b.id, t, max(rch, rdis))
            if not gfl and rch + rdis > qf * b.pmax_mw / b.droop + tol:
                flag("qss_cap_batt", b.id, t, rch + rdis - qf * b.pmax_mw / b.droop)
            soc = e - prev_e - (pch * b.eff_charge - pdis / b.eff_discharge) * DT_H
            if abs(soc) > tol:
                flag("soc", b.id, t, soc)
            if e > b.emax_mwh + tol or e < -tol:
                flag("soc_bounds", b.id, t, max(e - b.emax_mwh, -e))
            if e - (rch * b.eff_charge + rdis / b.eff_discharge) * DT_H < b.emin_mwh - tol:
                flag("res_headroom", b.id, t,
                     b.emin_mwh - e + (rch * b.eff_charge + rdis / b.eff_discharge) * DT_H)
            prev_e = e
        if abs(sol.batt_energy[(b.id, T)] - b.e_init_mwh) > tol:
            flag("terminal_energy", b.id, None, sol.batt_energy[(b.id, T)] - b.e_init_mwh)

    reserve_req = opts.uniform_reserve_mw if opts.uniform_reserve_mw is not None \
        else s.contingency_mw
    for t in range(1, T + 1):
        rtot = sum(sol.reserve[(g.id, t)] for g in committed)
        rtot += sum(
            sol.batt_res_charge[(b.id, t)] + sol.batt_res_discharge[(b.id, t)]
            for b in s.gfm_batteries()
        )
        rpf = sol.damping_reserve[t]
        rtot += rpf
        if rtot < reserve_req - tol:
            flag("system_reserve", "system", t, reserve_req - rtot)
        if rpf < -tol:
            flag("rpf_sign", "system", t, rpf)
        if rpf > qf * s.damping_at(t) + tol:
            flag("qss_cap_rpf", "system", t, rpf - qf * s.damping_at(t))

    const_inertia = (
        sum(2.0 * h.inertia_h_s * h.pmax_mw for h in s.ror_units())
        + sum(2.0 * b.inertia_h_s * b.pmax_mw for b in s.gfm_batteries())
        + sum(2.0 * c.inertia_h_s * c.rating_mw for c in s.condensers)
    )
    floor = s.contingency_mw * s.nominal_freq_hz / s.limits.rocof_limit_hz_s
    for t in range(1, T + 1):
        m_ref = const_inertia + sum(
            2.0 * g.inertia_h_s * g.pmax_mw * sol.commit[(g.id, t)] for g in committed
        )
        if abs(sol.inertia_mws[t] - m_ref) > tol:
            flag("inertia_sum", "system", t, sol.inertia_mws[t] - m_ref)
        if sol.inertia_mws[t] < floor - tol:
            flag("rocof", "system", t, floor - sol.inertia_mws[t])

    for hour, cut in opts.nadir_cuts:
        caps = {
            cls: sol.committed_capacity_mw(s, hour, cls) if cls in COMMITTED_CLASSES
            else fleet_capacity_mw(s, cls)
            for cls in TechClass
        }
        lhs = cut.lhs(caps)
        if lhs < cut.intercept - tol:
            flag("nadir_cut", "system", hour, cut.intercept - lhs)

    return bad


# ---------------------------------------------------------------------------
# commitment -> dynamic model bridge

def _aggregate(cls: TechClass, entries: list[tuple[float, float, float]]) -> TechState:
    """Aggregate (capacity, droop, inertia) triples into one class state.

    Equivalent droop preserves the summed governor gain; inertia is
    capacity-weighted. A class with no capacity is at 0 MW with the class
    default inertia and TechState's droop, so an override or sweep of a
    class the scenario lacks sees the same constants everywhere.
    """
    cap = sum(c for c, _, _ in entries)
    if cap <= 0:
        return TechState(inertia_h_s=DEFAULT_INERTIA_H[cls])
    gain = sum(c / r for c, r, _ in entries if r > 0)
    droop = cap / gain if gain > 0 else 0.0
    h = sum(c * hh for c, _, hh in entries) / cap
    return TechState(online_mw=cap, droop=droop if droop > 0 else 0.05, inertia_h_s=h)


def _fleet_entries(s: SystemScenario, cls: TechClass) -> list[tuple[float, float, float]]:
    """(capacity, droop, inertia) of every unit of a class at full rating;
    inertia-only classes carry no droop."""
    return [
        (_rating_mw(u), u.droop if cls in GOVERNOR_CLASSES else 0.0, u.inertia_h_s)
        for u in units_of(s, cls)
    ]


def _mix(
    s: SystemScenario, damping: float, entries: dict[TechClass, list[tuple[float, float, float]]]
) -> OnlineMix:
    """One OnlineMix from per-class unit entries; the GFM lag is the
    capacity-weighted mean of the scenario's GFM time constants."""
    dyn = s.dynamics
    gfm = s.gfm_batteries()
    cap = sum(b.pmax_mw for b in gfm)
    if cap > 0:
        dyn = replace(dyn, gfm_lag_s=sum(b.pmax_mw * b.gfm_time_constant_s for b in gfm) / cap)
    return OnlineMix(
        **{cls.value: _aggregate(cls, entries[cls]) for cls in TechClass},
        load_damping_mw_per_pu=damping,
        contingency_mw=s.contingency_mw,
        nominal_freq_hz=s.nominal_freq_hz,
        dynamics=dyn,
    )


def online_mix(s: SystemScenario, sol: UcSolution, hour: int) -> OnlineMix:
    """Online mix implied by a solution at one hour, for dynamic verification."""
    damping = s.damping_at(hour)  # before the commitments, which an hour out of range lacks
    entries = {cls: _fleet_entries(s, cls) for cls in TechClass}
    for cls in COMMITTED_CLASSES:
        entries[cls] = [
            (u.pmax_mw * sol.commit[(u.id, hour)], u.droop, u.inertia_h_s)
            for u in units_of(s, cls)
            if sol.commit[(u.id, hour)] > 0.5
        ]
    return _mix(s, damping, entries)


def fleet_mix(s: SystemScenario, hour: int) -> OnlineMix:
    """Boundary-sweep template: committed classes at zero capacity but with
    fleet-aggregate droop/inertia constants; constant classes at full rating.
    Assumes within-class units are dynamically similar.
    """
    mix = _mix(s, s.damping_at(hour), {cls: _fleet_entries(s, cls) for cls in TechClass})
    return mix.with_capacities(dict.fromkeys(COMMITTED_CLASSES, 0.0))
