"""Frequency-constrained unit-commitment model: builder, solution decoding,
independent feasibility audit, and the bridge to the dynamic model.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .boundary import NadirCut
from .dynamics import OnlineMix, TechClass, TechState
from .milp import EQ, GE, LE, MilpProblem
from .scenario import SystemScenario, Violation

__all__ = [
    "BuildOptions",
    "UcSolution",
    "build_fcuc",
    "add_nadir_cut",
    "decode_solution",
    "check_feasibility",
    "online_mix",
    "fleet_mix",
]

DT_H = 1.0  # hourly stages throughout

#: cut classes whose online capacity is commitment-dependent
_COMMITTED_CLASSES = (TechClass.STEAM, TechClass.COMBINED_CYCLE, TechClass.HYDRO_RESERVOIR)


@dataclass(frozen=True)
class BuildOptions:
    include_rocof: bool = True
    include_qss: bool = True
    nadir_cuts: tuple[tuple[int, NadirCut], ...] = ()
    uniform_reserve_mw: float | None = None
    inertia_floor_mws: float | None = None


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
        if cls == TechClass.STEAM:
            units = s.coal_units()
        elif cls == TechClass.COMBINED_CYCLE:
            units = s.gas_units()
        elif cls == TechClass.HYDRO_RESERVOIR:
            units = s.reservoir_units()
        else:
            raise ValueError(f"{cls.value} has no commitment variables")
        return sum(u.pmax_mw * self.commit[(u.id, hour)] for u in units)


# ---------------------------------------------------------------------------
# column names

def _n(prefix: str, uid: str, t: int) -> str:
    return f"{prefix}_{uid}_{t}"


def _qss_factor(s: SystemScenario) -> float:
    return s.limits.qss_max_dev_hz / s.nominal_freq_hz


def build_fcuc(s: SystemScenario, opts: BuildOptions | None = None) -> MilpProblem:
    """Assemble the daily commitment MILP: cost objective, balance, commitment
    logic, min up/down windows, hydro energy budgets, renewable bounds,
    battery SOC and reserve coupling, system reserve, and (optionally) the
    inertia/RoCoF, QSS reserve caps, and nadir cut rows.
    """
    opts = opts or BuildOptions()
    if opts.uniform_reserve_mw is not None and opts.uniform_reserve_mw < s.contingency_mw:
        raise ValueError(
            "uniform reserve requirement must not be below the contingency "
            f"({opts.uniform_reserve_mw} < {s.contingency_mw})"
        )
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
            r_ub = qf * g.pmax_mw / g.droop if opts.include_qss else np.inf
            p.add_var(_n("r", g.id, t), 0.0, r_ub)

    for g in s.renewable_units + s.ror_units():
        for t in range(1, T + 1):
            p.add_var(_n("p", g.id, t), g.pmin_mw, g.avail_profile_mw[t - 1])

    for b in s.batteries:
        gfm = b.inverter == "gfm_vsm"
        if gfm and opts.include_qss:
            batt_res_cap = qf * b.pmax_mw / b.droop
        elif gfm:
            batt_res_cap = np.inf
        else:
            batt_res_cap = 0.0  # GFL: reserve provision forced to zero
        for t in range(1, T + 1):
            p.add_var(_n("pch", b.id, t), 0.0, b.pmax_mw, cost=b.cost_var)
            p.add_var(_n("pdis", b.id, t), 0.0, b.pmax_mw, cost=b.cost_var)
            p.add_var(_n("rch", b.id, t), 0.0, batt_res_cap)
            p.add_var(_n("rdis", b.id, t), 0.0, batt_res_cap)
            p.add_var(_n("e", b.id, t), 0.0, b.emax_mwh)

    for t in range(1, T + 1):
        rpf_ub = qf * s.damping_at(t) if opts.include_qss else np.inf
        p.add_var(f"rpf_{t}", 0.0, rpf_ub)
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

    # -- minimum up/down windows, with end-of-horizon forms --
    for g in committed:
        t_on = getattr(g, "min_up_h", 1)
        t_off = getattr(g, "min_down_h", 1)
        for t in range(1, T + 1):
            y = p.col(_n("y", g.id, t))
            z = p.col(_n("z", g.id, t))
            if t <= T - t_on:
                window = range(t, t + t_on)
                req = float(t_on)
            else:
                window = range(t, T + 1)
                req = float(T - t + 1)
            coeffs = {p.col(_n("u", g.id, tau)): 1.0 for tau in window}
            coeffs[y] = coeffs.get(y, 0.0) - req
            p.add_row(f"up_{g.id}_{t}", coeffs, GE, 0.0)

            if t <= T - t_off:
                window = range(t, t + t_off)
                req = float(t_off)
            else:
                window = range(t, T + 1)
                req = float(T - t + 1)
            # sum (1 - u) >= req z  ->  -sum u - req z >= -len(window)
            coeffs = {p.col(_n("u", g.id, tau)): -1.0 for tau in window}
            nwin = len(list(window))
            coeffs[z] = coeffs.get(z, 0.0) - req
            p.add_row(f"down_{g.id}_{t}", coeffs, GE, -float(nwin))

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
    reserve_req = opts.uniform_reserve_mw if opts.uniform_reserve_mw is not None \
        else s.contingency_mw
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
    for t in range(1, T + 1):
        coeffs = {p.col(f"m_{t}"): 1.0}
        for g in committed:
            coeffs[p.col(_n("u", g.id, t))] = -2.0 * g.inertia_h_s * g.pmax_mw
        p.add_row(f"inertia_{t}", coeffs, EQ, const_inertia)
        floor = 0.0
        if opts.include_rocof:
            floor = s.contingency_mw * s.nominal_freq_hz / s.limits.rocof_limit_hz_s
        if opts.inertia_floor_mws is not None:
            floor = max(floor, opts.inertia_floor_mws)
        if floor > 0:
            p.add_row(f"rocof_{t}", {p.col(f"m_{t}"): 1.0}, GE, floor)

    for hour, cut in opts.nadir_cuts:
        add_nadir_cut(p, s, cut, hour)

    return p


def _cut_terms(s: SystemScenario, cut: NadirCut):
    """Split cut coefficients into commitment-linked columns and a constant."""
    units_by_class = {
        TechClass.STEAM: s.coal_units(),
        TechClass.COMBINED_CYCLE: s.gas_units(),
        TechClass.HYDRO_RESERVOIR: s.reservoir_units(),
    }
    const_by_class = {
        TechClass.GFM: sum(b.pmax_mw for b in s.gfm_batteries()),
        TechClass.RUN_OF_RIVER: sum(h.pmax_mw for h in s.ror_units()),
        TechClass.CONDENSER: sum(c.rating_mw for c in s.condensers),
    }
    terms: list[tuple[str, float]] = []
    constant = 0.0
    for tech, coeff in cut.coeffs.items():
        if coeff == 0.0:
            continue
        if tech in units_by_class:
            units = units_by_class[tech]
            if not units:
                raise ValueError(
                    f"nadir cut references {tech.value} but the scenario has no such units"
                )
            for u in units:
                terms.append((u.id, coeff * u.pmax_mw))
        else:
            constant += coeff * const_by_class.get(tech, 0.0)
    return terms, constant


def add_nadir_cut(p: MilpProblem, s: SystemScenario, cut: NadirCut, hour: int) -> MilpProblem:
    """Append one compliance cut at `hour` over committed capacities.

    Constant-capacity classes (GFM, RoR, SC) fold into the right-hand side.
    Adding the same (cut, hour) twice is a no-op.
    """
    if not 1 <= hour <= s.periods:
        raise ValueError(f"hour {hour} out of range 1..{s.periods}")
    if all(c == 0.0 for c in cut.coeffs.values()) or not cut.coeffs:
        raise ValueError("degenerate nadir cut: all coefficients are zero")
    terms, constant = _cut_terms(s, cut)
    # hash() of a str is salted per process; a digest names the row the same in every run
    digest = hashlib.blake2b(repr(cut.key()).encode(), digest_size=6).hexdigest()
    name = f"nadir_{hour}_{digest}"
    if p.has_row(name):
        return p
    coeffs = {}
    for uid, w in terms:
        col = p.col(_n("u", uid, hour))
        coeffs[col] = coeffs.get(col, 0.0) + w
    p.add_row(name, coeffs, GE, cut.intercept - constant)
    return p


# ---------------------------------------------------------------------------
# decoding

def decode_solution(p: MilpProblem, s: SystemScenario, x: np.ndarray, objective: float) -> UcSolution:
    T = s.periods
    committed = s.committed_units()

    def grab(prefix, ids):
        return {
            (uid, t): p.value(x, _n(prefix, uid, t))
            for uid in ids
            for t in range(1, T + 1)
        }

    cids = [g.id for g in committed]
    bids = [b.id for b in s.batteries]
    gids = [g.id for g in s.renewable_units + s.ror_units()]

    power = grab("p", cids)
    power.update(grab("p", gids))

    thermal_var = sum(
        u.cost_var * p.value(x, _n("p", u.id, t)) for u in s.thermal_units for t in range(1, T + 1)
    )
    thermal_fixed = sum(
        u.cost_fixed * p.value(x, _n("u", u.id, t)) for u in s.thermal_units for t in range(1, T + 1)
    )
    thermal_start = sum(
        u.cost_startup * p.value(x, _n("y", u.id, t)) for u in s.thermal_units for t in range(1, T + 1)
    )
    thermal_stop = sum(
        u.cost_shutdown * p.value(x, _n("z", u.id, t)) for u in s.thermal_units for t in range(1, T + 1)
    )
    hydro_cost = sum(
        h.cost_var * p.value(x, _n("p", h.id, t))
        for h in s.reservoir_units()
        for t in range(1, T + 1)
    )
    batt_cost = sum(
        b.cost_var * (p.value(x, _n("pch", b.id, t)) + p.value(x, _n("pdis", b.id, t)))
        for b in s.batteries
        for t in range(1, T + 1)
    )

    return UcSolution(
        commit=grab("u", cids),
        startup=grab("y", cids),
        shutdown=grab("z", cids),
        power=power,
        reserve=grab("r", cids),
        batt_charge=grab("pch", bids),
        batt_discharge=grab("pdis", bids),
        batt_res_charge=grab("rch", bids),
        batt_res_discharge=grab("rdis", bids),
        batt_energy=grab("e", bids),
        damping_reserve={t: p.value(x, f"rpf_{t}") for t in range(1, T + 1)},
        inertia_mws={t: p.value(x, f"m_{t}") for t in range(1, T + 1)},
        objective=objective,
        cost_breakdown={
            "thermal_variable": thermal_var,
            "thermal_fixed": thermal_fixed,
            "thermal_startup": thermal_start,
            "thermal_shutdown": thermal_stop,
            "hydro_opportunity": hydro_cost,
            "battery_degradation": batt_cost,
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
            if opts.include_qss and rv > qf * g.pmax_mw / g.droop + tol:
                flag("qss_cap", g.id, t, rv - qf * g.pmax_mw / g.droop)

        t_on = getattr(g, "min_up_h", 1)
        t_off = getattr(g, "min_down_h", 1)
        for t in range(1, T + 1):
            y, z = sol.startup[(g.id, t)], sol.shutdown[(g.id, t)]
            hi = min(t + t_on - 1, T) if t <= T - t_on else T
            req = float(t_on) if t <= T - t_on else float(T - t + 1)
            tot = sum(sol.commit[(g.id, tau)] for tau in range(t, hi + 1))
            if tot < req * y - tol:
                flag("min_up", g.id, t, req * y - tot)
            hi = min(t + t_off - 1, T) if t <= T - t_off else T
            req = float(t_off) if t <= T - t_off else float(T - t + 1)
            tot = sum(1.0 - sol.commit[(g.id, tau)] for tau in range(t, hi + 1))
            if tot < req * z - tol:
                flag("min_down", g.id, t, req * z - tot)

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
            if not gfl and opts.include_qss and rch + rdis > qf * b.pmax_mw / b.droop + tol:
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
        if opts.include_qss and rpf > qf * s.damping_at(t) + tol:
            flag("qss_cap_rpf", "system", t, rpf - qf * s.damping_at(t))

    const_inertia = (
        sum(2.0 * h.inertia_h_s * h.pmax_mw for h in s.ror_units())
        + sum(2.0 * b.inertia_h_s * b.pmax_mw for b in s.gfm_batteries())
        + sum(2.0 * c.inertia_h_s * c.rating_mw for c in s.condensers)
    )
    for t in range(1, T + 1):
        m_ref = const_inertia + sum(
            2.0 * g.inertia_h_s * g.pmax_mw * sol.commit[(g.id, t)] for g in committed
        )
        if abs(sol.inertia_mws[t] - m_ref) > tol:
            flag("inertia_sum", "system", t, sol.inertia_mws[t] - m_ref)
        if opts.include_rocof:
            floor = s.contingency_mw * s.nominal_freq_hz / s.limits.rocof_limit_hz_s
            if sol.inertia_mws[t] < floor - tol:
                flag("rocof", "system", t, floor - sol.inertia_mws[t])
        if opts.inertia_floor_mws is not None and sol.inertia_mws[t] < opts.inertia_floor_mws - tol:
            flag("inertia_floor", "system", t, opts.inertia_floor_mws - sol.inertia_mws[t])

    for hour, cut in opts.nadir_cuts:
        lhs = 0.0
        caps = {
            TechClass.GFM: sum(b.pmax_mw for b in s.gfm_batteries()),
            TechClass.RUN_OF_RIVER: sum(h.pmax_mw for h in s.ror_units()),
            TechClass.CONDENSER: sum(c.rating_mw for c in s.condensers),
        }
        for cls in _COMMITTED_CLASSES:
            caps[cls] = sol.committed_capacity_mw(s, hour, cls)
        lhs = cut.lhs(caps)
        if lhs < cut.intercept - tol:
            flag("nadir_cut", "system", hour, cut.intercept - lhs)

    return bad


# ---------------------------------------------------------------------------
# commitment -> dynamic model bridge

def _aggregate(entries: list[tuple[float, float, float]]) -> TechState:
    """Aggregate (capacity, droop, inertia) triples into one class state.

    Equivalent droop preserves the summed governor gain; inertia is
    capacity-weighted.
    """
    cap = sum(c for c, _, _ in entries)
    if cap <= 0:
        return TechState(0.0, 0.05, 0.0)
    gain = sum(c / r for c, r, _ in entries if r > 0)
    droop = cap / gain if gain > 0 else 0.0
    h = sum(c * hh for c, _, hh in entries) / cap
    return TechState(online_mw=cap, droop=droop if droop > 0 else 0.05, inertia_h_s=h)


def online_mix(s: SystemScenario, sol: UcSolution, hour: int) -> OnlineMix:
    """Online mix implied by a solution at one hour, for dynamic verification."""
    if not 1 <= hour <= s.periods:
        raise ValueError(f"hour {hour} out of range 1..{s.periods}")

    def committed_entries(units):
        return [
            (u.pmax_mw * sol.commit[(u.id, hour)], u.droop, u.inertia_h_s)
            for u in units
            if sol.commit[(u.id, hour)] > 0.5
        ]

    states = {
        TechClass.STEAM: _aggregate(committed_entries(s.coal_units())),
        TechClass.COMBINED_CYCLE: _aggregate(committed_entries(s.gas_units())),
        TechClass.HYDRO_RESERVOIR: _aggregate(committed_entries(s.reservoir_units())),
        TechClass.GFM: _aggregate(
            [(b.pmax_mw, b.droop, b.inertia_h_s) for b in s.gfm_batteries()]
        ),
        TechClass.RUN_OF_RIVER: _aggregate(
            [(h.pmax_mw, 0.0, h.inertia_h_s) for h in s.ror_units()]
        ),
        TechClass.CONDENSER: _aggregate(
            [(c.rating_mw, 0.0, c.inertia_h_s) for c in s.condensers]
        ),
    }
    dyn = s.dynamics
    gfm = s.gfm_batteries()
    if gfm:
        cap = sum(b.pmax_mw for b in gfm)
        if cap > 0:
            lag = sum(b.pmax_mw * b.gfm_time_constant_s for b in gfm) / cap
            dyn = replace(dyn, gfm_lag_s=lag)
    return OnlineMix(
        steam=states[TechClass.STEAM],
        combined_cycle=states[TechClass.COMBINED_CYCLE],
        hydro_reservoir=states[TechClass.HYDRO_RESERVOIR],
        gfm=states[TechClass.GFM],
        run_of_river=states[TechClass.RUN_OF_RIVER],
        condenser=states[TechClass.CONDENSER],
        load_damping_mw_per_pu=s.damping_at(hour),
        contingency_mw=s.contingency_mw,
        base_power_mw=s.base_power_mw,
        nominal_freq_hz=s.nominal_freq_hz,
        dynamics=dyn,
    )


def fleet_mix(s: SystemScenario, hour: int) -> OnlineMix:
    """Boundary-sweep template: committed classes at zero capacity but with
    fleet-aggregate droop/inertia constants; constant classes at full rating.
    Assumes within-class units are dynamically similar.
    """

    def fleet(units, attr_cap="pmax_mw"):
        return _aggregate(
            [(getattr(u, attr_cap), getattr(u, "droop", 0.0), u.inertia_h_s) for u in units]
        )

    def zero_cap(st: TechState) -> TechState:
        return replace(st, online_mw=0.0)

    dyn = s.dynamics
    gfm = s.gfm_batteries()
    if gfm:
        cap = sum(b.pmax_mw for b in gfm)
        if cap > 0:
            lag = sum(b.pmax_mw * b.gfm_time_constant_s for b in gfm) / cap
            dyn = replace(dyn, gfm_lag_s=lag)
    return OnlineMix(
        steam=zero_cap(fleet(s.coal_units())),
        combined_cycle=zero_cap(fleet(s.gas_units())),
        hydro_reservoir=zero_cap(fleet(s.reservoir_units())),
        gfm=fleet(s.gfm_batteries()),
        run_of_river=fleet(s.ror_units()),
        condenser=fleet(s.condensers, attr_cap="rating_mw"),
        load_damping_mw_per_pu=s.damping_at(hour),
        contingency_mw=s.contingency_mw,
        base_power_mw=s.base_power_mw,
        nominal_freq_hz=s.nominal_freq_hz,
        dynamics=dyn,
    )
