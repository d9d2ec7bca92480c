"""Center-of-inertia frequency dynamics: state-space assembly, integration,
and metric extraction.

The model aggregates every frequency-responsive technology into one swing
equation. Governor paths:

  steam          droop -> governor lag -> steam chest -> reheat lead-lag
  combined cycle droop -> single lag
  hydro          droop -> transient-droop governor -> water-hammer turbine
  gfm inverter   droop -> single lag (virtual synchronous machine)

Run-of-river plants and synchronous condensers contribute inertia only.
All frequency deviations are per-unit (delta = df / f0); powers are MW.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .scenario import DynamicParams, FrequencyLimits

__all__ = [
    "TechClass",
    "TechState",
    "OnlineMix",
    "LinearSystem",
    "FrequencyTrace",
    "FrequencyMetrics",
    "ComplianceReport",
    "ZeroInertiaError",
    "SimulationDiverged",
    "assemble_state_space",
    "simulate_response",
    "response_metrics",
    "compute_metrics",
    "check_compliance",
]


class TechClass(str, Enum):
    STEAM = "steam"
    COMBINED_CYCLE = "combined_cycle"
    HYDRO_RESERVOIR = "hydro_reservoir"
    GFM = "gfm"
    RUN_OF_RIVER = "run_of_river"
    CONDENSER = "condenser"


#: classes whose online capacity carries a governor response
GOVERNOR_CLASSES = (
    TechClass.STEAM,
    TechClass.COMBINED_CYCLE,
    TechClass.HYDRO_RESERVOIR,
    TechClass.GFM,
)

#: default aggregate droop / inertia per class, used when a mix is built
#: outside a scenario context (planning studies, sweeps)
DEFAULT_DROOP = {
    TechClass.STEAM: 0.05,
    TechClass.COMBINED_CYCLE: 0.05,
    TechClass.HYDRO_RESERVOIR: 0.05,
    TechClass.GFM: 0.05,
}
DEFAULT_INERTIA_H = {
    TechClass.STEAM: 5.0,
    TechClass.COMBINED_CYCLE: 5.0,
    TechClass.HYDRO_RESERVOIR: 4.0,
    TechClass.GFM: 5.0,
    TechClass.RUN_OF_RIVER: 3.0,
    TechClass.CONDENSER: 3.0,
}


class ZeroInertiaError(ValueError):
    """A disturbance was applied to a system with no inertia."""


class SimulationDiverged(RuntimeError):
    """The integrator produced a non-finite state."""


@dataclass(frozen=True)
class TechState:
    """Aggregate online capacity of one technology class."""

    online_mw: float = 0.0
    droop: float = 0.05  # p.u. on the aggregate base; unused for inertia-only classes
    inertia_h_s: float = 0.0


@dataclass(frozen=True)
class OnlineMix:
    """Per-hour snapshot of online capacity per frequency-responsive class."""

    steam: TechState
    combined_cycle: TechState
    hydro_reservoir: TechState
    gfm: TechState
    run_of_river: TechState
    condenser: TechState
    load_damping_mw_per_pu: float
    contingency_mw: float
    nominal_freq_hz: float
    dynamics: DynamicParams

    def tech(self, cls: TechClass) -> TechState:
        return getattr(self, cls.value)

    def with_capacity(self, cls: TechClass, mw: float) -> "OnlineMix":
        return replace(self, **{cls.value: replace(self.tech(cls), online_mw=mw)})

    def with_capacities(self, caps: dict[TechClass, float]) -> "OnlineMix":
        mix = self
        for cls, mw in caps.items():
            mix = mix.with_capacity(cls, mw)
        return mix

    @property
    def system_inertia_mws(self) -> float:
        return sum(2.0 * self.tech(c).inertia_h_s * self.tech(c).online_mw for c in TechClass)

    def validate(self) -> None:
        for cls in TechClass:
            if self.tech(cls).online_mw < 0:
                raise ValueError(f"{cls.value}: online capacity must be >= 0")
        if self.contingency_mw > 0 and self.system_inertia_mws <= 0:
            raise ZeroInertiaError(
                "cannot disturb a zero-inertia system "
                f"(contingency {self.contingency_mw} MW, inertia 0)"
            )


@dataclass(frozen=True)
class LinearSystem:
    """x' = A x + b with constant b (step disturbance applied at t = 0)."""

    a: np.ndarray
    b: np.ndarray
    c_freq: np.ndarray  # row selecting the frequency deviation
    mech_rows: dict[TechClass, np.ndarray]  # MW mechanical power per governor class
    inertia_mws: float
    contingency_mw: float
    nominal_freq_hz: float


@dataclass(frozen=True)
class FrequencyTrace:
    time_s: np.ndarray
    delta_pu: np.ndarray
    mech_mw: dict[TechClass, np.ndarray]
    inertia_mws: float
    contingency_mw: float
    nominal_freq_hz: float
    step_s: float


@dataclass(frozen=True)
class FrequencyMetrics:
    nadir_hz: float
    initial_rocof_hz_s: float
    qss_dev_hz: float
    time_of_nadir_s: float


@dataclass(frozen=True)
class ComplianceReport:
    nadir_ok: bool
    rocof_ok: bool
    qss_ok: bool
    nadir_margin_hz: float
    rocof_margin_hz_s: float
    qss_margin_hz: float

    @property
    def passed(self) -> bool:
        return self.nadir_ok and self.rocof_ok and self.qss_ok


# ---------------------------------------------------------------------------
# assembly

def assemble_state_space(mix: OnlineMix) -> LinearSystem:
    """Build the aggregate swing + governor model for one online mix.

    State order: delta, steam governor, steam chest, steam reheat, CC lag,
    hydro governor, hydro water column, GFM lag. Governor states are per-unit
    on their class capacity; the swing row scales them to MW.
    """
    mix.validate()
    dyn = mix.dynamics
    n = 8  # states, in the order above
    a = np.zeros((n, n))
    b = np.zeros(n)

    m = mix.system_inertia_mws
    d_idx = 0

    # steam: gov lag -> chest -> reheat lead-lag (F_HP + (1-F_HP)/(1+T_RH s))
    rs = mix.steam.droop if mix.steam.droop > 0 else math.inf
    a[1, d_idx] = -1.0 / (rs * dyn.steam_governor_s)
    a[1, 1] = -1.0 / dyn.steam_governor_s
    a[2, 1] = 1.0 / dyn.steam_chest_s
    a[2, 2] = -1.0 / dyn.steam_chest_s
    a[3, 2] = 1.0 / dyn.steam_reheat_s
    a[3, 3] = -1.0 / dyn.steam_reheat_s
    steam_row = np.zeros(n)
    steam_row[2] = dyn.steam_hp_fraction
    steam_row[3] = 1.0 - dyn.steam_hp_fraction
    steam_row *= mix.steam.online_mw

    # combined cycle: single lag
    rc = mix.combined_cycle.droop if mix.combined_cycle.droop > 0 else math.inf
    a[4, d_idx] = -1.0 / (rc * dyn.cc_lag_s)
    a[4, 4] = -1.0 / dyn.cc_lag_s
    cc_row = np.zeros(n)
    cc_row[4] = mix.combined_cycle.online_mw

    # hydro: transient-droop governor (lead-lag, DC gain 1/R, HF gain 1/R_T)
    # followed by the non-minimum-phase water column (1 - T_w s)/(1 + T_w s / 2)
    rh = mix.hydro_reservoir.droop if mix.hydro_reservoir.droop > 0 else math.inf
    tau_h = (dyn.hydro_transient_droop / mix.hydro_reservoir.droop) * dyn.hydro_reset_s \
        if mix.hydro_reservoir.droop > 0 else dyn.hydro_reset_s
    alpha = dyn.hydro_reset_s / tau_h  # lead/lag ratio = R_h / R_T
    a[5, d_idx] = -1.0 / tau_h
    a[5, 5] = -1.0 / tau_h
    # governor output g = (1/R_h) * (alpha * (-delta) + (1 - alpha) * x_gov)
    g_row = np.zeros(n)
    g_row[d_idx] = -alpha / rh
    g_row[5] = (1.0 - alpha) / rh
    half_tw = 0.5 * dyn.hydro_water_s
    a[6, :] += g_row / half_tw
    a[6, 6] += -1.0 / half_tw
    # water column output y = -2 g + 3 x_w
    hydro_row = -2.0 * g_row
    hydro_row[6] += 3.0
    hydro_row *= mix.hydro_reservoir.online_mw

    # gfm vsm: droop through a fast lag
    rg = mix.gfm.droop if mix.gfm.droop > 0 else math.inf
    a[7, d_idx] = -1.0 / (rg * dyn.gfm_lag_s)
    a[7, 7] = -1.0 / dyn.gfm_lag_s
    gfm_row = np.zeros(n)
    gfm_row[7] = mix.gfm.online_mw

    # swing equation: m delta' = sum(mech MW) - dPe - K^D delta
    if m > 0:
        swing = steam_row + cc_row + hydro_row + gfm_row
        swing[d_idx] += -mix.load_damping_mw_per_pu
        a[d_idx, :] = swing / m
        b[d_idx] = -mix.contingency_mw / m
    # m == 0 only allowed with zero contingency (validate() rejects otherwise):
    # the response is identically zero and A's first row stays zero.

    c = np.zeros(n)
    c[d_idx] = 1.0

    return LinearSystem(
        a=a,
        b=b,
        c_freq=c,
        mech_rows={
            TechClass.STEAM: steam_row,
            TechClass.COMBINED_CYCLE: cc_row,
            TechClass.HYDRO_RESERVOIR: hydro_row,
            TechClass.GFM: gfm_row,
        },
        inertia_mws=m,
        contingency_mw=mix.contingency_mw,
        nominal_freq_hz=mix.nominal_freq_hz,
    )


# ---------------------------------------------------------------------------
# integration

def simulate_response(
    sys: LinearSystem, horizon_s: float | None = None, step_s: float | None = None
) -> FrequencyTrace:
    """Classic fourth-order fixed-step integration of the step response.

    For a constant-coefficient linear system the RK4 update collapses to
    x_{k+1} = Phi x_k + Gamma with Phi the degree-4 Taylor polynomial of
    exp(h A); the loop below is bit-identical to textbook RK4.
    """
    if horizon_s is None:
        horizon_s = 30.0
    if step_s is None:
        step_s = 0.001
    if step_s <= 0 or horizon_s <= 0:
        raise ValueError("step_s and horizon_s must be positive")

    h = step_s
    a = sys.a
    n = a.shape[0]
    nsteps = int(round(horizon_s / h))

    # Phi = sum_{k=0..4} (hA)^k / k!,  Gamma = h * (sum_{k=0..3} (hA)^k / (k+1)!) b
    ha = h * a
    phi = np.zeros((n, n))
    gamma_op = np.zeros((n, n))
    term = np.eye(n)
    fact = 1.0
    for k in range(5):
        phi += term / fact
        if k < 4:
            gamma_op += term * (h / (fact * (k + 1)))
        term = term @ ha
        fact *= k + 1
    gamma = gamma_op @ sys.b

    xs = np.empty((nsteps + 1, n))
    x = np.zeros(n)
    xs[0] = x
    for k in range(nsteps):
        x = phi @ x + gamma
        xs[k + 1] = x
    if not np.all(np.isfinite(x)):
        raise SimulationDiverged(
            f"non-finite state after {nsteps} steps of {h} s; check time constants"
        )

    time = np.arange(nsteps + 1) * h
    delta = xs @ sys.c_freq
    mech = {cls: xs @ row for cls, row in sys.mech_rows.items()}
    return FrequencyTrace(
        time_s=time,
        delta_pu=delta,
        mech_mw=mech,
        inertia_mws=sys.inertia_mws,
        contingency_mw=sys.contingency_mw,
        nominal_freq_hz=sys.nominal_freq_hz,
        step_s=h,
    )


def _eig_delta(sys: LinearSystem, times: np.ndarray) -> np.ndarray | None:
    """Exact step-response frequency deviation via eigendecomposition.

    Returns None when A is near-defective; callers fall back to RK4.
    """
    a = sys.a
    try:
        lam, v = np.linalg.eig(a)
        cond = np.linalg.cond(v)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(cond) or cond > 1e10:
        return None
    w = np.linalg.solve(v, sys.b.astype(complex))
    # x(t) = V diag(phi_i(t)) V^-1 b with phi_i(t) = (exp(lam t) - 1)/lam
    lt = np.multiply.outer(times, lam)
    lam_safe = np.where(np.abs(lam) > 1e-12, lam, 1.0)
    phi = (np.exp(lt) - 1.0) / lam_safe
    small = np.abs(lam) <= 1e-12
    if np.any(small):
        phi[:, small] = times[:, None]
    ct = sys.c_freq.astype(complex) @ v  # row in eigen basis
    delta = (phi * (ct * w)).sum(axis=1)
    if not np.all(np.isfinite(delta)):
        return None
    return delta.real


def response_metrics(mix: OnlineMix) -> FrequencyMetrics:
    """Metrics of the post-contingency response.

    Nadir and its time come from the exact modal solution sampled on the same
    grid as simulate_response, or from the RK4 trace itself when the
    eigenbasis is ill-conditioned. RoCoF and the QSS deviation (the exact
    asymptote, DC gain) are computed the same way on both paths.
    """
    horizon, step = mix.dynamics.horizon_s, mix.dynamics.step_s
    sys = assemble_state_space(mix)
    nsteps = int(round(horizon / step))
    times = np.arange(nsteps + 1) * step

    # Coarse pass over every ~50th sample of the 1 ms grid, then a fine pass
    # on the full-resolution samples around the coarse minimum. The response
    # is smooth (sum of a few modes), so the fine window always brackets the
    # true sample-grid minimum and the result is identical to evaluating the
    # whole grid, at a fraction of the cost.
    stride = max(1, nsteps // 600)
    coarse_idx = np.arange(0, nsteps + 1, stride)
    if coarse_idx[-1] != nsteps:
        coarse_idx = np.append(coarse_idx, nsteps)
    coarse = _eig_delta(sys, times[coarse_idx])
    fine = None
    if coarse is not None:
        k = int(np.argmin(coarse))
        lo = int(coarse_idx[max(0, k - 2)])
        hi = int(coarse_idx[min(len(coarse_idx) - 1, k + 2)])
        fine_idx = np.arange(lo, hi + 1)
        fine = _eig_delta(sys, times[fine_idx])
    if fine is None:
        # near-defective eigenbasis: RK4 supplies every sample; coarse[-1]
        # stays the horizon sample on either path
        coarse = fine = simulate_response(sys, horizon, step).delta_pu
        fine_idx = np.arange(nsteps + 1)
    i_fine = int(np.argmin(fine))
    i_min = int(fine_idx[i_fine])

    f0 = sys.nominal_freq_hz
    nadir_hz = f0 + f0 * float(fine[i_fine])
    # zero inertia is only valid with no disturbance (validate()), so then delta == 0
    rocof = sys.contingency_mw * f0 / sys.inertia_mws if sys.inertia_mws > 0 else 0.0
    # The quasi-steady-state is the asymptote of the linear system, available
    # exactly as its DC gain; the slow hydro governor (reset stretched by
    # R_T/R) settles long after the nadir window, so the final sample of a
    # nadir-length trace would overstate it.
    try:
        x_ss = np.linalg.solve(sys.a, -sys.b)
        qss_dev_hz = f0 * abs(float(sys.c_freq @ x_ss))
    except np.linalg.LinAlgError:
        qss_dev_hz = f0 * abs(float(coarse[-1]))
    return FrequencyMetrics(
        nadir_hz=nadir_hz,
        initial_rocof_hz_s=rocof,
        qss_dev_hz=qss_dev_hz,
        time_of_nadir_s=float(times[i_min]),
    )


def compute_metrics(trace: FrequencyTrace) -> FrequencyMetrics:
    """Nadir / initial RoCoF / QSS deviation from a simulated trace.

    The initial RoCoF is reported as the analytic instantaneous value
    dPe * f0 / m; the first-step finite difference is its discretization.
    """
    delta, times = trace.delta_pu, trace.time_s
    if len(delta) == 0:
        raise ValueError("empty trace")
    f0 = trace.nominal_freq_hz
    i_min = int(np.argmin(delta))
    if trace.inertia_mws > 0:
        rocof = trace.contingency_mw * f0 / trace.inertia_mws
    elif len(delta) > 1:
        rocof = abs(f0 * (delta[1] - delta[0]) / (times[1] - times[0]))
    else:
        rocof = 0.0
    return FrequencyMetrics(
        nadir_hz=f0 + f0 * float(delta[i_min]),
        initial_rocof_hz_s=rocof,
        qss_dev_hz=f0 * abs(float(delta[-1])),
        time_of_nadir_s=float(times[i_min]),
    )


def check_compliance(metrics: FrequencyMetrics, limits: FrequencyLimits) -> ComplianceReport:
    """Closed-threshold compliance: equality with a limit passes."""
    nadir_margin = metrics.nadir_hz - limits.nadir_min_hz
    rocof_margin = limits.rocof_limit_hz_s - abs(metrics.initial_rocof_hz_s)
    qss_margin = limits.qss_max_dev_hz - metrics.qss_dev_hz
    return ComplianceReport(
        nadir_ok=nadir_margin >= 0,
        rocof_ok=rocof_margin >= 0,
        qss_ok=qss_margin >= 0,
        nadir_margin_hz=nadir_margin,
        rocof_margin_hz_s=rocof_margin,
        qss_margin_hz=qss_margin,
    )


def export_trace(trace: FrequencyTrace, path: str, decimate: int = 1) -> None:
    """Write a trace as delimited text: time, df in Hz, per-class mech MW."""
    classes = list(trace.mech_mw)
    with open(path, "w") as fh:
        fh.write("time_s\tdelta_f_hz\t" + "\t".join(c.value + "_mw" for c in classes) + "\n")
        f0 = trace.nominal_freq_hz
        for i in range(0, len(trace.time_s), decimate):
            cols = [f"{trace.time_s[i]:.6f}", f"{f0 * trace.delta_pu[i]:.9f}"]
            cols += [f"{trace.mech_mw[c][i]:.6f}" for c in classes]
            fh.write("\t".join(cols) + "\n")
