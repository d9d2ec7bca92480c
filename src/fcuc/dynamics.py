"""Center-of-inertia frequency dynamics: state-space assembly, RK4
integration (the oracle and the trace exporter), and metric extraction by
one batched zero-order-hold kernel with one entry point,
response_metrics_rows: capacity rows, each on the context it names
(response_metrics is a batch of one).

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
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from functools import reduce
from operator import attrgetter

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
    "response_metrics_rows",
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


_STATES = attrgetter(*(c.value for c in TechClass))  # OnlineMix fields, in TechClass order


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

    def states(self) -> tuple[TechState, ...]:
        """Every class's state, in TechClass order."""
        return _STATES(self)

    def capacities_mw(self) -> list[float]:
        """Every class's online capacity, in TechClass order."""
        return [s.online_mw for s in self.states()]

    @property
    def system_inertia_mws(self) -> float:
        return sum(2.0 * s.inertia_h_s * s.online_mw for s in self.states())


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

@dataclass(frozen=True)
class _Block:
    """The capacity-free part of the model of a stack of contexts, one per
    leading index: everything that depends only on droops, inertia constants
    and DynamicParams. _assemble adds the online capacities, one row each."""

    a: np.ndarray  # (c, 9, 9) rows 1-7 of M = [[A, b], [0, 0]]; the swing row is zero
    mech: np.ndarray  # (c, 4, 8) mechanical power rows per MW of class capacity, GOVERNOR_CLASSES order
    two_h: np.ndarray  # (c, 6) 2H per class, TechClass order
    damping: np.ndarray  # (c,)
    contingency_mw: np.ndarray
    nominal_freq_hz: np.ndarray
    contexts: Sequence[OnlineMix]  # for error messages


@dataclass(frozen=True)
class _Systems:
    """The state-space models of a stack of mixes, one per leading index."""

    aug: np.ndarray  # (n, 9, 9) M = [[A, b], [0, 0]]: [x; 1]' = M [x; 1]
    a: np.ndarray  # (n, 8, 8), a view of aug
    b: np.ndarray  # (n, 8), a view of aug; only the swing row is non-zero
    mech: np.ndarray  # (n, 4, 8) MW mechanical power rows, GOVERNOR_CLASSES order
    inertia_mws: np.ndarray  # (n,)
    contingency_mw: np.ndarray
    nominal_freq_hz: np.ndarray


def _block(contexts: Sequence[OnlineMix]) -> _Block:
    """The capacity-free block of every context of a stack.

    State order: delta, steam governor, steam chest, steam reheat, CC lag,
    hydro governor, hydro water column, GFM lag. Governor states are per-unit
    on their class capacity; the swing row scales them to MW.
    """
    c, k = len(contexts), len(TechClass)
    a = np.zeros((c, 9, 9))
    mech = np.zeros((c, len(GOVERNOR_CLASSES), 8))
    # 2H per class, then damping, contingency and f0
    consts = np.array([
        [2.0 * s.inertia_h_s for s in ctx.states()]
        + [ctx.load_damping_mw_per_pu, ctx.contingency_mw, ctx.nominal_freq_hz]
        for ctx in contexts
    ]).reshape(c, k + 3)
    for i, ctx in enumerate(contexts):
        steam, cc, hydro, gfm = ctx.states()[:len(GOVERNOR_CLASSES)]
        dyn = ctx.dynamics
        ai, mi = a[i], mech[i]

        # steam: gov lag -> chest -> reheat lead-lag (F_HP + (1-F_HP)/(1+T_RH s))
        rs = steam.droop if steam.droop > 0 else math.inf
        ai[1, 0] = -1.0 / (rs * dyn.steam_governor_s)
        ai[1, 1] = -1.0 / dyn.steam_governor_s
        ai[2, 1] = 1.0 / dyn.steam_chest_s
        ai[2, 2] = -1.0 / dyn.steam_chest_s
        ai[3, 2] = 1.0 / dyn.steam_reheat_s
        ai[3, 3] = -1.0 / dyn.steam_reheat_s
        mi[0, 2] = dyn.steam_hp_fraction
        mi[0, 3] = 1.0 - dyn.steam_hp_fraction

        # combined cycle: single lag
        rc = cc.droop if cc.droop > 0 else math.inf
        ai[4, 0] = -1.0 / (rc * dyn.cc_lag_s)
        ai[4, 4] = -1.0 / dyn.cc_lag_s
        mi[1, 4] = 1.0

        # hydro: transient-droop governor (lead-lag, DC gain 1/R, HF gain 1/R_T)
        # followed by the non-minimum-phase water column (1 - T_w s)/(1 + T_w s / 2)
        rh = hydro.droop if hydro.droop > 0 else math.inf
        tau_h = (dyn.hydro_transient_droop / hydro.droop) * dyn.hydro_reset_s \
            if hydro.droop > 0 else dyn.hydro_reset_s
        alpha = dyn.hydro_reset_s / tau_h  # lead/lag ratio = R_h / R_T
        ai[5, 0] = -1.0 / tau_h
        ai[5, 5] = -1.0 / tau_h
        # governor output g = (1/R_h) * (alpha * (-delta) + (1 - alpha) * x_gov)
        g_delta = -alpha / rh
        g_gov = (1.0 - alpha) / rh
        half_tw = 0.5 * dyn.hydro_water_s
        ai[6, 0] = g_delta / half_tw
        ai[6, 5] = g_gov / half_tw
        ai[6, 6] = -1.0 / half_tw
        # water column output y = -2 g + 3 x_w
        mi[2, 0] = -2.0 * g_delta
        mi[2, 5] = -2.0 * g_gov
        mi[2, 6] = 3.0

        # gfm vsm: droop through a fast lag
        rg = gfm.droop if gfm.droop > 0 else math.inf
        ai[7, 0] = -1.0 / (rg * dyn.gfm_lag_s)
        ai[7, 7] = -1.0 / dyn.gfm_lag_s
        mi[3, 7] = 1.0
    return _Block(
        a, mech, consts[:, :k], consts[:, k], consts[:, k + 1], consts[:, k + 2], contexts
    )


def _inertia(block: _Block, caps: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The inertia m (MWs) of capacity rows caps, (n, 6) MW in TechClass
    order, row i on the block's context owner[i]. Raises the first row's
    error, in row order: a negative or non-finite capacity (ValueError), or
    a disturbance on zero inertia (ZeroInertiaError).
    """
    bad = ~(caps >= 0) | ~np.isfinite(caps)  # negative, NaN or infinite
    # m = sum of 2H S over the classes, added in TechClass order (a bad
    # capacity counts as 0 here: it is reported below, and inf * 0 is NaN)
    m = np.zeros(len(caps))
    for inertia in (block.two_h[owner] * np.where(bad, 0.0, caps)).T:
        m = m + inertia
    zero_inertia = (block.contingency_mw[owner] > 0) & (m <= 0)
    if bad.any() or zero_inertia.any():
        i = int(np.argmax(bad.any(axis=1) | zero_inertia))
        if bad[i].any():
            cls = list(TechClass)[int(np.argmax(bad[i]))]
            raise ValueError(f"{cls.value}: online capacity must be finite and >= 0")
        raise ZeroInertiaError(
            "cannot disturb a zero-inertia system "
            f"(contingency {block.contexts[owner[i]].contingency_mw} MW, inertia 0)"
        )
    return m


def _assemble(block: _Block, caps: np.ndarray, owner: np.ndarray, m: np.ndarray) -> _Systems:
    """The models of capacity rows caps, (n, 6) MW in TechClass order, row i
    on the block's context owner[i], with their inertia m from _inertia.
    """
    contingency = block.contingency_mw[owner]
    a = block.a[owner]
    mech = block.mech[owner] * caps[:, :len(GOVERNOR_CLASSES), None]
    # swing equation: m delta' = sum(mech MW) - dPe - K^D delta
    swing = mech[:, 0] + mech[:, 1] + mech[:, 2] + mech[:, 3]
    swing[:, 0] += -block.damping[owner]
    # m == 0 only with zero contingency (checked by _inertia): the response is
    # identically zero and A's first row stays zero
    disturbed = m > 0
    m_safe = np.where(disturbed, m, 1.0)
    a[:, 0, :8] = np.where(disturbed[:, None], swing / m_safe[:, None], 0.0)
    a[:, 0, 8] = np.where(disturbed, -contingency / m_safe, 0.0)
    return _Systems(
        a, a[:, :8, :8], a[:, :8, 8], mech, m, contingency, block.nominal_freq_hz[owner]
    )


def assemble_state_space(mix: OnlineMix) -> LinearSystem:
    """The aggregate swing + governor model of one online mix (see _block)."""
    block, caps, owner = _block([mix]), np.array([mix.capacities_mw()]), np.zeros(1, dtype=int)
    sys = _assemble(block, caps, owner, _inertia(block, caps, owner))
    c = np.zeros(sys.a.shape[-1])
    c[0] = 1.0
    return LinearSystem(
        a=sys.a[0],
        b=sys.b[0],
        c_freq=c,
        mech_rows={cls: sys.mech[0, k] for k, cls in enumerate(GOVERNOR_CLASSES)},
        inertia_mws=float(sys.inertia_mws[0]),
        contingency_mw=float(sys.contingency_mw[0]),
        nominal_freq_hz=float(sys.nominal_freq_hz[0]),
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


# ---------------------------------------------------------------------------
# batched zero-order-hold kernel

#: mixes per stacked evaluation; it bounds the kernel's temporaries
CHUNK_MIXES = 32

#: Taylor degree of _expm1, and the 1-norm it scales every matrix below:
#: the truncation error theta**13 / 13! is then under the unit roundoff
_EXPM_DEGREE = 12
_EXPM_THETA = 0.3


def _expm1(x: np.ndarray) -> np.ndarray:
    """exp(x) - I of each matrix of a stack (n, k, k): scaling and squaring
    of the degree-12 Taylor polynomial in Horner form. Each matrix is scaled
    by its own 1-norm, so its result does not depend on the stack."""
    norm = np.abs(x).sum(axis=1).max(axis=1)
    s = np.maximum(np.frexp(norm / _EXPM_THETA)[1], 0)  # norm / 2**s < theta
    x = np.ldexp(x, -s[:, None, None])
    # exp(x) - I = x (c_0 I + x (c_1 I + ... + x c_11 I)) with c_j = 1 / (j + 1)!
    eye = np.eye(x.shape[-1])
    c = 1.0 / np.cumprod(np.arange(1.0, _EXPM_DEGREE + 1))
    ci = np.multiply.outer(c, eye)
    t = ci[-2] + c[-1] * x
    for j in range(_EXPM_DEGREE - 3, -1, -1):
        t = ci[j] + x @ t
    e = x @ t
    for j in range(int(s.max(initial=0))):  # squaring, as in _squares
        sq = e @ (e + 2.0 * eye)
        e = sq if j < s.min() else np.where((s > j)[:, None, None], sq, e)
    return e


def _squares(e: np.ndarray, count: int) -> list[np.ndarray]:
    """g - I for g = h, h^2, h^4, ... (count of them, at least one), from
    e = h - I: a propagator is close to I, and (I + e)(I + f) = I + (e + f
    + e f) loses no digit of e to the unit diagonal."""
    out, two = [e], 2.0 * np.eye(e.shape[-1])
    while len(out) < count:
        out.append(out[-1] @ (out[-1] + two))  # (I + g)^2 - I = g (g + 2 I)
    return out


def _power(squares: list[np.ndarray], n: int) -> np.ndarray:
    """h^n - I (n >= 1), the product of the squares of h that n's bits pick."""
    return reduce(lambda e, f: e + f + e @ f, [g for i, g in enumerate(squares) if n >> i & 1])


def _doubling(squares: list[np.ndarray], t: np.ndarray, count: int) -> np.ndarray:
    """The columns of t (n, k, c), then g t, g^2 t, ..., to count columns in
    all, built by doubling from the squares of g."""
    for g in squares:
        if t.shape[2] >= count:
            break
        t = np.concatenate([t, t + g @ t], axis=2)
    return t[:, :, :count]


def _sample_search(e: np.ndarray, nsteps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample-grid minimum of delta(k step) = e1 . p^k e9 over k <= nsteps,
    for the one-step propagators p = I + e of a chunk of rows.

    A coarse pass over every stride-th sample (stride ~ nsteps/600, plus the
    horizon sample), then a fine pass over every sample within two coarse
    samples of the coarse minimum. The response is smooth (a sum of a few
    modes), so the fine window brackets the minimum of the whole grid.
    Returns the minimum delta, its sample index and the horizon sample;
    raises SimulationDiverged if an evaluated sample is not finite.

    Coarse sample B q + r of K, B = isqrt(K - 1) + 1, is the first row of
    h^q times s^r e9, s = p^stride, h = s^B: two tables built by doubling,
    one matmul per row. Fine sample lo + stride a + c, lo = stride (B q + r),
    is that row times p^c, built by doubling, times s^(r + a) e9. B depends
    on the grid alone, so a row's samples do not depend on its chunk.
    """
    n, k = e.shape[:2]
    stride = max(1, nsteps // 600)
    width = 4 * stride + 1  # every fine window is padded to the widest one
    coarse_idx = np.arange(0, nsteps + 1, stride)
    count = len(coarse_idx)
    blk = math.isqrt(count - 1) + 1
    rows = -(-count // blk)
    p_sq = _squares(e, stride.bit_length())
    s_sq = _squares(_power(p_sq, stride), (blk + 4).bit_length())
    h_sq = _squares(_power(s_sq, blk), (rows - 1).bit_length())
    start = np.eye(k)[None, :, -1:].repeat(n, axis=0)  # x = 0 and the unit input
    right = _doubling(s_sq, start, blk + 4)  # 4 columns more for the fine pass
    left = _doubling([g.transpose(0, 2, 1) for g in h_sq], start[:, ::-1], rows).transpose(0, 2, 1)
    coarse = (left @ right[:, :, :blk]).reshape(n, -1)[:, :count]
    if coarse_idx[-1] != nsteps:  # the horizon sample closes the coarse grid
        coarse_idx = np.append(coarse_idx, nsteps)
        coarse = np.c_[coarse, _power(_squares(e, nsteps.bit_length()), nsteps)[:, 0, -1]]
    j = np.argmin(coarse, axis=1)
    lo = coarse_idx[np.maximum(j - 2, 0)]
    hi = coarse_idx[np.minimum(j + 2, len(coarse_idx) - 1)]

    q, r = np.divmod(lo // stride, blk)
    each = np.arange(n)
    cols = right[each[:, None], :, r[:, None] + np.arange(5)].transpose(0, 2, 1)
    advanced = _doubling([g.transpose(0, 2, 1) for g in p_sq], left[each, q][:, :, None], stride)
    fine = (advanced.transpose(0, 2, 1) @ cols).transpose(0, 2, 1).reshape(n, -1)[:, :width]
    inside = lo[:, None] + np.arange(width) <= hi[:, None]
    if not (np.isfinite(coarse).all() and np.isfinite(fine[inside]).all()):
        raise SimulationDiverged(f"non-finite response on the {nsteps}-sample grid")
    i = np.argmin(np.where(inside, fine, np.inf), axis=1)
    return fine[each, i], lo + i, coarse[:, -1]


def _qss_pu(a: np.ndarray, b: np.ndarray, horizon_pu: np.ndarray) -> np.ndarray:
    """Asymptotic delta of each system, the DC gain -c A^-1 b; a singular A
    (no asymptote) reports its horizon sample instead."""
    try:
        return np.linalg.solve(a, -b[..., None])[:, 0, 0]
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return horizon_pu
        return np.concatenate(
            [_qss_pu(a[i:i + 1], b[i:i + 1], horizon_pu[i:i + 1]) for i in range(len(a))]
        )


def _chunk_metrics(
    block: _Block, caps: np.ndarray, owner: np.ndarray, m: np.ndarray, horizon: float, step: float
) -> list[FrequencyMetrics]:
    """Metrics of a chunk of capacity rows (see _assemble) whose contexts
    share the sample grid (horizon, step)."""
    n = len(caps)
    systems = _assemble(block, caps, owner, m)
    # zero-order hold: exp(step M) advances [x; 1] one sample exactly, for
    # any A; an unstable system overflows, and _sample_search raises
    with np.errstate(over="ignore", invalid="ignore"):
        nadir_pu, nadir_k, horizon_pu = _sample_search(
            _expm1(step * systems.aug), int(round(horizon / step))
        )
    f0, m = systems.nominal_freq_hz, systems.inertia_mws
    # zero inertia is only valid with no disturbance (_inertia), so then delta == 0
    rocof = np.divide(systems.contingency_mw * f0, m, out=np.zeros(n), where=m > 0)
    # The quasi-steady-state is the asymptote of the linear system, available
    # exactly as its DC gain; the slow hydro governor (reset stretched by
    # R_T/R) settles long after the nadir window, so the final sample of a
    # nadir-length trace would overstate it.
    qss = f0 * np.abs(_qss_pu(systems.a, systems.b, horizon_pu))
    return [
        FrequencyMetrics(nadir_hz=nd, initial_rocof_hz_s=rc, qss_dev_hz=qs, time_of_nadir_s=ts)
        for nd, rc, qs, ts in zip(
            (f0 + f0 * nadir_pu).tolist(), rocof.tolist(), qss.tolist(),
            (nadir_k * step).tolist(),
        )
    ]


def response_metrics_rows(
    contexts: Sequence[OnlineMix], capacities: np.ndarray, owner: Sequence[int]
) -> list[FrequencyMetrics]:
    """Metrics of the post-contingency response of each row of capacities,
    (n, 6) MW in TechClass order, in order: row i runs on contexts[owner[i]]
    with the row's capacities in place of that context's online capacities,
    without building a mix per row.

    Nadir and its time come from the exact zero-order-hold propagation of
    the step response, sampled on the same grid as simulate_response; rows
    are grouped by their context's (horizon_s, step_s) and evaluated
    CHUNK_MIXES at a time. RoCoF is dPe f0 / m and the QSS deviation the
    exact asymptote (DC gain). The capacity-free part of the model is built
    once per context, and each row's metrics are the same whatever batch it
    is evaluated in. Every row is checked before any is evaluated, so a bad
    row raises the first row's error in row order (see _inertia), whatever
    the grouping.
    """
    caps = np.asarray(capacities, dtype=float).reshape(-1, len(TechClass))
    owner = np.asarray(owner, dtype=int)
    owners = owner.tolist()
    if owner.shape != (len(caps),) or not set(owners) <= set(range(len(contexts))):
        raise ValueError("owner must name one of the contexts for every capacity row")
    block = _block(contexts)
    m = _inertia(block, caps, owner)
    keys = [(ctx.dynamics.horizon_s, ctx.dynamics.step_s) for ctx in contexts]
    grids: dict[tuple[float, float], list[int]] = {}
    for i, k in enumerate(owners):
        grids.setdefault(keys[k], []).append(i)
    out: list[FrequencyMetrics] = [None] * len(caps)  # type: ignore[list-item]
    for (horizon, step), members in grids.items():
        for c in range(0, len(members), CHUNK_MIXES):
            chunk = members[c:c + CHUNK_MIXES]
            metrics = _chunk_metrics(block, caps[chunk], owner[chunk], m[chunk], horizon, step)
            for i, met in zip(chunk, metrics):
                out[i] = met
    return out


def response_metrics(mix: OnlineMix) -> FrequencyMetrics:
    """Metrics of the post-contingency response of one mix: a batch of one."""
    return response_metrics_rows([mix], [mix.capacities_mw()], [0])[0]


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
