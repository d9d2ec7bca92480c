"""Test oracles: slow or closed-form reference answers that the program's
fast paths are checked against. Nothing in `fcuc` imports this module.

- `make_mix` builds an `OnlineMix` from class capacities with the class
  default droop and inertia constants.
- `validate_mix` checks one mix the way the kernel checks each capacity row,
  one class at a time.
- `make_conservative_by_points` repairs a cut one lattice point at a time.
- `analytic_qss` is the final-value-theorem QSS deviation of a mix.
- `brute_force_milp` enumerates every binary assignment of a small MILP and
  solves each continuous LP with HiGHS (`scipy.optimize.linprog`).
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
from scipy.optimize import linprog

from fcuc.boundary import ComplianceGrid, NadirCut
from fcuc.dynamics import (
    DEFAULT_DROOP,
    DEFAULT_INERTIA_H,
    GOVERNOR_CLASSES,
    OnlineMix,
    TechClass,
    TechState,
    ZeroInertiaError,
)
from fcuc.milp import MilpProblem
from fcuc.scenario import DynamicParams
from fcuc.solver import MilpResult


def make_mix(
    *,
    capacities_mw: dict[TechClass, float] | None = None,
    load_damping_mw_per_pu: float,
    contingency_mw: float,
    nominal_freq_hz: float = 50.0,
    dynamics: DynamicParams | None = None,
) -> OnlineMix:
    """Build a mix from class capacities with default droop/inertia constants."""
    caps = capacities_mw or {}
    states = {
        cls.value: TechState(
            online_mw=caps.get(cls, 0.0),
            droop=DEFAULT_DROOP.get(cls, 0.0),
            inertia_h_s=DEFAULT_INERTIA_H[cls],
        )
        for cls in TechClass
    }
    return OnlineMix(
        load_damping_mw_per_pu=load_damping_mw_per_pu,
        contingency_mw=contingency_mw,
        nominal_freq_hz=nominal_freq_hz,
        dynamics=dynamics or DynamicParams(),
        **states,  # type: ignore[arg-type]
    )


def validate_mix(mix: OnlineMix) -> None:
    """ValueError for a negative or non-finite class capacity (the first in
    TechClass order), else ZeroInertiaError for a disturbance on zero
    inertia."""
    for cls, state in zip(TechClass, mix.states()):
        if not 0 <= state.online_mw < math.inf:
            raise ValueError(f"{cls.value}: online capacity must be >= 0")
    if mix.contingency_mw > 0 and mix.system_inertia_mws <= 0:
        raise ZeroInertiaError(
            "cannot disturb a zero-inertia system "
            f"(contingency {mix.contingency_mw} MW, inertia 0)"
        )


def make_conservative_by_points(cut: NadirCut, grid: ComplianceGrid) -> NadirCut:
    """Tighten the intercept until no failing lattice point satisfies the
    cut, visiting the points one at a time."""
    worst = None
    for caps, ok, _ in grid.points():
        if ok:
            continue
        lhs = sum(
            cut.coeff(grid.axes[k].tech) * caps[k] for k in range(len(grid.axes))
        )
        if lhs - cut.intercept >= 0 and (worst is None or lhs > worst):
            worst = lhs
    if worst is None:
        return cut
    # nudge past the worst failing point so the (closed) cut excludes it
    intercept = worst * (1.0 + 1e-9) + 1e-15
    return NadirCut(coeffs=dict(cut.coeffs), intercept=intercept, context_id=cut.context_id)


def analytic_qss(mix: OnlineMix) -> float:
    """Final-value-theorem QSS deviation in Hz: f0 dPe / (K^D + sum S/R)."""
    if mix.contingency_mw == 0:
        return 0.0
    gain = mix.load_damping_mw_per_pu + sum(
        mix.tech(cls).online_mw / mix.tech(cls).droop
        for cls in GOVERNOR_CLASSES
        if mix.tech(cls).online_mw > 0 and mix.tech(cls).droop > 0
    )
    if gain <= 0:
        raise ZeroDivisionError(
            "no steady-state frequency response: K^D and all governor gains are zero"
        )
    return mix.nominal_freq_hz * mix.contingency_mw / gain


def brute_force_milp(p: MilpProblem, max_binaries: int = 20) -> MilpResult:
    """Enumerate every binary assignment, solve each continuous LP, keep the best.

    Refuses problems with more than `max_binaries` binaries.
    """
    t0 = time.perf_counter()
    binaries = p.binary_columns()
    if len(binaries) > max_binaries:
        raise ValueError(f"{len(binaries)} binaries exceeds oracle limit {max_binaries}")
    c = p.objective()
    a_ub, b_ub, a_eq, b_eq = p.split_rows()
    lb, ub = p.bounds()
    best = None
    count = 0
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        lo, hi = lb.copy(), ub.copy()
        lo[binaries] = hi[binaries] = bits
        res = linprog(
            c,
            A_ub=a_ub if a_ub.shape[0] else None,
            b_ub=b_ub if len(b_ub) else None,
            A_eq=a_eq if a_eq.shape[0] else None,
            b_eq=b_eq if len(b_eq) else None,
            bounds=np.column_stack([lo, hi]),
            method="highs",
        )
        count += 1
        if res.status == 0 and (best is None or res.fun < best.fun):
            best = res
    wall = time.perf_counter() - t0
    if best is None:
        return MilpResult(status="infeasible", nodes=count, wall_time_s=wall)
    return MilpResult(
        status="optimal",
        objective=float(best.fun),
        x=np.asarray(best.x),
        best_bound=float(best.fun),
        gap=0.0,
        nodes=count,
        wall_time_s=wall,
    )
