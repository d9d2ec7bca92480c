"""Planning studies: technology equivalence ratios, inverter time-constant
sensitivity, and net-present-value screening of grid-support investments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .boundary import BISECT_TOL_MW, find_edge_points_many, require_edges
from .boundary import bisect_min_capacity  # noqa: F401  bench/spans.py wraps it here by name
from .dynamics import OnlineMix, TechClass
from .scenario import SystemScenario
from .ucmodel import fleet_mix

__all__ = [
    "NpvResult",
    "EquivalenceResult",
    "npv_analysis",
    "equivalence_study",
    "gfm_sensitivity",
    "study_context",
]

#: upper end of the bisection window for the study edge points
STUDY_HI_MW = 50000.0


@dataclass(frozen=True)
class NpvResult:
    annual_savings: float
    capex: float
    discount_rate: float
    years: int
    annuity_factor: float
    npv: float

    @property
    def pays_back(self) -> bool:
        return self.npv >= 0.0


def npv_analysis(
    annual_savings: float,
    capex: float,
    rate: float = 0.06,
    years: int = 20,
) -> NpvResult:
    """NPV of a constant annual saving against an upfront cost."""
    if not rate > 0:
        raise ValueError("rate must be > 0")
    if years < 1:
        raise ValueError("years must be >= 1")
    annuity = sum((1.0 + rate) ** (-t) for t in range(1, years + 1))
    return NpvResult(
        annual_savings=annual_savings,
        capex=capex,
        discount_rate=rate,
        years=years,
        annuity_factor=annuity,
        npv=annual_savings * annuity - capex,
    )


@dataclass(frozen=True)
class EquivalenceResult:
    tech_a: TechClass
    tech_b: TechClass
    edge_a_mw: float
    edge_b_mw: float
    ratio_b_per_a: float  # MW of b equivalent to 1 MW of a


def study_context(s: SystemScenario) -> OnlineMix:
    """Sweep context for planning studies: fleet_mix at the hour of demand
    closest to the average (committed classes at zero, constant classes at
    rating, a class the scenario lacks at zero with its default constants,
    so any technology can be swept).
    """
    avg = sum(s.demand) / len(s.demand)
    hour = min(range(1, s.periods + 1), key=lambda t: abs(s.demand[t - 1] - avg))
    return fleet_mix(s, hour)


def equivalence_study(
    s: SystemScenario,
    tech_a: TechClass,
    tech_b: TechClass,
    context: OnlineMix | None = None,
) -> EquivalenceResult:
    """Per-MW nadir-effect ratio: how many MW of tech_b match 1 MW of tech_a,
    measured as the ratio of bisected minimum stand-alone capacities in a
    fixed context.
    """
    ctx = context if context is not None else study_context(s)
    return _equivalences(s, (tech_a, tech_b), [ctx], BISECT_TOL_MW)[0]


def _equivalences(
    s: SystemScenario, axes: tuple[TechClass, TechClass], contexts: list[OnlineMix], tol_mw: float
) -> list[EquivalenceResult]:
    """equivalence_study in each context, from one edge search over all of
    them; the first context without both edges raises."""
    out = []
    for edges in find_edge_points_many(axes, contexts, s.limits, STUDY_HI_MW, tol_mw):
        edge_a, edge_b = map(require_edges(edges, axes, STUDY_HI_MW).get, axes)
        if edge_a <= 0:
            raise ValueError(f"{axes[0].value}: degenerate zero edge point")
        out.append(EquivalenceResult(*axes, edge_a, edge_b, ratio_b_per_a=edge_b / edge_a))
    return out


def gfm_sensitivity(
    s: SystemScenario,
    time_constants_s: tuple[float, ...] = (0.02, 0.1, 1.0),
    context: OnlineMix | None = None,
    tol_mw: float = BISECT_TOL_MW,
) -> list[tuple[float, EquivalenceResult]]:
    """GFM-vs-SC equivalence re-evaluated for each inverter response lag,
    every lag in one edge search."""
    if not all(tc > 0 for tc in time_constants_s):
        raise ValueError("time constants must be positive")
    base = context if context is not None else study_context(s)
    contexts = [replace(base, dynamics=replace(base.dynamics, gfm_lag_s=tc))
                for tc in time_constants_s]
    axes = (TechClass.GFM, TechClass.CONDENSER)
    return list(zip(time_constants_s, _equivalences(s, axes, contexts, tol_mw)))
