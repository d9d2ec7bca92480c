"""Data-driven nadir-compliance boundaries.

Grid sweeps of the dynamic model classify online-capacity combinations as
pass/fail against the nadir requirement; bisection finds the minimum
stand-alone capacity per technology (edge points); the hyperplane through
the edge points becomes a linear cut, tightened until no failing lattice
point satisfies it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import OnlineMix, TechClass, response_metrics
from .scenario import FrequencyLimits

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "ComplianceGrid",
    "NadirCut",
    "BisectionResult",
    "BracketingError",
    "sweep_grid",
    "bisect_min_capacity",
    "find_edge_points",
    "require_edges",
    "fit_hyperplane",
    "make_conservative",
]

DEFAULT_GRANULARITY_MW = 50.0
BISECT_TOL_MW = 1.0  # edge-point resolution
EDGE_HI_MW = 20000.0  # default top of the edge-point search window


class BracketingError(ValueError):
    """Bisection window does not bracket the compliance boundary."""


@dataclass(frozen=True)
class SweepAxis:
    tech: TechClass
    min_mw: float
    max_mw: float
    granularity_mw: float = DEFAULT_GRANULARITY_MW

    def values(self) -> np.ndarray:
        if self.granularity_mw <= 0:
            raise ValueError("granularity must be > 0")
        if self.min_mw > self.max_mw:
            raise ValueError("axis min must not exceed max")
        n = int(np.floor((self.max_mw - self.min_mw) / self.granularity_mw + 1e-9)) + 1
        return self.min_mw + self.granularity_mw * np.arange(n)


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[SweepAxis, ...]
    context: OnlineMix  # non-swept capacities, damping, contingency
    limits: FrequencyLimits

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 3:
            raise ValueError("sweep supports 1 to 3 axes")
        techs = [a.tech for a in self.axes]
        if len(set(techs)) != len(techs):
            raise ValueError("duplicate sweep axis")


@dataclass
class ComplianceGrid:
    axes: tuple[SweepAxis, ...]
    axis_values: tuple[np.ndarray, ...]
    passed: np.ndarray  # boolean, one dim per axis
    nadir_hz: np.ndarray

    def points(self):
        """Iterate (capacity vector, passed, nadir) over the lattice."""
        for idx in np.ndindex(*self.passed.shape):
            caps = tuple(self.axis_values[k][i] for k, i in enumerate(idx))
            yield caps, bool(self.passed[idx]), float(self.nadir_hz[idx])

    def monotone_along_axes(self) -> bool:
        """More capacity on any axis must never flip pass -> fail."""
        p = self.passed.astype(np.int8)
        for k in range(p.ndim):
            if np.any(np.diff(p, axis=k) < 0):
                return False
        return True


@dataclass(frozen=True)
class NadirCut:
    """Linear compliance cut: sum_k coeff[k] * online_mw[k] - intercept >= 0."""

    coeffs: dict[TechClass, float]
    intercept: float
    context_id: str = ""

    def coeff(self, tech: TechClass) -> float:
        return self.coeffs.get(tech, 0.0)

    def satisfied(self, capacities_mw: dict[TechClass, float], tol: float = 0.0) -> bool:
        return self.lhs(capacities_mw) - self.intercept >= -tol

    def lhs(self, capacities_mw: dict[TechClass, float]) -> float:
        return sum(self.coeff(t) * mw for t, mw in capacities_mw.items())

    def key(self) -> tuple:
        return (
            tuple(sorted((t.value, round(c, 12)) for t, c in self.coeffs.items() if c != 0.0)),
            round(self.intercept, 12),
        )


@dataclass(frozen=True)
class BisectionResult:
    capacity_mw: float
    status: str  # "bracketed" | "already_feasible"


def _nadir_passes(mix: OnlineMix, limits: FrequencyLimits) -> tuple[bool, float]:
    met = response_metrics(mix)
    return met.nadir_hz >= limits.nadir_min_hz, met.nadir_hz


def sweep_grid(spec: SweepSpec) -> ComplianceGrid:
    """Evaluate nadir compliance at every lattice point of the spec."""
    axis_values = tuple(a.values() for a in spec.axes)
    shape = tuple(len(v) for v in axis_values)
    passed = np.zeros(shape, dtype=bool)
    nadir = np.zeros(shape)
    for idx in itertools.product(*(range(n) for n in shape)):
        caps = {
            spec.axes[k].tech: float(axis_values[k][i]) for k, i in enumerate(idx)
        }
        mix = spec.context.with_capacities(caps)
        ok, nd = _nadir_passes(mix, spec.limits)
        passed[idx] = ok
        nadir[idx] = nd
    return ComplianceGrid(
        axes=spec.axes, axis_values=axis_values, passed=passed, nadir_hz=nadir
    )


def bisect_min_capacity(
    tech: TechClass,
    context: OnlineMix,
    limits: FrequencyLimits,
    lo_mw: float = 0.0,
    hi_mw: float = EDGE_HI_MW,
    tol_mw: float = BISECT_TOL_MW,
) -> BisectionResult:
    """Smallest online capacity of `tech` (others as in context) passing the
    nadir requirement, to within tol_mw. Relies on pass-region monotonicity.
    """
    if tol_mw <= 0:
        raise ValueError("tol_mw must be > 0")
    lo_ok, _ = _nadir_passes(context.with_capacity(tech, lo_mw), limits)
    hi_ok, _ = _nadir_passes(context.with_capacity(tech, hi_mw), limits)
    if lo_ok and hi_ok:
        return BisectionResult(lo_mw, "already_feasible")
    if not hi_ok:
        raise BracketingError(
            f"{tech.value}: nadir requirement infeasible on window [{lo_mw}, {hi_mw}] MW"
        )
    while hi_mw - lo_mw > tol_mw:
        mid = 0.5 * (lo_mw + hi_mw)
        ok, _ = _nadir_passes(context.with_capacity(tech, mid), limits)
        if ok:
            hi_mw = mid
        else:
            lo_mw = mid
    return BisectionResult(hi_mw, "bracketed")


def find_edge_points(
    axes: tuple[TechClass, ...] | list[TechClass],
    context: OnlineMix,
    limits: FrequencyLimits,
    hi_mw: float = EDGE_HI_MW,
    tol_mw: float = BISECT_TOL_MW,
) -> dict[TechClass, float]:
    """One edge point per axis: the bisected minimum capacity of that
    technology with every swept technology at zero. An axis that cannot
    comply alone within [0, hi_mw] is left out; one that already complies
    at zero gets edge 0.0.
    """
    base = context.with_capacities({t: 0.0 for t in axes})
    edges: dict[TechClass, float] = {}
    for tech in axes:
        try:
            edges[tech] = bisect_min_capacity(tech, base, limits, 0.0, hi_mw, tol_mw).capacity_mw
        except BracketingError:
            continue
    return edges


def require_edges(
    edges: dict[TechClass, float], axes: tuple[TechClass, ...] | list[TechClass], hi_mw: float
) -> dict[TechClass, float]:
    """The edges, if every axis has one; else BracketingError naming the first without."""
    for tech in axes:
        if tech not in edges:
            raise BracketingError(
                f"{tech.value}: nadir requirement infeasible on window [0, {hi_mw}] MW"
            )
    return edges


def fit_hyperplane(edge_points: dict[TechClass, float], context_id: str = "") -> NadirCut:
    """Hyperplane through the axis edge points in intercept form:
    sum_k x_k / e_k >= 1, i.e. coeffs 1/e_k and intercept 1.
    """
    if not edge_points:
        raise ValueError("no edge points")
    for tech, e in edge_points.items():
        if not np.isfinite(e) or e <= 0:
            raise ValueError(f"degenerate edge point for {tech.value}: {e}")
    coeffs = {tech: 1.0 / e for tech, e in edge_points.items()}
    return NadirCut(coeffs=coeffs, intercept=1.0, context_id=context_id)


def make_conservative(cut: NadirCut, grid: ComplianceGrid) -> NadirCut:
    """Tighten the intercept until no failing lattice point satisfies the cut."""
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
