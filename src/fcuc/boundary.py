"""Data-driven nadir-compliance boundaries.

Grid sweeps of the dynamic model classify online-capacity combinations as
pass/fail against the nadir requirement; bisection finds the minimum
stand-alone capacity per technology (edge points), every axis in
lockstep; the hyperplane through the edge points becomes a linear cut,
tightened until no failing lattice point satisfies it. A lattice, or three
halvings of the bisection, is one batch of capacity rows over one context.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import OnlineMix, TechClass, response_metrics_rows
from .dynamics import response_metrics  # noqa: F401  bench/spans.py wraps it here by name
from .scenario import FrequencyLimits

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "ComplianceGrid",
    "NadirCut",
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
_SPECULATION_DEPTH = 3  # bisection halvings evaluated per batch, speculatively


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


def _column(tech: TechClass) -> int:
    """The column of tech in a row of capacities (TechClass order)."""
    return list(TechClass).index(tech)


def _context_rows(context: OnlineMix, n: int) -> np.ndarray:
    """n rows of the context's own capacities, to be edited per point."""
    return np.tile(np.array(context.capacities_mw(), dtype=float), (n, 1))


def sweep_grid(spec: SweepSpec) -> ComplianceGrid:
    """Evaluate nadir compliance at every lattice point of the spec, as one
    batch of capacity rows over the spec's context."""
    axis_values = tuple(a.values() for a in spec.axes)
    shape = tuple(len(v) for v in axis_values)
    rows = _context_rows(spec.context, int(np.prod(shape)))
    for axis, grid in zip(spec.axes, np.meshgrid(*axis_values, indexing="ij")):
        rows[:, _column(axis.tech)] = grid.ravel()
    nadir = np.array([met.nadir_hz for met in response_metrics_rows(spec.context, rows)])
    nadir = nadir.reshape(shape)
    return ComplianceGrid(
        axes=spec.axes,
        axis_values=axis_values,
        passed=nadir >= spec.limits.nadir_min_hz,
        nadir_hz=nadir,
    )


def _bisect_axes(
    techs: tuple[TechClass, ...] | list[TechClass],
    context: OnlineMix,
    limits: FrequencyLimits,
    lo_mw: float,
    hi_mw: float,
    tol_mw: float,
) -> dict[TechClass, float | None]:
    """Bisect every axis on [lo_mw, hi_mw] in lockstep, the other
    capacities as in context: one batch of capacity rows for the window
    ends, then one batch per _SPECULATION_DEPTH halvings, holding every
    midpoint they could visit. Each axis maps to its edge in MW, lo_mw when
    it already complies there, or None when its window does not bracket the
    nadir boundary. Relies on pass-region monotonicity.
    """
    if tol_mw <= 0:
        raise ValueError("tol_mw must be > 0")
    if not techs:
        return {}

    def passes(axes: list[TechClass], mws: list[float]) -> np.ndarray:
        """Compliance of the context with each axis in turn at its mw."""
        rows = _context_rows(context, len(axes))
        rows[np.arange(len(axes)), [_column(t) for t in axes]] = mws
        return np.array(
            [met.nadir_hz for met in response_metrics_rows(context, rows)]
        ) >= limits.nadir_min_hz

    # the lower ends are one row when the context already holds every axis at lo_mw
    shared_lo = all(context.tech(t).online_mw == lo_mw for t in techs)
    lows = list(techs[:1] if shared_lo else techs)
    ends = passes([*lows, *techs], [lo_mw] * len(lows) + [hi_mw] * len(techs))
    lo_ok, hi_ok = ends[:len(lows)], ends[len(lows):]
    if shared_lo:
        lo_ok = lo_ok.repeat(len(techs))
    found = {t: lo_mw if hi else None for t, lo, hi in zip(techs, lo_ok, hi_ok) if lo or not hi}
    windows = {t: (lo_mw, hi_mw) for t, lo, hi in zip(techs, lo_ok, hi_ok) if hi and not lo}
    while any(hi - lo > tol_mw for lo, hi in windows.values()):
        # the windows of the next halvings, a tree pruned where one is within tol_mw
        nodes, level = [], list(windows.items())
        for _ in range(_SPECULATION_DEPTH):
            nodes += (level := [(t, (lo, hi)) for t, (lo, hi) in level if hi - lo > tol_mw])
            level = [(t, w) for t, (lo, hi) in level
                     for w in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))]
        mids = [0.5 * (lo + hi) for _, (lo, hi) in nodes]
        # level by level, the one node per level that is an axis's window halves it
        for (tech, (lo, hi)), ok in zip(nodes, passes([t for t, _ in nodes], mids)):
            if windows[tech] == (lo, hi):
                windows[tech] = (lo, 0.5 * (lo + hi)) if ok else (0.5 * (lo + hi), hi)
    return {t: windows[t][1] if t in windows else found[t] for t in techs}


def bisect_min_capacity(
    tech: TechClass,
    context: OnlineMix,
    limits: FrequencyLimits,
    lo_mw: float = 0.0,
    hi_mw: float = EDGE_HI_MW,
    tol_mw: float = BISECT_TOL_MW,
) -> float:
    """Smallest online capacity in MW of `tech` (others as in context)
    passing the nadir requirement, to within tol_mw; lo_mw when it already
    passes there. Relies on pass-region monotonicity.
    """
    result = _bisect_axes([tech], context, limits, lo_mw, hi_mw, tol_mw)[tech]
    if result is None:
        raise BracketingError(
            f"{tech.value}: nadir requirement infeasible on window [{lo_mw}, {hi_mw}] MW"
        )
    return result


def find_edge_points(
    axes: tuple[TechClass, ...] | list[TechClass],
    context: OnlineMix,
    limits: FrequencyLimits,
    hi_mw: float = EDGE_HI_MW,
    tol_mw: float = BISECT_TOL_MW,
) -> dict[TechClass, float]:
    """One edge point per axis: the bisected minimum capacity of that
    technology with every swept technology at zero, all axes bisected in
    lockstep. An axis that cannot comply alone within [0, hi_mw] is left
    out; one that already complies at zero gets edge 0.0.
    """
    base = context.with_capacities({t: 0.0 for t in axes})
    found = _bisect_axes(axes, base, limits, 0.0, hi_mw, tol_mw)
    return {t: mw for t, mw in found.items() if mw is not None}


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
    # the cut's lhs at every lattice point, summed over the axes left to right
    lhs = np.zeros(grid.passed.shape)
    for axis, values in zip(grid.axes, np.meshgrid(*grid.axis_values, indexing="ij")):
        lhs = lhs + cut.coeff(axis.tech) * values
    admitted = lhs[~grid.passed & (lhs - cut.intercept >= 0)]
    if admitted.size == 0:
        return cut
    worst = admitted.max()
    # nudge past the worst failing point so the (closed) cut excludes it
    intercept = worst * (1.0 + 1e-9) + 1e-15
    return NadirCut(coeffs=dict(cut.coeffs), intercept=intercept, context_id=cut.context_id)
