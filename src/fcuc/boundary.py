"""Data-driven nadir-compliance boundaries.

Grid sweeps of the dynamic model classify online-capacity combinations as
pass/fail against the nadir requirement; bisection finds the minimum
stand-alone capacity per technology (edge points), every (context, axis)
pair in lockstep, by interpolating on the bisection's own tree of points;
the hyperplane through the edge points becomes a linear cut, tightened
until no failing grid point satisfies it. Grids of several contexts, or one
round of the edge search over several contexts, are one batch of capacity
rows, each row on its own context.
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
    "sweep_grids",
    "bisect_min_capacity",
    "find_edge_points",
    "find_edge_points_many",
    "require_edges",
    "fit_hyperplane",
    "make_conservative",
]

DEFAULT_GRANULARITY_MW = 50.0
BISECT_TOL_MW = 1.0  # edge-point resolution
EDGE_HI_MW = 20000.0  # default top of the edge-point search window
_PROBE_CELLS = (1, 2, 8, 32, 128)  # leaves either side of an edge estimate, probed per round


class BracketingError(ValueError):
    """Bisection window does not bracket the compliance boundary."""


@dataclass(frozen=True)
class SweepAxis:
    tech: TechClass
    min_mw: float
    max_mw: float
    granularity_mw: float = DEFAULT_GRANULARITY_MW

    def __post_init__(self):
        for name in ("min_mw", "max_mw", "granularity_mw"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{self.tech.value} axis: {name} must be finite, got {value}")

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
    axis_values: tuple[np.ndarray, ...]  # the axis's lattice, or any points in its window
    passed: np.ndarray  # boolean, one dim per axis
    nadir_hz: np.ndarray

    def points(self):
        """Iterate (capacity vector, passed, nadir) over the lattice."""
        for idx in np.ndindex(*self.passed.shape):
            caps = tuple(self.axis_values[k][i] for k, i in enumerate(idx))
            yield caps, bool(self.passed[idx]), float(self.nadir_hz[idx])


@dataclass(frozen=True)
class NadirCut:
    """Linear compliance cut: sum_k coeff[k] * online_mw[k] - intercept >= 0."""

    coeffs: dict[TechClass, float]
    intercept: float
    context_id: str = ""

    def coeff(self, tech: TechClass) -> float:
        return self.coeffs.get(tech, 0.0)

    def satisfied(self, capacities_mw: dict[TechClass, float]) -> bool:
        return self.lhs(capacities_mw) - self.intercept >= 0.0

    def lhs(self, capacities_mw: dict[TechClass, float]) -> float:
        return sum(self.coeff(t) * mw for t, mw in capacities_mw.items())

    def key(self) -> tuple:
        return (
            tuple(sorted((t.value, round(c, 12)) for t, c in self.coeffs.items() if c != 0.0)),
            round(self.intercept, 12),
        )

    def to_dict(self) -> dict:
        """The cut's JSON form; a report or cut file puts its hour first."""
        return {
            "coeffs": {t.value: c for t, c in self.coeffs.items()},
            "intercept": self.intercept,
            "context_id": self.context_id,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> NadirCut:
        """The cut of a to_dict document (any other key, such as its hour, is ignored)."""
        return cls(
            coeffs={TechClass(k): v for k, v in doc["coeffs"].items()},
            intercept=doc["intercept"],
            context_id=doc.get("context_id", ""),
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
    return sweep_grids([(spec.context, spec.axes, axis_values)], spec.limits)[0]


def sweep_grids(
    grids: list[tuple[OnlineMix, tuple[SweepAxis, ...], tuple[np.ndarray, ...]]],
    limits: FrequencyLimits,
) -> list[ComplianceGrid]:
    """Evaluate nadir compliance of each (context, axes, axis values) at
    every point of the product of its axis values, all in one batch of
    capacity rows, each row on its own grid's context."""
    if not grids:
        return []
    rows = []
    for context, axes, axis_values in grids:
        points = np.meshgrid(*axis_values, indexing="ij")
        rows.append(_context_rows(context, points[0].size))
        for axis, grid in zip(axes, points):
            rows[-1][:, _column(axis.tech)] = grid.ravel()
    sizes = [len(r) for r in rows]
    metrics = response_metrics_rows(
        [c for c, _, _ in grids], np.concatenate(rows), np.repeat(np.arange(len(grids)), sizes)
    )
    nadirs = np.array([met.nadir_hz for met in metrics])
    out = []
    for (_, axes, axis_values), part in zip(grids, np.split(nadirs, np.cumsum(sizes)[:-1])):
        nadir = part.reshape([len(v) for v in axis_values])
        out.append(ComplianceGrid(axes, axis_values, nadir >= limits.nadir_min_hz, nadir))
    return out


def find_edge_points(
    axes: tuple[TechClass, ...] | list[TechClass],
    context: OnlineMix,
    limits: FrequencyLimits,
    hi_mw: float = EDGE_HI_MW,
    tol_mw: float = BISECT_TOL_MW,
) -> dict[TechClass, float]:
    """One edge point per axis: the bisected minimum capacity of that
    technology with every swept technology at zero, to within tol_mw (the
    one-context call of find_edge_points_many).
    """
    return find_edge_points_many(axes, [context], limits, hi_mw, tol_mw)[0]


def find_edge_points_many(
    axes: tuple[TechClass, ...] | list[TechClass],
    contexts: list[OnlineMix],
    limits: FrequencyLimits,
    hi_mw: float,
    tol_mw: float,
) -> list[dict[TechClass, float]]:
    """The edge points of each context, in order: per axis, the bisected
    minimum capacity of that technology with every swept technology at zero,
    to within tol_mw.

    Every (context, axis) pair is searched on [0, hi_mw] in lockstep, on the
    points that bisection can visit: one batch of capacity rows for each
    context's zeroed base and each axis at hi_mw, then one batch per round,
    each row on its own context. A round keeps, per pair, a failing and a
    passing point; it evaluates the points _PROBE_CELLS leaves either side
    of a regula falsi estimate on 1 / (f0 - nadir), and an end inside the
    bracket of the leaf at its midpoint, then narrows the bracket to the
    results, until it is one leaf. That leaf's hi is the edge: under
    pass-region monotonicity, bit for bit the serial bisection's. An axis
    that cannot comply alone within [0, hi_mw] is left out; one that already
    complies at zero gets edge 0.0.
    """
    if not tol_mw > 0:
        raise ValueError("tol_mw must be > 0")
    if not axes or not contexts:
        return [{} for _ in contexts]
    bases = [c.with_capacities({t: 0.0 for t in axes}) for c in contexts]
    base_rows = np.array([b.capacities_mw() for b in bases], dtype=float)
    floor = limits.nadir_min_hz

    def nadirs(points: list[tuple[int, TechClass, float]]) -> list[float]:
        """Nadir of each (context, tech, mw): the context's base with tech at mw."""
        owner = [k for k, _, _ in points]
        rows = base_rows[owner]
        rows[np.arange(len(points)), [_column(t) for _, t, _ in points]] = [
            mw for _, _, mw in points]
        return [met.nadir_hz for met in response_metrics_rows(bases, rows, owner)]

    # each zeroed base is one row: the first axis at 0 MW
    first = nadirs([p for k in range(len(bases))
                    for p in [(k, axes[0], 0.0)] + [(k, t, hi_mw) for t in axes]])
    base_nadir = first[::len(axes) + 1]
    hi_nadir = {(k, t): first[k * (len(axes) + 1) + 1 + j]
                for k in range(len(bases)) for j, t in enumerate(axes)}
    edges = [{t: 0.0 for t in axes if hi_nadir[k, t] >= floor and base_nadir[k] >= floor}
             for k in range(len(bases))]
    # The bisection's tree, sized only now that the kernel has refused a
    # non-finite hi_mw; it depends on hi_mw and tol_mw alone, so every pair
    # shares it. A point is named by its position, an integer in [0, top].
    # The root's ends are 0 and top, the node between positions l and r
    # splits at (l + r) // 2, and at[p] is the very float the bisection
    # computes at p: 0.5 * (lo + hi), replayed down from the root. A node is
    # a leaf when the bisection's own `hi - lo > tol_mw` fails on it. The
    # leftmost path halves exactly, and rounding moves any other width by
    # less than an ulp of hi_mw, so no node two levels below the leftmost
    # leaf is open.
    top, width = 4, hi_mw
    while width > tol_mw:
        top, width = 2 * top, 0.5 * width
    at = {0: 0.0, top: hi_mw}

    def leaf(mw: float) -> tuple[int, int]:
        """The ends of the leaf that holds mw (the leaf right of it at a point)."""
        l, r = 0, top
        while at[r] - at[l] > tol_mw:
            m = (l + r) >> 1
            if m not in at:
                at[m] = 0.5 * (at[l] + at[r])
            l, r = (m, r) if mw >= at[m] else (l, m)
        return l, r

    # per open (context, axis): a failing and a passing point, each with its nadir
    brackets = {(k, t): (0, base_nadir[k], top, hi_nadir[k, t])
                for k in range(len(bases)) for t in axes
                if hi_nadir[k, t] >= floor and base_nadir[k] < floor}
    while brackets:
        batch = []
        for (k, t), (a, nadir_a, b, nadir_b) in list(brackets.items()):
            lo, hi = at[a], at[b]
            if leaf(lo)[1] == b:
                edges[k][t] = hi
                del brackets[k, t]
                continue
            # regula falsi on 1 / (f0 - nadir), which is near linear in capacity
            f0 = bases[k].nominal_freq_hz
            dev_a, dev_b, dev = f0 - nadir_a, f0 - nadir_b, f0 - floor
            est = lo + (hi - lo) * dev_b * (dev_a - dev) / (dev * (dev_a - dev_b))
            l, r = leaf(est)
            step = at[r] - at[l]
            mid_l, mid_r = leaf(0.5 * (lo + hi))
            probes = {mid_l if mid_l > a else mid_r}
            probes |= {leaf(est + side * (n - 1) * step)[side > 0]
                       for n in _PROBE_CELLS for side in (-1, 1)}
            batch += [(k, t, p) for p in sorted(probes) if a < p < b]
        if not batch:
            break
        # in rising capacity per pair, so the lowest pass ends the bracket
        # and the highest fail below it starts it
        for (k, t, p), nadir in zip(batch, nadirs([(k, t, at[p]) for k, t, p in batch])):
            a, nadir_a, b, nadir_b = brackets[k, t]
            if a < p < b:
                brackets[k, t] = ((a, nadir_a, p, nadir) if nadir >= floor
                                  else (p, nadir, b, nadir_b))
    return [{t: e[t] for t in axes if t in e} for e in edges]


def bisect_min_capacity(
    tech: TechClass,
    context: OnlineMix,
    limits: FrequencyLimits,
    hi_mw: float = EDGE_HI_MW,
    tol_mw: float = BISECT_TOL_MW,
) -> float:
    """Smallest online capacity in MW of `tech` (others as in context)
    passing the nadir requirement, to within tol_mw; 0.0 when it already
    passes there, else BracketingError when it fails at hi_mw.
    """
    edges = find_edge_points([tech], context, limits, hi_mw, tol_mw)
    return require_edges(edges, [tech], hi_mw)[tech]


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
    """Tighten the intercept until no failing grid point satisfies the cut."""
    # the cut's lhs at every grid point, summed over the axes left to right
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
