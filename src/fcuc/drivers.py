"""End-to-end operating models.

One loop serves both: solve the commitment MILP, simulate every hour, and
refine the build options until every hour complies. run_proposed refines by
adding simulation-verified nadir cuts learned per failing hour, every hour of
a refine step in one edge search and one batch of repair points, each cut
repaired against the commitments the MILP can make; run_industry escalates a
uniform reserve requirement. Both return a RunReport of the last MILP
solved, auditable against an independent re-simulation.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .boundary import (
    BISECT_TOL_MW,
    EDGE_HI_MW,
    NadirCut,
    SweepAxis,
    bisect_min_capacity,  # noqa: F401  bench/spans.py wraps it here by name
    find_edge_points_many,
    fit_hyperplane,
    make_conservative,
    sweep_grid,  # noqa: F401  bench/spans.py wraps it here by name
    sweep_grids,
)
from .dynamics import FrequencyMetrics, TechClass, check_compliance, response_metrics_rows
from .dynamics import response_metrics  # noqa: F401  bench/spans.py wraps it here by name
from .scenario import SystemScenario, Violation
from .solver import solve_milp
from .ucmodel import (
    COMMITTED_CLASSES,
    BuildOptions,
    UcSolution,
    build_fcuc,
    check_feasibility,
    decode_solution,
    fleet_capacity_mw,
    fleet_mix,
    online_mix,
    units_of,
)

__all__ = [
    "RunReport",
    "ComparisonResult",
    "run_proposed",
    "run_industry",
    "compare_runs",
    "report_to_dict",
    "report_from_dict",
    "save_report",
    "load_report",
]

DEFAULT_ESCALATION = 1.05
DEFAULT_MAX_ITER = 10
MILP_GAP_TOL = 1e-4
#: steps of the repair lattice per axis, 0 to the window top: 7 points per
#: axis, so a cut of k axes is repaired on at most 7**k points
_LATTICE_STEPS = 6


@dataclass
class RunReport:
    model: str  # "proposed" | "industry"
    scenario_name: str
    status: str  # "converged" | "non_convergence" | "infeasible" | "limit"
    iterations: int
    objective: float
    cost_breakdown: dict[str, float]
    hourly_metrics: dict[int, FrequencyMetrics]
    hourly_committed_mw: dict[str, dict[int, float]]  # tech class -> hour -> MW
    cuts: list[tuple[int, NadirCut]] = field(default_factory=list)
    final_reserve_mw: float | None = None
    reserve_trajectory_mw: list[float] = field(default_factory=list)
    wall_time_s: float = 0.0
    solution: UcSolution | None = None

    @property
    def compliant(self) -> bool:
        return self.status == "converged"


def _hourly_committed(s: SystemScenario, sol: UcSolution) -> dict[str, dict[int, float]]:
    hours = range(1, s.periods + 1)
    out = {
        cls.value: {t: sol.committed_capacity_mw(s, t, cls) for t in hours}
        for cls in COMMITTED_CLASSES
    }
    out[TechClass.GFM.value] = dict.fromkeys(hours, fleet_capacity_mw(s, TechClass.GFM))
    return out


def _simulate_all_hours(s: SystemScenario, sol: UcSolution):
    hours = range(1, s.periods + 1)
    mixes = [online_mix(s, sol, t) for t in hours]
    caps = [mix.capacities_mw() for mix in mixes]
    metrics = dict(zip(hours, response_metrics_rows(mixes, caps, range(len(mixes)))))
    failing_nadir: list[int] = []
    all_ok = True
    for t, met in metrics.items():
        rep = check_compliance(met, s.limits)
        if not rep.passed:
            all_ok = False
        if not rep.nadir_ok:
            failing_nadir.append(t)
    return metrics, failing_nadir, all_ok


def _subset_sums(units, cap: int) -> list[float] | None:
    """The distinct capacities a class can commit, the subset sums of its
    units' pmax, built in unit order; None once there are more than cap."""
    sums = [0.0]
    for u in units:
        sums = list(dict.fromkeys(sums + [x + u.pmax_mw for x in sums]))
        if len(sums) > cap:
            return None
    return sorted(sums)


def _learn_cuts(
    s: SystemScenario, hours: list[int], axes: list[TechClass]
) -> dict[int, NadirCut | None]:
    """Edge points -> hyperplane -> conservative repair, for each hour's
    context: every hour in one edge search and one batch of repair points.
    A cut is repaired against every commitment the MILP can make on its
    axes, the product of each class's subset sums; an hour with more of them
    than the lattice has points keeps the lattice, _LATTICE_STEPS steps per
    axis on [0, max(fleet, edge)].
    """
    contexts = [fleet_mix(s, hour) for hour in hours]
    hi = max(EDGE_HI_MW, 10.0 * max((fleet_capacity_mw(s, c) for c in axes), default=0.0))
    cap = (_LATTICE_STEPS + 1) ** len(axes)
    reachable = {cls: _subset_sums(units_of(s, cls), cap) for cls in axes}
    cuts: dict[int, NadirCut | None] = {}
    grids = []
    for hour, context, edges in zip(
        hours, contexts, find_edge_points_many(axes, contexts, s.limits, hi, BISECT_TOL_MW)
    ):
        if not edges or min(edges.values()) <= 0:
            cuts[hour] = None  # no axis complies alone, or the context complies with all at zero
            continue
        cuts[hour] = fit_hyperplane(edges, context_id=f"hour={hour}")
        grid_axes = []
        for cls in edges:
            top = max(fleet_capacity_mw(s, cls), edges[cls])
            grid_axes.append(SweepAxis(cls, 0.0, top, max(top / _LATTICE_STEPS, BISECT_TOL_MW)))
        sums = [reachable[cls] for cls in edges]
        if None in sums or math.prod(map(len, sums)) > (_LATTICE_STEPS + 1) ** len(edges):
            values = tuple(a.values() for a in grid_axes)
        else:
            values = tuple(map(np.array, sums))
        grids.append((hour, context, tuple(grid_axes), values))
    for (hour, *_), grid in zip(grids, sweep_grids([g[1:] for g in grids], s.limits)):
        cuts[hour] = make_conservative(cuts[hour], grid)
    return cuts


def _iterate(
    s: SystemScenario,
    model: str,
    opts: BuildOptions,
    refine: Callable[[BuildOptions, list[int]], BuildOptions | None],
    max_iter: int,
) -> RunReport:
    """The operating loop: solve under opts, simulate every hour, stop when
    all comply; otherwise ask refine(opts, failing nadir hours) for the next
    options, None when nothing is left to try. The report describes the last
    MILP solved: its cuts, its reserve, and the reserves tried so far.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    t0 = time.perf_counter()
    trajectory: list[float] = []
    metrics: dict[int, FrequencyMetrics] = {}
    sol: UcSolution | None = None
    status = "non_convergence"
    for iters in range(1, max_iter + 1):
        if opts.uniform_reserve_mw is not None:
            trajectory.append(opts.uniform_reserve_mw)
        problem = build_fcuc(s, opts)
        res = solve_milp(problem, gap_tol=MILP_GAP_TOL)
        if res.status != "optimal":
            status, sol, metrics = res.status, None, {}
            break
        sol = decode_solution(problem, s, res.x, res.objective)
        metrics, failing, all_ok = _simulate_all_hours(s, sol)
        if all_ok:
            status = "converged"
            break
        nxt = refine(opts, failing) if iters < max_iter else None
        if nxt is None:
            break
        opts = nxt
    return RunReport(
        model=model,
        scenario_name=s.name,
        status=status,
        iterations=iters,
        objective=sol.objective if sol else float("nan"),
        cost_breakdown=dict(sol.cost_breakdown) if sol else {},
        hourly_metrics=metrics,
        hourly_committed_mw=_hourly_committed(s, sol) if sol else {},
        cuts=list(opts.nadir_cuts),
        final_reserve_mw=opts.uniform_reserve_mw,
        reserve_trajectory_mw=trajectory,
        wall_time_s=time.perf_counter() - t0,
        solution=sol,
    )


def run_proposed(s: SystemScenario, max_iter: int = DEFAULT_MAX_ITER) -> RunReport:
    """Iterative FCUC: solve, audit every hour dynamically, add a learned
    nadir cut for each failing hour, repeat until compliant.
    """
    axes = [cls for cls in COMMITTED_CLASSES if units_of(s, cls)]
    cut_cache: dict[int, NadirCut | None] = {}  # demand-level key -> cut

    def key(hour: int) -> int:
        return int(round(s.demand[hour - 1] / 50.0))

    def add_cuts(opts: BuildOptions, failing: list[int]) -> BuildOptions | None:
        # the first failing hour of each demand level not yet learned learns its cut
        learners = {key(hour): hour for hour in reversed(failing) if key(hour) not in cut_cache}
        learned = _learn_cuts(s, list(learners.values()), axes)
        cut_cache.update((k, learned[hour]) for k, hour in learners.items())
        cuts = list(opts.nadir_cuts)
        for hour in failing:
            cut = cut_cache[key(hour)]
            if cut is None:
                continue
            cut = replace(cut, context_id=f"hour={hour}")
            if all(not (h == hour and c.key() == cut.key()) for h, c in cuts):
                cuts.append((hour, cut))
        if len(cuts) == len(opts.nadir_cuts):
            return None  # no nadir hour fails, or no new cut was learned
        return replace(opts, nadir_cuts=tuple(cuts))

    return _iterate(s, "proposed", BuildOptions(), add_cuts, max_iter)


def run_industry(
    s: SystemScenario,
    escalation_factor: float = DEFAULT_ESCALATION,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RunReport:
    """Uniform-reserve model: start at the contingency size and multiply the
    requirement by escalation_factor until simulated nadir and QSS comply.
    """
    if not escalation_factor > 1.0:
        raise ValueError("escalation_factor must be > 1")

    def escalate(opts: BuildOptions, failing: list[int]) -> BuildOptions:
        return replace(opts, uniform_reserve_mw=opts.uniform_reserve_mw * escalation_factor)

    opts = BuildOptions(uniform_reserve_mw=s.contingency_mw)
    return _iterate(s, "industry", opts, escalate, max_iter)


def audit_report(s: SystemScenario, report: RunReport, tol: float = 1e-6) -> list:
    """Independent post-hoc audit: static feasibility + hourly re-simulation."""
    if report.solution is None:
        raise ValueError("report carries no solution to audit")
    opts = BuildOptions(nadir_cuts=tuple(report.cuts), uniform_reserve_mw=report.final_reserve_mw)
    violations = list(check_feasibility(s, report.solution, tol, opts))
    if report.compliant:
        _, _, all_ok = _simulate_all_hours(s, report.solution)
        if not all_ok:
            violations.append(
                Violation("resimulation", "an hour failed its frequency metrics")
            )
    return violations


# ---------------------------------------------------------------------------
# comparison

@dataclass
class ComparisonResult:
    scenario_name: str
    cost_deltas: dict[str, float]  # model a minus model b, per category
    objective_a: float
    objective_b: float
    gap_percent: float  # |a-b| relative to the costlier run
    committed_deltas_mw: dict[str, dict[int, float]]

    def to_text(self) -> str:
        lines = [f"scenario\t{self.scenario_name}"]
        lines.append(f"objective_a\t{self.objective_a:.6f}")
        lines.append(f"objective_b\t{self.objective_b:.6f}")
        lines.append(f"gap_percent\t{self.gap_percent:.4f}")
        for k, v in sorted(self.cost_deltas.items()):
            lines.append(f"delta_{k}\t{v:.6f}")
        for cls, hours in sorted(self.committed_deltas_mw.items()):
            row = "\t".join(f"{hours[t]:.1f}" for t in sorted(hours))
            lines.append(f"committed_delta_{cls}\t{row}")
        return "\n".join(lines) + "\n"


def compare_runs(a: RunReport, b: RunReport) -> ComparisonResult:
    if a.scenario_name != b.scenario_name:
        raise ValueError(
            f"cannot compare reports for different scenarios "
            f"({a.scenario_name!r} vs {b.scenario_name!r})"
        )
    cats = sorted(set(a.cost_breakdown) | set(b.cost_breakdown))
    deltas = {k: a.cost_breakdown.get(k, 0.0) - b.cost_breakdown.get(k, 0.0) for k in cats}
    larger = max(abs(a.objective), abs(b.objective))
    gap = 100.0 * abs(a.objective - b.objective) / larger if larger > 0 else 0.0
    committed: dict[str, dict[int, float]] = {}
    for cls in set(a.hourly_committed_mw) | set(b.hourly_committed_mw):
        ha = a.hourly_committed_mw.get(cls, {})
        hb = b.hourly_committed_mw.get(cls, {})
        committed[cls] = {t: ha.get(t, 0.0) - hb.get(t, 0.0) for t in set(ha) | set(hb)}
    return ComparisonResult(
        scenario_name=a.scenario_name,
        cost_deltas=deltas,
        objective_a=a.objective,
        objective_b=b.objective,
        gap_percent=gap,
        committed_deltas_mw=committed,
    )


# ---------------------------------------------------------------------------
# report (de)serialization — machine-readable JSON for the CLI

def report_to_dict(r: RunReport) -> dict:
    return {
        "model": r.model,
        "scenario_name": r.scenario_name,
        "status": r.status,
        "iterations": r.iterations,
        "objective": r.objective,
        "cost_breakdown": r.cost_breakdown,
        "hourly_metrics": {
            str(t): {
                "nadir_hz": m.nadir_hz,
                "initial_rocof_hz_s": m.initial_rocof_hz_s,
                "qss_dev_hz": m.qss_dev_hz,
                "time_of_nadir_s": m.time_of_nadir_s,
            }
            for t, m in r.hourly_metrics.items()
        },
        "hourly_committed_mw": {
            cls: {str(t): v for t, v in hours.items()}
            for cls, hours in r.hourly_committed_mw.items()
        },
        "cuts": [{"hour": h, **cut.to_dict()} for h, cut in r.cuts],
        "final_reserve_mw": r.final_reserve_mw,
        "reserve_trajectory_mw": r.reserve_trajectory_mw,
        "wall_time_s": r.wall_time_s,
    }


def report_from_dict(d: dict) -> RunReport:
    return RunReport(
        model=d["model"],
        scenario_name=d["scenario_name"],
        status=d["status"],
        iterations=d["iterations"],
        objective=d["objective"],
        cost_breakdown=dict(d.get("cost_breakdown", {})),
        hourly_metrics={
            int(t): FrequencyMetrics(**m) for t, m in d.get("hourly_metrics", {}).items()
        },
        hourly_committed_mw={
            cls: {int(t): v for t, v in hours.items()}
            for cls, hours in d.get("hourly_committed_mw", {}).items()
        },
        cuts=[(c["hour"], NadirCut.from_dict(c)) for c in d.get("cuts", [])],
        final_reserve_mw=d.get("final_reserve_mw"),
        reserve_trajectory_mw=list(d.get("reserve_trajectory_mw", [])),
        wall_time_s=d.get("wall_time_s", 0.0),
    )


def save_report(r: RunReport, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(r), fh, indent=2)
        fh.write("\n")


def load_report(path: str) -> RunReport:
    with open(path) as fh:
        return report_from_dict(json.load(fh))


def write_dispatch_table(s: SystemScenario, r: RunReport, path: str) -> None:
    """Per-hour dispatch by technology as delimited text (plot-ready)."""
    if r.solution is None:
        raise ValueError("report carries no solution")
    sol = r.solution
    groups = {
        "coal": [u.id for u in s.coal_units()],
        "gas": [u.id for u in s.gas_units()],
        "hydro_reservoir": [h.id for h in s.reservoir_units()],
        "run_of_river": [h.id for h in s.ror_units()],
        "renewable": [g.id for g in s.renewable_units],
    }
    with open(path, "w") as fh:
        header = ["hour", "demand_mw"] + [f"{g}_mw" for g in groups]
        header += ["battery_net_mw", "reserve_mw", "inertia_mws"]
        fh.write("\t".join(header) + "\n")
        for t in range(1, s.periods + 1):
            cells = [str(t), f"{s.demand[t - 1]:.2f}"]
            for ids in groups.values():
                cells.append(f"{sum(sol.power[(i, t)] for i in ids):.2f}")
            net = sum(
                sol.batt_discharge[(b.id, t)] - sol.batt_charge[(b.id, t)]
                for b in s.batteries
            )
            rtot = sum(sol.reserve[(g.id, t)] for g in s.committed_units())
            cells += [f"{net:.2f}", f"{rtot:.2f}", f"{sol.inertia_mws[t]:.1f}"]
            fh.write("\t".join(cells) + "\n")
