"""End-to-end operating models.

run_proposed: iterative FCUC with simulation-verified nadir cuts learned per
failing hour. run_industry: uniform reserve requirement escalated until every
hour's simulated metrics comply. Both return a RunReport auditable against an
independent re-simulation.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

from .boundary import (
    BracketingError,
    NadirCut,
    SweepAxis,
    SweepSpec,
    bisect_min_capacity,
    fit_hyperplane,
    make_conservative,
    sweep_grid,
)
from .dynamics import FrequencyMetrics, TechClass, check_compliance, response_metrics
from .scenario import SystemScenario, Violation
from .solver import solve_milp
from .ucmodel import (
    BuildOptions,
    UcSolution,
    build_fcuc,
    check_feasibility,
    decode_solution,
    fleet_mix,
    online_mix,
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

_AXIS_CLASSES = (TechClass.STEAM, TechClass.COMBINED_CYCLE, TechClass.HYDRO_RESERVOIR)

DEFAULT_ESCALATION = 1.05
DEFAULT_MAX_ITER = 10
MILP_GAP_TOL = 1e-4


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
    out: dict[str, dict[int, float]] = {}
    for cls in _AXIS_CLASSES:
        out[cls.value] = {
            t: sol.committed_capacity_mw(s, t, cls) for t in range(1, s.periods + 1)
        }
    out[TechClass.GFM.value] = {
        t: sum(b.pmax_mw for b in s.gfm_batteries()) for t in range(1, s.periods + 1)
    }
    return out


def _simulate_all_hours(s: SystemScenario, sol: UcSolution):
    metrics: dict[int, FrequencyMetrics] = {}
    failing_nadir: list[int] = []
    all_ok = True
    for t in range(1, s.periods + 1):
        mix = online_mix(s, sol, t)
        met = response_metrics(mix)
        metrics[t] = met
        rep = check_compliance(met, s.limits)
        if not rep.passed:
            all_ok = False
        if not rep.nadir_ok:
            failing_nadir.append(t)
    return metrics, failing_nadir, all_ok


def _present_axes(s: SystemScenario) -> list[TechClass]:
    axes = []
    if s.coal_units():
        axes.append(TechClass.STEAM)
    if s.gas_units():
        axes.append(TechClass.COMBINED_CYCLE)
    if s.reservoir_units():
        axes.append(TechClass.HYDRO_RESERVOIR)
    return axes


def _fleet_capacity(s: SystemScenario, cls: TechClass) -> float:
    if cls == TechClass.STEAM:
        return sum(u.pmax_mw for u in s.coal_units())
    if cls == TechClass.COMBINED_CYCLE:
        return sum(u.pmax_mw for u in s.gas_units())
    if cls == TechClass.HYDRO_RESERVOIR:
        return sum(h.pmax_mw for h in s.reservoir_units())
    return 0.0


def _learn_cut(
    s: SystemScenario,
    hour: int,
    axes: list[TechClass],
    bisect_tol_mw: float,
) -> NadirCut | None:
    """Edge points -> hyperplane -> conservative repair, for one hour context."""
    context = fleet_mix(s, hour)
    edges: dict[TechClass, float] = {}
    for cls in axes:
        hi = max(20000.0, 10.0 * _fleet_capacity(s, cls))
        base = context.with_capacities({c: 0.0 for c in axes})
        try:
            res = bisect_min_capacity(cls, base, s.limits, 0.0, hi, bisect_tol_mw)
        except BracketingError:
            continue  # this technology alone cannot reach compliance; drop axis
        if res.capacity_mw > 0:
            edges[cls] = res.capacity_mw
    if not edges:
        return None
    cut = fit_hyperplane(edges, context_id=f"hour={hour}")
    # tighten against a coarse grid over the capacities the MILP can commit
    grid_axes = []
    for cls in edges:
        top = max(_fleet_capacity(s, cls), edges[cls])
        grid_axes.append(SweepAxis(cls, 0.0, top, max(top / 6.0, bisect_tol_mw)))
    grid = sweep_grid(SweepSpec(tuple(grid_axes), context, s.limits))
    return make_conservative(cut, grid)


def run_proposed(
    s: SystemScenario,
    max_iter: int = DEFAULT_MAX_ITER,
    bisect_tol_mw: float = 1.0,
) -> RunReport:
    """Iterative FCUC: solve, audit every hour dynamically, add a learned
    nadir cut for each failing hour, repeat until compliant.
    """
    t0 = time.perf_counter()
    axes = _present_axes(s)
    cuts: list[tuple[int, NadirCut]] = []
    cut_cache: dict[int, NadirCut | None] = {}  # demand-level key -> cut
    metrics: dict[int, FrequencyMetrics] = {}
    sol: UcSolution | None = None
    status = "non_convergence"
    iters = 0

    for iters in range(1, max_iter + 1):
        opts = BuildOptions(nadir_cuts=tuple(cuts))
        problem = build_fcuc(s, opts)
        res = solve_milp(problem, gap_tol=MILP_GAP_TOL)
        if res.status != "optimal":
            return RunReport(
                model="proposed",
                scenario_name=s.name,
                status=res.status,
                iterations=iters,
                objective=float("nan"),
                cost_breakdown={},
                hourly_metrics=metrics,
                hourly_committed_mw={},
                cuts=cuts,
                wall_time_s=time.perf_counter() - t0,
            )
        sol = decode_solution(problem, s, res.x, res.objective)
        metrics, failing, all_ok = _simulate_all_hours(s, sol)
        if all_ok:
            status = "converged"
            break
        if not failing:
            # non-nadir metric failing; cuts cannot help
            break
        added = False
        for hour in failing:
            key = int(round(s.demand[hour - 1] / 50.0))
            if key in cut_cache:
                cut = cut_cache[key]
            else:
                cut = _learn_cut(s, hour, axes, bisect_tol_mw)
                cut_cache[key] = cut
            if cut is None:
                continue
            pair = (hour, replace(cut, context_id=f"hour={hour}"))
            if all(not (h == hour and c.key() == pair[1].key()) for h, c in cuts):
                cuts.append(pair)
                added = True
        if not added:
            break  # no new cut can be generated; report non-convergence

    assert sol is not None or status == "non_convergence"
    return RunReport(
        model="proposed",
        scenario_name=s.name,
        status=status,
        iterations=iters,
        objective=sol.objective if sol else float("nan"),
        cost_breakdown=dict(sol.cost_breakdown) if sol else {},
        hourly_metrics=metrics,
        hourly_committed_mw=_hourly_committed(s, sol) if sol else {},
        cuts=cuts,
        wall_time_s=time.perf_counter() - t0,
        solution=sol,
    )


def run_industry(
    s: SystemScenario,
    escalation_factor: float = DEFAULT_ESCALATION,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RunReport:
    """Uniform-reserve model: start at the contingency size and multiply the
    requirement by escalation_factor until simulated nadir and QSS comply.
    """
    if escalation_factor <= 1.0:
        raise ValueError("escalation_factor must be > 1")
    t0 = time.perf_counter()
    reserve = s.contingency_mw
    trajectory: list[float] = []
    metrics: dict[int, FrequencyMetrics] = {}
    sol: UcSolution | None = None
    status = "non_convergence"
    iters = 0

    for iters in range(1, max_iter + 1):
        trajectory.append(reserve)
        opts = BuildOptions(uniform_reserve_mw=reserve)
        problem = build_fcuc(s, opts)
        res = solve_milp(problem, gap_tol=MILP_GAP_TOL)
        if res.status != "optimal":
            return RunReport(
                model="industry",
                scenario_name=s.name,
                status=res.status,
                iterations=iters,
                objective=float("nan"),
                cost_breakdown={},
                hourly_metrics=metrics,
                hourly_committed_mw={},
                final_reserve_mw=reserve,
                reserve_trajectory_mw=trajectory,
                wall_time_s=time.perf_counter() - t0,
            )
        sol = decode_solution(problem, s, res.x, res.objective)
        metrics, _, all_ok = _simulate_all_hours(s, sol)
        if all_ok:
            status = "converged"
            break
        reserve *= escalation_factor

    return RunReport(
        model="industry",
        scenario_name=s.name,
        status=status,
        iterations=iters,
        objective=sol.objective if sol else float("nan"),
        cost_breakdown=dict(sol.cost_breakdown) if sol else {},
        hourly_metrics=metrics,
        hourly_committed_mw=_hourly_committed(s, sol) if sol else {},
        final_reserve_mw=trajectory[-1] if trajectory else None,
        reserve_trajectory_mw=trajectory,
        wall_time_s=time.perf_counter() - t0,
        solution=sol,
    )


def audit_report(s: SystemScenario, report: RunReport, tol: float = 1e-6) -> list:
    """Independent post-hoc audit: static feasibility + hourly re-simulation."""
    if report.solution is None:
        raise ValueError("report carries no solution to audit")
    opts = BuildOptions(
        nadir_cuts=tuple(report.cuts),
        uniform_reserve_mw=report.final_reserve_mw if report.model == "industry" else None,
    )
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
        "cuts": [
            {
                "hour": h,
                "coeffs": {cls.value: c for cls, c in cut.coeffs.items()},
                "intercept": cut.intercept,
                "context_id": cut.context_id,
            }
            for h, cut in r.cuts
        ],
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
        cuts=[
            (
                c["hour"],
                NadirCut(
                    coeffs={TechClass(k): v for k, v in c["coeffs"].items()},
                    intercept=c["intercept"],
                    context_id=c.get("context_id", ""),
                ),
            )
            for c in d.get("cuts", [])
        ],
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
