"""End-to-end operating models.

One loop serves both: build the day's commitment MILP once, solve it,
simulate every hour, and refine the build options, editing the MILP in place
to match, until every hour complies. run_proposed refines by
adding simulation-verified nadir cuts, one per demand level that fails, every
level of a refine step in one edge search and one batch of repair points,
each cut repaired against the commitments the MILP can make; run_industry
escalates a uniform reserve requirement. Both return a RunReport of the last
MILP solved, auditable against an independent re-simulation.
"""

from __future__ import annotations

import copy
import json
import math
import time
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

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
from .milp import MilpProblem
from .scenario import SystemScenario, Violation
from .solver import solve_milp
from .ucmodel import (
    COMMITTED_CLASSES,
    BuildOptions,
    UcSolution,
    add_nadir_cut,
    build_fcuc,
    check_feasibility,
    decode_solution,
    fleet_capacity_mw,
    fleet_mix,
    online_mix,
    set_uniform_reserve,
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
#: points per axis of the repair lattice, 0 to the class's fleet
_LATTICE_POINTS = 7
#: the most commitments a cut is repaired on: a day whose classes can make
#: more repairs every cut on the lattice instead
_REPAIR_POINTS = _LATTICE_POINTS**3


@dataclass
class RunReport:
    model: str  # "proposed" | "industry"
    scenario_name: str
    status: str  # "converged" | "non_convergence" | "infeasible" | "limit"
    iterations: int
    objective: float
    cost_breakdown: dict[str, float] = field(default_factory=dict)
    hourly_metrics: dict[int, FrequencyMetrics] = field(default_factory=dict)
    # tech class -> hour -> MW
    hourly_committed_mw: dict[str, dict[int, float]] = field(default_factory=dict)
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


def _subset_sums(units) -> list[float] | None:
    """The distinct capacities a class can commit, the subset sums of its
    units' pmax, built in unit order; None past _REPAIR_POINTS of them."""
    sums = [0.0]
    for u in units:
        sums = list(dict.fromkeys(sums + [x + u.pmax_mw for x in sums]))
        if len(sums) > _REPAIR_POINTS:
            return None
    return sorted(sums)


def _learn_cuts(
    s: SystemScenario, hours: list[int], axes: list[TechClass]
) -> dict[int, NadirCut | None]:
    """Edge points -> hyperplane -> conservative repair, for each hour's
    context: every hour in one edge search and one batch of repair points.
    A cut is repaired on its axes' values, chosen once for the day: the
    commitments the MILP can make, each class's subset sums, when their
    product over the axes has at most _REPAIR_POINTS points; else the
    lattice, _LATTICE_POINTS evenly spaced on [0, fleet] per axis.
    """
    contexts = [fleet_mix(s, hour) for hour in hours]
    fleet = {cls: fleet_capacity_mw(s, cls) for cls in axes}
    hi = max(EDGE_HI_MW, 10.0 * max(fleet.values(), default=0.0))
    sums = {cls: _subset_sums(units_of(s, cls)) for cls in axes}
    if None in sums.values() or math.prod(map(len, sums.values())) > _REPAIR_POINTS:
        values = {cls: np.linspace(0.0, mw, _LATTICE_POINTS) for cls, mw in fleet.items()}
    else:
        values = {cls: np.array(v) for cls, v in sums.items()}
    windows = {cls: SweepAxis(cls, 0.0, mw, mw / (_LATTICE_POINTS - 1))
               for cls, mw in fleet.items()}
    cuts: dict[int, NadirCut | None] = {}
    grids = []
    for hour, context, edges in zip(
        hours, contexts, find_edge_points_many(axes, contexts, s.limits, hi, BISECT_TOL_MW)
    ):
        if not edges or min(edges.values()) <= 0:
            cuts[hour] = None  # no axis complies alone, or the context complies with all at zero
            continue
        cuts[hour] = fit_hyperplane(edges, context_id=f"hour={hour}")
        grids.append((hour, context, tuple(windows[c] for c in edges),
                      tuple(values[c] for c in edges)))
    for (hour, *_), grid in zip(grids, sweep_grids([g[1:] for g in grids], s.limits)):
        cuts[hour] = make_conservative(cuts[hour], grid)
    return cuts


def _iterate(
    s: SystemScenario,
    model: str,
    opts: BuildOptions,
    refine: Callable[[MilpProblem, BuildOptions, list[int]], BuildOptions | None],
    max_iter: int,
) -> RunReport:
    """The operating loop: build the day's MILP once under opts, solve it,
    simulate every hour, stop when all comply; otherwise ask
    refine(problem, opts, failing nadir hours) for the next options, having
    edited the problem in place to match them, or None when nothing is left
    to try. The report describes the last MILP solved: its cuts, its
    reserve, and the reserves tried so far.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    t0 = time.perf_counter()
    trajectory: list[float] = []
    metrics: dict[int, FrequencyMetrics] = {}
    sol: UcSolution | None = None
    status = "non_convergence"
    problem = build_fcuc(s, opts)
    for iters in range(1, max_iter + 1):
        if opts.uniform_reserve_mw is not None:
            trajectory.append(opts.uniform_reserve_mw)
        res = solve_milp(problem, gap_tol=MILP_GAP_TOL)
        if res.status != "optimal":
            status, sol, metrics = res.status, None, {}
            break
        sol = decode_solution(problem, s, res.x, res.objective)
        metrics, failing, all_ok = _simulate_all_hours(s, sol)
        if all_ok:
            status = "converged"
            break
        nxt = refine(problem, opts, failing) if iters < max_iter else None
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
    """Iterative FCUC: solve, audit every hour dynamically, add learned nadir
    cuts, repeat until compliant. Hours share one cut per 50 MW demand level:
    once an hour of a level fails without a cut, the level's cut is learned
    at its lowest-demand hour (the earlier on a tie) and placed on all its
    hours. The nadir never falls as load damping, which scales with demand,
    rises, so the cut admits no failing reachable commitment at any of them.
    """
    axes = [cls for cls in COMMITTED_CLASSES if units_of(s, cls)]
    level = {hour: round(s.demand[hour - 1] / 50.0) for hour in range(1, s.periods + 1)}
    learner = {k: min((h for h in level if level[h] == k), key=lambda h: s.demand[h - 1])
               for k in level.values()}

    def add_cuts(problem: MilpProblem, opts: BuildOptions, failing: list[int]
                 ) -> BuildOptions | None:
        held = {hour for hour, _ in opts.nadir_cuts}  # the hours of every learned level
        new = dict.fromkeys(level[hour] for hour in failing if hour not in held)
        learned = _learn_cuts(s, [learner[k] for k in new], axes)
        cuts = tuple((hour, replace(cut, context_id=f"hour={hour}")) for hour, k in level.items()
                     if k in new and (cut := learned[learner[k]]) is not None)
        if not cuts:
            return None  # every failing nadir hour holds a cut, or none was learned
        for hour, cut in cuts:
            add_nadir_cut(problem, s, cut, hour)
        return replace(opts, nadir_cuts=opts.nadir_cuts + cuts)

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

    def escalate(problem: MilpProblem, opts: BuildOptions, failing: list[int]) -> BuildOptions:
        reserve_mw = opts.uniform_reserve_mw * escalation_factor
        set_uniform_reserve(problem, s, reserve_mw)
        return replace(opts, uniform_reserve_mw=reserve_mw)

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

#: the fields a report document holds, in order: every field but the solution
_DOC_FIELDS = [f for f in fields(RunReport) if f.name != "solution"]

#: the fields whose JSON form is not their value: (to JSON, from JSON); hours
#: become string keys, metrics objects, each cut an object with its hour
_CONVERTED = {
    "hourly_metrics": (
        lambda v: {str(t): asdict(m) for t, m in v.items()},
        lambda d: {int(t): FrequencyMetrics(**m) for t, m in d.items()},
    ),
    "hourly_committed_mw": (
        lambda v: {cls: {str(t): x for t, x in hours.items()} for cls, hours in v.items()},
        lambda d: {cls: {int(t): x for t, x in hours.items()} for cls, hours in d.items()},
    ),
    "cuts": (
        lambda v: [{"hour": h, **cut.to_dict()} for h, cut in v],
        lambda d: [(c["hour"], NadirCut.from_dict(c)) for c in d],
    ),
}


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


#: the JSON value each field that is not converted must hold, by its annotation
_JSON_TYPES = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _number,
    "float | None": lambda v: v is None or _number(v),
    "list[float]": lambda v: isinstance(v, list) and all(map(_number, v)),
    "dict[str, float]": lambda v: isinstance(v, dict) and all(map(_number, v.values())),
}
_PASSED = {f.name: (f.type, _JSON_TYPES[f.type]) for f in _DOC_FIELDS if f.name not in _CONVERTED}


def report_to_dict(r: RunReport) -> dict:
    """The report as a JSON document: every field but the solution, in field
    order, sharing no dict or list with the report."""
    d = {}
    for f in _DOC_FIELDS:
        v = getattr(r, f.name)
        d[f.name] = _CONVERTED[f.name][0](v) if f.name in _CONVERTED else copy.deepcopy(v)
    return d


def report_from_dict(d: dict) -> RunReport:
    """The report of a report_to_dict document, sharing no dict or list with
    it; a field the document lacks takes its default. Raises ValueError for a
    document that is not an object, lacks a field with no default, holds a
    field of another JSON type than its annotation (a number for a float, a
    list of numbers for a list[float]), or holds an hourly_metrics,
    hourly_committed_mw or cuts that does not convert."""
    if not isinstance(d, dict):
        raise ValueError(f"a report must be a JSON object, not {type(d).__name__}")
    for f in _DOC_FIELDS:
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"report lacks the field {f.name!r}")
    for name, (annotation, holds) in _PASSED.items():
        if name in d and not holds(d[name]):
            raise ValueError(f"report field {name!r} is not {annotation}: {d[name]!r}")
    r = RunReport(**copy.deepcopy({f.name: d[f.name] for f in _DOC_FIELDS if f.name in d}))
    for name, (_, load) in _CONVERTED.items():
        try:
            setattr(r, name, load(getattr(r, name)))
        except (TypeError, KeyError, AttributeError, ValueError) as exc:
            raise ValueError(f"report field {name!r} does not convert: {exc!r}") from exc
    return r


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
