"""Test oracles: slow or closed-form reference answers that the program's
fast paths are checked against. Nothing in `fcuc` imports this module.

- `make_mix` builds an `OnlineMix` from class capacities with the class
  default inertia constants and a 0.05 droop on the governor classes.
- `own_context_metrics` evaluates a list of mixes in one kernel call, each
  mix the context of its own row, as the hourly checks do.
- `validate_mix` checks one mix the way the kernel checks each capacity row,
  one class at a time.
- `make_conservative_by_points` repairs a cut one lattice point at a time.
- `serial_bisection` bisects one axis for its edge, one `response_metrics`
  call per step.
- `analytic_qss` is the final-value-theorem QSS deviation of a mix.
- `brute_force_milp` enumerates every binary assignment of a small MILP and
  solves each continuous LP with HiGHS: one model per instance, through
  scipy's bundled bindings, else `scipy.optimize.linprog` per LP.
- `without_rows` copies a MILP without one family of rows, such as the
  `rqss_*` rows that tie each unit's QSS reserve cap to its commitment.
- `lp_bound` is the optimum of a MILP's LP relaxation.
- `parse_mps` reads an MPS file back into a MILP, the reference of the MPS
  round-trip tests.
- `monotone_along_axes`, `has_col` and `gfl_batteries` are views of a
  compliance grid, a MILP and a scenario that only the tests ask for.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import scipy.sparse
from scipy.optimize import OptimizeResult, linprog

try:  # private to scipy, so `linprog` stands in where it is missing
    from scipy.optimize._highspy import _core as _highs
except ImportError:
    _highs = None

from fcuc.boundary import ComplianceGrid, NadirCut
from fcuc.dynamics import (
    DEFAULT_INERTIA_H,
    GOVERNOR_CLASSES,
    FrequencyMetrics,
    OnlineMix,
    TechClass,
    TechState,
    ZeroInertiaError,
    response_metrics,
    response_metrics_rows,
)
from fcuc.milp import EQ, GE, LE, MilpProblem
from fcuc.scenario import Battery, DynamicParams, SystemScenario
from fcuc.solver import MilpResult


def make_mix(
    *,
    capacities_mw: dict[TechClass, float] | None = None,
    load_damping_mw_per_pu: float,
    contingency_mw: float,
    nominal_freq_hz: float = 50.0,
    dynamics: DynamicParams | None = None,
) -> OnlineMix:
    """Build a mix from class capacities with the class default inertia
    constants and a 0.05 droop on the governor classes."""
    caps = capacities_mw or {}
    states = {
        cls.value: TechState(
            online_mw=caps.get(cls, 0.0),
            droop=0.05 if cls in GOVERNOR_CLASSES else 0.0,
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


def own_context_metrics(mixes: list[OnlineMix]) -> list[FrequencyMetrics]:
    """The kernel's metrics of each mix, every mix the context of its own row."""
    return response_metrics_rows(mixes, [m.capacities_mw() for m in mixes], range(len(mixes)))


def validate_mix(mix: OnlineMix) -> None:
    """ValueError for a negative or non-finite class capacity (the first in
    TechClass order), else ZeroInertiaError for a disturbance on zero
    inertia."""
    for cls, state in zip(TechClass, mix.states()):
        if not 0 <= state.online_mw < math.inf:
            raise ValueError(f"{cls.value}: online capacity must be finite and >= 0")
    if mix.contingency_mw > 0 and mix.system_inertia_mws <= 0:
        raise ZeroInertiaError(
            "cannot disturb a zero-inertia system "
            f"(contingency {float(mix.contingency_mw)} MW, inertia 0)"
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


def serial_bisection(
    tech: TechClass, context: OnlineMix, lo: float, hi: float, tol: float, nadir_min_hz: float
) -> float | None:
    """The textbook bisection of tech's capacity on [lo, hi] to within tol,
    one `response_metrics` call per step: None when hi fails the nadir
    floor, lo when lo already passes, else the hi of the last window."""
    def ok(mw):
        return response_metrics(context.with_capacity(tech, mw)).nadir_hz >= nadir_min_hz

    if not ok(hi):
        return None
    if ok(lo):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


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


def without_rows(p: MilpProblem, prefix: str) -> MilpProblem:
    """A copy of `p` without the rows whose names start with `prefix`."""
    q = MilpProblem(p.name)
    for v in p.variables:
        q.add_var(v.name, v.lb, v.ub, v.binary, v.cost)
    for row in p.rows:
        if not row.name.startswith(prefix):
            q.add_row(row.name, row.coeffs, row.sense, row.rhs)
    return q


def _lp_solver(p: MilpProblem, use_linprog: bool = _highs is None):
    """A function of column bounds (lb, ub) that solves the LP of `p`'s rows
    with HiGHS. The instance goes once into one model of scipy's bundled
    HiGHS bindings, and each call changes only the column bounds that differ
    from the last call's (the binaries, in an enumeration). With
    `use_linprog`, the path taken when those private bindings are missing,
    each call passes the whole problem to `linprog` instead."""
    c = p.objective()
    a_ub, b_ub, a_eq, b_eq = p.split_rows()
    if use_linprog:
        def solve(lb: np.ndarray, ub: np.ndarray):
            return linprog(
                c,
                A_ub=a_ub if a_ub.shape[0] else None,
                b_ub=b_ub if len(b_ub) else None,
                A_eq=a_eq if a_eq.shape[0] else None,
                b_eq=b_eq if len(b_eq) else None,
                bounds=np.column_stack([lb, ub]),
                method="highs",
            )

        return solve

    a = scipy.sparse.vstack([a_ub, a_eq]).tocsc()
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = a.shape[1]
    lp.num_row_ = lp.a_matrix_.num_row_ = a.shape[0]
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = a.indptr, a.indices, a.data
    lp.col_cost_ = c
    lp.col_lower_, lp.col_upper_ = current = [bound.copy() for bound in p.bounds()]
    lp.row_lower_ = np.concatenate([np.full(len(b_ub), -np.inf), b_eq])
    lp.row_upper_ = np.concatenate([b_ub, b_eq])
    model = _highs._Highs()
    model.setOptionValue("output_flag", False)
    model.passModel(lp)
    statuses = {_highs.HighsModelStatus.kOptimal: 0, _highs.HighsModelStatus.kInfeasible: 2,
                _highs.HighsModelStatus.kUnbounded: 3}  # as linprog numbers them

    def solve(lb: np.ndarray, ub: np.ndarray):
        cols = np.flatnonzero((lb != current[0]) | (ub != current[1]))
        if cols.size:
            model.changeColsBounds(cols.size, cols.astype(np.int32), lb[cols], ub[cols])
            current[0][cols], current[1][cols] = lb[cols], ub[cols]
        model.run()
        status = model.getModelStatus()
        res = OptimizeResult(status=statuses.get(status, 4), message=model.modelStatusToString(status))
        if res.status == 0:
            res.fun = model.getInfo().objective_function_value
            res.x = np.array(model.getSolution().col_value)
        return res

    return solve


def lp_bound(p: MilpProblem) -> float:
    """Optimum of the LP relaxation of `p` (binaries relaxed to [0, 1])."""
    res = _lp_solver(p)(*p.bounds())
    if res.status != 0:
        raise ValueError(f"LP relaxation not solved: {res.message}")
    return float(res.fun)


def brute_force_milp(p: MilpProblem, max_binaries: int = 20) -> MilpResult:
    """Enumerate every binary assignment, solve each continuous LP, keep the best.

    Refuses problems with more than `max_binaries` binaries.
    """
    t0 = time.perf_counter()
    binaries = p.binary_columns()
    if len(binaries) > max_binaries:
        raise ValueError(f"{len(binaries)} binaries exceeds oracle limit {max_binaries}")
    solve = _lp_solver(p)
    lb, ub = p.bounds()
    best = None
    count = 0
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        lo, hi = lb.copy(), ub.copy()
        lo[binaries] = hi[binaries] = bits
        res = solve(lo, hi)
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


_TAG_TO_SENSE = {"L": LE, "G": GE, "E": EQ}


def parse_mps(path: str) -> MilpProblem:
    """Read a free-format MPS file produced by export_mps (or compatible)."""
    p = MilpProblem()
    section = None
    obj_name = None
    row_specs: list[tuple[str, str]] = []
    col_entries: dict[str, list[tuple[str, float]]] = {}
    col_order: list[str] = []
    int_cols: set[str] = set()
    rhs: dict[str, float] = {}
    bounds: list[tuple[str, str, float | None]] = []
    in_int = False

    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("*"):
                continue
            if not line[0].isspace():
                parts = line.split()
                section = parts[0].upper()
                if section == "NAME" and len(parts) > 1:
                    p.name = parts[1]
                if section == "ENDATA":
                    break
                continue
            parts = line.split()
            if section == "ROWS":
                tag, name = parts[0].upper(), parts[1]
                if tag == "N":
                    if obj_name is None:
                        obj_name = name
                else:
                    row_specs.append((name, _TAG_TO_SENSE[tag]))
            elif section == "COLUMNS":
                if len(parts) >= 3 and parts[1].strip("'") == "MARKER":
                    in_int = parts[2].strip("'") == "INTORG"
                    continue
                col = parts[0]
                if col not in col_entries:
                    col_entries[col] = []
                    col_order.append(col)
                    if in_int:
                        int_cols.add(col)
                for k in range(1, len(parts) - 1, 2):
                    col_entries[col].append((parts[k], float(parts[k + 1])))
            elif section == "RHS":
                for k in range(1, len(parts) - 1, 2):
                    rhs[parts[k]] = float(parts[k + 1])
            elif section == "BOUNDS":
                kind, col = parts[0].upper(), parts[2]
                val = float(parts[3]) if len(parts) > 3 else None
                bounds.append((kind, col, val))

    for col in col_order:
        cost = 0.0
        for rname, val in col_entries[col]:
            if rname == obj_name:
                cost += val
        p.add_var(col, binary=col in int_cols, cost=cost)

    row_coeffs: dict[str, dict[int, float]] = {name: {} for name, _ in row_specs}
    for col in col_order:
        j = p.col(col)
        for rname, val in col_entries[col]:
            if rname != obj_name:
                row_coeffs[rname][j] = row_coeffs[rname].get(j, 0.0) + val
    for name, sense in row_specs:
        p.add_row(name, row_coeffs[name], sense, rhs.get(name, 0.0))

    for kind, col, val in bounds:
        v = p.variables[p.col(col)]
        if kind == "UP":
            v.ub = val  # type: ignore[assignment]
        elif kind == "LO":
            v.lb = val  # type: ignore[assignment]
        elif kind == "FX":
            v.lb = v.ub = val  # type: ignore[assignment]
        elif kind == "BV":
            v.binary = True
            v.lb, v.ub = 0.0, 1.0
        elif kind == "FR":
            v.lb = -math.inf
        elif kind == "MI":
            v.lb = -math.inf
    return p


def monotone_along_axes(grid: ComplianceGrid) -> bool:
    """More capacity on any axis must never flip pass -> fail."""
    p = grid.passed.astype(np.int8)
    for k in range(p.ndim):
        if np.any(np.diff(p, axis=k) < 0):
            return False
    return True


def has_col(p: MilpProblem, name: str) -> bool:
    """Whether `p` has a column named `name`."""
    return any(v.name == name for v in p.variables)


def gfl_batteries(s: SystemScenario) -> tuple[Battery, ...]:
    """The scenario's grid-following batteries."""
    return tuple(b for b in s.batteries if b.inverter == "gfl")
