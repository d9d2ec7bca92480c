"""MILP solving with HiGHS.

`solve_milp` hands a problem's solver arrays (`MilpProblem.solver_arrays`)
to a fresh HiGHS instance through scipy's bundled bindings,
`scipy.optimize._highspy._core`, the module `scipy.optimize.milp` itself
calls. HiGHS receives exactly the model and options `milp` would give it;
what the direct call skips is `milp`'s input validation, its option parsing
and its Python loop over every column's basis status. The module is private
to scipy: if a scipy release moves it, every solve fails on the import.
`tests/oracles.py::scipy_milp` is the public `milp` call that the tests hold
`solve_milp` to, and `tests/oracles.py::brute_force_milp` an enumeration
oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .milp import MilpProblem

__all__ = ["MilpResult", "solve_milp"]

# HiGHS options, set on every solve as `milp` sets them: no console log, then
# three heuristics off. The commitment MILPs are slow at the root, not in
# branching: on the slow uniform-reserve solves these three heuristics spent
# about half of the LP iterations after the returned incumbent was already
# found. Turning them off halves the bench's `industry-day` with the same
# iterations, cuts and objectives.
_HIGHS_OPTIONS = {
    "log_to_console": False,
    "mip_heuristic_run_rins": False,
    "mip_heuristic_run_rens": False,
    "mip_heuristic_run_feasibility_jump": False,
}


@dataclass
class MilpResult:
    status: str  # "optimal" | "infeasible" | "limit"
    objective: float = np.nan
    x: np.ndarray | None = None
    best_bound: float = np.nan
    gap: float = np.nan
    nodes: int = 0
    wall_time_s: float = 0.0


def solve_milp(
    p: MilpProblem, gap_tol: float = 1e-4, time_limit_s: float | None = None
) -> MilpResult:
    """Solve `p` with HiGHS branch-and-cut to relative gap `gap_tol`.

    "limit" means HiGHS stopped on `time_limit_s` (or another solver limit)
    before proving the gap; `x` then holds its incumbent, or None if it had
    none.
    """
    # Imported at the first solve: loading scipy.optimize takes about 45 MB,
    # which a process that solves no MILP (the boundary studies) never pays.
    from scipy.optimize._highspy import _core as _highs

    status_of = _highs.HighsModelStatus
    # limits that leave a MIP incumbent if its objective is finite; the
    # first two count as optimal once the gap is proved
    limits = (status_of.kTimeLimit, status_of.kIterationLimit, status_of.kSolutionLimit)
    t0 = time.perf_counter()
    options = {**_HIGHS_OPTIONS, "mip_rel_gap": float(gap_tol)}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)
    highs = _highs._Highs()
    for key, value in options.items():
        if highs.setOptionValue(key, value) == _highs.HighsStatus.kError:
            raise ValueError(f"HiGHS refuses the option {key}={value!r}")
    a = p.solver_arrays()
    loaded = highs.passModel(
        p.ncols, p.nrows, len(a.value), _highs.MatrixFormat.kColwise, _highs.ObjSense.kMinimize,
        0.0, a.cost, a.col_lower, a.col_upper, a.row_lower, a.row_upper,
        a.start, a.index, a.value, a.integrality,
    ) != _highs.HighsStatus.kError
    ran = loaded and highs.run() != _highs.HighsStatus.kError
    status = highs.getModelStatus() if loaded else status_of.kModelError
    info = highs.getInfo()
    wall = time.perf_counter() - t0
    # `milp` reports a model it cannot load as infeasible
    if status in (status_of.kInfeasible, status_of.kModelError):
        return MilpResult(status="infeasible", wall_time_s=wall)
    mip = bool(a.integrality.any())
    if not ran or not (status == status_of.kOptimal or (
            mip and status in limits and info.objective_function_value != _highs.kHighsInf)):
        return MilpResult(status="limit", wall_time_s=wall)
    x = np.array(highs.getSolution().col_value)
    if not mip:
        return MilpResult(status="optimal", objective=info.objective_function_value, x=x,
                          wall_time_s=wall)
    gap = info.mip_gap
    proved = status == status_of.kOptimal or (status in limits[:2] and gap <= gap_tol)
    return MilpResult(
        status="optimal" if proved else "limit",
        objective=info.objective_function_value,
        x=x,
        best_bound=info.mip_dual_bound,
        gap=gap,
        nodes=info.mip_node_count,
        wall_time_s=wall,
    )
