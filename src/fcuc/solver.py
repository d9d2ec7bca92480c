"""MILP solving with HiGHS.

`solve_milp` hands the whole problem to HiGHS branch-and-cut through
`scipy.optimize.milp`. The test suite cross-checks it against an enumeration
oracle, `tests/oracles.py::brute_force_milp`.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .milp import MilpProblem

__all__ = ["MilpResult", "solve_milp"]

# HiGHS options beyond scipy's documented ones, passed to HiGHS verbatim. The
# commitment MILPs are slow at the root, not in branching: on the slow
# uniform-reserve solves these three heuristics spent about half of the LP
# iterations after the returned incumbent was already found. Turning them off
# halves the bench's `industry-day` with the same iterations, cuts and
# objectives.
_HIGHS_OPTIONS = {
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
    from scipy.optimize import Bounds, LinearConstraint, milp

    t0 = time.perf_counter()
    a_ub, b_ub, a_eq, b_eq = p.split_rows()
    lb, ub = p.bounds()
    constraints = []
    if a_ub.shape[0]:
        constraints.append(LinearConstraint(a_ub, -np.inf, b_ub))
    if a_eq.shape[0]:
        constraints.append(LinearConstraint(a_eq, b_eq, b_eq))
    integrality = np.zeros(p.ncols)
    integrality[p.binary_columns()] = 1
    options = {"mip_rel_gap": gap_tol, **_HIGHS_OPTIONS}
    if time_limit_s is not None:
        options["time_limit"] = time_limit_s
    with warnings.catch_warnings():
        # scipy warns that it hands the keys of _HIGHS_OPTIONS to HiGHS verbatim.
        warnings.filterwarnings(
            "ignore", message="Unrecognized options detected", category=RuntimeWarning
        )
        res = milp(
            p.objective(),
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(lb, ub),
            options=options,
        )
    wall = time.perf_counter() - t0
    if res.status == 2:  # infeasible
        return MilpResult(status="infeasible", wall_time_s=wall)
    if res.x is None:
        return MilpResult(status="limit", wall_time_s=wall)
    gap = float(res.mip_gap) if res.mip_gap is not None else np.nan
    if res.status == 0:
        status = "optimal"
    elif res.status == 1:  # iteration/time limit with incumbent
        status = "limit" if not (gap <= gap_tol) else "optimal"
    else:
        status = "limit"
    return MilpResult(
        status=status,
        objective=float(res.fun),
        x=np.asarray(res.x),
        best_bound=float(res.mip_dual_bound) if res.mip_dual_bound is not None else np.nan,
        gap=gap,
        nodes=int(res.mip_node_count) if res.mip_node_count is not None else 0,
        wall_time_s=wall,
    )
