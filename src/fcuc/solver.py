"""MILP solving with HiGHS, plus a brute-force oracle for tests.

`solve_milp` hands the whole problem to HiGHS branch-and-cut through
`scipy.optimize.milp`. `brute_force_milp` enumerates every binary assignment
and solves each continuous LP with HiGHS (`scipy.optimize.linprog`); it
cross-checks `solve_milp` on small instances.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .milp import MilpProblem

__all__ = ["MilpResult", "solve_milp", "brute_force_milp"]


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
    options = {"mip_rel_gap": gap_tol}
    if time_limit_s is not None:
        options["time_limit"] = time_limit_s
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


def brute_force_milp(p: MilpProblem, max_binaries: int = 20) -> MilpResult:
    """Enumerate every binary assignment, solve each continuous LP, keep the best.

    Test oracle only; refuses problems with more than `max_binaries` binaries.
    """
    from scipy.optimize import linprog

    t0 = time.perf_counter()
    binaries = p.binary_columns()
    if len(binaries) > max_binaries:
        raise ValueError(f"{len(binaries)} binaries exceeds oracle limit {max_binaries}")
    c = p.objective()
    a_ub, b_ub, a_eq, b_eq = p.split_rows()
    lb, ub = p.bounds()
    best = None
    count = 0
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        lo, hi = lb.copy(), ub.copy()
        lo[binaries] = hi[binaries] = bits
        res = linprog(
            c,
            A_ub=a_ub if a_ub.shape[0] else None,
            b_ub=b_ub if len(b_ub) else None,
            A_eq=a_eq if a_eq.shape[0] else None,
            b_eq=b_eq if len(b_eq) else None,
            bounds=np.column_stack([lo, hi]),
            method="highs",
        )
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
