"""HiGHS MILP solves against exhaustive enumeration, and status mapping."""

import pathlib

import numpy as np
import pytest

from conftest import tiny_scenario
from fcuc.milp import GE, LE, MilpProblem
from fcuc.scenario import load_scenario
from fcuc.solver import brute_force_milp, solve_milp
from fcuc.ucmodel import build_fcuc

EXAMPLE = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "example_scenario.json"


def test_solve_milp_matches_brute_force_on_small_uc_instances():
    """Criterion 6: optimal objectives agree on >= 50 generated instances."""
    agreed = 0
    for seed in range(50):
        s = tiny_scenario(seed)
        p = build_fcuc(s)
        assert len(p.binary_columns()) <= 10
        exact = brute_force_milp(p, max_binaries=10)
        ours = solve_milp(p, gap_tol=1e-9)
        assert ours.status == exact.status, f"seed {seed}"
        if exact.status == "optimal":
            assert ours.objective == pytest.approx(exact.objective, abs=1e-6, rel=1e-9), (
                f"seed {seed}"
            )
            agreed += 1
    assert agreed >= 40  # the generator must mostly produce feasible instances


def test_incumbent_is_integral_and_in_bounds():
    p = build_fcuc(tiny_scenario(1))
    res = solve_milp(p, gap_tol=1e-9)
    assert res.status == "optimal"
    lb, ub = p.bounds()
    assert np.all(res.x >= lb - 1e-7) and np.all(res.x <= ub + 1e-7)
    for j in p.binary_columns():
        assert min(abs(res.x[j]), abs(res.x[j] - 1.0)) < 1e-7
    assert res.gap <= 1e-9 + 1e-12
    assert res.objective == pytest.approx(float(p.objective() @ res.x), abs=1e-6)


def test_time_limit_yields_limit_status():
    """A solve stopped by its time limit is reported as "limit", not infeasible."""
    p = build_fcuc(load_scenario(str(EXAMPLE)))
    res = solve_milp(p, time_limit_s=0.0)
    assert res.status == "limit"
    assert res.x is None


def test_infeasible_milp_reported():
    p = MilpProblem()
    p.add_var("b", binary=True, cost=1.0)
    p.add_row("hi", {0: 1.0}, LE, 0.4)
    p.add_row("lo", {0: 1.0}, GE, 0.6)
    assert solve_milp(p).status == "infeasible"
    assert brute_force_milp(p).status == "infeasible"


def test_brute_force_refuses_large_problems():
    p = MilpProblem()
    for j in range(25):
        p.add_var(f"b{j}", binary=True, cost=1.0)
    with pytest.raises(ValueError):
        brute_force_milp(p, max_binaries=20)
