"""HiGHS MILP solves against exhaustive enumeration, and status mapping."""

import itertools
import pathlib
import warnings

import numpy as np
import pytest

from conftest import desk_scenario, tiny_scenario
from fcuc.milp import GE, LE, MilpProblem
from fcuc.scenario import load_scenario
from fcuc.solver import solve_milp
from fcuc.ucmodel import build_fcuc
import oracles
from oracles import brute_force_milp, without_rows

EXAMPLE = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "example_scenario.json"


def test_solve_milp_matches_brute_force_on_small_uc_instances(milp_oracle):
    """Criterion 6: optimal objectives agree on >= 50 generated instances."""
    exact_all, _ = milp_oracle
    agreed = 0
    for seed, exact in enumerate(exact_all):
        p = build_fcuc(tiny_scenario(seed))
        assert len(p.binary_columns()) <= 10
        ours = solve_milp(p, gap_tol=1e-9)
        assert ours.status == exact.status, f"seed {seed}"
        if exact.status == "optimal":
            assert ours.objective == pytest.approx(exact.objective, abs=1e-6, rel=1e-9), (
                f"seed {seed}"
            )
            agreed += 1
    assert agreed >= 40  # the generator must mostly produce feasible instances


def test_qss_commitment_rows_leave_the_enumerated_optima_unchanged(milp_oracle):
    """The rqss_* rows only repeat, at each integer commitment, what the column
    bounds and `cap` rows already impose: enumeration gives the same optima
    with and without them (instances of at most 6 binaries among seeds 0-24)."""
    exact_all, _ = milp_oracle
    compared = 0
    for seed, exact in enumerate(exact_all[:25]):
        p = build_fcuc(tiny_scenario(seed))
        if len(p.binary_columns()) > 6:
            continue
        loose = without_rows(p, "rqss_")
        assert p.nrows - loose.nrows == len(p.binary_columns())
        alone = brute_force_milp(loose)
        assert alone.status == exact.status, f"seed {seed}"
        if exact.status == "optimal":
            assert alone.objective == pytest.approx(exact.objective, abs=1e-6, rel=1e-9)
        compared += 1
    assert compared >= 8


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


def test_solve_milp_emits_no_warnings():
    """The HiGHS options beyond scipy's documented ones raise no warning."""
    p = build_fcuc(desk_scenario())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_milp(p)
    assert res.status == "optimal"


def test_infeasible_milp_reported():
    p = MilpProblem()
    p.add_var("b", binary=True, cost=1.0)
    p.add_row("hi", {0: 1.0}, LE, 0.4)
    p.add_row("lo", {0: 1.0}, GE, 0.6)
    assert solve_milp(p).status == "infeasible"
    assert brute_force_milp(p).status == "infeasible"


@pytest.mark.skipif(oracles._highs is None, reason="scipy's bundled HiGHS bindings are missing")
@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_oracle_lp_paths_agree_on_every_assignment(seed):
    """The oracle's one HiGHS model per instance and its `linprog` path give
    the same status and optimum (1e-9 relative) on every binary assignment
    of a small instance, infeasible assignments included."""
    p = build_fcuc(tiny_scenario(seed))
    model, linprog = oracles._lp_solver(p), oracles._lp_solver(p, use_linprog=True)
    lb, ub = p.bounds()
    binaries = p.binary_columns()
    infeasible = 0
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        lo, hi = lb.copy(), ub.copy()
        lo[binaries] = hi[binaries] = bits
        ours, reference = model(lo, hi), linprog(lo, hi)
        assert ours.status == reference.status, bits
        if reference.status == 0:
            assert ours.fun == pytest.approx(reference.fun, rel=1e-9), bits
        else:
            infeasible += 1
    assert 0 < infeasible < 2 ** len(binaries)


def test_brute_force_refuses_large_problems():
    p = MilpProblem()
    for j in range(25):
        p.add_var(f"b{j}", binary=True, cost=1.0)
    with pytest.raises(ValueError):
        brute_force_milp(p, max_binaries=20)
