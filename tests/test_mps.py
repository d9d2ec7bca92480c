"""MPS writer/reader round-trip and external-solver cross-check."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp as scipy_milp

import fcuc
from conftest import desk_scenario, tiny_scenario
from fcuc.milp import EQ, GE, LE, MilpProblem
from fcuc.mps import export_mps, parse_mps
from fcuc.solver import solve_milp
from fcuc.ucmodel import build_fcuc


def _assert_same_problem(a: MilpProblem, b: MilpProblem):
    assert [v.name for v in a.variables] == [v.name for v in b.variables]
    assert [(v.lb, v.ub, v.binary, v.cost) for v in a.variables] == [
        (v.lb, v.ub, v.binary, v.cost) for v in b.variables
    ]
    assert [r.name for r in a.rows] == [r.name for r in b.rows]
    for ra, rb in zip(a.rows, b.rows):
        assert ra.sense == rb.sense and ra.rhs == rb.rhs
        assert ra.coeffs == rb.coeffs


def test_round_trip_small_handmade(tmp_path):
    p = MilpProblem("toy")
    p.add_var("x", 1.5, 9.0, cost=2.0)
    p.add_var("b", binary=True, cost=-1.0)
    p.add_var("unused")  # zero cost, appears in no row
    p.add_row("r1", {0: 1.0, 1: -3.0}, LE, 5.0)
    p.add_row("r2", {0: 2.0}, GE, 1.0)
    p.add_row("r3", {1: 1.0}, EQ, 1.0)
    path = tmp_path / "toy.mps"
    export_mps(p, str(path))
    q = parse_mps(str(path))
    assert q.name == "toy"
    # column with neither cost nor row entries cannot appear in MPS COLUMNS;
    # compare only the columns that carry data
    assert [v.name for v in q.variables] == ["x", "b"]
    assert q.variables[0].lb == 1.5 and q.variables[0].ub == 9.0
    assert q.variables[1].binary
    assert [(r.name, r.sense, r.rhs) for r in q.rows] == [
        ("r1", LE, 5.0), ("r2", GE, 1.0), ("r3", EQ, 1.0)
    ]
    assert q.rows[0].coeffs == {0: 1.0, 1: -3.0}


def test_round_trip_full_uc_model(tmp_path):
    p = build_fcuc(desk_scenario())
    path = tmp_path / "uc.mps"
    export_mps(p, str(path))
    q = parse_mps(str(path))
    _assert_same_problem(p, q)


def test_round_trip_is_idempotent(tmp_path):
    p = build_fcuc(tiny_scenario(4))
    a, b = tmp_path / "a.mps", tmp_path / "b.mps"
    export_mps(p, str(a))
    q = parse_mps(str(a))
    export_mps(q, str(b))
    assert a.read_text() == b.read_text()


def _external_solve(p: MilpProblem) -> float:
    a_ub, b_ub, a_eq, b_eq = p.split_rows()
    lb, ub = p.bounds()
    integrality = np.zeros(p.ncols)
    integrality[p.binary_columns()] = 1
    constraints = []
    if a_ub.shape[0]:
        constraints.append(LinearConstraint(a_ub, -np.inf, b_ub))
    if a_eq.shape[0]:
        constraints.append(LinearConstraint(a_eq, b_eq, b_eq))
    res = scipy_milp(
        p.objective(),
        constraints=constraints,
        bounds=Bounds(lb, ub),
        integrality=integrality,
    )
    assert res.status == 0, res.message
    return float(res.fun)


def test_exported_file_solves_to_same_objective(tmp_path):
    """Criterion 12: an external solve of the exported file reproduces the
    `solve_milp` optimum of the in-memory model."""
    for seed in (0, 3, 7):
        p = build_fcuc(tiny_scenario(seed))
        path = tmp_path / f"t{seed}.mps"
        export_mps(p, str(path))
        reread = parse_mps(str(path))
        external = _external_solve(reread)
        internal = solve_milp(p, gap_tol=1e-9)
        assert internal.status == "optimal"
        assert internal.objective == pytest.approx(external, abs=1e-5, rel=1e-8)


_EXPORT_WITH_CUT = """
import sys
from fcuc.boundary import fit_hyperplane
from fcuc.dynamics import TechClass
from fcuc.mps import export_mps
from fcuc.scenario import load_scenario
from fcuc.ucmodel import BuildOptions, build_fcuc

s = load_scenario(sys.argv[1])
cut = fit_hyperplane({TechClass.STEAM: 900.0, TechClass.COMBINED_CYCLE: 700.0}, "hour=5")
export_mps(build_fcuc(s, BuildOptions(nadir_cuts=((5, cut),))), sys.argv[2])
"""


def test_nadir_cut_export_is_identical_across_hash_seeds(tmp_path):
    """Row names of nadir cuts do not depend on the per-process string hash."""
    root = pathlib.Path(__file__).resolve().parents[1]
    example = root / "scripts" / "example_scenario.json"
    src = str(pathlib.Path(fcuc.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}.mps"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-c", _EXPORT_WITH_CUT, str(example), str(out)],
            env=env,
            check=True,
            timeout=120,
        )
        outputs.append(out.read_bytes())
    assert b" nadir_5_" in outputs[0]
    assert outputs[0] == outputs[1]


def test_parser_accepts_rhs_defaults_and_comments(tmp_path):
    text = """* comment line
NAME demo
ROWS
 N obj
 L lim
COLUMNS
    x obj 1 lim 1
BOUNDS
 UP BND x 4
ENDATA
"""
    path = tmp_path / "demo.mps"
    path.write_text(text)
    p = parse_mps(str(path))
    assert p.rows[0].rhs == 0.0  # missing RHS entry defaults to zero
    assert p.variables[0].ub == 4.0
    assert p.variables[0].cost == 1.0
