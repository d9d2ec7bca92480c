"""HiGHS MILP solves against exhaustive enumeration and against the public
`scipy.optimize.milp` call, and status mapping."""

import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fcuc.drivers
import fcuc.solver
from conftest import desk_scenario, tiny_scenario
from fcuc.cli import main
from fcuc.drivers import run_industry, run_proposed
from fcuc.milp import GE, LE, MilpProblem
from fcuc.scenario import load_scenario
from fcuc.solver import solve_milp
from fcuc.ucmodel import build_fcuc
import oracles
from oracles import brute_force_milp, scipy_milp, without_rows

EXAMPLE = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "example_scenario.json"
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


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


_FCUC_PROCESS = """
import json, sys
import fcuc, fcuc.cli
rc = fcuc.cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "optimize"])))
sys.exit(rc)
"""


def _fresh_interpreter(code, *argv):
    """Run `code` in a fresh interpreter with `src/` and `tests/` on its path;
    return its stdout lines."""
    src = pathlib.Path(fcuc.drivers.__file__).resolve().parents[1]
    path = os.pathsep.join((str(src), str(pathlib.Path(__file__).resolve().parent)))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _fcuc_process(argv):
    """`fcuc.cli.main(argv)` in a fresh interpreter: its stdout lines, and
    the `scipy.optimize*` modules it had loaded at exit."""
    *out, modules = _fresh_interpreter(_FCUC_PROCESS, *argv)
    return out, json.loads(modules)


def test_a_process_that_solves_no_milp_never_loads_scipy_optimize():
    """HiGHS's bindings are loaded at the first solve, so a boundary study
    loads no `scipy.optimize` module at all: not HiGHS, and not the package,
    whose init no fcuc process runs (about 45 MB)."""
    out, modules = _fcuc_process(["study", "equivalence", "--scenario", str(EXAMPLE),
                                  "--tech-a", "combined_cycle", "--tech-b", "steam"])
    assert out[0].startswith("edge_combined_cycle_mw\t")
    assert modules == []


def test_a_process_that_solves_a_milp_loads_no_scipy_optimize_package(capsys):
    """`fcuc solve` loads HiGHS's bindings from their file alone: the same
    stdout as the run in this process (which imported the package through
    the oracles), with no `scipy.optimize` package and no module of it but
    the bindings and their submodules."""
    argv = ["solve", "--model", "industry", "--scenario", str(EXAMPLE),
            "--escalation", "1.1", "--max-iter", "40"]
    out, modules = _fcuc_process(argv)
    assert main(argv) == 0
    assert out == capsys.readouterr().out.splitlines()
    assert "scipy.optimize" not in modules
    assert fcuc.solver._BINDINGS in modules
    assert all(m.startswith(fcuc.solver._BINDINGS) for m in modules), modules


_SOLVE_THEN_IMPORT = """
import sys
import fcuc.solver
from conftest import desk_scenario
from fcuc.ucmodel import build_fcuc

used = []
load = fcuc.solver._highs_bindings
fcuc.solver._highs_bindings = lambda: used.append(load()) or used[-1]
p = build_fcuc(desk_scenario())
ours = fcuc.solver.solve_milp(p)
assert "scipy.optimize" not in sys.modules
from scipy.optimize._highspy import _core
from oracles import scipy_milp
reference = scipy_milp(p)
again = fcuc.solver.solve_milp(p)
assert used[0] is used[1] is _core is sys.modules[fcuc.solver._BINDINGS]
for other in (reference, again):
    assert ours.x.tobytes() == other.x.tobytes() and ours.objective == other.objective
print(len(used), ours.status)
"""


def test_one_bindings_module_when_scipy_optimize_is_imported_after_a_solve():
    """A first solve loads the bindings file; a later `import scipy.optimize`
    binds that same module instead of initialising a second one, and
    `milp` through it gives the bit-identical incumbent."""
    assert _fresh_interpreter(_SOLVE_THEN_IMPORT) == ["2 optimal"]


def test_solve_milp_reuses_the_bindings_the_process_has_imported(monkeypatch):
    """Tier-1's own order: the oracles import `scipy.optimize` at collection,
    and `solve_milp` takes its bindings from `sys.modules`, loading nothing."""
    from scipy.optimize._highspy import _core

    def search():
        raise AssertionError("solve_milp searched for the bindings file")

    used = []
    load = fcuc.solver._highs_bindings
    monkeypatch.setattr(fcuc.solver, "_bindings_dir", search)
    monkeypatch.setattr(fcuc.solver, "_highs_bindings", lambda: used.append(load()) or used[-1])
    assert solve_milp(_lp()).status == "optimal"
    assert len(used) == 1 and used[0] is _core is oracles._highs


def test_a_missing_bindings_file_fails_every_solve_loudly(monkeypatch, tmp_path):
    """With no `_core` extension file where scipy keeps the bindings, a solve
    raises ImportError naming the directory searched, and imports nothing
    in its place; a `_core` file of another suffix does not count."""
    (tmp_path / "_core.py").write_text("raise AssertionError('loaded')\n")
    monkeypatch.delitem(sys.modules, fcuc.solver._BINDINGS)
    monkeypatch.setattr(fcuc.solver, "_bindings_dir", lambda: tmp_path)
    for _ in range(2):
        with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
            solve_milp(_lp())
        assert fcuc.solver._BINDINGS not in sys.modules


def test_infeasible_milp_reported():
    p = MilpProblem()
    p.add_var("b", binary=True, cost=1.0)
    p.add_row("hi", {0: 1.0}, LE, 0.4)
    p.add_row("lo", {0: 1.0}, GE, 0.6)
    assert solve_milp(p).status == "infeasible"
    assert brute_force_milp(p).status == "infeasible"


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


def _same_solve(ours, reference, where):
    """Same status, bit-identical incumbent, and the same objective, bound,
    gap and node count (NaN matching NaN)."""
    assert ours.status == reference.status, where
    if reference.x is None:
        assert ours.x is None, where
    else:
        assert ours.x.tobytes() == reference.x.tobytes(), where
    for name in ("objective", "best_bound", "gap", "nodes"):
        a, b = getattr(ours, name), getattr(reference, name)
        assert a == b or (math.isnan(a) and math.isnan(b)), f"{where}: {name} {a} != {b}"


@pytest.fixture(scope="module")
def bench_driver_solves():
    """Every MILP the benchmark's driver days solve in both models, each
    solved at the moment the loop solves it by solve_milp and by
    oracles.scipy_milp; the loop goes on with solve_milp's result."""
    sys.path.insert(0, str(BENCH))
    try:
        import days
        from workloads import DRIVER_DAYS
    finally:
        sys.path.remove(str(BENCH))
    solves = []
    solve = fcuc.drivers.solve_milp

    def both(p, **kw):
        ours = solve(p, **kw)
        solves.append((f"{p.name} {model} solve {len(solves) + 1}", ours, scipy_milp(p, **kw)))
        return ours

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fcuc.drivers, "solve_milp", both)
        for name in DRIVER_DAYS:
            s = days.make_day(name, str(BENCH / "example_scenario.json"))
            model = "proposed"
            run_proposed(s, max_iter=12)
            model = "industry"
            run_industry(s, escalation_factor=1.1, max_iter=40)
    return solves


def test_solve_milp_matches_scipy_milp_on_every_bench_driver_milp(bench_driver_solves):
    assert {where.split()[1] for where, *_ in bench_driver_solves} == {"proposed", "industry"}
    for where, ours, reference in bench_driver_solves:
        assert ours.status == "optimal", where
        _same_solve(ours, reference, where)


def _lp(unbounded: bool = False) -> MilpProblem:
    """min x + 2y (or -x + 2y, unbounded) over x + y >= 3, x <= 2.5 (or not), 0 <= y <= 4."""
    p = MilpProblem("lp")
    p.add_var("x", cost=-1.0 if unbounded else 1.0)
    p.add_var("y", ub=4.0, cost=2.0)
    p.add_row("cover", {0: 1.0, 1: 1.0}, GE, 3.0)
    if not unbounded:
        p.add_row("cap", {0: 1.0}, LE, 2.5)
    return p


@pytest.mark.parametrize("case", ["tiny-0", "tiny-1", "tiny-2", "tiny-3-gap1e-9", "lp",
                                  "unbounded-lp", "infeasible", "example-time-limit-0"])
def test_solve_milp_matches_scipy_milp(case):
    kw = {}
    if case.startswith("tiny"):
        p = build_fcuc(tiny_scenario(int(case.split("-")[1])))
        if case.endswith("gap1e-9"):
            kw["gap_tol"] = 1e-9
    elif case.endswith("lp"):
        p = _lp(unbounded=case == "unbounded-lp")
    elif case == "infeasible":
        p = MilpProblem()
        p.add_var("b", binary=True, cost=1.0)
        p.add_row("hi", {0: 1.0}, LE, 0.4)
        p.add_row("lo", {0: 1.0}, GE, 0.6)
    else:
        p, kw["time_limit_s"] = build_fcuc(load_scenario(str(EXAMPLE))), 0.0
    ours, reference = solve_milp(p, **kw), scipy_milp(p, **kw)
    _same_solve(ours, reference, case)
    expected = {"infeasible": "infeasible", "unbounded-lp": "limit", "example-time-limit-0": "limit"}
    assert ours.status == expected.get(case, "optimal")


def test_brute_force_refuses_large_problems():
    p = MilpProblem()
    for j in range(25):
        p.add_var(f"b{j}", binary=True, cost=1.0)
    with pytest.raises(ValueError):
        brute_force_milp(p, max_binaries=20)
