"""MILP container bookkeeping and UC model structure."""

import numpy as np
import pytest

from conftest import desk_scenario
from fcuc.boundary import NadirCut
from fcuc.dynamics import TechClass
from fcuc.milp import EQ, GE, LE, MilpProblem
from fcuc.solver import solve_milp
from fcuc.ucmodel import (
    BuildOptions,
    add_nadir_cut,
    build_fcuc,
    check_feasibility,
    decode_solution,
    fleet_mix,
    online_mix,
)


# ---------------------------------------------------------------------------
# container

def test_container_rejects_duplicates_and_bad_rows():
    p = MilpProblem()
    p.add_var("x", 0.0, 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        p.add_var("x")
    p.add_row("r", {0: 1.0}, LE, 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        p.add_row("r", {0: 1.0}, LE, 2.0)
    with pytest.raises(ValueError, match="sense"):
        p.add_row("s", {0: 1.0}, "<", 1.0)
    with pytest.raises(ValueError, match="unknown column"):
        p.add_row("t", {5: 1.0}, LE, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        p.add_row("u", {0: np.inf}, LE, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        p.add_var("bad", lb=float("nan"))


def test_binary_bounds_clamped():
    p = MilpProblem()
    j = p.add_var("b", lb=-3.0, ub=7.0, binary=True)
    assert p.variables[j].lb == 0.0 and p.variables[j].ub == 1.0


def test_split_rows_negates_ge():
    p = MilpProblem()
    p.add_var("x")
    p.add_row("ge", {0: 2.0}, GE, 4.0)
    p.add_row("eq", {0: 1.0}, EQ, 3.0)
    a_ub, b_ub, a_eq, b_eq = p.split_rows()
    assert a_ub.toarray().tolist() == [[-2.0]] and b_ub.tolist() == [-4.0]
    assert a_eq.toarray().tolist() == [[1.0]] and b_eq.tolist() == [3.0]


# ---------------------------------------------------------------------------
# UC model structure

@pytest.fixture(scope="module")
def desk_s():
    return desk_scenario()


@pytest.fixture(scope="module")
def desk_p(desk_s):
    return build_fcuc(desk_s)


def test_expected_rows_and_columns(desk_s, desk_p):
    s, p = desk_s, desk_p
    g = s.committed_units()[0]
    for t in (1, s.periods):
        for prefix in ("u", "y", "z", "p", "r"):
            assert p.has_col(f"{prefix}_{g.id}_{t}")
        assert p.has_col(f"rpf_{t}") and p.has_col(f"m_{t}")
        for fam in ("balance", "reserve", "inertia", "rocof"):
            assert p.has_row(f"{fam}_{t}")
        for fam in ("logic", "cap", "pmin", "up", "down"):
            assert p.has_row(f"{fam}_{g.id}_{t}")
    for h in s.reservoir_units():
        assert p.has_row(f"energy_{h.id}")
    assert p.binary_columns()  # commitment vars are the only binaries
    assert all("u_" in p.variables[j].name for j in p.binary_columns())


def test_qss_caps_on_reserve_columns(desk_s, desk_p):
    s, p = desk_s, desk_p
    qf = s.limits.qss_max_dev_hz / s.nominal_freq_hz
    g = s.committed_units()[0]
    v = p.variables[p.col(f"r_{g.id}_1")]
    assert v.ub == pytest.approx(qf * g.pmax_mw / g.droop)
    rpf = p.variables[p.col("rpf_1")]
    assert rpf.ub == pytest.approx(qf * s.damping_at(1))
    # disabling QSS removes the caps
    loose = build_fcuc(s, BuildOptions(include_qss=False))
    assert loose.variables[loose.col(f"r_{g.id}_1")].ub == np.inf


def test_rocof_floor_value(desk_s, desk_p):
    s, p = desk_s, desk_p
    row = next(r for r in p.rows if r.name == "rocof_1")
    assert row.sense == GE
    assert row.rhs == pytest.approx(
        s.contingency_mw * s.nominal_freq_hz / s.limits.rocof_limit_hz_s
    )
    relaxed = build_fcuc(s, BuildOptions(include_rocof=False))
    assert not relaxed.has_row("rocof_1")


def test_uniform_reserve_option(desk_s):
    s = desk_s
    p = build_fcuc(s, BuildOptions(uniform_reserve_mw=s.contingency_mw * 1.3))
    row = next(r for r in p.rows if r.name == "reserve_1")
    assert row.rhs == pytest.approx(s.contingency_mw * 1.3)
    with pytest.raises(ValueError, match="uniform reserve"):
        build_fcuc(s, BuildOptions(uniform_reserve_mw=s.contingency_mw - 1.0))


def test_nadir_cut_row_and_idempotence(desk_s):
    s = desk_s
    p = build_fcuc(s)
    cut = NadirCut({TechClass.STEAM: 1 / 300.0, TechClass.COMBINED_CYCLE: 1 / 500.0}, 1.0)
    n0 = p.nrows
    add_nadir_cut(p, s, cut, 5)
    assert p.nrows == n0 + 1
    add_nadir_cut(p, s, cut, 5)  # same (cut, hour): no-op
    assert p.nrows == n0 + 1
    add_nadir_cut(p, s, cut, 6)  # same cut, other hour: new row
    assert p.nrows == n0 + 2
    row = p.rows[n0]
    coal = {u.id: u.pmax_mw for u in s.coal_units()}
    for j, c in row.coeffs.items():
        name = p.variables[j].name
        assert name.startswith("u_") and name.endswith("_5")
        uid = name[2:-2]
        if uid in coal:
            assert c == pytest.approx(coal[uid] / 300.0)


def test_nadir_cut_validation(desk_s):
    s = desk_s
    p = build_fcuc(s)
    with pytest.raises(ValueError, match="degenerate"):
        add_nadir_cut(p, s, NadirCut({TechClass.STEAM: 0.0}, 1.0), 1)
    with pytest.raises(ValueError, match="out of range"):
        add_nadir_cut(p, s, NadirCut({TechClass.STEAM: 0.01}, 1.0), 0)
    import dataclasses

    coal_only = dataclasses.replace(s, thermal_units=tuple(s.coal_units()))
    p2 = build_fcuc(coal_only)
    with pytest.raises(ValueError, match="no such units"):
        add_nadir_cut(p2, coal_only, NadirCut({TechClass.COMBINED_CYCLE: 0.01}, 1.0), 1)


# ---------------------------------------------------------------------------
# decode + audit on a real solution

@pytest.fixture(scope="module")
def desk_solution(desk_s, desk_p):
    res = solve_milp(desk_p, gap_tol=1e-6)
    assert res.status == "optimal"
    return decode_solution(desk_p, desk_s, res.x, res.objective)


def test_decoded_cost_identity(desk_solution):
    assert sum(desk_solution.cost_breakdown.values()) == pytest.approx(
        desk_solution.objective, rel=1e-6
    )


def test_audit_passes_on_true_solution(desk_s, desk_solution):
    assert check_feasibility(desk_s, desk_solution) == []


def test_audit_catches_injected_violations(desk_s, desk_solution):
    import copy

    sol = copy.deepcopy(desk_solution)
    g = desk_s.committed_units()[0]
    sol.power[(g.id, 3)] += 7.0  # breaks balance, maybe cap
    bad = check_feasibility(desk_s, sol)
    assert any(v.path.startswith("balance") for v in bad)

    sol = copy.deepcopy(desk_solution)
    sol.commit[(g.id, 4)] = 0.37  # non-binary commitment
    bad = check_feasibility(desk_s, sol)
    assert any(v.path.startswith("binary_u") for v in bad)

    sol = copy.deepcopy(desk_solution)
    sol.inertia_mws[2] = 1.0  # breaks inertia accounting and RoCoF floor
    bad = check_feasibility(desk_s, sol)
    families = {v.path.split("[")[0] for v in bad}
    assert {"inertia_sum", "rocof"} <= families

    sol = copy.deepcopy(desk_solution)
    for gg in desk_s.committed_units():
        sol.reserve[(gg.id, 1)] = 0.0
    sol.damping_reserve[1] = 0.0
    bad = check_feasibility(desk_s, sol)
    assert any(v.path.startswith("system_reserve") for v in bad)


def test_committed_capacity_only_for_committed_classes(desk_s, desk_solution):
    cap = desk_solution.committed_capacity_mw(desk_s, 1, TechClass.STEAM)
    assert 0.0 <= cap <= sum(u.pmax_mw for u in desk_s.coal_units())
    with pytest.raises(ValueError):
        desk_solution.committed_capacity_mw(desk_s, 1, TechClass.CONDENSER)


# ---------------------------------------------------------------------------
# commitment -> dynamics bridge

def test_online_mix_reflects_commitment(desk_s, desk_solution):
    hour = 12
    mix = online_mix(desk_s, desk_solution, hour)
    expected = sum(
        u.pmax_mw
        for u in desk_s.coal_units()
        if desk_solution.commit[(u.id, hour)] > 0.5
    )
    assert mix.tech(TechClass.STEAM).online_mw == pytest.approx(expected)
    assert mix.load_damping_mw_per_pu == pytest.approx(desk_s.damping_at(hour))
    with pytest.raises(ValueError):
        online_mix(desk_s, desk_solution, 0)


def test_fleet_mix_zeroes_committed_classes(desk_s):
    mix = fleet_mix(desk_s, 1)
    for cls in (TechClass.STEAM, TechClass.COMBINED_CYCLE, TechClass.HYDRO_RESERVOIR):
        assert mix.tech(cls).online_mw == 0.0
    assert mix.tech(TechClass.RUN_OF_RIVER).online_mw == pytest.approx(
        sum(h.pmax_mw for h in desk_s.ror_units())
    )


def test_equivalent_droop_preserves_gain(desk_s):
    mix = fleet_mix(desk_s, 1)
    st = mix.tech(TechClass.STEAM)
    # restore fleet capacity, then the class gain must equal the unit-sum gain
    units = desk_s.coal_units()
    cap = sum(u.pmax_mw for u in units)
    gain = sum(u.pmax_mw / u.droop for u in units)
    assert cap / st.droop == pytest.approx(gain)
