"""MILP container bookkeeping and UC model structure."""

import copy
import dataclasses
import gc
import pathlib
import tracemalloc

import numpy as np
import pytest

import fcuc.solver
from conftest import battery_scenario, desk_scenario
from fcuc.boundary import NadirCut
from fcuc.dynamics import DEFAULT_INERTIA_H, TechClass, TechState
from fcuc.milp import EQ, GE, LE, MilpProblem
from fcuc.scenario import Battery, load_scenario, validate_scenario
from fcuc.solver import solve_milp
from fcuc.ucmodel import (
    _CLASS_UNITS,
    AVAIL_TOL_MW,
    COMMITTED_CLASSES,
    BuildOptions,
    HourTable,
    UcSolution,
    add_nadir_cut,
    build_fcuc,
    check_feasibility,
    decode_solution,
    fleet_capacity_mw,
    fleet_mix,
    online_mix,
    units_of,
)
from oracles import gfl_batteries, has_col, lp_bound, without_rows

EXAMPLE = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "example_scenario.json"


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
    for bad in (np.inf, float("nan")):
        with pytest.raises(ValueError, match="^row 'u' has non-finite coefficient on column 0$"):
            p.add_row("u", {0: bad}, LE, 1.0)
        with pytest.raises(ValueError, match="^row 'u' has non-finite rhs$"):
            p.add_row("u", {0: 1.0}, LE, bad)
    assert not p.has_row("u")
    with pytest.raises(ValueError, match="NaN"):
        p.add_var("bad", lb=float("nan"))
    with pytest.raises(ValueError, match="^column 'bad' has a non-finite cost$"):
        p.add_var("bad", cost=np.inf)


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

    # the solver form of rows added in mixed order, then edited: `<=` rows and
    # negated `>=` rows first, then `==` rows, each block in the order added
    q = MilpProblem()
    for name in ("x", "y", "z"):
        q.add_var(name)
    q.add_row("le1", {0: 1.0, 1: 2.0}, LE, 4.0)
    q.add_row("eq1", {1: 1.0, 2: -1.0}, EQ, 1.0)
    q.add_row("ge1", {2: 1.0, 0: 3.0}, GE, 2.0)
    q.add_row("eq2", {2: 1.0, 0: 1.0}, EQ, 5.0)
    q.add_row("le2", {2: 4.0}, LE, 7.0)
    before = q.solver_arrays()
    q.set_rhs("ge1", 6.0)
    q.set_rhs("eq2", 8.0)
    q.add_row("ge2", {1: 2.0, 2: 1.0}, GE, 1.0)
    a = q.solver_arrays()
    dense = np.array([
        [1.0, 2.0, 0.0],  # le1
        [-3.0, 0.0, -1.0],  # ge1, negated
        [0.0, 0.0, 4.0],  # le2
        [0.0, -2.0, -1.0],  # ge2, negated
        [0.0, 1.0, -1.0],  # eq1
        [1.0, 0.0, 1.0],  # eq2
    ])
    upper = [4.0, -6.0, 7.0, -1.0, 1.0, 8.0]
    assert a.n_ub == 4
    built = np.zeros_like(dense)
    for j in range(q.ncols):
        rows = a.index[a.start[j]:a.start[j + 1]]
        assert (np.diff(rows) > 0).all()
        built[rows, j] = a.value[a.start[j]:a.start[j + 1]]
    assert built.tolist() == dense.tolist() and a.start[-1] == np.count_nonzero(dense)
    assert a.row_upper.tolist() == upper
    assert a.row_lower.tolist() == [-np.inf] * 4 + upper[4:]
    assert before.row_upper.tolist() == [4.0, -2.0, 7.0, 1.0, 5.0]  # not shared
    a_ub, b_ub, a_eq, b_eq = q.split_rows()
    assert a_ub.toarray().tolist() == dense[:4].tolist() and b_ub.tolist() == upper[:4]
    assert a_eq.toarray().tolist() == dense[4:].tolist() and b_eq.tolist() == upper[4:]


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
            assert has_col(p, f"{prefix}_{g.id}_{t}")
        assert has_col(p, f"rpf_{t}") and has_col(p, f"m_{t}")
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


def test_qss_caps_are_tied_to_commitment(desk_s, desk_p):
    """One row r - cap * u <= 0 per committed unit and hour, named rqss_<id>_<t>."""
    s, p = desk_s, desk_p
    qf = s.limits.qss_max_dev_hz / s.nominal_freq_hz
    rows = {r.name: r for r in p.rows if r.name.startswith("rqss_")}
    assert len(rows) == len(s.committed_units()) * s.periods
    for g in s.committed_units():
        for t in (1, s.periods):
            row = rows[f"rqss_{g.id}_{t}"]
            assert (row.sense, row.rhs) == (LE, 0.0)
            assert row.coeffs == {
                p.col(f"r_{g.id}_{t}"): 1.0,
                p.col(f"u_{g.id}_{t}"): -qf * g.pmax_mw / g.droop,
            }


def test_qss_commitment_rows_raise_the_desk_lp_bound(desk_s):
    """The rows cut off reserve bought from fractional commitments: the LP
    relaxation at 1.1x the contingency is strictly tighter with them."""
    s = desk_s
    p = build_fcuc(s, BuildOptions(uniform_reserve_mw=1.1 * s.contingency_mw))
    tight, loose = lp_bound(p), lp_bound(without_rows(p, "rqss_"))
    assert tight > loose * (1.0 + 1e-3)


def test_gfm_battery_qss_cap_bounds_its_reserve_sum():
    """The MILP caps rch + rdis of a GFM battery as the audit does, so the
    first solve of the battery day passes the audit."""
    s = battery_scenario()
    qf = s.limits.qss_max_dev_hz / s.nominal_freq_hz
    p = build_fcuc(s)
    (b,) = s.gfm_batteries()
    row = next(r for r in p.rows if r.name == f"bqss_{b.id}_1")
    assert row.sense == LE and row.rhs == pytest.approx(qf * b.pmax_mw / b.droop)
    assert set(row.coeffs) == {p.col(f"rch_{b.id}_1"), p.col(f"rdis_{b.id}_1")}
    assert sum(r.name.startswith("bqss_") for r in p.rows) == s.periods  # not the GFL one
    res = solve_milp(p)
    assert res.status == "optimal"
    assert check_feasibility(s, decode_solution(p, s, res.x, res.objective)) == []


def test_residual_availability_is_built_as_zero(capfd, monkeypatch):
    """pv_a's sin(pi) residue at hour 19 of the example becomes a 0 MW bound,
    and HiGHS no longer warns about excessively small column bounds."""
    s = load_scenario(str(EXAMPLE))
    pv = next(g for g in s.renewable_units if g.id == "pv_a")
    assert 0.0 < pv.avail_profile_mw[18] < AVAIL_TOL_MW
    p = build_fcuc(s)
    assert p.variables[p.col("p_pv_a_19")].ub == 0.0
    monkeypatch.setitem(fcuc.solver._HIGHS_OPTIONS, "log_to_console", True)
    capfd.readouterr()
    assert solve_milp(p).status == "optimal"
    log = capfd.readouterr().out
    assert "Running HiGHS" in log
    assert "excessively small" not in log


def test_rocof_floor_value(desk_s, desk_p):
    s, p = desk_s, desk_p
    row = next(r for r in p.rows if r.name == "rocof_1")
    assert row.sense == GE
    assert row.rhs == pytest.approx(
        s.contingency_mw * s.nominal_freq_hz / s.limits.rocof_limit_hz_s
    )


def test_min_up_down_windows_are_cut_short_at_the_horizon(desk_s, desk_p):
    """A start (stop) at t holds the unit on (off) for min(min_h, T - t + 1)
    hours: the window ends with the day instead of running past it."""
    s, p = desk_s, desk_p
    T = s.periods
    g = next(u for u in s.committed_units() if u.id == "coal_a")
    assert g.min_up_h == g.min_down_h == 4
    rows = {r.name: r for r in p.rows}
    for t in range(1, T + 1):
        n = min(4, T - t + 1)
        window = {p.col(f"u_{g.id}_{tau}") for tau in range(t, t + n)}
        up, down = rows[f"up_{g.id}_{t}"], rows[f"down_{g.id}_{t}"]
        assert (up.sense, up.rhs, down.sense, down.rhs) == (GE, 0.0, GE, -float(n))
        assert up.coeffs == {**dict.fromkeys(window, 1.0), p.col(f"y_{g.id}_{t}"): -float(n)}
        assert down.coeffs == {**dict.fromkeys(window, -1.0), p.col(f"z_{g.id}_{t}"): -float(n)}
    tail = rows[f"up_{g.id}_{T - 1}"].coeffs
    assert sum(p.variables[j].name.startswith("u_") for j in tail) == 2
    assert tail[p.col(f"y_{g.id}_{T - 1}")] == -2.0


def _coal_a_ending(sol, T: int, last: tuple[float, float, float]):
    """coal_a on from its committed start through T-3, then `last` at T-2, T-1
    and T, with start-up and shut-down flags that satisfy the logic rows."""
    sol = copy.deepcopy(sol)
    prev = 1.0
    for t, u in enumerate((1.0,) * (T - 3) + last, start=1):
        sol.commit[("coal_a", t)] = u
        sol.startup[("coal_a", t)] = max(u - prev, 0.0)
        sol.shutdown[("coal_a", t)] = max(prev - u, 0.0)
        prev = u
    return sol


def test_audit_flags_a_switch_back_inside_the_last_window(desk_s, desk_solution):
    """A start at T-1 with a stop at T breaks the two-hour end window of a
    4-hour min up; staying on to T satisfies it. Likewise for min down."""
    s, T = desk_s, desk_s.periods

    def flagged(family, last):
        bad = check_feasibility(s, _coal_a_ending(desk_solution, T, last))
        return {v.path for v in bad if v.path.startswith(family)}

    assert flagged("min_up", (0.0, 1.0, 0.0)) == {f"min_up[coal_a,t={T - 1}]"}
    assert flagged("min_up", (0.0, 1.0, 1.0)) == set()
    assert flagged("min_down", (1.0, 0.0, 1.0)) == {f"min_down[coal_a,t={T - 1}]"}
    assert flagged("min_down", (1.0, 0.0, 0.0)) == set()


def test_uniform_reserve_option(desk_s):
    s = desk_s
    p = build_fcuc(s, BuildOptions(uniform_reserve_mw=s.contingency_mw * 1.3))
    row = next(r for r in p.rows if r.name == "reserve_1")
    assert row.rhs == pytest.approx(s.contingency_mw * 1.3)
    for below in (s.contingency_mw - 1.0, float("nan")):
        with pytest.raises(ValueError, match="uniform reserve"):
            build_fcuc(s, BuildOptions(uniform_reserve_mw=below))


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


def _dict_form(p: MilpProblem, s, x: np.ndarray) -> dict[str, dict]:
    """Each solution field as dicts keyed by (id, hour), or by hour for the
    system fields, read from the solver's values by column name."""
    hours = range(1, s.periods + 1)
    cids = [g.id for g in s.committed_units()]
    bids = [b.id for b in s.batteries]
    families = {
        "commit": ("u", cids), "startup": ("y", cids), "shutdown": ("z", cids),
        "power": ("p", cids + [g.id for g in s.renewable_units + s.ror_units()]),
        "reserve": ("r", cids), "batt_charge": ("pch", bids), "batt_discharge": ("pdis", bids),
        "batt_res_charge": ("rch", bids), "batt_res_discharge": ("rdis", bids),
        "batt_energy": ("e", bids),
    }
    form = {}
    for name, (prefix, ids) in families.items():
        keys = [(uid, t) for uid in ids for t in hours]
        form[name] = dict(zip(keys, x[[p.col(f"{prefix}_{u}_{t}") for u, t in keys]].tolist()))
    for name, prefix in (("damping_reserve", "rpf"), ("inertia_mws", "m")):
        form[name] = dict(zip(hours, x[[p.col(f"{prefix}_{t}") for t in hours]].tolist()))
    return form


@pytest.fixture(scope="module", params=["desk", "desk-batt"])
def decoded(request):
    """A day's first MILP at the drivers' gap: (scenario, problem, x, solution)."""
    s = desk_scenario() if request.param == "desk" else battery_scenario()
    p = build_fcuc(s)
    res = solve_milp(p, gap_tol=1e-4)
    assert res.status == "optimal"
    return s, p, res.x, decode_solution(p, s, res.x, res.objective)


def test_each_table_reads_as_the_dict_form(decoded):
    s, p, x, sol = decoded
    for name, form in _dict_form(p, s, x).items():
        table = getattr(sol, name)
        assert list(table.items()) == list(form.items()), name  # same keys, order, values
        assert dict(table) == form and table == form and form == table and len(table) == len(form)
        assert all(type(v) is float for v in table.values())
    assert sol.commit.index is sol.startup.index is sol.shutdown.index is sol.reserve.index
    assert sol.batt_charge.index is sol.batt_energy.index


def test_a_key_outside_a_table_raises_key_error(decoded):
    s, _, _, sol = decoded
    T, uid = s.periods, s.committed_units()[0].id
    sol = copy.deepcopy(sol)
    sol.commit[(uid, T)] = 0.25  # a value no other key holds: hour 0 must not find it
    sol.inertia_mws[T] = 0.25
    for table, keys in ((sol.commit, [(uid, 0), (uid, T + 1), ("no-such-unit", 1), uid, (uid,)]),
                        (sol.inertia_mws, [0, T + 1, -1, (uid, 1)])):
        for key in keys:
            with pytest.raises(KeyError):
                table[key]
            with pytest.raises(KeyError):
                table[key] = 1.0
            assert key not in table and table.get(key) is None
    with pytest.raises(KeyError):
        sol.commit.column(0)
    with pytest.raises(KeyError):
        sol.committed_capacity_mw(s, T + 1, TechClass.STEAM)
    assert sol.commit[(uid, T)] == sol.inertia_mws[T] == 0.25


def test_a_deepcopy_is_independent_of_its_source(decoded):
    s, _, _, sol = decoded
    key = (s.committed_units()[0].id, 3)
    before = dict(sol.power)
    twin = copy.deepcopy(sol)
    twin.power[key] += 7.0
    twin.damping_reserve[2] = -1.0
    assert sol.power == before and twin.power[key] == before[key] + 7.0
    assert sol.damping_reserve[2] != -1.0
    assert twin.commit.index is twin.reserve.index  # the copy shares its own index
    assert twin.commit.index == sol.commit.index and twin.commit.index is not sol.commit.index


def test_an_assignment_is_seen_by_the_audit(decoded):
    s, _, _, sol = decoded
    assert check_feasibility(s, sol) == []
    twin = copy.deepcopy(sol)
    g = s.committed_units()[-1]
    twin.power[(g.id, s.periods)] += 7.0
    twin.damping_reserve[s.periods] = -1.0
    paths = {v.path for v in check_feasibility(s, twin)}
    assert {f"balance[system,t={s.periods}]", f"rpf_sign[system,t={s.periods}]"} <= paths
    for b in s.batteries:
        twin = copy.deepcopy(sol)
        twin.batt_energy[(b.id, 5)] += 3.0
        paths = {v.path for v in check_feasibility(s, twin)}
        assert {f"soc[{b.id},t=5]", f"soc[{b.id},t=6]"} <= paths


def _kept_bytes(make) -> int:
    """The bytes that make() allocates and its result keeps, by tracemalloc."""
    make()  # any one-time cache is not the result's
    tracemalloc.start()
    try:
        gc.collect()  # a full collection empties the free lists a result could reuse
        before = tracemalloc.get_traced_memory()[0]
        kept = make()  # noqa: F841  held while the bytes are read
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_decoded_solution_keeps_a_quarter_of_the_dict_forms_bytes(decoded):
    """Hour tables keep the solver's values as float64; dicts keyed by
    (unit, hour) kept a tuple and a float object per value."""
    s, p, x, sol = decoded
    tables = _kept_bytes(lambda: decode_solution(p, s, x, sol.objective))
    dicts = _kept_bytes(lambda: _dict_form(p, s, x))
    assert 4 * tables <= dicts, (tables, dicts)


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
    # desk has no GFM units and no condensers: each at 0 MW with its class defaults
    for cls in (TechClass.GFM, TechClass.CONDENSER):
        assert not units_of(desk_s, cls)
        assert mix.tech(cls) == TechState(0.0, 0.05, DEFAULT_INERTIA_H[cls])


def test_equivalent_droop_preserves_gain(desk_s):
    mix = fleet_mix(desk_s, 1)
    st = mix.tech(TechClass.STEAM)
    # restore fleet capacity, then the class gain must equal the unit-sum gain
    units = desk_s.coal_units()
    cap = sum(u.pmax_mw for u in units)
    gain = sum(u.pmax_mw / u.droop for u in units)
    assert cap / st.droop == pytest.approx(gain)


# ---------------------------------------------------------------------------
# technology-class map

@pytest.fixture(scope="module")
def two_gfm():
    """Battery desk day with two GFM batteries of different response lags."""
    base = battery_scenario(name="desk-2gfm")
    gfm = (
        Battery("gfm_fast", "gfm_vsm", 100.0, 400.0, 40.0, 200.0, cost_var=2.0,
                inertia_h_s=5.0, droop=0.05, gfm_time_constant_s=0.02),
        Battery("gfm_slow", "gfm_vsm", 300.0, 1200.0, 120.0, 600.0, cost_var=2.0,
                inertia_h_s=4.0, droop=0.04, gfm_time_constant_s=0.2),
    )
    s = dataclasses.replace(base, batteries=gfm + gfl_batteries(base))
    assert validate_scenario(s) == []
    return s


def _all_committed(s) -> UcSolution:
    """A solution with every committed unit on at every hour; online_mix reads
    only the commitment."""
    index = {u.id: k for k, u in enumerate(s.committed_units())}
    commit = HourTable(index, np.ones((len(index), s.periods)))
    return UcSolution(commit, *([None] * 11), objective=0.0)


def test_class_table_is_total_and_partitions_the_fleet(two_gfm):
    s = two_gfm
    assert set(_CLASS_UNITS) == set(TechClass)
    ids = [u.id for cls in TechClass for u in units_of(s, cls)]
    assert len(ids) == len(set(ids))
    fleet = s.thermal_units + s.hydro_units + s.gfm_batteries() + s.condensers
    assert set(ids) == {u.id for u in fleet}
    assert set(COMMITTED_CLASSES) == {
        cls for cls in TechClass if set(units_of(s, cls)) <= set(s.committed_units())
    }
    assert fleet_capacity_mw(s, TechClass.STEAM) == sum(u.pmax_mw for u in s.coal_units())
    assert fleet_capacity_mw(s, TechClass.GFM) == 400.0
    assert fleet_capacity_mw(s, TechClass.CONDENSER) == sum(c.rating_mw for c in s.condensers)


def test_gfm_lag_is_capacity_weighted_in_both_mixes(two_gfm):
    s = two_gfm
    assert online_mix(s, _all_committed(s), 1).dynamics.gfm_lag_s == 0.155
    assert fleet_mix(s, 1).dynamics.gfm_lag_s == 0.155


def test_full_commitment_online_mix_is_the_full_fleet_mix(two_gfm):
    s = two_gfm
    sol = _all_committed(s)
    full = {cls: fleet_capacity_mw(s, cls) for cls in COMMITTED_CLASSES}
    for t in range(1, s.periods + 1):
        assert online_mix(s, sol, t) == fleet_mix(s, t).with_capacities(full)


def test_constant_class_cut_folds_into_rhs_and_audit_agrees():
    s = battery_scenario()
    hour = 3
    coeffs = {
        TechClass.STEAM: 1 / 300.0,
        TechClass.HYDRO_RESERVOIR: 1 / 600.0,
        TechClass.GFM: 1 / 2000.0,
        TechClass.RUN_OF_RIVER: 1 / 4000.0,
        TechClass.CONDENSER: 1 / 1000.0,
    }
    const = (
        coeffs[TechClass.GFM] * sum(b.pmax_mw for b in s.gfm_batteries())
        + coeffs[TechClass.RUN_OF_RIVER] * sum(h.pmax_mw for h in s.ror_units())
        + coeffs[TechClass.CONDENSER] * sum(c.rating_mw for c in s.condensers)
    )
    p = build_fcuc(s)
    res = solve_milp(p, gap_tol=1e-6)
    assert res.status == "optimal"
    sol = decode_solution(p, s, res.x, res.objective)

    add_nadir_cut(p, s, NadirCut(coeffs, 0.0), hour)
    committed_lhs = sum(c * res.x[j] for j, c in p.rows[-1].coeffs.items())
    verdicts = []
    # intercepts just above / below the lhs at x; each constant class adds >= 0.02
    for offset in (0.01, -0.01):
        cut = NadirCut(coeffs, committed_lhs + const + offset)
        add_nadir_cut(p, s, cut, hour)
        row = p.rows[-1]
        assert row.sense == GE
        assert row.rhs == pytest.approx(cut.intercept - const, rel=1e-12)
        row_ok = sum(c * res.x[j] for j, c in row.coeffs.items()) >= row.rhs - 1e-6
        bad = check_feasibility(s, sol, opts=BuildOptions(nadir_cuts=((hour, cut),)))
        assert row_ok == (not any(v.path.startswith("nadir_cut") for v in bad))
        verdicts.append(row_ok)
    assert verdicts == [False, True]
