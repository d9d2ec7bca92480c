"""Compliance-boundary learning: sweeps, bisection, cuts, conservativeness."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fcuc.boundary
from fcuc.boundary import (
    BracketingError,
    ComplianceGrid,
    NadirCut,
    SweepAxis,
    SweepSpec,
    bisect_min_capacity,
    find_edge_points,
    find_edge_points_many,
    fit_hyperplane,
    make_conservative,
    require_edges,
    sweep_grid,
)
from fcuc.dynamics import TechClass, response_metrics
from fcuc.scenario import FrequencyLimits
from oracles import make_conservative_by_points, make_mix, monotone_along_axes, serial_bisection

LIMITS = FrequencyLimits(2.0, 49.3, 0.8)


def _context(damping=900.0, contingency=120.0):
    return make_mix(
        capacities_mw={TechClass.CONDENSER: 100.0},
        load_damping_mw_per_pu=damping,
        contingency_mw=contingency,
    )


def test_axis_values_inclusive_lattice():
    ax = SweepAxis(TechClass.STEAM, 0.0, 500.0, 100.0)
    assert list(ax.values()) == [0.0, 100.0, 200.0, 300.0, 400.0, 500.0]
    with pytest.raises(ValueError):
        SweepAxis(TechClass.STEAM, 0.0, 10.0, 0.0).values()
    with pytest.raises(ValueError):
        SweepAxis(TechClass.STEAM, 10.0, 0.0, 1.0).values()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["min_mw", "max_mw", "granularity_mw"])
def test_axis_rejects_a_non_finite_bound_naming_the_axis(field, bad):
    fields = {"min_mw": 0.0, "max_mw": 500.0, "granularity_mw": 50.0, field: bad}
    with pytest.raises(ValueError, match=f"hydro_reservoir axis: {field} must be finite"):
        SweepAxis(TechClass.HYDRO_RESERVOIR, **fields)


def test_spec_rejects_bad_axes():
    ctx = _context()
    ax = SweepAxis(TechClass.STEAM, 0.0, 100.0, 50.0)
    with pytest.raises(ValueError):
        SweepSpec((), ctx, LIMITS)
    with pytest.raises(ValueError):
        SweepSpec((ax, ax), ctx, LIMITS)


def test_sweep_monotone_staircase_1d():
    spec = SweepSpec(
        (SweepAxis(TechClass.COMBINED_CYCLE, 0.0, 1200.0, 100.0),), _context(), LIMITS
    )
    grid = sweep_grid(spec)
    assert monotone_along_axes(grid)
    assert not grid.passed[0] and grid.passed[-1]


def test_sweep_monotone_2d_many_grids():
    """Criterion 5: nadir non-decreasing along every axis, >= 20 grids."""
    rng = random.Random(3)
    checked = 0
    pairs = [
        (TechClass.STEAM, TechClass.COMBINED_CYCLE),
        (TechClass.COMBINED_CYCLE, TechClass.HYDRO_RESERVOIR),
        (TechClass.GFM, TechClass.HYDRO_RESERVOIR),
        (TechClass.STEAM, TechClass.GFM),
    ]
    for a, b in pairs:
        for _ in range(5):
            ctx = _context(
                damping=rng.uniform(400.0, 1400.0),
                contingency=rng.uniform(80.0, 200.0),
            )
            spec = SweepSpec(
                (
                    SweepAxis(a, 0.0, 900.0, 180.0),
                    SweepAxis(b, 0.0, 900.0, 180.0),
                ),
                ctx,
                LIMITS,
            )
            grid = sweep_grid(spec)
            assert monotone_along_axes(grid)
            # nadir itself must be non-decreasing along both axes
            assert np.all(np.diff(grid.nadir_hz, axis=0) > -1e-9)
            assert np.all(np.diff(grid.nadir_hz, axis=1) > -1e-9)
            checked += 1
    assert checked >= 20


def test_hydro_diminishing_returns():
    ctx = _context()
    caps = np.arange(200.0, 2001.0, 200.0)
    nadirs = [
        response_metrics(ctx.with_capacity(TechClass.HYDRO_RESERVOIR, c)).nadir_hz
        for c in caps
    ]
    gains = np.diff(nadirs)
    assert np.all(gains > 0)
    assert np.all(np.diff(gains) < 1e-9)  # marginal gains non-increasing


def test_bisection_matches_linear_scan():
    ctx = _context()
    res = bisect_min_capacity(TechClass.COMBINED_CYCLE, ctx, LIMITS, 4000.0, 0.5)
    assert res > 0.0  # bracketed: a bracketed edge lies above 0 MW
    # independent oracle: fine linear scan for the first passing capacity
    step = 0.5
    scan = None
    caps = np.arange(0.0, 4000.0, step)
    lo, hi = 0, len(caps) - 1
    for c in caps:
        met = response_metrics(ctx.with_capacity(TechClass.COMBINED_CYCLE, float(c)))
        if met.nadir_hz >= LIMITS.nadir_min_hz:
            scan = float(c)
            break
    assert scan is not None
    assert abs(res - scan) <= 2 * step


def test_bisection_boundary_semantics():
    ctx = _context()
    res = bisect_min_capacity(TechClass.COMBINED_CYCLE, ctx, LIMITS, 4000.0, 0.5)
    above = response_metrics(
        ctx.with_capacity(TechClass.COMBINED_CYCLE, res)
    ).nadir_hz
    below = response_metrics(
        ctx.with_capacity(TechClass.COMBINED_CYCLE, res - 1.0)
    ).nadir_hz
    assert above >= LIMITS.nadir_min_hz
    assert below < LIMITS.nadir_min_hz


def test_bisection_already_feasible_and_bracketing_error():
    rich = _context().with_capacity(TechClass.COMBINED_CYCLE, 5000.0)
    res = bisect_min_capacity(TechClass.STEAM, rich, LIMITS, 1000.0)
    assert res == 0.0  # already feasible at 0 MW
    hopeless = _context(contingency=500.0)
    with pytest.raises(BracketingError):
        bisect_min_capacity(TechClass.STEAM, hopeless, LIMITS, 200.0)
    with pytest.raises(ValueError):
        bisect_min_capacity(TechClass.STEAM, rich, LIMITS, tol_mw=0.0)


@pytest.mark.parametrize("tol_mw", [0.0, -1.0, math.nan])
def test_edge_points_refuse_a_tolerance_that_is_not_positive(tol_mw):
    # a NaN tolerance once skipped the bisection and returned hi_mw as every edge
    with pytest.raises(ValueError, match="tol_mw"):
        find_edge_points([TechClass.STEAM, TechClass.COMBINED_CYCLE], _context(), LIMITS,
                         hi_mw=6000.0, tol_mw=tol_mw)


@pytest.mark.parametrize("hi_mw", [math.inf, math.nan])
def test_edge_points_refuse_a_window_top_that_is_not_finite(hi_mw):
    # an infinite top, halved until within tol_mw, would never get there
    with pytest.raises(ValueError, match="finite"):
        find_edge_points([TechClass.STEAM], _context(), LIMITS, hi_mw=hi_mw)


def test_bisection_deterministic():
    ctx = _context()
    a = bisect_min_capacity(TechClass.HYDRO_RESERVOIR, ctx, LIMITS, 20000.0, 1.0)
    b = bisect_min_capacity(TechClass.HYDRO_RESERVOIR, ctx, LIMITS, 20000.0, 1.0)
    assert a == b


def test_edge_points_zero_other_axes():
    ctx = _context().with_capacity(TechClass.STEAM, 700.0)
    axes = [TechClass.STEAM, TechClass.COMBINED_CYCLE]
    edges = find_edge_points(axes, ctx, LIMITS, hi_mw=6000.0)
    # the pre-set steam capacity must not leak into the CC edge point
    solo = bisect_min_capacity(
        TechClass.COMBINED_CYCLE,
        ctx.with_capacity(TechClass.STEAM, 0.0),
        LIMITS,
        6000.0,
    )
    assert edges[TechClass.COMBINED_CYCLE] == pytest.approx(solo)


def test_edge_points_bisect_in_lockstep_from_one_base(monkeypatch):
    ctx = _context().with_capacity(TechClass.STEAM, 700.0)
    axes = [TechClass.STEAM, TechClass.COMBINED_CYCLE, TechClass.HYDRO_RESERVOIR]
    base = ctx.with_capacities({t: 0.0 for t in axes})
    batches = []
    batch = fcuc.boundary.response_metrics_rows

    def recorded(contexts, rows, owner):
        # every row evaluated, as the mix it stands for
        batches.append([contexts[k].with_capacities(dict(zip(TechClass, map(float, r))))
                        for r, k in zip(rows, owner)])
        return batch(contexts, rows, owner)

    monkeypatch.setattr(fcuc.boundary, "response_metrics_rows", recorded)
    edges = find_edge_points(axes, ctx, LIMITS, hi_mw=6000.0, tol_mw=1.0)
    assert sum(mix == base for mixes in batches for mix in mixes) == 1
    # the window ends, then rounds of at most 11 points per axis (ten around
    # the interpolated edge, one at the bracket's midpoint); two rounds here,
    # where three halvings a batch took 2 + ceil(13 / 3) = 7 batches
    assert len(batches) <= 3
    assert all(len(mixes) <= 11 * len(axes) for mixes in batches[1:])
    # every edge is bit-identical to the serial one-axis bisection
    monkeypatch.undo()
    assert edges == {t: serial_bisection(t, base, 0.0, 6000.0, 1.0, LIMITS.nadir_min_hz)
                     for t in axes}


#: the classes with a governor, whose capacity alone can arrest a nadir
GOVERNED = (TechClass.STEAM, TechClass.COMBINED_CYCLE, TechClass.HYDRO_RESERVOIR, TechClass.GFM)


@st.composite
def edge_contexts(draw):
    """A context of every class at 0 or 50-900 MW (condensers always online)."""
    caps = {c: draw(st.one_of(st.just(0.0), st.floats(50.0, 900.0))) for c in TechClass}
    caps[TechClass.CONDENSER] = draw(st.floats(50.0, 900.0))
    return make_mix(
        capacities_mw=caps,
        load_damping_mw_per_pu=draw(st.floats(200.0, 1500.0)),
        contingency_mw=draw(st.floats(50.0, 400.0)),
    )


@st.composite
def edge_searches(draw):
    """A context, one to three governed axes, a window top of ten times a
    drawn fleet capacity (rarely dyadic, so its halvings round) and a
    tolerance."""
    axes = draw(st.lists(st.sampled_from(GOVERNED), min_size=1, max_size=3, unique=True))
    return (draw(edge_contexts()), axes, 10.0 * draw(st.floats(100.0, 5000.0)),
            draw(st.floats(0.05, 50.0)))


@settings(max_examples=40, deadline=None)
@given(search=edge_searches())
# 0.5 * (lo + hi) rounds from the fifth halving of this window on, and every
# edge differs in its last bits from the one at j * hi_mw / 2**m
@example(search=(_context(), list(GOVERNED[:3]), 10.0 * 4887.948034149059, 1.1921348844733997))
def test_edge_points_match_serial_bisection(search):
    context, axes, hi_mw, tol_mw = search
    base = context.with_capacities({t: 0.0 for t in axes})
    serial = {t: serial_bisection(t, base, 0.0, hi_mw, tol_mw, LIMITS.nadir_min_hz) for t in axes}
    edges = find_edge_points(axes, context, LIMITS, hi_mw, tol_mw)
    assert edges == {t: e for t, e in serial.items() if e is not None}
    assert list(edges) == [t for t in axes if serial[t] is not None]


@settings(max_examples=25, deadline=None)
@given(search=edge_searches(), others=st.lists(edge_contexts(), min_size=1, max_size=3))
def test_many_context_edge_points_match_serial_bisection(search, others):
    # two to four contexts in one lockstep search, sharing axes, window and tolerance
    context, axes, hi_mw, tol_mw = search
    contexts = [context, *others]
    many = find_edge_points_many(axes, contexts, LIMITS, hi_mw, tol_mw)
    assert len(many) == len(contexts)
    for ctx, edges in zip(contexts, many):
        base = ctx.with_capacities({t: 0.0 for t in axes})
        serial = {t: serial_bisection(t, base, 0.0, hi_mw, tol_mw, LIMITS.nadir_min_hz)
                  for t in axes}
        assert edges == {t: e for t, e in serial.items() if e is not None}
        assert list(edges) == [t for t in axes if serial[t] is not None]
        assert edges == find_edge_points(axes, ctx, LIMITS, hi_mw, tol_mw)


def test_edge_points_leave_out_an_axis_that_cannot_comply_alone():
    # condensers add inertia but no governor power, so they never arrest the
    # nadir on their own; run-of-river keeps the zeroed context's inertia
    ctx = _context().with_capacity(TechClass.RUN_OF_RIVER, 100.0)
    axes = [TechClass.COMBINED_CYCLE, TechClass.CONDENSER]
    edges = find_edge_points(axes, ctx, LIMITS, hi_mw=6000.0)
    assert list(edges) == [TechClass.COMBINED_CYCLE]
    assert require_edges(edges, axes[:1], 6000.0) is edges
    with pytest.raises(BracketingError, match="condenser"):
        require_edges(edges, axes, 6000.0)


def test_fit_hyperplane_intercept_form():
    edges = {TechClass.STEAM: 800.0, TechClass.COMBINED_CYCLE: 400.0}
    cut = fit_hyperplane(edges)
    assert cut.intercept == 1.0
    assert cut.coeff(TechClass.STEAM) == pytest.approx(1.0 / 800.0)
    # passes exactly at each edge point
    assert cut.satisfied({TechClass.STEAM: 800.0, TechClass.COMBINED_CYCLE: 0.0})
    assert not cut.satisfied({TechClass.STEAM: 799.0, TechClass.COMBINED_CYCLE: 0.0})
    with pytest.raises(ValueError):
        fit_hyperplane({})
    with pytest.raises(ValueError):
        fit_hyperplane({TechClass.STEAM: 0.0})


def test_conservative_cut_excludes_every_failing_point():
    """Criterion 4 (zero tolerance) on a representative 2-D sweep."""
    ctx = _context()
    axes = (
        SweepAxis(TechClass.STEAM, 0.0, 2000.0, 200.0),
        SweepAxis(TechClass.HYDRO_RESERVOIR, 0.0, 4000.0, 400.0),
    )
    grid = sweep_grid(SweepSpec(axes, ctx, LIMITS))
    edges = find_edge_points([a.tech for a in axes], ctx, LIMITS, hi_mw=20000.0)
    cut = make_conservative(fit_hyperplane(edges), grid)
    for caps, ok, _ in grid.points():
        caps_d = {axes[k].tech: caps[k] for k in range(len(axes))}
        if cut.satisfied(caps_d):
            assert ok, f"cut admits failing point {caps_d}"


def test_make_conservative_noop_when_already_safe():
    grid = sweep_grid(
        SweepSpec((SweepAxis(TechClass.COMBINED_CYCLE, 0.0, 1500.0, 300.0),), _context(), LIMITS)
    )
    safe = NadirCut({TechClass.COMBINED_CYCLE: 1.0 / 100.0}, intercept=1e9)
    assert make_conservative(safe, grid).intercept == 1e9


@st.composite
def tightened_repairs(draw):
    """A cut and a 1-3 axis grid of random pass/fail points, where at least
    one failing point satisfies the cut, so repair must tighten it."""
    techs = draw(st.permutations(list(TechClass)))[:draw(st.sampled_from([3, 2, 1]))]
    axes = []
    for tech in techs:
        lo, step = draw(st.floats(0.0, 500.0)), draw(st.floats(1.0, 900.0))
        axes.append(SweepAxis(tech, lo, lo + step * draw(st.integers(0, 7)), step))
    axes = tuple(axes)
    values = tuple(a.values() for a in axes)
    shape = tuple(len(v) for v in values)
    passed = np.array(
        draw(st.lists(st.booleans(), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    ).reshape(shape)
    # a coefficient per axis; one in five is left out of the cut
    coeffs = {t: draw(st.floats(1e-5, 1e-2)) for t in techs if draw(st.integers(0, 4))}
    cut = NadirCut(coeffs, 1.0, context_id="h")
    grid = ComplianceGrid(axes, values, passed, np.zeros(shape))
    worst = max(
        (cut.lhs(dict(zip(techs, caps))) for caps, ok, _ in grid.points() if not ok),
        default=0.0,
    )
    scale = draw(st.floats(0.05, 1.0))
    return NadirCut(coeffs, scale * worst, context_id="h"), grid


@settings(max_examples=200, deadline=None)
@given(repair=tightened_repairs())
def test_vectorised_repair_matches_point_by_point(repair):
    cut, grid = repair
    reference = make_conservative_by_points(cut, grid)
    repaired = make_conservative(cut, grid)
    assert repaired == reference
    assert repaired.intercept == reference.intercept  # bit-identical, not approx
    if cut.intercept > 0:
        assert repaired.intercept > cut.intercept


def test_cut_round_trips_through_its_json_form():
    cut = NadirCut({TechClass.HYDRO_RESERVOIR: 1.0 / 3.0, TechClass.STEAM: 0.1}, 1.0 + 1e-9,
                   context_id="hour=7")
    doc = json.loads(json.dumps(cut.to_dict()))
    assert list(doc) == ["coeffs", "intercept", "context_id"]
    assert list(doc["coeffs"]) == ["hydro_reservoir", "steam"]
    assert NadirCut.from_dict(doc) == cut
    assert NadirCut.from_dict({"hour": 7, **doc}) == cut


def test_cut_key_identifies_equivalent_cuts():
    a = NadirCut({TechClass.STEAM: 0.01}, 1.0, context_id="x")
    b = NadirCut({TechClass.STEAM: 0.01}, 1.0, context_id="y")
    c = NadirCut({TechClass.STEAM: 0.02}, 1.0)
    assert a.key() == b.key()
    assert a.key() != c.key()
