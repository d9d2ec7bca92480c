"""Property tests for the numerical shortcuts of the batched zero-order-hold
kernel, each against its slow path: rows on several contexts of one sample
grid in one call, in any order and chunking, against a batch of one per
row; one shared context block against one block per row; the coarse/fine
nadir search against the whole 1 ms grid, the stacked exponential against
scipy's one matrix at a time, the doubling power tables against repeated
multiplication, the kernel's nadir against RK4 (also with nearly equal steam
lags, where A is close to defective), and a non-finite capacity against
validation. Also the damping monotonicity that a demand level's cut,
learned at the level's lowest damping, relies on, one mix at a time and as
capacity rows over contexts, confirmed by RK4 on a sample; and the capacity
monotonicity, per class, that lets a cut be repaired on its floor points,
which reservoir hydro lacks."""

import itertools
import random
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import fcuc.dynamics
from fcuc.dynamics import (
    TechClass,
    assemble_state_space,
    compute_metrics,
    response_metrics,
    response_metrics_rows,
    simulate_response,
)
from oracles import make_mix, own_context_metrics, validate_mix

#: the nadir accuracy the kernel keeps (criteria 2-5 compare nadirs to it)
NADIR_TOL_HZ = 1e-12
#: the kernel against RK4 at 1 ms, as tests/test_dynamics.py's integrator check
RK4_TOL_HZ = 1e-9


@st.composite
def mixes(draw):
    """A mix of every class at 0 or 50-900 MW (condensers always online, so
    the system has inertia), with the test suite's damping and contingency
    ranges and default dynamic constants."""
    caps = {c: draw(st.one_of(st.just(0.0), st.floats(50.0, 900.0))) for c in TechClass}
    caps[TechClass.CONDENSER] = draw(st.floats(50.0, 900.0))
    return make_mix(
        capacities_mw=caps,
        load_damping_mw_per_pu=draw(st.floats(200.0, 1500.0)),
        contingency_mw=draw(st.floats(50.0, 300.0)),
    )


@st.composite
def contexts(draw):
    """A mix from mixes() with each class's droop and inertia constant and
    the governor lags drawn too, so the capacity-free block varies; its
    contingency may be an int, as a scenario file can give it."""
    mix = draw(mixes())
    states = {
        cls.value: replace(
            mix.tech(cls),
            droop=draw(st.one_of(st.just(0.0), st.floats(0.02, 0.1))),
            inertia_h_s=draw(st.floats(1.0, 8.0)),
        )
        for cls in TechClass
    }
    dynamics = replace(
        mix.dynamics,
        steam_governor_s=draw(st.floats(0.1, 0.5)),
        cc_lag_s=draw(st.floats(0.2, 2.0)),
        hydro_water_s=draw(st.floats(0.5, 2.0)),
        gfm_lag_s=draw(st.floats(0.02, 1.0)),
    )
    contingency = draw(st.one_of(st.just(mix.contingency_mw), st.integers(50, 300)))
    return replace(mix, dynamics=dynamics, contingency_mw=contingency, **states)


def _row_mixes(context, rows):
    """The mix each capacity row stands for."""
    return [context.with_capacities(dict(zip(TechClass, map(float, r)))) for r in rows]


#: a capacity row (TechClass order) whose condensers keep the inertia above zero
_ROW = st.tuples(*[st.floats(0.0, 2000.0)] * (len(TechClass) - 1), st.floats(50.0, 2000.0)).map(list)


@settings(max_examples=30, deadline=None)
@given(
    ctxs=st.lists(contexts(), min_size=2, max_size=3),
    rows=st.lists(_ROW, min_size=3, max_size=12),
    rnd=st.randoms(),
    chunk=st.integers(1, 4),
)
def test_batch_is_independent_of_order_and_chunks(ctxs, rows, rnd, chunk):
    # every context owns rows, interleaved in one call on one sample grid
    owner = [i % len(ctxs) for i in range(len(rows))]
    rnd.shuffle(owner)
    alone = [response_metrics(_row_mixes(ctxs[k], [row])[0]) for k, row in zip(owner, rows)]
    assert response_metrics_rows(ctxs, rows, owner) == alone
    order = list(range(len(rows)))
    rnd.shuffle(order)
    shuffled = response_metrics_rows(ctxs, [rows[i] for i in order], [owner[i] for i in order])
    assert shuffled == [alone[i] for i in order]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fcuc.dynamics, "CHUNK_MIXES", chunk)
        assert response_metrics_rows(ctxs, rows, owner) == alone


@settings(max_examples=30, deadline=None)
@given(context=contexts(), rows=st.lists(_ROW, min_size=1, max_size=40))
def test_capacity_rows_match_a_mix_per_row(context, rows):
    mixes = _row_mixes(context, rows)
    # one shared block against one block per row
    shared = response_metrics_rows([context], np.array(rows), [0] * len(rows))
    assert shared == own_context_metrics(mixes)
    # the vectorised inertia sums 2H S in TechClass order, as OnlineMix does
    assert [assemble_state_space(mix).inertia_mws for mix in mixes] == [
        mix.system_inertia_mws for mix in mixes
    ]


@settings(max_examples=60, deadline=None)
@given(
    context=contexts(),
    rows=st.lists(
        st.one_of(
            st.lists(
                st.sampled_from([0.0, -1e-9, -40.0, 300.0, np.nan, np.inf]), min_size=6, max_size=6
            ),
            st.just([0.0] * 6),
            _ROW,
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_a_bad_capacity_row_raises_what_validation_raises(context, rows):
    mixes = _row_mixes(context, rows)
    expected = None
    for mix in mixes:
        try:
            validate_mix(mix)
        except ValueError as exc:  # ZeroInertiaError is a ValueError
            expected = exc
            break
    if expected is None:
        assert len(response_metrics_rows([context], np.array(rows), [0] * len(rows))) == len(rows)
        return
    for evaluate in (lambda: response_metrics_rows([context], np.array(rows), [0] * len(rows)),
                     lambda: own_context_metrics(mixes)):
        with pytest.raises(ValueError) as raised:
            evaluate()
        assert type(raised.value) is type(expected)
        assert str(raised.value) == str(expected)


def test_a_call_on_two_sample_grids_is_refused_before_any_row_runs(monkeypatch):
    # the rows of one call all run on one (horizon_s, step_s) grid
    a = make_mix(capacities_mw={TechClass.CONDENSER: 500.0, TechClass.STEAM: 300.0},
                 load_damping_mw_per_pu=800.0, contingency_mw=100.0)
    chunks = []
    chunk_metrics = fcuc.dynamics._chunk_metrics
    monkeypatch.setattr(fcuc.dynamics, "_chunk_metrics",
                        lambda *args: chunks.append(args) or chunk_metrics(*args))
    for grid in ({"horizon_s": 12.0}, {"step_s": 0.002}):
        b = replace(a, dynamics=replace(a.dynamics, **grid))
        with pytest.raises(ValueError, match="one sample grid"):
            response_metrics_rows([a, b], [a.capacities_mw()] * 2, [0, 1])
        assert chunks == []
    # each grid alone runs
    assert response_metrics_rows([b], [a.capacities_mw()], [0]) == [response_metrics(b)]
    assert len(chunks) == 2


@settings(max_examples=20, deadline=None)
@given(mix=mixes())
def test_kernel_nadir_matches_rk4(mix):
    rk4 = compute_metrics(simulate_response(assemble_state_space(mix)))
    assert response_metrics(mix).nadir_hz == pytest.approx(rk4.nadir_hz, abs=RK4_TOL_HZ)


@settings(max_examples=20, deadline=None)
@given(mix=mixes(), gap=st.one_of(st.just(0.0), st.floats(0.0, 1e-2)))
def test_kernel_matches_rk4_with_nearly_equal_steam_lags(mix, gap):
    # equal chest and reheat lags make A defective; nearly equal ones make
    # its eigenvectors nearly parallel
    dyn = mix.dynamics
    mix = replace(mix, dynamics=replace(dyn, steam_reheat_s=dyn.steam_chest_s * (1.0 + gap)))
    rk4 = compute_metrics(simulate_response(assemble_state_space(mix)))
    assert response_metrics(mix).nadir_hz == pytest.approx(rk4.nadir_hz, abs=RK4_TOL_HZ)


@settings(max_examples=40, deadline=None)
@given(mix=mixes(), horizon=st.sampled_from([30.0, 29.987, 12.3456, 1.0, 0.3]))
def test_coarse_fine_search_finds_the_full_grid_minimum(mix, horizon):
    # direct modal solution on every 1 ms sample, with np.exp; a horizon
    # off the coarse stride adds the horizon sample to the coarse pass
    mix = replace(mix, dynamics=replace(mix.dynamics, horizon_s=horizon))
    sys = assemble_state_space(mix)
    lam, v = np.linalg.eig(sys.a)
    coef = v[0] * np.linalg.solve(v, sys.b.astype(complex))
    step = mix.dynamics.step_s
    t = np.arange(int(round(mix.dynamics.horizon_s / step)) + 1) * step
    f0 = mix.nominal_freq_hz
    freq = f0 + f0 * (((np.exp(np.outer(t, lam)) - 1.0) / lam) @ coef).real
    met = response_metrics(mix)
    assert met.nadir_hz == pytest.approx(freq.min(), abs=NADIR_TOL_HZ)
    # the reported time is a minimizer of the full grid, up to the same rounding
    assert freq[int(round(met.time_of_nadir_s / step))] == pytest.approx(
        freq.min(), abs=NADIR_TOL_HZ
    )


def _step_m(mix):
    """step M = step [[A, b], [0, 0]], the exponent of the kernel's one-step
    propagator for a mix."""
    sys = assemble_state_space(mix)
    m = np.zeros((9, 9))
    m[:8, :8], m[:8, 8] = sys.a, sys.b
    return mix.dynamics.step_s * m


@settings(max_examples=40, deadline=None)
@given(
    stack=st.lists(
        st.one_of(
            contexts().map(_step_m),
            st.tuples(st.integers(0, 2**32 - 1), st.floats(1e-3, 1.0)).map(
                lambda d: d[1] * np.random.default_rng(d[0]).standard_normal((9, 9))
            ),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_stacked_exponential_matches_scipy_one_at_a_time(stack):
    x = np.array(stack)
    e = fcuc.dynamics._expm1(x)
    for xi, ei in zip(x, e):
        ref = scipy.linalg.expm(xi)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(np.eye(9) + ei - ref).max() <= 1e-12 * scale
    # each matrix is scaled by its own norm, so the stack does not change it
    assert all(np.array_equal(fcuc.dynamics._expm1(xi[None])[0], ei) for xi, ei in zip(x, e))


@settings(max_examples=40, deadline=None)
@given(context=contexts(), power=st.integers(1, 3000), count=st.integers(1, 90))
def test_doubling_power_tables_match_repeated_multiplication(context, power, count):
    e = fcuc.dynamics._expm1(_step_m(context)[None])
    g = np.eye(9) + e[0]
    squares = fcuc.dynamics._squares(e, max(power, count).bit_length())
    # g^power by binary powers, against power - 1 products
    slow = g
    for _ in range(power - 1):
        slow = slow @ g
    fast = np.eye(9) + fcuc.dynamics._power(squares, power)[0]
    assert np.abs(fast - slow).max() <= 1e-12 * max(1.0, np.abs(slow).max())
    # the table g^r z, r < count, built by doubling, against one step at a time
    z = np.zeros(9)
    z[-1] = 1.0
    table = fcuc.dynamics._doubling(squares, z[None, :, None], count)[0]
    for r in range(count):
        assert np.abs(table[:, r] - z).max() <= 1e-12 * max(1.0, np.abs(z).max())
        z = g @ z


@settings(max_examples=40, deadline=None)
@given(
    context=contexts(),
    rows=st.lists(_ROW, min_size=1, max_size=8),
    at=st.tuples(st.integers(0, 7), st.integers(0, len(TechClass) - 1)),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_a_non_finite_capacity_is_an_input_error(context, rows, at, bad):
    rows = np.array(rows)
    i, col = at[0] % len(rows), at[1]
    rows[i, col] = bad
    with pytest.raises(ValueError) as raised:
        response_metrics_rows([context], rows, [0] * len(rows))
    assert type(raised.value) is ValueError
    cls = list(TechClass)[col].value
    assert str(raised.value) == f"{cls}: online capacity must be finite and >= 0"


@pytest.mark.parametrize("owner", [[0], [0, 1, 0], [0, 2], [-1, 0]])
def test_an_owner_that_names_no_context_is_refused(owner):
    # too few or too many owners, or one past either end of the contexts
    context = make_mix(
        capacities_mw={TechClass.CONDENSER: 500.0},
        load_damping_mw_per_pu=800.0,
        contingency_mw=100.0,
    )
    with pytest.raises(ValueError, match="owner"):
        response_metrics_rows([context, context], [context.capacities_mw()] * 2, owner)


@settings(max_examples=60, deadline=None)
@given(mix=mixes(), extra=st.floats(0.0, 3000.0))
def test_nadir_never_falls_as_damping_rises(mix, extra):
    higher = replace(mix, load_damping_mw_per_pu=mix.load_damping_mw_per_pu + extra)
    assert response_metrics(higher).nadir_hz >= response_metrics(mix).nadir_hz - NADIR_TOL_HZ


@settings(max_examples=40, deadline=None)
@given(
    context=contexts(),
    rows=st.lists(_ROW, min_size=1, max_size=6),
    dampings=st.lists(st.floats(0.0, 3000.0), min_size=2, max_size=5),
)
def test_capacity_rows_nadir_never_falls_as_damping_rises(context, rows, dampings):
    # the premise of learning a demand level's cut at its lowest-damping
    # hour: every row, on contexts that differ only in damping, in one call
    ctxs = [replace(context, load_damping_mw_per_pu=d) for d in sorted(dampings)]
    owner = [k for k in range(len(ctxs)) for _ in rows]
    nadirs = [m.nadir_hz for m in response_metrics_rows(ctxs, rows * len(ctxs), owner)]
    for i in range(len(rows)):
        column = nadirs[i::len(rows)]
        assert all(b >= a - NADIR_TOL_HZ for a, b in zip(column, column[1:]))


#: the columns of the classes whose growth never lowers a row's nadir: every
#: class but reservoir hydro
_MONOTONE = [k for k, c in enumerate(TechClass) if c is not TechClass.HYDRO_RESERVOIR]


@settings(max_examples=40, deadline=None)
@given(
    context=contexts(),
    row=_ROW,
    steps=st.lists(st.floats(0.5, 2000.0), min_size=1, max_size=4),
)
def test_capacity_rows_nadir_never_falls_as_a_class_capacity_rises(context, row, steps):
    # the premise of repairing a cut on its floor points: for each class but
    # reservoir hydro, the row with that class raised step by step, all in
    # one call
    rows = [row[:k] + [mw] + row[k + 1:]
            for k in _MONOTONE for mw in itertools.accumulate([row[k]] + steps)]
    nadirs = [m.nadir_hz for m in response_metrics_rows([context], rows, [0] * len(rows))]
    for j, k in enumerate(_MONOTONE):
        column = nadirs[j * (len(steps) + 1):(j + 1) * (len(steps) + 1)]
        assert all(b >= a - NADIR_TOL_HZ for a, b in zip(column, column[1:])), list(TechClass)[k]


def test_reservoir_hydro_can_lower_the_nadir_as_it_grows():
    """Why a cut's floor never runs along reservoir hydro: with a 2 s water
    column and 1 s of hydro inertia, more hydro lowers the nadir (its
    turbines first answer a drop in frequency with less power), by RK4 as
    by the kernel; with the default 4 s of inertia it rises."""
    def nadirs(inertia_h_s, rk4=False):
        out = []
        for hydro in (500.0, 1000.0, 2000.0, 4000.0):
            mix = make_mix(
                capacities_mw={TechClass.COMBINED_CYCLE: 900.0, TechClass.HYDRO_RESERVOIR: hydro,
                               TechClass.CONDENSER: 700.0},
                load_damping_mw_per_pu=1150.0,
                contingency_mw=170.0,
            )
            mix = replace(mix, hydro_reservoir=replace(mix.hydro_reservoir, inertia_h_s=inertia_h_s),
                          dynamics=replace(mix.dynamics, hydro_water_s=2.0))
            out.append(compute_metrics(simulate_response(assemble_state_space(mix))).nadir_hz
                       if rk4 else response_metrics(mix).nadir_hz)
        return out

    low = nadirs(1.0)
    assert all(b < a - 1e-3 for a, b in zip(low, low[1:]))
    assert nadirs(1.0, rk4=True) == pytest.approx(low, abs=RK4_TOL_HZ)
    high = nadirs(4.0)
    assert all(b > a for a, b in zip(high, high[1:]))


def test_rk4_confirms_the_nadir_rises_with_damping():
    rng = random.Random(31)
    for _ in range(3):
        mix = make_mix(
            capacities_mw={c: rng.uniform(50.0, 900.0) for c in TechClass},
            load_damping_mw_per_pu=rng.uniform(200.0, 700.0),
            contingency_mw=rng.uniform(50.0, 300.0),
        )
        nadirs = []
        for factor in (1.0, 1.5, 2.0):
            m = replace(mix, load_damping_mw_per_pu=factor * mix.load_damping_mw_per_pu)
            rk4 = compute_metrics(simulate_response(assemble_state_space(m))).nadir_hz
            assert rk4 == pytest.approx(response_metrics(m).nadir_hz, abs=1e-6)
            nadirs.append(rk4)
        assert nadirs[0] < nadirs[1] < nadirs[2]
