"""Scenario model: serialization round-trips and invariant enforcement."""

import copy
import dataclasses
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import battery_scenario, desk_scenario, hydro_heavy_scenario, random_scenario
from fcuc.cli import main
from fcuc.scenario import (
    Battery,
    ScenarioParseError,
    ScenarioValidationError,
    Violation,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from oracles import gfl_batteries


@pytest.mark.parametrize(
    "builder", [desk_scenario, battery_scenario, hydro_heavy_scenario, lambda: random_scenario(0)]
)
def test_json_round_trip(tmp_path, builder):
    s = builder()
    path = tmp_path / "scenario.json"
    save_scenario(s, str(path))
    loaded = load_scenario(str(path))
    assert loaded == s


def test_dict_round_trip(desk):
    assert scenario_from_dict(scenario_to_dict(desk)) == desk


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioParseError):
        load_scenario(str(path))


def test_unknown_field_rejected(desk):
    doc = scenario_to_dict(desk)
    doc["thermal_units"][0]["frobnication"] = 1
    with pytest.raises(ScenarioParseError, match="frobnication"):
        scenario_from_dict(doc)


def test_missing_limits_rejected(desk):
    doc = scenario_to_dict(desk)
    del doc["limits"]
    with pytest.raises(ScenarioParseError, match="limits"):
        scenario_from_dict(doc)


def test_validation_reports_every_violation(desk):
    bad = dataclasses.replace(
        desk,
        contingency_mw=-5.0,
        demand=desk.demand[:-1] + (-1.0,),
    )
    paths = {v.path for v in validate_scenario(bad)}
    assert "contingency_mw" in paths
    assert "demand" in paths


def test_validation_error_via_from_dict(desk):
    doc = scenario_to_dict(desk)
    doc["contingency_mw"] = 0.0
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert any(v.path == "contingency_mw" for v in err.value.violations)


def test_gfl_battery_must_not_declare_dynamics(desk_batt):
    bad = dataclasses.replace(
        desk_batt,
        batteries=desk_batt.batteries
        + (Battery("bess_bad", "gfl", 10.0, 40.0, 4.0, 20.0, droop=0.05),),
    )
    assert any("droop" in v.path for v in validate_scenario(bad))


def test_duplicate_ids_rejected(desk):
    bad = dataclasses.replace(desk, thermal_units=desk.thermal_units + (desk.thermal_units[0],))
    assert any("duplicate" in v.message for v in validate_scenario(bad))


def test_profile_length_must_match_periods(desk):
    ror = desk.ror_units()[0]
    bad_ror = dataclasses.replace(ror, avail_profile_mw=ror.avail_profile_mw[:-1])
    bad = dataclasses.replace(
        desk,
        hydro_units=tuple(h if h.id != ror.id else bad_ror for h in desk.hydro_units),
    )
    assert any("avail_profile_mw" in v.path for v in validate_scenario(bad))


def test_selectors_partition_units(desk_batt):
    s = desk_batt
    assert set(s.coal_units()) | set(s.gas_units()) == set(s.thermal_units)
    assert set(s.reservoir_units()) | set(s.ror_units()) == set(s.hydro_units)
    assert set(s.gfm_batteries()) | set(gfl_batteries(s)) == set(s.batteries)
    assert set(s.committed_units()) == set(s.thermal_units) | set(s.reservoir_units())


def test_damping_scales_with_demand(desk):
    avg = sum(desk.demand) / len(desk.demand)
    for t in (1, 12, 24):
        expected = desk.load_damping_mw_per_pu * desk.demand[t - 1] / avg
        assert desk.damping_at(t) == pytest.approx(expected)
    # averaging identity: the mean of hourly damping is the scenario coefficient
    mean = sum(desk.damping_at(t) for t in range(1, 25)) / 24.0
    assert mean == pytest.approx(desk.load_damping_mw_per_pu)


@settings(max_examples=30, deadline=None)
@given(
    field=st.sampled_from(
        ["contingency_mw", "base_power_mw", "nominal_freq_hz", "load_damping_mw_per_pu"]
    ),
    value=st.floats(max_value=-1e-6, min_value=-1e6),
)
def test_negative_scalars_always_flagged(field, value):
    s = desk_scenario()
    bad = dataclasses.replace(s, **{field: value})
    assert any(v.path == field for v in validate_scenario(bad))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_serialized_form_is_pure_json(data):
    seed = data.draw(st.integers(min_value=0, max_value=10))
    doc = scenario_to_dict(random_scenario(seed))
    rebuilt = json.loads(json.dumps(doc))
    assert scenario_from_dict(rebuilt) == scenario_from_dict(doc)


# ---------------------------------------------------------------------------
# non-finite numbers

NON_FINITE = (math.nan, math.inf, -math.inf)

#: the battery desk day holds every scenario dataclass: thermal, reservoir and
#: run-of-river hydro, solar, a GFM and a GFL battery and a condenser
DOC = json.loads(json.dumps(scenario_to_dict(battery_scenario())))


def _numbers(node: dict, prefix: str = ""):
    """(keys, violation path) of every number in a scenario document."""
    for key, value in node.items():
        path = prefix + key
        if isinstance(value, dict):
            for keys, where in _numbers(value, f"{path}."):
                yield (key, *keys), where
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    for keys, where in _numbers(item, f"{path}[{i}]({item['id']})."):
                        yield (key, i, *keys), where
                else:
                    yield (key, i), f"{path}[{i}]"
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield (key,), path


NUMBERS = list(_numbers(DOC))


def _with(keys: tuple, value: float) -> dict:
    doc = copy.deepcopy(DOC)
    node = doc
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value
    return doc


def test_every_non_finite_number_is_named_by_validation():
    assert len(NUMBERS) > 150  # scalars, unit fields and every profile entry
    for keys, where in NUMBERS:
        for value in NON_FINITE:
            with pytest.raises(ScenarioValidationError) as err:
                scenario_from_dict(_with(keys, value))
            assert Violation(where, "must be finite") in err.value.violations, where


@settings(max_examples=60, deadline=None)
@given(number=st.sampled_from(NUMBERS), value=st.sampled_from(NON_FINITE))
# each once ended in a traceback (horizon, damping) or in `compliant True` (QSS)
@example(number=(("dynamics", "horizon_s"), "dynamics.horizon_s"), value=math.inf)
@example(number=(("load_damping_mw_per_pu",), "load_damping_mw_per_pu"), value=math.inf)
@example(number=(("limits", "qss_max_dev_hz"), "limits.qss_max_dev_hz"), value=math.inf)
def test_a_non_finite_number_is_rejected_by_the_loader_and_the_cli(tmp_path_factory, number, value):
    keys, where = number
    path = tmp_path_factory.mktemp("non_finite") / "scenario.json"
    path.write_text(json.dumps(_with(keys, value)))  # NaN and Infinity, as JSON extensions
    with pytest.raises(ScenarioValidationError):
        load_scenario(str(path))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["simulate", "--scenario", str(path), "--hour", "12"])
    assert rc == 1
    assert out.getvalue() == ""  # no metrics, so never `compliant True`
    assert f"{where}: must be finite" in err.getvalue()
