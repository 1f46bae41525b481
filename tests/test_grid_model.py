"""Component-model unit tests against hand-computed reference values."""

from __future__ import annotations

import dataclasses
import json
import math
import pickle
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chpdispatch.environment import decision_names, dispatch
from chpdispatch.grid_model import (
    BoilerParams,
    ChpParams,
    EmissionParams,
    MicrogridConfig,
    SteamTurbineParams,
    boiler_fuel,
    chp_efficiency,
    chp_power_fuel,
    chp_steam_fuel,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    save_config,
    steam_turbine_power,
)

from conftest import constant_scenario

CFG = default_config("winter")
CHP1 = CFG.chp[0]
CHP2 = CFG.chp[1]
BOILER = CFG.boiler
TURBINE = CFG.steam_turbine


class TestChpEfficiency:
    def test_full_load(self):
        assert chp_efficiency(16000.0, CHP1) == pytest.approx(0.705354, abs=1e-6)

    def test_zero_power_reduces_to_constant(self):
        assert chp_efficiency(0.0, CHP1) == pytest.approx(0.088094, abs=1e-12)

    def test_three_quarter_load(self):
        # 0.088094 + 0.42435*0.75 + 0.19291*0.75^2, by hand
        assert chp_efficiency(12000.0, CHP1) == pytest.approx(0.514868375, abs=1e-9)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            chp_efficiency(-1.0, CHP1)
        with pytest.raises(ValueError):
            chp_efficiency(16000.1, CHP1)

    def test_monotone_increasing_on_committed_range(self):
        for chp in (CHP1, CHP2):
            grid = np.linspace(chp.p_min, chp.p_max, 257)
            values = [chp_efficiency(p, chp) for p in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_second_unit_fit_exceeds_unity_at_full_load(self):
        # Kept verbatim from the fitted curve; fuel stays finite and positive.
        assert chp_efficiency(16000.0, CHP2) == pytest.approx(1.119783, abs=1e-9)


class TestChpPowerFuel:
    def test_off_unit_burns_nothing(self):
        assert chp_power_fuel(0.0, CHP1) == 0.0

    def test_full_load(self):
        # 16000 / (293 * 0.705354)
        assert chp_power_fuel(16000.0, CHP1) == pytest.approx(77.41858489839599, abs=1e-9)

    def test_three_quarter_load(self):
        # 12000 / (293 * 0.514868375)
        assert chp_power_fuel(12000.0, CHP1) == pytest.approx(79.54582838636652, abs=1e-9)

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            chp_power_fuel(11999.0, CHP1)

    def test_positive_and_continuous_on_committed_range(self):
        for chp in (CHP1, CHP2):
            grid = np.linspace(chp.p_min, chp.p_max, 513)
            values = np.array([chp_power_fuel(p, chp) for p in grid])
            assert (values > 0.0).all()
            assert np.abs(np.diff(values)).max() < 0.1  # no jumps on a fine grid


class TestChpSteamFuel:
    def test_zero_steam_is_free(self):
        assert chp_steam_fuel(0.0, CHP1) == 0.0

    def test_breakeven_matches_free_recovery_band(self):
        assert CHP1.free_steam_limit == pytest.approx(55.99269080401155, abs=1e-9)
        assert round(CHP1.free_steam_limit, 2) == 55.99
        assert chp_steam_fuel(55.99, CHP1) == 0.0

    def test_above_breakeven(self):
        # 1.1766 * 100 - 65.881
        assert chp_steam_fuel(100.0, CHP1) == pytest.approx(51.779, abs=1e-6)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            chp_steam_fuel(-0.1, CHP1)
        with pytest.raises(ValueError):
            chp_steam_fuel(153.1, CHP1)

    def test_zero_on_free_band_and_nonnegative(self):
        free = CHP1.free_steam_limit
        for q in np.linspace(0.0, free, 101):
            assert chp_steam_fuel(q, CHP1) == 0.0
        for q in np.linspace(0.0, CHP1.q_max, 101):
            assert chp_steam_fuel(q, CHP1) >= 0.0


class TestBoilerFuel:
    def test_uncommitted_burns_nothing(self):
        assert boiler_fuel(0.0, BOILER, committed=False) == 0.0

    def test_uncommitted_with_steam_rejected(self):
        with pytest.raises(ValueError):
            boiler_fuel(10.0, BOILER, committed=False)

    def test_committed_idle_burn(self):
        assert boiler_fuel(0.0, BOILER) == pytest.approx(3.7742, abs=1e-12)

    def test_committed_at_100(self):
        # 0.0009*100^2 + 1.0968*100 + 3.7742
        assert boiler_fuel(100.0, BOILER) == pytest.approx(122.4542, abs=1e-6)

    def test_limits_enforced(self):
        with pytest.raises(ValueError):
            boiler_fuel(540.5, BOILER)

    def test_nondecreasing(self):
        grid = np.linspace(0.0, BOILER.q_max, 301)
        values = [boiler_fuel(q, BOILER) for q in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestSteamTurbinePower:
    def test_above_breakpoint(self):
        assert steam_turbine_power(300.0, TURBINE) == pytest.approx(5462.37, abs=1e-6)

    def test_breakpoint_takes_lower_branch(self):
        assert steam_turbine_power(215.0, TURBINE) == pytest.approx(8842.205, abs=1e-6)

    def test_below_breakpoint(self):
        assert steam_turbine_power(100.0, TURBINE) == pytest.approx(4942.9, abs=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            steam_turbine_power(-1e-9, TURBINE)

    def test_branches_exact_either_side_of_breakpoint(self):
        hi = 215.0 + 1e-9
        lo = 215.0 - 1e-9
        assert steam_turbine_power(hi, TURBINE) == TURBINE.a1_s * hi + TURBINE.b1_s
        assert steam_turbine_power(lo, TURBINE) == TURBINE.a2_s * lo + TURBINE.b2_s


class TestGridExchange:
    """The exchange term of :func:`dispatch`'s cost: the signed grid
    exchange at the real-time price, unlimited either way.  Every unit is
    off, so the hour burns no gas and its cost is the exchange alone."""

    PLANT = dataclasses.replace(
        default_config("summer"), switchable_units=frozenset({"chp1", "chp2", "boiler"})
    )

    def dispatch_off(self, load, hydro, price):
        days = constant_scenario()[[0] * len(load)]
        hourly = {
            name: np.repeat(np.asarray(v, dtype=float)[:, None], 24, axis=1)
            for name, v in (("electric_load", load), ("hydro", hydro), ("rt_price", price))
        }
        days = dataclasses.replace(days, solar=np.zeros((len(load), 24)), **hourly)
        return dispatch(np.zeros((len(load), 24, 8)), days, self.PLANT)

    @pytest.mark.parametrize(
        "p_e,price,expected",
        [(1000.0, 0.05, 50.0), (-1000.0, 0.05, -50.0), (500.0, -0.02, -10.0)],
    )
    def test_examples(self, p_e, price, expected):
        # with no steam the turbine sits on its lower branch intercept b2_s
        load = p_e + self.PLANT.steam_turbine.b2_s
        d = self.dispatch_off([load], [0.0], [price])
        assert d.exchange[0, 0] == pytest.approx(p_e, abs=1e-9)
        assert d.cost[0, 0] == d.exchange[0, 0] * price
        assert d.cost[0, 0] == pytest.approx(expected, abs=1e-9)

    def test_linear_in_price(self):
        rng = np.random.default_rng(5)
        load = rng.uniform(1.0, 3e4, 100)
        hydro = rng.uniform(0.0, 3e4, 100)
        price = rng.uniform(-0.1, 0.2, 100)
        once = self.dispatch_off(load, hydro, price)
        twice = self.dispatch_off(load, hydro, 2.0 * price)
        assert (once.exchange < 0.0).any() and (once.exchange > 0.0).any()
        assert np.array_equal(twice.cost, 2.0 * once.cost)


def plant_gas(p, q, qb, boiler_on=True):
    """Gas of one operating point of the winter plant, summed as dispatch
    sums it: unit by unit, power fuel plus steam fuel, then the boiler."""
    gas = 0.0
    for i, chp in enumerate(CFG.chp):
        gas = gas + (chp_power_fuel(p[i], chp) + chp_steam_fuel(q[i], chp))
    return gas + boiler_fuel(qb, BOILER, committed=boiler_on)


class TestTotalGas:
    """The plant's gas is the sum of the curve calls."""

    def test_everything_off(self):
        assert plant_gas((0.0, 0.0), (0.0, 0.0), 0.0, boiler_on=False) == 0.0

    def test_single_chp_at_full_power(self):
        gas = plant_gas((16000.0, 0.0), (0.0, 0.0), 0.0, boiler_on=False)
        assert gas == chp_power_fuel(16000.0, CHP1)

    def test_combined_dispatch(self):
        # 77.41858489839599 + 51.779 + 0 + 0 + 122.4542, by hand
        gas = plant_gas((16000.0, 0.0), (100.0, 0.0), 100.0)
        assert gas == pytest.approx(251.651784898396, abs=1e-9)

    def test_decomposes_into_component_calls_exactly(self):
        # One call per curve over (unit, point) arrays through the stacked
        # unit view, as in dispatch, against one scalar call per unit.
        rng = np.random.default_rng(11)
        units = CFG.chp_stack
        p = rng.uniform(units.p_min, units.p_max, (2, 1, 200))
        p[:, :, :20] = 0.0  # units off
        q = rng.uniform(units.q_min, units.q_max, (2, 1, 200))
        qb = rng.uniform(BOILER.q_min, BOILER.q_max, (1, 200))
        fuel = chp_power_fuel(p, units) + chp_steam_fuel(q, units)
        gas = sum(fuel, 0.0) + boiler_fuel(qb, BOILER)
        for n in range(200):
            expected = plant_gas(p[:, 0, n].tolist(), q[:, 0, n].tolist(), float(qb[0, n]))
            assert gas[0, n] == expected


#: (curve, extra arguments, valid points, one invalid point, its message)
CURVES = [
    (chp_efficiency, (CHP2,), [0.0, 1.0, 12000.0, 16000.0], 16000.5, "power 16000.5 kW"),
    (chp_power_fuel, (CHP1,), [0.0, 12000.0, 14321.5, 16000.0], 11999.0, "power 11999.0 kW"),
    (chp_steam_fuel, (CHP1,), [0.0, 55.99, CHP1.free_steam_limit, 153.0], 153.1, "steam 153.1"),
    (boiler_fuel, (BOILER,), [0.0, 1.5, 270.0, 540.0], 540.5, "steam 540.5"),
    (steam_turbine_power, (TURBINE,), [0.0, 214.9, 215.0, 300.0], -1e-9, "got -1e-09"),
]


class TestArrayCurves:
    """Each curve over an array equals its elementwise scalar calls bit for
    bit, and one out-of-range element anywhere in the array raises."""

    @pytest.mark.parametrize("curve, args, edges, bad, message", CURVES)
    def test_array_equals_scalar_calls(self, curve, args, edges, bad, message):
        rng = np.random.default_rng(3)
        lo, hi = min(edges[1:]), max(edges)
        points = np.concatenate([edges, rng.uniform(lo, hi, 60)]).reshape(8, 8)
        values = curve(points, *args)
        assert values.shape == points.shape
        scalar = [float(curve(float(x), *args)) for x in points.flat]
        assert values.tobytes() == np.array(scalar).reshape(8, 8).tobytes()

        points[5, 2] = bad
        with pytest.raises(ValueError, match=message):
            curve(points, *args)
        with pytest.raises(ValueError, match=message):
            curve(bad, *args)

    def test_boiler_commitment_per_element(self):
        rng = np.random.default_rng(4)
        committed = rng.random(50) < 0.5
        q = np.where(committed, rng.uniform(0.0, 540.0, 50), 0.0)
        values = boiler_fuel(q, BOILER, committed=committed)
        scalar = [float(boiler_fuel(float(x), BOILER, bool(c))) for x, c in zip(q, committed)]
        assert values.tobytes() == np.array(scalar).tobytes()
        assert np.all(values[~committed] == 0.0)
        q[np.flatnonzero(~committed)[0]] = 10.0
        with pytest.raises(ValueError, match="uncommitted boiler"):
            boiler_fuel(q, BOILER, committed=committed)

    def test_non_positive_efficiency_rejected_at_a_running_point(self):
        # The second unit's polynomial is negative at low load.  ChpParams
        # rejects such a committed range, so read the coefficients from a
        # plain object: the curves take any params by attribute.
        loose = SimpleNamespace(**{**dataclasses.asdict(CHP2), "p_min": 100.0})
        assert chp_efficiency(0.0, CHP2) < 0.0
        assert chp_power_fuel(np.zeros(3), loose).tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="efficiency is non-positive .* at 500.0 kW"):
            chp_power_fuel(np.array([0.0, 14000.0, 500.0]), loose)


@st.composite
def efficiency_curves(draw):
    """ChpParams keyword arguments for the efficiency polynomial and power
    range: either any coefficients, or a parabola whose minimum on the
    range is barely above zero, where rounding matters most."""
    p_max = draw(st.floats(1.0, 20000.0))
    p_min = p_max * draw(st.floats(0.0, 0.99))
    if draw(st.booleans()):
        a_c, b_c, c_c = (draw(st.floats(-2.0, 2.0)) for _ in range(3))
    else:  # c_c (r - vertex)^2 + floor, with the vertex in the range or near it
        c_c = draw(st.floats(1e-3, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
        vertex = draw(st.floats(p_min / p_max - 0.05, 1.05))
        floor = draw(st.one_of(st.just(0.0), st.floats(-18.0, -2.0).map(lambda e: 10.0**e)))
        a_c, b_c = c_c * vertex * vertex + floor, -2.0 * c_c * vertex
    return dict(a_c=a_c, b_c=b_c, c_c=c_c, p_min=p_min, p_max=p_max)


class TestEfficiencyPositiveWhereAccepted:
    """The dispatch kernel divides by the efficiency without checking it,
    relying on ChpParams to reject a polynomial that is not strictly
    positive at every power in [p_min, p_max]."""

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(curve=efficiency_curves())
    def test_efficiency_positive_on_a_dense_grid(self, curve):
        fixed = dict(a_q=1.0, b_q=50.0, ramp_down=-1.0, ramp_up=1.0, q_min=0.0, q_max=1.0)
        try:
            params = ChpParams(**curve, **fixed, heating_value=293.0)
        except ValueError:
            assume(False)
        p_min, p_max = params.p_min, params.p_max
        grid = [np.linspace(p_min, p_max, 4001), [p_min, np.nextafter(p_min, np.inf)]]
        grid.append([np.nextafter(p_max, -np.inf), p_max])
        if params.c_c != 0.0:
            vertex = -params.b_c / (2.0 * params.c_c) * p_max
            near = np.nextafter(vertex, [-np.inf, np.inf])
            grid.append([p for p in (near[0], vertex, near[1]) if p_min <= p <= p_max])
        grid = np.concatenate(grid)
        efficiency = chp_efficiency(grid, params)
        assert efficiency.min() > 0.0, grid[efficiency.argmin()]


class TestParamValidation:
    def test_power_limits_ordered(self):
        with pytest.raises(ValueError):
            ChpParams(0.1, 0.4, 0.2, 1.0, 50.0, 16000.0, 12000.0, -5000.0, 5000.0, 0.0, 153.0, 293.0)

    def test_ramp_signs(self):
        # environment.dispatch relies on ramp_down < 0: an off unit's lower
        # window edge max(p_min, p_min + ramp_down) is then exactly p_min.
        nan = float("nan")
        for ramp_down, ramp_up in [
            (5000.0, 5000.0), (0.0, 5000.0), (-0.0, 5000.0), (nan, 5000.0),
            (-5000.0, 0.0), (-5000.0, -1.0), (-5000.0, nan),
        ]:  # fmt: skip
            with pytest.raises(ValueError, match="ramp limits"):
                ChpParams(
                    0.1, 0.4, 0.2, 1.0, 50.0, 12000.0, 16000.0, ramp_down, ramp_up, 0.0, 153.0,
                    293.0,
                )  # fmt: skip
        ChpParams(0.1, 0.4, 0.2, 1.0, 50.0, 12000.0, 16000.0, -1e-9, 1e-9, 0.0, 153.0, 293.0)

    def test_efficiency_must_be_positive_when_committed(self):
        with pytest.raises(ValueError):
            ChpParams(-2.0, 0.4, 0.2, 1.0, 50.0, 12000.0, 16000.0, -5000.0, 5000.0, 0.0, 153.0, 293.0)

    def test_efficiency_minimum_must_clear_rounding(self):
        # 1.5 (r - 0.75)^2 plus about 1e-16: positive at the vertex, yet
        # exactly 0.0 one ulp below it, where a fuel division would fail.
        curve = dict(a_c=0.8437500000000001, b_c=-2.25, c_c=1.5, p_min=0.0, p_max=1.0)
        loose = SimpleNamespace(**curve)
        assert chp_efficiency(0.75, loose) > 0.0
        assert chp_efficiency(np.nextafter(0.75, 0.0), loose) == 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            ChpParams(**curve, a_q=1.0, b_q=50.0, ramp_down=-1.0, ramp_up=1.0, q_min=0.0,
                      q_max=1.0, heating_value=293.0)  # fmt: skip

    def test_boiler_curve_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            BoilerParams(a_b=0.0, b_b=-1.0, c_b=3.0, q_min=0.0, q_max=540.0)

    def test_turbine_breakpoint_positive(self):
        with pytest.raises(ValueError):
            SteamTurbineParams(1.0, 0.0, 1.0, 0.0, 0.0)

    def test_emission_threshold_above_one(self):
        with pytest.raises(ValueError):
            EmissionParams(116.65, 0.932, 1.0)

    @pytest.mark.parametrize("section", ["chp", "boiler"])
    def test_config_takes_only_validated_params(self, section):
        # The dispatch kernel evaluates the fitted formulas without range
        # checks, so it relies on each params class having validated them.
        loose = {
            "chp": (CHP1, SimpleNamespace(**dataclasses.asdict(CHP2))),
            "boiler": SimpleNamespace(**dataclasses.asdict(BOILER)),
        }
        name = "chp[1] must be a ChpParams" if section == "chp" else "boiler must be a BoilerParams"
        with pytest.raises(ValueError, match=re.escape(name) + ", got SimpleNamespace"):
            dataclasses.replace(CFG, **{section: loose[section]})

    def test_winter_forbids_switchable_units(self):
        with pytest.raises(ValueError):
            MicrogridConfig(
                chp=CFG.chp, boiler=BOILER, steam_turbine=TURBINE,
                emission=CFG.emission, season="winter",
                switchable_units=frozenset({"chp2"}),
            )

    def test_unknown_switchable_unit(self):
        with pytest.raises(ValueError):
            MicrogridConfig(
                chp=CFG.chp, boiler=BOILER, steam_turbine=TURBINE,
                emission=CFG.emission, season="summer",
                switchable_units=frozenset({"chp9"}),
            )


def with_ramps(cfg, *ramps):
    """``cfg`` with each CHP's (ramp_down, ramp_up) replaced, in unit order."""
    chp = tuple(
        dataclasses.replace(c, ramp_down=down, ramp_up=up) for c, (down, up) in zip(cfg.chp, ramps)
    )
    return dataclasses.replace(cfg, chp=chp)


class TestRampsSpan:
    """``chp_stack.ramps_span``: every CHP can cross its power range in one
    hour, so no ramp window is narrower than ``[p_min, p_max]``."""

    @pytest.mark.parametrize("season", ["winter", "summer"])
    def test_default_plant_spans(self, season):
        assert default_config(season).chp_stack.ramps_span is True

    def test_ramps_exactly_at_the_edge_span(self):
        span = CHP1.p_max - CHP1.p_min  # 4000 kW on both units
        assert CHP1.p_min + span == CHP1.p_max and CHP1.p_max - span == CHP1.p_min
        assert with_ramps(CFG, (-span, span), (-span, span)).chp_stack.ramps_span is True

    @pytest.mark.parametrize("unit", [0, 1])
    @pytest.mark.parametrize("short", ["ramp_down", "ramp_up"])
    def test_one_ramp_one_kw_short_does_not_span(self, unit, short):
        span = CHP1.p_max - CHP1.p_min
        ramps = [(-span, span), (-span, span)]
        down, up = ramps[unit]
        ramps[unit] = (down + 1.0, up) if short == "ramp_down" else (down, up - 1.0)
        assert with_ramps(CFG, *ramps).chp_stack.ramps_span is False


class TestCommitmentIndex:
    """Position of each unit's commitment flag, -1 when always on."""

    @pytest.mark.parametrize(
        "season, switchable, index",
        [
            ("winter", (), [-1, -1, -1]),
            ("summer", ("chp2", "boiler"), [-1, 0, 1]),
            ("summer", ("chp1", "chp2", "boiler"), [0, 1, 2]),
            ("summer", ("boiler", "chp1"), [0, -1, 1]),
        ],
    )
    def test_index_follows_the_decision_layout(self, season, switchable, index):
        cfg = dataclasses.replace(default_config(season), switchable_units=frozenset(switchable))
        assert cfg.commitment_index.tolist() == index
        names = decision_names(cfg)
        flags = names[2 * len(cfg.chp) + 1 :]
        for unit, j in zip(cfg.unit_ids, index):
            assert (unit in switchable) == (j >= 0)
            assert j < 0 or flags[j] == f"{unit}_commit"


#: Every numeric field of a config document, as (section, field).
NUMERIC_FIELDS = [
    (section, f.name)
    for section, params in (
        ("chp", ChpParams), ("boiler", BoilerParams),
        ("steam_turbine", SteamTurbineParams), ("emission", EmissionParams),
    )
    for f in dataclasses.fields(params)
]  # fmt: skip


class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("section, name", NUMERIC_FIELDS)
    def test_rejected_at_load_naming_the_field(self, section, name):
        for value in (math.nan, math.inf, -math.inf):
            doc = config_to_dict(default_config("summer"))
            (doc[section][1] if section == "chp" else doc[section])[name] = value
            where = re.escape("chp[1]" if section == "chp" else section)
            with pytest.raises(ValueError, match=rf"^{where}: .*\b{name}\b"):
                config_from_dict(json.loads(json.dumps(doc)))


class TestConfigSerialization:
    @pytest.mark.parametrize("season", ["winter", "summer"])
    def test_dict_round_trip(self, season):
        cfg = default_config(season)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = default_config("summer")
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg
        # keys mirror the coefficient naming used throughout
        doc = json.loads(path.read_text())
        assert doc["chp"][0]["a_c"] == 0.088094
        assert doc["emission"]["gas_emission_rate"] == 116.65

    def test_pickle_holds_the_fields_only(self):
        cfg = default_config("summer")
        fresh = pickle.dumps(cfg)
        assert cfg.commitment_units == ("chp2", "boiler")
        assert cfg.chp_stack.a_c.tolist() == [[[0.088094]], [[-0.027957]]]
        assert cfg.chp_stack is cfg.chp_stack  # built once per config
        assert pickle.dumps(cfg) == fresh
        copy = pickle.loads(fresh)
        assert copy == cfg and copy.chp_stack.p_max.shape == (2, 1, 1)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"chp": []})
