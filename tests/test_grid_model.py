"""Component-model unit tests against hand-computed reference values."""

from __future__ import annotations

import json

import numpy as np
import pytest

from chpdispatch.environment import Action
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
    equivalent_emission_factor,
    grid_exchange_cost,
    load_config,
    save_config,
    steam_turbine_power,
    total_gas,
)

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
    @pytest.mark.parametrize(
        "p_e,price,expected",
        [(1000.0, 0.05, 50.0), (-1000.0, 0.05, -50.0), (500.0, -0.02, -10.0)],
    )
    def test_examples(self, p_e, price, expected):
        assert grid_exchange_cost(p_e, price) == pytest.approx(expected, abs=1e-12)

    def test_linear_in_price(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p_e = float(rng.uniform(-3e4, 3e4))
            price = float(rng.uniform(-0.1, 0.2))
            assert grid_exchange_cost(p_e, 2.0 * price) == 2.0 * grid_exchange_cost(p_e, price)


def _action(p1=0.0, q1=0.0, p2=0.0, q2=0.0, qb=0.0, boiler_on=False):
    return Action(
        chp_power=(p1, p2),
        chp_steam=(q1, q2),
        boiler_steam=qb,
        chp_on=(p1 > 0.0 or q1 > 0.0, p2 > 0.0 or q2 > 0.0),
        boiler_on=boiler_on,
    )


class TestTotalGas:
    def test_everything_off(self):
        assert total_gas(_action(), CFG) == 0.0

    def test_single_chp_at_full_power(self):
        action = _action(p1=16000.0)
        assert total_gas(action, CFG) == chp_power_fuel(16000.0, CHP1)

    def test_combined_dispatch(self):
        action = _action(p1=16000.0, q1=100.0, qb=100.0, boiler_on=True)
        assert total_gas(action, CFG) == pytest.approx(251.651784898396, abs=1e-9)

    def test_decomposes_into_component_calls_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = tuple(float(rng.uniform(c.p_min, c.p_max)) for c in CFG.chp)
            q = tuple(float(rng.uniform(c.q_min, c.q_max)) for c in CFG.chp)
            qb = float(rng.uniform(BOILER.q_min, BOILER.q_max))
            action = Action(
                chp_power=p, chp_steam=q, boiler_steam=qb,
                chp_on=(True, True), boiler_on=True,
            )
            expected = 0.0
            for i, chp in enumerate(CFG.chp):
                expected += chp_power_fuel(p[i], chp) + chp_steam_fuel(q[i], chp)
            expected += boiler_fuel(qb, BOILER)
            assert total_gas(action, CFG) == expected


class TestEquivalentEmissionFactor:
    def test_no_gas_no_emission(self):
        assert equivalent_emission_factor(0.0, 20000.0, 100.0, 116.65) == 0.0

    def test_examples(self):
        assert equivalent_emission_factor(100.0, 20000.0, 100.0, 116.65) == pytest.approx(
            0.5803482587064677, abs=1e-9
        )
        assert equivalent_emission_factor(251.656, 25000.0, 200.0, 116.65) == pytest.approx(
            1.164907634920635, abs=1e-9
        )

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            equivalent_emission_factor(10.0, 0.0, 0.0, 116.65)


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

    def test_boiler_curve_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            BoilerParams(a_b=0.0, b_b=-1.0, c_b=3.0, q_min=0.0, q_max=540.0)

    def test_turbine_breakpoint_positive(self):
        with pytest.raises(ValueError):
            SteamTurbineParams(1.0, 0.0, 1.0, 0.0, 0.0)

    def test_emission_threshold_above_one(self):
        with pytest.raises(ValueError):
            EmissionParams(116.65, 0.932, 1.0)

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

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"chp": []})
