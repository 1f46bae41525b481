"""Dispatch kernel tests: feasibility clamping, load balance, rewards,
reliability, and the day simulator against the independent oracle."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from chpdispatch.batch import BatchEvaluator
from chpdispatch.data import SyntheticSpec, generate_synthetic
from chpdispatch.environment import (
    Dispatch,
    day_objectives,
    decision_dim,
    decision_names,
    dispatch,
    export_trace,
    simulate_day,
)
from chpdispatch.grid_model import BoilerParams, LB_PER_METRIC_TON, default_config
from chpdispatch.policy import InputNormalization, PolicyNetwork, weight_count

from conftest import (
    config_to_plain,
    constant_scenario,
    make_policy,
    policy_to_plain,
    scenario_to_plain,
    stack,
)
from oracle import oracle_simulate_day


def tight_ramp_config(season="winter", ramp=1500.0):
    """Default plant with ramps narrower than the power span, so the
    hour-to-hour window actually binds."""
    cfg = default_config(season)
    chp = tuple(
        dataclasses.replace(c, ramp_down=-ramp, ramp_up=ramp) for c in cfg.chp
    )
    return dataclasses.replace(cfg, chp=chp)


def all_switchable_config():
    """Summer plant in which every unit, CHP 1 included, can be switched off."""
    return dataclasses.replace(
        default_config("summer"), switchable_units=frozenset({"chp1", "chp2", "boiler"})
    )


def constant_day(u, cfg, days=None, start=None):
    """Dispatch the same decision row ``u`` in every hour of each day
    (default: one constant scenario), optionally from given CHP powers."""
    days = constant_scenario() if days is None else days
    if start is not None:
        days = dataclasses.replace(days, init_power=np.tile(start, (len(days), 1)))
    u = np.broadcast_to(np.asarray(u, dtype=float), (len(days), 24, decision_dim(cfg)))
    return dispatch(u, days, cfg)


def balance_residual(d: Dispatch, days) -> np.ndarray:
    return (
        d.power.sum(axis=2) + d.st_power + days.hydro + days.solar + d.exchange
        - days.electric_load
    )


class TestDecisionLayout:
    def test_winter_dimension(self, winter_config):
        assert decision_dim(winter_config) == 5
        assert decision_names(winter_config) == [
            "chp1_power", "chp2_power", "chp1_steam", "chp2_steam", "boiler_steam",
        ]

    def test_summer_dimension(self, summer_config):
        assert decision_dim(summer_config) == 7
        assert decision_names(summer_config)[-2:] == ["chp2_commit", "boiler_commit"]


class TestClampAction:
    """The kernel clamps normalized decisions onto each unit's window."""

    def test_midpoint_maps_to_window_center(self, winter_config):
        d = constant_day([0.5] * 5, winter_config)  # both CHPs start at 14000
        # ramp +-5000 clips to the capacity limits [12000, 16000]
        assert d.power[0, 0, 0] == pytest.approx(14000.0, abs=1e-9)
        assert d.power[0, 0, 1] == pytest.approx(14000.0, abs=1e-9)

    def test_zero_maps_to_window_lower_bound(self):
        cfg = tight_ramp_config()
        d = constant_day([0.0] * 5, cfg)
        assert d.power[0, 0, 0] == max(12000.0, 14000.0 - 1500.0)
        assert d.steam[0, 0, 0] == 0.0
        assert d.boiler_steam[0, 0] == 0.0

    def test_one_maps_to_window_upper_bound(self):
        cfg = tight_ramp_config()
        d = constant_day([1.0] * 5, cfg)
        assert d.power[0, 0, 0] == min(16000.0, 14000.0 + 1500.0)
        assert d.steam[0, 0, 0] == 153.0
        assert d.boiler_steam[0, 0] == 540.0

    def test_commitment_threshold(self, summer_config):
        off = constant_day([0.5] * 5 + [0.49, 0.49], summer_config)
        assert not off.chp_on[0, 0, 1] and off.power[0, 0, 1] == 0.0
        assert off.steam[0, 0, 1] == 0.0
        assert not off.boiler_on[0, 0] and off.boiler_steam[0, 0] == 0.0
        on = constant_day([0.5] * 5 + [0.5, 0.5], summer_config)
        assert on.chp_on[0, 0, 1] and on.boiler_on[0, 0]

    def test_off_units_below_a_positive_steam_floor(self):
        # An off unit raises no steam even when its floor q_min is above 0.
        base = default_config("summer")
        cfg = dataclasses.replace(
            base,
            chp=(base.chp[0], dataclasses.replace(base.chp[1], q_min=10.0)),
            boiler=dataclasses.replace(base.boiler, q_min=5.0),
        )
        days = constant_scenario(init_power=[14000.0, 14000.0])
        u = np.full((1, 24, 7), 0.5)
        u[0, ::2, 5:] = 0.0  # chp2 and the boiler off in even hours
        d = dispatch(u, days, cfg)
        assert d.steam[0, 0, 1] == 0.0 and d.boiler_steam[0, 0] == 0.0
        assert d.steam[0, 1, 1] == 10.0 + 0.5 * 143.0 and d.boiler_steam[0, 1] == 272.5
        ref = _reference_dispatch(u, days, cfg)
        for name in Dispatch._fields:
            assert_same_bits(getattr(d, name), getattr(ref, name))

    def test_restart_window_anchored_at_minimum(self):
        cfg = tight_ramp_config("summer")
        d = constant_day([0.5, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0], cfg, start=[14000.0, 0.0])
        # re-entering unit may reach at most p_min + ramp_up
        assert d.power[0, 0, 1] == min(16000.0, 12000.0 + 1500.0)

    def test_rejects_bad_inputs(self, winter_config):
        days = constant_scenario()
        with pytest.raises(ValueError):
            dispatch(np.full((1, 24, 4), 0.5), days, winter_config)
        u = np.full((1, 24, 5), 0.5)
        u[0, 3, 4] = 1.5
        with pytest.raises(ValueError):
            dispatch(u, days, winter_config)
        u[0, 3, 4] = np.nan
        with pytest.raises(ValueError):
            dispatch(u, days, winter_config)

    def test_feasibility_over_random_inputs(self, summer_config):
        rng = np.random.default_rng(42)
        for cfg in (tight_ramp_config(), tight_ramp_config("summer"), summer_config):
            k = decision_dim(cfg)
            start = np.array(
                [
                    [0.0 if rng.random() < 0.3 else rng.uniform(c.p_min, c.p_max) for c in cfg.chp]
                    for _ in range(300)
                ]
            )
            days = dataclasses.replace(constant_scenario()[[0] * 300], init_power=start)
            d = dispatch(rng.random((300, 24, k)), days, cfg)
            prev = np.concatenate([start[:, None, :], d.power[:, :-1, :]], axis=1)
            for i, c in enumerate(cfg.chp):
                on, p, q = d.chp_on[:, :, i], d.power[:, :, i], d.steam[:, :, i]
                assert np.all((c.p_min <= p[on]) & (p[on] <= c.p_max))
                assert np.all((c.q_min <= q[on]) & (q[on] <= c.q_max))
                ramping = on & (prev[:, :, i] > 0.0)
                delta = (p - prev[:, :, i])[ramping]
                assert np.all((c.ramp_down <= delta) & (delta <= c.ramp_up))
                assert np.all(p[~on] == 0.0) and np.all(q[~on] == 0.0)
            b = cfg.boiler
            on = d.boiler_on
            assert np.all((b.q_min <= d.boiler_steam[on]) & (d.boiler_steam[on] <= b.q_max))
            assert np.all(d.boiler_steam[~on] == 0.0)


class TestLoadBalance:
    def test_exact_cover(self, winter_config, winter_scenarios):
        policy = make_policy(np.random.default_rng(12), winter_config, winter_scenarios, scale=5.0)
        days = winter_scenarios
        d = dispatch(policy.forward(days.policy_inputs()), days, winter_config)
        chp_sum = d.power[:, :, 0] + d.power[:, :, 1]
        expected = days.electric_load - chp_sum - d.st_power - days.hydro - days.solar
        assert np.array_equal(d.exchange, expected)

    def test_export_case(self, winter_config):
        scenario = constant_scenario(load=5000.0, hydro_kw=250.0, solar_kw=250.0)
        d = constant_day([0.5] * 5, winter_config, scenario)
        supplied = d.power[0, 0].sum() + d.st_power[0, 0] + 500.0
        assert d.exchange[0, 0] < 0.0
        assert d.exchange[0, 0] == pytest.approx(5000.0 - supplied, abs=1e-9)

    def test_full_import(self):
        cfg = all_switchable_config()
        scenario = constant_scenario(load=20000.0, hydro_kw=0.0, solar_kw=0.0)
        d = constant_day([0.5] * 5 + [0.0] * 3, cfg, scenario)
        assert np.all(d.power == 0.0) and not d.chp_on.any() and not d.boiler_on.any()
        # with no steam the turbine sits on its lower branch intercept
        assert d.exchange[0, 0] == 20000.0 - cfg.steam_turbine.b2_s


class TestHourRewards:
    def test_pure_import_costs_and_emissions(self):
        cfg = all_switchable_config()
        scenario = constant_scenario(load=20000.0, hydro_kw=0.0, solar_kw=0.0, rt_price=0.05)
        d = constant_day([0.5] * 5 + [0.0] * 3, cfg, scenario)
        purchase = 20000.0 - cfg.steam_turbine.b2_s
        assert d.cost[0, 0] == pytest.approx(purchase * 0.05, abs=1e-9)
        assert d.emission_lb[0, 0] == pytest.approx(purchase * 0.932, abs=1e-9)
        assert not d.waste[0, 0]  # no steam produced at all

    def test_waste_threshold_is_strict(self, winter_config):
        # CHP steam at q_min = 0, boiler at its q_max: exactly 105 vs 106 klb/h
        # against a 100 klb/h heat load and the 1.05 threshold
        flags = []
        for q_max in (105.0, 106.0):
            cfg = dataclasses.replace(
                winter_config, boiler=dataclasses.replace(winter_config.boiler, q_max=q_max)
            )
            d = constant_day([0.5, 0.5, 0.0, 0.0, 1.0], cfg, constant_scenario(heat_load=100.0))
            assert d.steam[0, 0].sum() + d.boiler_steam[0, 0] == q_max
            flags.append(bool(d.waste[0, 0]))
        assert flags == [False, True]

    def test_zero_heat_load_flags_any_steam(self, winter_config):
        scenario = constant_scenario(heat_load=0.0)
        none = constant_day([0.5, 0.5, 0.0, 0.0, 0.0], winter_config, scenario)
        some = constant_day([0.5, 0.5, 0.0, 0.0, 1.0], winter_config, scenario)
        assert not none.waste[0, 0] and none.heat_satisfaction[0, 0] == 1.0
        assert some.waste[0, 0] and some.heat_satisfaction[0, 0] == np.inf
        assert none.reliable.all() and some.reliable.all()

    def test_exports_earn_no_emission_credit(self, winter_config):
        scenario = constant_scenario(load=5000.0)
        d = constant_day([0.5] * 5, winter_config, scenario)
        assert d.exchange[0, 0] < 0.0
        # Gas by hand from the fitted coefficients, at the dispatched hour:
        # both CHPs at 14000 kW and 76.5 klb/h, the boiler at 270 klb/h.
        assert list(d.power[0, 0]) == [14000.0, 14000.0]
        assert list(d.steam[0, 0]) == [76.5, 76.5] and d.boiler_steam[0, 0] == 270.0
        r = 14000.0 / 16000.0
        gas = 14000.0 / (293.0 * (0.088094 + 0.42435 * r + 0.19291 * r * r))
        gas += 1.1766 * 76.5 - 65.881
        gas += 14000.0 / (293.0 * (-0.027957 + 0.80107 * r + 0.34667 * r * r))
        gas += 1.3293 * 76.5 - 77.25
        gas += 0.0009 * 270.0 * 270.0 + 1.0968 * 270.0 + 3.7742
        assert d.emission_lb[0, 0] == pytest.approx(gas * 116.65, rel=1e-12)

    def test_cost_monotone_in_rt_price(self, winter_config):
        for load in (40000.0, 5000.0):  # purchase, then sale
            days = stack(*(constant_scenario(load=load, rt_price=p) for p in (0.02, 0.05, 0.08)))
            d = constant_day([0.5] * 5, winter_config, days)
            costs = d.cost[:, 0]
            if d.exchange[0, 0] > 0:
                assert costs[0] <= costs[1] <= costs[2]
            else:
                assert costs[0] >= costs[1] >= costs[2]


def _reliability_only(flags) -> Dispatch:
    """A one-day dispatch whose only nonzero field is the reliable flag."""
    zeros = np.zeros((1, 24))
    fields = {name: zeros for name in Dispatch._fields}
    fields["reliable"] = np.array([flags], dtype=bool)
    return Dispatch(**fields)


class TestHeatReliability:
    def test_all_hours_pass(self):
        _, violation = day_objectives(_reliability_only([True] * 24))
        assert violation[0] == 0.0

    def test_21_of_24(self):
        _, violation = day_objectives(_reliability_only([True] * 21 + [False] * 3))
        assert violation[0] == pytest.approx(1.0 / 24.0, abs=1e-12)

    def test_boundary_22_hours(self):
        _, violation = day_objectives(_reliability_only([True] * 22 + [False] * 2))
        assert violation[0] == 0.0

    def test_wrong_length_rejected(self, winter_config):
        days = constant_scenario()
        with pytest.raises(ValueError):
            dispatch(np.full((1, 23, 5), 0.5), days, winter_config)


class TestSimulateDay:
    def test_constant_scenario_zero_policy_is_stationary(self, winter_config):
        scenario = constant_scenario()
        policy = PolicyNetwork.decode(
            np.zeros(weight_count(6, 15, 5)), 6, 15, 5,
            InputNormalization.from_scenarios(scenario),
        )
        day = simulate_day(policy, scenario, winter_config)
        d = day.trace
        for field in ("power", "steam", "boiler_steam", "cost", "emission_lb"):
            hours = getattr(d, field)[0]
            assert np.all(hours == hours[0])
        assert day.objectives[0] == pytest.approx(24.0 * d.cost[0, 0], rel=1e-12)
        assert day.objectives[1] == pytest.approx(
            24.0 * d.emission_lb[0, 0] / LB_PER_METRIC_TON, rel=1e-12
        )

    def test_deterministic(self, winter_config, winter_scenarios):
        rng = np.random.default_rng(3)
        policy = make_policy(rng, winter_config, winter_scenarios, scale=5.0)
        a = simulate_day(policy, winter_scenarios[0], winter_config)
        b = simulate_day(policy, winter_scenarios[0], winter_config)
        assert np.array_equal(a.objectives, b.objectives)
        assert a.violation == b.violation
        for x, y in zip(a.trace, b.trace):
            assert np.array_equal(x, y)

    def test_zero_heat_load_with_no_steam_capability(self):
        # A plant that cannot raise steam: vacuous reliability, zero waste.
        cfg = default_config("winter")
        chp = tuple(
            dataclasses.replace(c, q_min=0.0, q_max=0.0, b_q=0.0, a_q=1.0)
            for c in cfg.chp
        )
        boiler = BoilerParams(a_b=0.0009, b_b=1.0968, c_b=3.7742, q_min=0.0, q_max=0.0)
        cfg = dataclasses.replace(cfg, chp=chp, boiler=boiler)
        scenario = constant_scenario(heat_load=0.0)
        policy = PolicyNetwork.decode(
            np.zeros(weight_count(6, 15, 5)), 6, 15, 5,
            InputNormalization.from_scenarios(scenario),
        )
        day = simulate_day(policy, scenario, cfg)
        assert day.objectives[2] == 0.0
        assert day.violation == 0.0
        assert day.trace.reliable.all()

    def test_scenario_supplied_initial_action_anchors_hour_zero(self):
        cfg = tight_ramp_config()
        scenario = constant_scenario(init_power=[12000.0, 16000.0])
        policy = PolicyNetwork.decode(
            np.zeros(weight_count(6, 15, 5)), 6, 15, 5,
            InputNormalization.from_scenarios(scenario),
        )
        day = simulate_day(policy, scenario, cfg)
        first = day.trace.power[0, 0]
        # hour 0 windows anchor at the supplied state, not the default
        assert first[0] == pytest.approx(0.5 * (12000.0 + 13500.0))
        assert first[1] == pytest.approx(0.5 * (14500.0 + 16000.0))

    def test_load_balance_identity_holds_per_hour(self, winter_config, winter_scenarios):
        rng = np.random.default_rng(17)
        policy = make_policy(rng, winter_config, winter_scenarios, scale=6.0)
        for s in range(3):
            day = simulate_day(policy, winter_scenarios[s], winter_config)
            residual = balance_residual(day.trace, winter_scenarios[s])
            assert np.all(np.abs(residual) < 1e-9)

    def test_emission_unit_conversion(self, winter_config, winter_scenarios):
        rng = np.random.default_rng(23)
        policy = make_policy(rng, winter_config, winter_scenarios, scale=2.0)
        day = simulate_day(policy, winter_scenarios[1], winter_config)
        assert day.objectives[1] == day.trace.emission_lb[0].sum() / 2204.62

    def test_matches_independent_oracle(self, winter_config, summer_config,
                                        winter_scenarios, summer_scenarios):
        rng = np.random.default_rng(99)
        cases = [(winter_config, winter_scenarios[s]) for s in range(2)]
        cases += [(summer_config, summer_scenarios[s]) for s in range(2)]
        for config, scenario in cases:
            policy = make_policy(rng, config, scenario, scale=4.0)
            day = simulate_day(policy, scenario, config)
            expected = oracle_simulate_day(
                scenario_to_plain(scenario, config),
                [float(w) for w in policy.weights],
                policy_to_plain(policy),
                config_to_plain(config),
            )
            assert day.objectives[0] == pytest.approx(expected[0], abs=1e-9)
            assert day.objectives[1] == pytest.approx(expected[1], abs=1e-9)
            assert day.objectives[2] == expected[2]
            assert day.violation == expected[3]


def _evaluate(policy, scenarios, config):
    evaluator = BatchEvaluator(scenarios, config, policy.normalization, policy.hidden_dim)
    return evaluator(policy.encode())


class TestEvaluatePolicy:
    """Ensemble evaluation of one policy through :class:`BatchEvaluator`."""

    def test_singleton_equals_simulate_day(self, winter_config, winter_scenarios):
        policy = make_policy(np.random.default_rng(1), winter_config, winter_scenarios)
        day = simulate_day(policy, winter_scenarios[0], winter_config)
        objectives, violation = _evaluate(policy, winter_scenarios[0], winter_config)
        assert np.array_equal(objectives, day.objectives)
        assert violation == day.violation

    def test_duplicated_scenarios_leave_mean_unchanged(self, winter_config, winter_scenarios):
        policy = make_policy(np.random.default_rng(2), winter_config, winter_scenarios)
        single, _ = _evaluate(policy, winter_scenarios[0], winter_config)
        doubled, _ = _evaluate(policy, winter_scenarios[[0, 0]], winter_config)
        assert np.allclose(single, doubled, rtol=0, atol=0)

    def test_two_scenarios_average(self, winter_config, winter_scenarios):
        policy = make_policy(np.random.default_rng(4), winter_config, winter_scenarios)
        a = simulate_day(policy, winter_scenarios[0], winter_config)
        b = simulate_day(policy, winter_scenarios[1], winter_config)
        objectives, violation = _evaluate(policy, winter_scenarios[:2], winter_config)
        assert np.allclose(objectives, (a.objectives + b.objectives) / 2.0, rtol=1e-15)
        assert violation == pytest.approx((a.violation + b.violation) / 2.0)

    def test_empty_rejected(self, winter_config, winter_scenarios):
        policy = make_policy(np.random.default_rng(5), winter_config, winter_scenarios)
        with pytest.raises(ValueError):
            _evaluate(policy, winter_scenarios[:0], winter_config)

    def test_keep_traces(self, winter_config, winter_scenarios):
        policy = make_policy(np.random.default_rng(6), winter_config, winter_scenarios)
        evaluator = BatchEvaluator(winter_scenarios[:2], winter_config, policy.normalization)
        d = dispatch(evaluator.decisions(policy.encode()), evaluator.days, winter_config)
        assert all(field.shape[:2] == (2, 24) for field in d)
        single = simulate_day(policy, winter_scenarios[1], winter_config).trace
        for both, one in zip(d, single):
            assert np.allclose(both[1], one[0], rtol=1e-12, atol=0.0)


class TestBatchEvaluator:
    def test_rejects_wrong_genome_length(self, winter_config, winter_scenarios):
        norm = InputNormalization.from_scenarios(winter_scenarios)
        evaluator = BatchEvaluator(winter_scenarios, winter_config, norm)
        with pytest.raises(ValueError):
            evaluator(np.zeros(10))


class TestTraceExport:
    def test_columns_and_rows(self, tmp_path, winter_config, winter_scenarios):
        policy = make_policy(np.random.default_rng(8), winter_config, winter_scenarios)
        day = simulate_day(policy, winter_scenarios[0], winter_config)
        path = tmp_path / "trace.csv"
        export_trace(day.trace, 0, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 25
        header = lines[0].split(",")
        assert header[0] == "hour"
        assert "exchange_kw" in header and "reliability_flag" in header
        first = lines[1].split(",")
        assert float(first[header.index("chp1_power_kw")]) == day.trace.power[0, 0, 0]

    def test_zero_heat_load_satisfaction_is_written(self, tmp_path, winter_config):
        scenario = constant_scenario(heat_load=0.0)
        d = constant_day([0.5, 0.5, 0.0, 0.0, 1.0], winter_config, scenario)
        path = tmp_path / "trace.csv"
        export_trace(d, 0, path)
        header, first = (line.split(",") for line in path.read_text().splitlines()[:2])
        assert first[header.index("heat_satisfaction")] == "inf"
        assert first[header.index("heat_waste_flag")] == "1"


def _reference_dispatch(u, days, cfg) -> Dispatch:
    """The kernel as it stood with a Python loop over hours x units and the
    two-branch ramp window (previous hour on: anchored at its power; off:
    ``[p_min, min(p_max, p_min + ramp_up)]``), kept operation for operation
    as the bitwise reference for :func:`dispatch`."""
    nc = len(cfg.chp)
    S = len(days.init_power)
    on = {unit: u[:, :, 2 * nc + 1 + j] >= 0.5 for j, unit in enumerate(cfg.commitment_units)}
    always = np.ones((S, 24), dtype=bool)
    chp_on = [on.get(f"chp{i + 1}", always) for i in range(nc)]

    steam = np.empty((S, 24, nc))
    for i, params in enumerate(cfg.chp):
        q = params.q_min + u[:, :, nc + i] * (params.q_max - params.q_min)
        q = np.minimum(np.maximum(q, params.q_min), params.q_max)
        steam[:, :, i] = np.where(chp_on[i], q, 0.0)
    b = cfg.boiler
    qb = b.q_min + u[:, :, 2 * nc] * (b.q_max - b.q_min)
    qb = np.minimum(np.maximum(qb, b.q_min), b.q_max)
    boiler_on = on.get("boiler", always)
    qb = np.where(boiler_on, qb, 0.0)

    power = np.empty((S, 24, nc))
    prev = days.init_power.copy()
    for t in range(24):
        for i, params in enumerate(cfg.chp):
            was_on = prev[:, i] > 0.0
            lo = np.where(
                was_on, np.maximum(params.p_min, prev[:, i] + params.ramp_down), params.p_min
            )
            hi = np.where(
                was_on,
                np.minimum(params.p_max, prev[:, i] + params.ramp_up),
                min(params.p_max, params.p_min + params.ramp_up),
            )
            p = lo + u[:, t, i] * (hi - lo)
            p = np.minimum(np.maximum(p, lo), hi)
            p = np.where(chp_on[i][:, t], p, 0.0)
            power[:, t, i] = p
            prev[:, i] = p

    steam_total = steam[:, :, 0]
    for i in range(1, nc):
        steam_total = steam_total + steam[:, :, i]
    steam_total = steam_total + qb
    st = cfg.steam_turbine
    st_power = np.where(
        steam_total > st.c_s, st.a1_s * steam_total + st.b1_s, st.a2_s * steam_total + st.b2_s
    )
    chp_sum = power[:, :, 0]
    for i in range(1, nc):
        chp_sum = chp_sum + power[:, :, i]
    p_e = days.electric_load - chp_sum - st_power - days.hydro - days.solar

    gas = np.zeros((S, 24))
    for i, params in enumerate(cfg.chp):
        p = power[:, :, i]
        running = p > 0.0
        ratio = p / params.p_max
        eff = params.a_c + params.b_c * ratio + params.c_c * ratio * ratio
        denom = params.heating_value * np.where(running, eff, 1.0)
        fuel_p = np.where(running, p / denom, 0.0)
        fuel_q = np.maximum(params.a_q * steam[:, :, i] - params.b_q, 0.0)
        gas = gas + (fuel_p + fuel_q)
    gas = gas + np.where(boiler_on, b.a_b * qb * qb + b.b_b * qb + b.c_b, 0.0)

    cost = gas * days.gas_price + p_e * days.rt_price
    emission = gas * cfg.emission.gas_emission_rate + (
        cfg.emission.grid_emission_factor * np.maximum(p_e, 0.0)
    )
    has_heat = days.heat_load > 0.0
    ratio = steam_total / np.where(has_heat, days.heat_load, 1.0)
    waste = np.where(has_heat, ratio > cfg.emission.heat_waste_threshold, steam_total > 0.0)
    satisfaction = np.where(has_heat, ratio, np.where(steam_total > 0.0, np.inf, 1.0))
    return Dispatch(
        power=power,
        steam=steam,
        boiler_steam=qb,
        chp_on=np.stack(chp_on, axis=-1),
        boiler_on=boiler_on,
        st_power=st_power,
        exchange=p_e,
        cost=cost,
        emission_lb=emission,
        waste=waste,
        heat_satisfaction=satisfaction,
        reliable=satisfaction >= 0.95,
    )


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def random_plant(rng, cfg):
    """``cfg`` with random asymmetric ramp limits per unit; about half of
    them leave ``p_min + ramp_up < p_max``, where a restarting unit's upper
    edge binds below capacity."""
    chp = tuple(
        dataclasses.replace(
            c,
            ramp_down=-rng.uniform(100.0, 6000.0),
            ramp_up=rng.uniform(100.0, 2.0 * (c.p_max - c.p_min)),
        )
        for c in cfg.chp
    )
    return dataclasses.replace(cfg, chp=chp)


def random_start(rng, cfg, n):
    """(n, nc) start powers: off, at p_min, at p_max, or in between."""
    start = np.empty((n, len(cfg.chp)))
    for i, c in enumerate(cfg.chp):
        kind = rng.integers(0, 4, n)
        start[:, i] = np.select(
            [kind == 0, kind == 1, kind == 2],
            [0.0, c.p_min, c.p_max],
            rng.uniform(c.p_min, c.p_max, n),
        )
    return start


def random_decisions(rng, cfg, n):
    """(n, 24, k) decisions with a share pinned to exactly 0, 0.5 or 1, and
    commitment columns that switch units off and back on within a day."""
    u = rng.random((n, 24, decision_dim(cfg)))
    pinned = rng.random(u.shape) < 0.15
    u[pinned] = rng.choice([0.0, 0.5, 1.0], int(pinned.sum()))
    nc = len(cfg.chp)
    for j in range(len(cfg.commitment_units)):
        # runs of on and off hours: each hour flips with probability 0.25
        flips = rng.random((n, 24)) < 0.25
        state = (np.cumsum(flips, axis=1) + rng.integers(0, 2, (n, 1))) % 2
        u[:, :, 2 * nc + 1 + j] = np.where(state == 1, rng.uniform(0.5, 1.0, (n, 24)), 0.0)
    return u


class TestRampWindowMatchesReferenceLoop:
    """:func:`dispatch` (one array pass per hour over every unit, windows
    anchored at ``where(prev > 0, prev, p_min)``) equals the per-unit
    two-branch loop bit for bit, in every field."""

    @pytest.mark.parametrize("plant", ["winter", "summer", "all-switchable"])
    def test_every_field_bitwise(self, plant, winter_scenarios, summer_scenarios):
        base = all_switchable_config() if plant == "all-switchable" else default_config(plant)
        scenarios = winter_scenarios if plant == "winter" else summer_scenarios
        rng = np.random.default_rng({"winter": 61, "summer": 62, "all-switchable": 63}[plant])
        n = 60
        capped_reentries = restarts = 0
        for _ in range(10):
            cfg = random_plant(rng, base)
            days = scenarios[rng.integers(0, len(scenarios), n)]
            days = dataclasses.replace(days, init_power=random_start(rng, cfg, n))
            u = random_decisions(rng, cfg, n)
            d, ref = dispatch(u, days, cfg), _reference_dispatch(u, days, cfg)
            for name in Dispatch._fields:
                assert_same_bits(getattr(d, name), getattr(ref, name))

            # the draws reach the off-unit branch where its upper edge binds
            prev = np.concatenate([days.init_power[:, None, :], d.power[:, :-1, :]], axis=1)
            reentry = d.chp_on & (prev == 0.0)
            edge = np.array([c.p_min + c.ramp_up for c in cfg.chp])
            below_cap = edge < np.array([c.p_max for c in cfg.chp])
            capped_reentries += int(np.sum(reentry & (d.power == edge) & below_cap))
            restarts += int(np.sum(reentry[:, 1:]))
        assert capped_reentries > 0
        assert (restarts > 0) == (plant != "winter")


class TestRowIndependence:
    """Each scenario row is dispatched on its own: stacking two sets of
    days, or permuting the rows, leaves every row's fields and objectives
    bit-identical."""

    @pytest.mark.parametrize("season", ["winter", "summer"])
    def test_concatenation_and_permutation(self, season, winter_scenarios, summer_scenarios):
        scenarios = winter_scenarios if season == "winter" else summer_scenarios
        rng = np.random.default_rng(71 if season == "winter" else 72)
        cfg = random_plant(rng, default_config(season))

        def draw(n):
            days = scenarios[rng.integers(0, len(scenarios), n)]
            days = dataclasses.replace(days, init_power=random_start(rng, cfg, n))
            return days, random_decisions(rng, cfg, n)

        (days_a, u_a), (days_b, u_b) = draw(7), draw(13)
        days_ab = stack(days_a, days_b)
        u_ab = np.concatenate([u_a, u_b])
        perm = rng.permutation(20)
        days_p = days_ab[perm]

        d_a, d_b = dispatch(u_a, days_a, cfg), dispatch(u_b, days_b, cfg)
        d_ab, d_p = dispatch(u_ab, days_ab, cfg), dispatch(u_ab[perm], days_p, cfg)
        for name in Dispatch._fields:
            apart = np.concatenate([getattr(d_a, name), getattr(d_b, name)])
            assert_same_bits(getattr(d_ab, name), apart)
            assert_same_bits(getattr(d_p, name), apart[perm])

        (obj_a, vio_a), (obj_b, vio_b) = day_objectives(d_a), day_objectives(d_b)
        obj_ab, vio_ab = day_objectives(d_ab)
        obj_p, vio_p = day_objectives(d_p)
        assert_same_bits(obj_ab, np.concatenate([obj_a, obj_b], axis=1))
        assert_same_bits(vio_ab, np.concatenate([vio_a, vio_b]))
        assert_same_bits(obj_p, obj_ab[:, perm])
        assert_same_bits(vio_p, vio_ab[perm])


#: sha256 over every :class:`Dispatch` field (name, dtype, shape and bytes)
#: of the :class:`TestPinnedBytes` cases.  The kernel is elementwise, with
#: no matrix product, so the digest does not depend on the BLAS build.
DISPATCH_SHA256 = "d8c4d1d9bd92d551c09c9ff398e9a02a57889e73ba314f081d1c5f12d78a0042"


class TestPinnedBytes:
    """The kernel's output bits are pinned: a change that moves any bit of
    any field for these seeded decisions fails here."""

    def test_every_dispatch_field_is_pinned(self):
        digest = hashlib.sha256()
        for season in ("winter", "summer"):
            days = generate_synthetic(SyntheticSpec(seed=7, days=7, season=season))
            rng = np.random.default_rng(8 if season == "winter" else 9)
            base = default_config(season)
            for cfg in (base, random_plant(rng, base)):
                for start in (None, random_start(rng, cfg, len(days))):
                    u = random_decisions(rng, cfg, len(days))
                    d = dispatch(u, dataclasses.replace(days, init_power=start), cfg)
                    for name in Dispatch._fields:
                        field = np.ascontiguousarray(getattr(d, name))
                        digest.update(f"{name} {field.dtype.str} {field.shape}".encode())
                        digest.update(field.tobytes())
        assert digest.hexdigest() == DISPATCH_SHA256
