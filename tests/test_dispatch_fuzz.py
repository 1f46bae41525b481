"""Property tests of the dispatch kernel against the independent oracle.

Each example dispatches a few scenario-days in one kernel call and checks
every day's objectives and violation against ``oracle.oracle_simulate_day``
at 1e-9.  The examples cover both seasons and summer commitment patterns;
random ramp limits, steam capacities and waste thresholds; random initial
CHP power (units that start off, at a capacity limit or in between); hours
with zero heat load or a negative real-time price; and network outputs
pinned to exactly 0 or 1 (the edges of the ramp windows) or to exactly 0.5
(the commitment threshold).  On every example the kernel's own outputs
also pass the range checks of the public curves, which the kernel leaves
out because its clipping guarantees them."""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chpdispatch.data import SyntheticSpec, generate_synthetic
from chpdispatch.environment import day_objectives, decision_dim, dispatch
from chpdispatch.grid_model import (
    _boiler_fuel,
    _power_fuel,
    _steam_fuel,
    _turbine_power,
    boiler_fuel,
    chp_power_fuel,
    chp_steam_fuel,
    default_config,
    steam_turbine_power,
)
from chpdispatch.policy import InputNormalization, PolicyNetwork, weight_count

from conftest import config_to_plain, policy_to_plain, scenario_to_plain
from oracle import oracle_simulate_day

POOL_DAYS = 6
POOLS = {
    "winter": generate_synthetic(SyntheticSpec(seed=81, days=POOL_DAYS)),
    "summer": generate_synthetic(SyntheticSpec(seed=82, days=POOL_DAYS, season="summer")),
}
#: Output bias that saturates the sigmoid to exactly 0.0 or 1.0 in float64.
SATURATING_BIAS = 800.0

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)


plants = st.fixed_dictionaries(
    {
        "season": st.sampled_from(["winter", "summer"]),
        "ramp": st.one_of(st.none(), st.floats(200.0, 6000.0)),  # None: default 5000
        "steam_scale": st.floats(0.1, 2.0),
        "waste_threshold": st.floats(1.01, 1.5),
    }
)


def plant(spec):
    cfg = default_config(spec["season"])
    ramp = {} if spec["ramp"] is None else {"ramp_down": -spec["ramp"], "ramp_up": spec["ramp"]}
    chp = tuple(
        dataclasses.replace(c, q_max=c.q_max * spec["steam_scale"], **ramp) for c in cfg.chp
    )
    boiler = dataclasses.replace(cfg.boiler, q_max=cfg.boiler.q_max * spec["steam_scale"])
    emission = dataclasses.replace(cfg.emission, heat_waste_threshold=spec["waste_threshold"])
    return dataclasses.replace(cfg, chp=chp, boiler=boiler, emission=emission)


start_power = st.one_of(
    st.just("off"),
    st.just("p_min"),
    st.just("p_max"),
    st.floats(0.0, 1.0),  # fraction of the power span
)

day_edits = st.fixed_dictionaries(
    {
        "pool_index": st.integers(0, POOL_DAYS - 1),
        "start": st.one_of(st.none(), st.lists(start_power, min_size=2, max_size=2)),
        "zero_heat_hours": st.sets(st.integers(0, 23), max_size=24),
        "negative_price_hours": st.sets(st.integers(0, 23), max_size=24),
        "negative_price": st.floats(-0.2, -1e-4),
    }
)


def start_powers(cfg, start):
    """CHP powers a day starts from; None is the midpoint default."""
    if start is None:
        return [0.5 * (c.p_min + c.p_max) for c in cfg.chp]
    powers = []
    for c, how in zip(cfg.chp, start):
        if how == "off":
            powers.append(0.0)
        elif how == "p_min":
            powers.append(c.p_min)
        elif how == "p_max":
            powers.append(c.p_max)
        else:
            powers.append(c.p_min + how * (c.p_max - c.p_min))
    return powers


def edited_days(pool, cfg, edits):
    """Pool days with zeroed heat loads and negative prices in the chosen
    hours.  The ensemble keeps the kernel's default start when no day
    gives its own."""
    days = pool[[e["pool_index"] for e in edits]]
    heat_load, rt_price = days.heat_load.copy(), days.rt_price.copy()
    for s, e in enumerate(edits):
        heat_load[s, sorted(e["zero_heat_hours"])] = 0.0
        rt_price[s, sorted(e["negative_price_hours"])] = e["negative_price"]
    init_power = None
    if any(e["start"] is not None for e in edits):
        init_power = [start_powers(cfg, e["start"]) for e in edits]
    return dataclasses.replace(days, heat_load=heat_load, rt_price=rt_price, init_power=init_power)


def pinned_policy(cfg, scenarios, seed, scale, pins):
    """Random policy whose outputs listed in ``pins`` are exactly 0, 0.5 or 1
    in every hour: a saturating output bias, or a zeroed output row."""
    k = decision_dim(cfg)
    weights = np.random.default_rng(seed).uniform(-scale, scale, weight_count(6, 15, k))
    w2 = 6 * 15 + 15  # start of the output layer's weight rows
    for o, level in enumerate(pins[:k]):
        bias = len(weights) - k + o
        if level == 0.5:
            weights[w2 + 15 * o : w2 + 15 * (o + 1)] = 0.0
            weights[bias] = 0.0
        elif level is not None:
            weights[bias] = SATURATING_BIAS if level else -SATURATING_BIAS
    norm = InputNormalization.from_scenarios(scenarios)
    return PolicyNetwork(6, 15, k, weights, norm)


def assert_public_curves_accept(d, cfg):
    """Feed the dispatch ``d`` to the checked public curves: none raises,
    and each returns its unchecked formula's bits."""
    units = cfg.chp_stack
    power, steam = d.power.transpose(2, 0, 1), d.steam.transpose(2, 0, 1)
    steam_total = sum(steam[1:], steam[0]) + d.boiler_steam
    pairs = [
        (chp_power_fuel(power, units), _power_fuel(power, units)),
        (chp_steam_fuel(steam, units), _steam_fuel(steam, units)),
        (
            boiler_fuel(d.boiler_steam, cfg.boiler, committed=d.boiler_on),
            _boiler_fuel(d.boiler_steam, cfg.boiler, d.boiler_on),
        ),
        (steam_turbine_power(steam_total, cfg.steam_turbine), d.st_power),
        (_turbine_power(steam_total, cfg.steam_turbine), d.st_power),
    ]
    for checked, formula in pairs:
        assert checked.tobytes() == formula.tobytes()


@FUZZ
@given(
    spec=plants,
    days=st.lists(day_edits, min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.5, 3.0, 10.0]),
    pins=st.lists(st.sampled_from([None, 0, 0.5, 1]), min_size=7, max_size=7),
)
def test_kernel_matches_oracle(spec, days, seed, scale, pins):
    cfg = plant(spec)
    pool = POOLS[spec["season"]]
    scenarios = edited_days(pool, cfg, days)
    policy = pinned_policy(cfg, pool, seed, scale, pins)

    u = policy.forward(scenarios.policy_inputs())
    d = dispatch(u, scenarios, cfg)
    assert_public_curves_accept(d, cfg)
    objectives, violation = day_objectives(d)

    weights = [float(w) for w in policy.weights]
    for s in range(len(scenarios)):
        cost, emission, waste, oracle_violation = oracle_simulate_day(
            scenario_to_plain(scenarios[s], cfg), weights, policy_to_plain(policy),
            config_to_plain(cfg),
        )  # fmt: skip
        assert abs(objectives[0, s] - cost) < 1e-9
        assert abs(objectives[1, s] - emission) < 1e-9
        assert objectives[2, s] == waste
        assert violation[s] == oracle_violation
