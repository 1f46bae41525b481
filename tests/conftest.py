"""Shared fixtures and converters for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from chpdispatch.data import SyntheticSpec, generate_synthetic
from chpdispatch.environment import HOURLY_FIELDS, Ensemble, decision_dim
from chpdispatch.grid_model import MicrogridConfig, default_config
from chpdispatch.policy import InputNormalization, PolicyNetwork, weight_count


#: The numpy the sha256 pins in these tests and ``tools/byte_identity.sha256``
#: were computed with; another numpy may draw or round differently.
PINNED_NUMPY = "2.4.6"


def pytest_report_header(config) -> str:
    return f"numpy {np.__version__} (the sha256 pins were computed with numpy {PINNED_NUMPY})"


@pytest.fixture(scope="session")
def winter_config() -> MicrogridConfig:
    return default_config("winter")


@pytest.fixture(scope="session")
def summer_config() -> MicrogridConfig:
    return default_config("summer")


@pytest.fixture(scope="session")
def winter_scenarios():
    return generate_synthetic(SyntheticSpec(seed=101, days=5))


@pytest.fixture(scope="session")
def summer_scenarios():
    return generate_synthetic(SyntheticSpec(seed=202, days=5, season="summer"))


def make_policy(
    rng: np.random.Generator,
    config: MicrogridConfig,
    scenarios,
    hidden_dim: int = 15,
    scale: float = 1.0,
) -> PolicyNetwork:
    """Random policy with normalization fitted to the given scenarios."""
    k = decision_dim(config)
    norm = InputNormalization.from_scenarios(scenarios)
    n = weight_count(6, hidden_dim, k)
    return PolicyNetwork(6, hidden_dim, k, rng.uniform(-scale, scale, n), norm)


def constant_scenario(
    label: str = "2019-01-10",
    temperature: float = 2.0,
    wind: float = 5.0,
    solar_rad: float = 100.0,
    streamflow: float = 12.0,
    prior_price: float = 0.04,
    load: float = 24000.0,
    heat_load: float = 150.0,
    solar_kw: float = 50.0,
    hydro_kw: float = 1000.0,
    rt_price: float = 0.05,
    gas_price: float = 3.5,
    init_power=None,
) -> Ensemble:
    """One day whose every hour carries the same values."""

    def hourly(value: float) -> np.ndarray:
        return np.full((1, 24), value)

    return Ensemble(
        labels=[label],
        signals=np.tile([temperature, wind, solar_rad, streamflow, prior_price], (1, 24, 1)),
        electric_load=hourly(load),
        heat_load=hourly(heat_load),
        solar=hourly(solar_kw),
        hydro=hourly(hydro_kw),
        rt_price=hourly(rt_price),
        gas_price=hourly(gas_price),
        init_power=None if init_power is None else [init_power],
    )


def stack(*parts: Ensemble) -> Ensemble:
    """The days of several ensembles, in order, as one ensemble."""
    arrays = {
        name: np.concatenate([getattr(p, name) for p in parts])
        for name in ("signals", *HOURLY_FIELDS)
    }
    starts = [p.init_power for p in parts]
    return dataclasses.replace(
        parts[0],
        labels=[label for p in parts for label in p.labels],
        init_power=None if starts[0] is None else np.concatenate(starts),
        **arrays,
    )


def scenario_to_plain(day: Ensemble, config: MicrogridConfig) -> dict:
    """Strip a one-day ensemble to plain lists for the independent oracle.
    Without its own start, every CHP starts at the midpoint of its range."""
    assert len(day) == 1
    if day.init_power is None:
        init_power = [0.5 * (c.p_min + c.p_max) for c in config.chp]
    else:
        init_power = day.init_power[0].tolist()
    return {
        "obs": [row + [float(t)] for t, row in enumerate(day.signals[0].tolist())],
        "load": day.electric_load[0].tolist(),
        "heat_load": day.heat_load[0].tolist(),
        "solar": day.solar[0].tolist(),
        "hydro": day.hydro[0].tolist(),
        "rt_price": day.rt_price[0].tolist(),
        "gas_price": day.gas_price[0].tolist(),
        "init_power": init_power,
    }


def config_to_plain(config: MicrogridConfig) -> dict:
    return {
        "chp": [
            {
                "a_c": c.a_c,
                "b_c": c.b_c,
                "c_c": c.c_c,
                "a_q": c.a_q,
                "b_q": c.b_q,
                "p_min": c.p_min,
                "p_max": c.p_max,
                "ramp_down": c.ramp_down,
                "ramp_up": c.ramp_up,
                "q_min": c.q_min,
                "q_max": c.q_max,
                "heating_value": c.heating_value,
            }
            for c in config.chp
        ],
        "boiler": {
            "a_b": config.boiler.a_b,
            "b_b": config.boiler.b_b,
            "c_b": config.boiler.c_b,
            "q_min": config.boiler.q_min,
            "q_max": config.boiler.q_max,
        },
        "steam_turbine": {
            "a1_s": config.steam_turbine.a1_s,
            "b1_s": config.steam_turbine.b1_s,
            "a2_s": config.steam_turbine.a2_s,
            "b2_s": config.steam_turbine.b2_s,
            "c_s": config.steam_turbine.c_s,
        },
        "gas_emission_rate": config.emission.gas_emission_rate,
        "grid_emission_factor": config.emission.grid_emission_factor,
        "heat_waste_threshold": config.emission.heat_waste_threshold,
        "commit_units": list(config.commitment_units),
    }


def policy_to_plain(policy: PolicyNetwork) -> dict:
    return {
        "input_dim": policy.input_dim,
        "hidden_dim": policy.hidden_dim,
        "output_dim": policy.output_dim,
        "offsets": list(policy.normalization.offsets),
        "scales": list(policy.normalization.scales),
    }
