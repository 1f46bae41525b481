"""Seeded inputs for the benchmark, written without the package under test.

The program receives only files: a scenario CSV in its documented schema, a
microgrid config JSON and, for the analysis workload, policy artifact JSONs.
The same values are kept here as plain Python lists so the checkers and the
independent oracle never read them back through the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

HOURS = 24
HIDDEN_DIM = 15
INPUT_DIM = 6
HOUR_SCALE = 23.0

# The two-CHP plant of the study, in the package's config JSON layout.
_CHP1 = dict(
    a_c=0.088094, b_c=0.42435, c_c=0.19291, a_q=1.1766, b_q=65.881,
    p_min=12000.0, p_max=16000.0, ramp_down=-5000.0, ramp_up=5000.0,
    q_min=0.0, q_max=153.0, heating_value=293.0,
)
_CHP2 = dict(
    a_c=-0.027957, b_c=0.80107, c_c=0.34667, a_q=1.3293, b_q=77.25,
    p_min=12000.0, p_max=16000.0, ramp_down=-5000.0, ramp_up=5000.0,
    q_min=0.0, q_max=153.0, heating_value=293.0,
)


def plant(season: str) -> dict:
    """Microgrid config document; in summer CHP 2 and the boiler are
    switchable, so the policy has two commitment outputs."""
    return {
        "chp": [dict(_CHP1), dict(_CHP2)],
        "boiler": dict(a_b=0.0009, b_b=1.0968, c_b=3.7742, q_min=0.0, q_max=540.0),
        "steam_turbine": dict(a1_s=-1.9341, b1_s=6042.6, a2_s=33.907, b2_s=1552.2, c_s=215.0),
        "emission": dict(
            gas_emission_rate=116.65, grid_emission_factor=0.932, heat_waste_threshold=1.05
        ),
        "season": season,
        "switchable_units": ["boiler", "chp2"] if season == "summer" else [],
    }


def commit_units(doc: dict) -> list[str]:
    units = [f"chp{i + 1}" for i in range(len(doc["chp"]))] + ["boiler"]
    return [u for u in units if u in doc["switchable_units"]]


def decision_count(doc: dict) -> int:
    return 2 * len(doc["chp"]) + 1 + len(commit_units(doc))


def genome_length(doc: dict) -> int:
    k = decision_count(doc)
    return (INPUT_DIM + 1) * HIDDEN_DIM + (HIDDEN_DIM + 1) * k


def oracle_config(doc: dict) -> dict:
    """The plant as the flat dict ``tests/oracle.py`` reads."""
    return {
        "chp": doc["chp"],
        "boiler": doc["boiler"],
        "steam_turbine": doc["steam_turbine"],
        "gas_emission_rate": doc["emission"]["gas_emission_rate"],
        "grid_emission_factor": doc["emission"]["grid_emission_factor"],
        "heat_waste_threshold": doc["emission"]["heat_waste_threshold"],
        "commit_units": commit_units(doc),
    }


# Per-season signal shapes: mean, daily amplitude, hour of the upswing, noise.
_SIGNALS = {
    "winter": {
        "temperature": (0.0, 5.0, 9.0, 1.5),
        "wind": (6.0, 2.0, 0.0, 0.8),
        "solar": (120.0, 220.0, 6.5, 25.0),
        "streamflow": (14.0, 3.0, 18.0, 1.0),
        "price": (0.045, 0.018, 12.0, 0.004),
        "load": (22000.0, 3500.0, 12.0, 600.0),
        "heat": (170.0, 35.0, 1.0, 8.0),
        "hydro": (1100.0, 150.0, 18.0, 60.0),
        "gas": (3.5, 0.0, 0.0, 0.05),
    },
    "summer": {
        "temperature": (22.0, 6.0, 9.0, 1.8),
        "wind": (4.5, 1.5, 0.0, 0.7),
        "solar": (260.0, 340.0, 6.5, 35.0),
        "streamflow": (8.0, 2.0, 18.0, 0.8),
        "price": (0.038, 0.022, 9.0, 0.006),
        "load": (20000.0, 4500.0, 9.0, 700.0),
        "heat": (60.0, 12.0, 1.0, 4.0),
        "hydro": (800.0, 120.0, 18.0, 50.0),
        "gas": (2.8, 0.0, 0.0, 0.05),
    },
}
_LOAD_PER_DEGREE = {"winter": -180.0, "summer": 250.0}  # kW per degC
_HEAT_PER_DEGREE = {"winter": -4.0, "summer": -1.5}  # klb/h per degC


@dataclass
class Days:
    """One scenario set as plain per-day, per-hour lists (prices in $/kWh)."""

    labels: list[str]
    obs: list[list[list[float]]]  # [day][hour] -> six policy inputs
    load: list[list[float]]
    heat_load: list[list[float]]
    solar: list[list[float]]
    hydro: list[list[float]]
    rt_price: list[list[float]]
    gas_price: list[list[float]]

    def oracle_day(self, d: int, init_power: list[float]) -> dict:
        return {
            "obs": self.obs[d],
            "load": self.load[d],
            "heat_load": self.heat_load[d],
            "solar": self.solar[d],
            "hydro": self.hydro[d],
            "rt_price": self.rt_price[d],
            "gas_price": self.gas_price[d],
            "init_power": init_power,
        }

    def normalization(self) -> tuple[list[float], list[float]]:
        """Min-max input scaling over the set; hour of day is hour / 23."""
        signals = np.array([h[:5] for day in self.obs for h in day])
        lo, hi = signals.min(axis=0), signals.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        return [float(x) for x in lo] + [0.0], [float(x) for x in span] + [HOUR_SCALE]


def _shape(spec: tuple, hours: np.ndarray, shocks: np.ndarray) -> np.ndarray:
    mean, amp, phase, noise = spec
    return mean + amp * np.sin(2.0 * np.pi * (hours - phase) / HOURS) + noise * shocks


def write_scenarios(path: Path, season: str, days: int, seed: int) -> Days:
    """Write ``days`` synthetic days of one season to ``path``.

    A day-level temperature anomaly persists from day to day, so loads,
    prices and renewables vary across the ensemble the way the policy's
    inputs do.  Values are written with ``repr`` and read back as floats,
    so the file and the returned lists hold the same numbers.
    """
    sig = _SIGNALS[season]
    rng = np.random.default_rng(seed)
    hours = np.arange(HOURS, dtype=float)[None, :]
    shocks = {name: rng.standard_normal((days, HOURS)) for name in sig}
    prior_shock = rng.standard_normal((days, HOURS))
    anomaly = np.empty(days)
    level = 0.0
    for d, z in enumerate(rng.standard_normal(days)):
        level = 0.7 * level + 1.5 * z
        anomaly[d] = level

    temperature = _shape(sig["temperature"], hours, shocks["temperature"]) + anomaly[:, None]
    temp_dev = temperature - sig["temperature"][0]
    wind = np.maximum(_shape(sig["wind"], hours, shocks["wind"]), 0.0)
    solar_rad = np.maximum(_shape(sig["solar"], hours, shocks["solar"]), 0.0)
    streamflow = np.maximum(_shape(sig["streamflow"], hours, shocks["streamflow"]), 0.01)
    rt_price = _shape(sig["price"], hours, shocks["price"])
    prior_price = _shape(sig["price"], hours, prior_shock)
    load = np.maximum(
        _shape(sig["load"], hours, shocks["load"]) + _LOAD_PER_DEGREE[season] * temp_dev, 1000.0
    )
    heat = np.maximum(
        _shape(sig["heat"], hours, shocks["heat"]) + _HEAT_PER_DEGREE[season] * temp_dev, 0.0
    )
    solar_kw = np.minimum(0.2 * solar_rad, 200.0)
    hydro = np.maximum(
        _shape(sig["hydro"], hours, shocks["hydro"])
        + 25.0 * (streamflow - sig["streamflow"][0]),
        0.0,
    )
    gas = np.maximum(_shape(sig["gas"], hours, shocks["gas"]), 0.5)

    start = date(2019, 1, 1) if season == "winter" else date(2019, 7, 1)
    out = Days([], [], [], [], [], [], [], [])
    lines = [
        "datetime,temperature_c,wind_mps,solar_wm2,streamflow_cms,price_prior_rt_usd_mwh,"
        "price_rt_usd_mwh,gas_usd_dth,load_kw,heat_load_klbh,solar_kw,hydro_kw"
    ]
    for d in range(days):
        label = (start + timedelta(days=d)).isoformat()
        out.labels.append(label)
        day_obs, day_cols = [], {k: [] for k in ("load", "heat", "solar", "hydro", "rt", "gas")}
        for t in range(HOURS):
            text = [
                repr(float(temperature[d, t])),
                repr(float(wind[d, t])),
                repr(float(solar_rad[d, t])),
                repr(float(streamflow[d, t])),
                repr(float(prior_price[d, t]) * 1000.0),
                repr(float(rt_price[d, t]) * 1000.0),
                repr(float(gas[d, t])),
                repr(float(load[d, t])),
                repr(float(heat[d, t])),
                repr(float(solar_kw[d, t])),
                repr(float(hydro[d, t])),
            ]
            lines.append(f"{label}T{t:02d}:00," + ",".join(text))
            v = [float(x) for x in text]
            day_obs.append([v[0], v[1], v[2], v[3], v[4] / 1000.0, float(t)])
            for key, value in zip(day_cols, (v[7], v[8], v[9], v[10], v[5] / 1000.0, v[6])):
                day_cols[key].append(value)
        out.obs.append(day_obs)
        out.load.append(day_cols["load"])
        out.heat_load.append(day_cols["heat"])
        out.solar.append(day_cols["solar"])
        out.hydro.append(day_cols["hydro"])
        out.rt_price.append(day_cols["rt"])
        out.gas_price.append(day_cols["gas"])
    path.write_text("\n".join(lines) + "\n")
    return out


def write_config(path: Path, season: str) -> dict:
    doc = plant(season)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def write_policy(path: Path, doc: dict, days: Days, seed: int) -> dict:
    """A seeded policy artifact with weights uniform in [-2, 2], so few
    sigmoids saturate, and the scenario set's input scaling; returns the
    artifact document."""
    offsets, scales = days.normalization()
    rng = np.random.default_rng(seed)
    weights = [float(w) for w in rng.uniform(-2.0, 2.0, genome_length(doc))]
    artifact = {
        "input_dim": INPUT_DIM,
        "hidden_dim": HIDDEN_DIM,
        "output_dim": decision_count(doc),
        "normalization": {"offsets": offsets, "scales": scales},
        "weights": weights,
    }
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return artifact


def initial_power(doc: dict) -> list[float]:
    """Hour-0 ramp anchor when a scenario gives none: every CHP on at the
    midpoint of its power range (the documented default)."""
    return [0.5 * (c["p_min"] + c["p_max"]) for c in doc["chp"]]

