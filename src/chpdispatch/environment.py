"""Hourly dispatch kernel for the microgrid.

Wires the component models into a sequential decision process over a whole
ensemble of scenario-days at once: normalized policy decisions in [0, 1]
are mapped onto the feasible window of each unit (ramp limits anchored at
the previous hour), the grid exchange closes the electric balance exactly,
and every hour records its cost, emissions, heat-waste flag and heat
reliability.  Gas and steam-turbine power come from the fitted curves of
:mod:`.grid_model`, each called once over every (unit, scenario, hour).
:class:`Ensemble` holds the scenario-days as arrays, and :func:`dispatch`
is the one simulator; training reduces its per-hour arrays to daily
objectives with :func:`day_objectives`, and ``evaluate`` writes its traces
from the same arrays.

Decision-vector layout for ``nc`` CHP units (see :func:`decision_names`):

    [0 .. nc)            CHP electric power
    [nc .. 2 nc)         CHP steam
    [2 nc]               boiler steam
    [2 nc + 1 ..]        commitment flags, one per switchable unit
                         (CHPs in index order, then boiler); >= 0.5 is on

Everything here is a pure function of its arguments; simulations of
different policies or scenarios can run concurrently without shared state.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .grid_model import (
    LB_PER_METRIC_TON,
    MicrogridConfig,
    boiler_fuel,
    chp_power_fuel,
    chp_steam_fuel,
    steam_turbine_power,
)

#: Exogenous signals a policy can observe, in decision-vector order.
OBSERVABLE_SIGNALS = (
    "temperature",
    "wind_speed",
    "solar_radiation",
    "streamflow",
    "prior_day_rt_price",
)

#: Hours that must satisfy >= 95 % of heat load each day.
RELIABLE_HOURS_REQUIRED = 22
HEAT_SATISFACTION_FLOOR = 0.95
HOURS_PER_DAY = 24


def decision_dim(config: MicrogridConfig) -> int:
    return 2 * len(config.chp) + 1 + len(config.commitment_units)


def decision_names(config: MicrogridConfig) -> list[str]:
    nc = len(config.chp)
    names = [f"chp{i + 1}_power" for i in range(nc)]
    names += [f"chp{i + 1}_steam" for i in range(nc)]
    names.append("boiler_steam")
    names += [f"{unit}_commit" for unit in config.commitment_units]
    return names


#: Hidden hourly arrays of an :class:`Ensemble`, the kernel's exogenous input.
HOURLY_FIELDS = ("electric_load", "heat_load", "solar", "hydro", "rt_price", "gas_price")

#: Sign constraints on the hidden arrays: (field, rule, test against zero).
DOMAIN = (
    ("electric_load", "electric_load must be > 0", np.greater),
    ("heat_load", "heat_load must be >= 0", np.greater_equal),
    ("solar", "renewable outputs must be >= 0", np.greater_equal),
    ("hydro", "renewable outputs must be >= 0", np.greater_equal),
)


def domain_violation(hourly: Mapping[str, np.ndarray]) -> tuple[str, int, int, str] | None:
    """(field, day, hour, reason) of the first hidden (S, 24) value outside
    its domain, checking fields in :data:`DOMAIN` order; None if all hold."""
    for name, rule, holds in DOMAIN:
        values = hourly[name]
        bad = ~holds(values, 0.0)
        if bad.any():
            s, t = np.argwhere(bad)[0]
            return name, int(s), int(t), f"{rule}, got {float(values[s, t])}"
    return None


@dataclass(frozen=True, eq=False)
class Ensemble:
    """S scenario-days of exogenous information, one array per quantity.

    ``signals`` is what a policy observes before it acts, shape (S, 24, 5)
    in :data:`OBSERVABLE_SIGNALS` order; the policy's sixth input, the
    hour of day, is the hour index.  The hidden hourly arrays are (S, 24).
    ``init_power`` is the (S, nc) CHP power each day starts from (0 = unit
    off); None starts every CHP on at the midpoint of its power range.
    Every array is stored as a read-only C-contiguous float64 copy.
    """

    labels: tuple[str, ...]  # (S,) ISO dates
    signals: np.ndarray
    electric_load: np.ndarray  # kW
    heat_load: np.ndarray  # klb/h
    solar: np.ndarray  # kW
    hydro: np.ndarray  # kW
    rt_price: np.ndarray  # $/kWh, may be negative
    gas_price: np.ndarray  # $/dth
    init_power: np.ndarray | None = None

    def __post_init__(self) -> None:
        labels = tuple(str(label) for label in self.labels)
        object.__setattr__(self, "labels", labels)
        shapes = {"signals": (len(labels), HOURS_PER_DAY, len(OBSERVABLE_SIGNALS))}
        shapes.update((name, (len(labels), HOURS_PER_DAY)) for name in HOURLY_FIELDS)
        if self.init_power is not None:
            shapes["init_power"] = (len(labels), np.shape(self.init_power)[-1])
        for name, shape in shapes.items():
            array = np.array(getattr(self, name), dtype=float, order="C")
            if array.shape != shape:
                raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
            finite = np.isfinite(array)
            if not finite.all():
                day = labels[np.argwhere(~finite)[0][0]]
                raise ValueError(f"{name} of day {day}: non-finite value")
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        bad = domain_violation(vars(self))
        if bad is not None:
            name, s, t, reason = bad
            raise ValueError(f"{name} of day {labels[s]} hour {t}: {reason}")
        if self.init_power is not None and np.any(self.init_power < 0.0):
            raise ValueError("init_power must be >= 0")

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index) -> "Ensemble":
        """The days at ``index`` (an int, slice, index array or boolean
        mask) as a new ensemble; an int selects a one-day ensemble."""
        rows = np.atleast_1d(np.arange(len(self))[index])
        return replace(
            self,
            labels=[self.labels[s] for s in rows],
            **{name: getattr(self, name)[rows] for name in ("signals", *HOURLY_FIELDS)},
            init_power=None if self.init_power is None else self.init_power[rows],
        )

    def policy_inputs(self) -> np.ndarray:
        """Raw policy inputs of every (day, hour), shape (S, 24, 6): the
        five signals, then the hour of day."""
        hours = np.arange(float(HOURS_PER_DAY))[:, None]
        hours = np.broadcast_to(hours, (len(self), HOURS_PER_DAY, 1))
        return np.concatenate([self.signals, hours], axis=2)


class Dispatch(NamedTuple):
    """Per-hour dispatch of S scenario-days; every field leads with (S, 24)."""

    power: np.ndarray  # (S, 24, nc) CHP electric output, kW
    steam: np.ndarray  # (S, 24, nc) CHP steam, klb/h
    boiler_steam: np.ndarray  # klb/h
    chp_on: np.ndarray  # (S, 24, nc) commitment flags
    boiler_on: np.ndarray
    st_power: np.ndarray  # kW recovered by the steam turbine
    exchange: np.ndarray  # kW at the grid tie, positive = purchase
    cost: np.ndarray  # $
    emission_lb: np.ndarray
    waste: np.ndarray  # heat-waste flag
    heat_satisfaction: np.ndarray  # steam / heat load; at zero load inf with steam, else 1
    reliable: np.ndarray  # >= 95 % of the heat load met


def dispatch(u: np.ndarray, days: Ensemble, config: MicrogridConfig) -> Dispatch:
    """Map decisions ``u`` of shape (S, 24, k) onto the plant, hour by hour.

    CHP power maps affinely onto the ramp-and-capacity window
    ``[max(p_min, anchor + ramp_down), min(p_max, anchor + ramp_up)]``,
    whose anchor is the previous hour's power, or p_min for a unit that was
    off (ramping across an off period is waived).  Steam maps onto the
    static steam limits.  Commitment outputs at or above 0.5 turn a
    switchable unit on; an off unit's continuous outputs are zero.  Cost is
    gas burned at the gas price plus the signed grid exchange at the
    real-time price; emissions combine local combustion with purchased
    power (exports earn no credit).  An hour wastes heat when steam exceeds
    the heat load by more than the threshold ratio, or, at zero heat load,
    when it raises any steam at all.
    """
    cfg = config
    nc = len(cfg.chp)
    S = len(days)
    k = decision_dim(cfg)
    if u.shape != (S, HOURS_PER_DAY, k):
        raise ValueError(f"expected decisions of shape {(S, HOURS_PER_DAY, k)}, got {u.shape}")
    if days.init_power is not None and days.init_power.shape != (S, nc):
        raise ValueError(f"expected initial power of shape {(S, nc)}, got {days.init_power.shape}")
    if not (u.min() >= 0.0 and u.max() <= 1.0):
        raise ValueError("decisions must lie in [0, 1]")

    units = cfg.chp_stack  # (nc, 1, 1) per ChpParams field

    # Unit axis first: every decision column is a contiguous (S, 24) array,
    # and per-unit arrays are (nc, S, 24).
    cols = u.transpose(2, 0, 1).copy()
    on = {unit: cols[2 * nc + 1 + j] >= 0.5 for j, unit in enumerate(cfg.commitment_units)}
    always = np.ones((S, HOURS_PER_DAY), dtype=bool)
    chp_on = np.stack([on.get(f"chp{i + 1}", always) for i in range(nc)])

    # Steam maps onto static limits; off units produce nothing.
    q_min, q_max = units.q_min, units.q_max
    steam = q_min + cols[nc : 2 * nc] * (q_max - q_min)
    steam = np.where(chp_on, np.minimum(np.maximum(steam, q_min), q_max), 0.0)
    b = cfg.boiler
    qb = b.q_min + cols[2 * nc] * (b.q_max - b.q_min)
    qb = np.minimum(np.maximum(qb, b.q_min), b.q_max)
    boiler_on = on.get("boiler", always)
    qb = np.where(boiler_on, qb, 0.0)

    # CHP power is sequential: each hour's window ramps off the last.  One
    # set of array operations per hour moves every unit.  State and limits
    # are full (nc, S) arrays, which numpy combines without broadcasting.
    p_min, p_max, ramp_down, ramp_up = (
        np.repeat(limit[:, :, 0], S, axis=1)
        for limit in (units.p_min, units.p_max, units.ramp_down, units.ramp_up)
    )
    zero = np.zeros((nc, S))
    u_power = cols[:nc].transpose(2, 0, 1).copy()  # (24, nc, S)
    on_power = chp_on.transpose(2, 0, 1).copy()
    power = np.zeros((HOURS_PER_DAY, nc, S))  # off units stay at zero
    if days.init_power is None:  # every CHP starts on, mid-range
        prev = 0.5 * (p_min + p_max)
    else:
        prev = days.init_power.T.copy()
    for t in range(HOURS_PER_DAY):
        # ChpParams keeps ramp_down < 0, so an off unit's lower edge is p_min.
        anchor = np.where(prev > zero, prev, p_min)
        lo = np.maximum(p_min, anchor + ramp_down)
        hi = np.minimum(p_max, anchor + ramp_up)
        p = lo + u_power[t] * (hi - lo)
        prev = power[t]
        np.copyto(prev, np.minimum(np.maximum(p, lo), hi), where=on_power[t])
    power = power.transpose(1, 2, 0).copy()  # (nc, S, 24)

    # Unit-by-unit summation order q1 + q2 + ... + qb, as in the oracle.
    steam_total = sum(steam[1:], steam[0]) + qb
    st_power = steam_turbine_power(steam_total, cfg.steam_turbine)

    chp_sum = sum(power[1:], power[0])
    p_e = days.electric_load - chp_sum - st_power - days.hydro - days.solar

    fuel = chp_power_fuel(power, units) + chp_steam_fuel(steam, units)
    gas = sum(fuel, 0.0) + boiler_fuel(qb, b, committed=boiler_on)

    cost = gas * days.gas_price + p_e * days.rt_price
    emission = gas * cfg.emission.gas_emission_rate + (
        cfg.emission.grid_emission_factor * np.maximum(p_e, 0.0)
    )
    has_heat = days.heat_load > 0.0
    ratio = steam_total / np.where(has_heat, days.heat_load, 1.0)
    waste = np.where(has_heat, ratio > cfg.emission.heat_waste_threshold, steam_total > 0.0)
    satisfaction = np.where(has_heat, ratio, np.where(steam_total > 0.0, np.inf, 1.0))
    return Dispatch(
        power=power.transpose(1, 2, 0),
        steam=steam.transpose(1, 2, 0),
        boiler_steam=qb,
        chp_on=chp_on.transpose(1, 2, 0),
        boiler_on=boiler_on,
        st_power=st_power,
        exchange=p_e,
        cost=cost,
        emission_lb=emission,
        waste=waste,
        heat_satisfaction=satisfaction,
        reliable=satisfaction >= HEAT_SATISFACTION_FLOOR,
    )


def day_objectives(d: Dispatch) -> tuple[np.ndarray, np.ndarray]:
    """Per-day objectives, shape (3, S): cost $, emissions in metric tonnes
    and heat-waste hours; and per-day violation, shape (S,): the shortfall
    of the reliable-hour fraction below 22 of 24 (zero when satisfied).

    The ensemble objectives are ``objectives.mean(axis=1)``: each row is
    contiguous, so its mean sums in the same order as a 1-D mean.
    """
    objectives = np.array(
        [
            d.cost.sum(axis=1),
            d.emission_lb.sum(axis=1) / LB_PER_METRIC_TON,
            d.waste.sum(axis=1).astype(float),
        ]
    )
    fraction = d.reliable.sum(axis=1) / HOURS_PER_DAY
    violation = np.maximum(0.0, RELIABLE_HOURS_REQUIRED / HOURS_PER_DAY - fraction)
    return objectives, violation


class DayResult(NamedTuple):
    objectives: np.ndarray  # (cost $, emission MT, heat-waste indicator sum)
    violation: float
    trace: Dispatch  # one scenario-day, S = 1


def simulate_day(policy, day: Ensemble, config: MicrogridConfig) -> DayResult:
    """Run one policy through a one-day ensemble.

    Deterministic: the same (policy, day, config) triple always yields
    bit-identical outcomes.
    """
    if len(day) != 1:
        raise ValueError(f"simulate_day needs a one-day ensemble, got {len(day)} days")
    trace = dispatch(policy.forward(day.policy_inputs()), day, config)
    objectives, violation = day_objectives(trace)
    return DayResult(objectives[:, 0], float(violation[0]), trace)


def trace_columns(nc: int) -> list[str]:
    cols = ["hour"]
    cols += [f"chp{i + 1}_power_kw" for i in range(nc)]
    cols += [f"chp{i + 1}_steam_klbh" for i in range(nc)]
    cols.append("boiler_steam_klbh")
    cols += [f"chp{i + 1}_on" for i in range(nc)]
    cols += [
        "boiler_on",
        "st_power_kw",
        "exchange_kw",
        "cost_usd",
        "emission_lb",
        "heat_waste_flag",
        "heat_satisfaction",
        "reliability_flag",
    ]
    return cols


def export_trace(d: Dispatch, day: int, path: str | Path) -> None:
    """Write one day's hourly dispatch to CSV (full float precision: csv
    writes a float as ``repr``, flags as 0/1)."""
    columns = [range(HOURS_PER_DAY)]
    columns += d.power[day].T.tolist()
    columns += d.steam[day].T.tolist()
    columns.append(d.boiler_steam[day].tolist())
    columns += d.chp_on[day].T.astype(int).tolist()
    columns += [
        d.boiler_on[day].astype(int).tolist(),
        d.st_power[day].tolist(),
        d.exchange[day].tolist(),
        d.cost[day].tolist(),
        d.emission_lb[day].tolist(),
        d.waste[day].astype(int).tolist(),
        d.heat_satisfaction[day].tolist(),
        d.reliable[day].astype(int).tolist(),
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(trace_columns(d.power.shape[2]))
        writer.writerows(zip(*columns))
