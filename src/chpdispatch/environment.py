"""Hourly dispatch kernel for the microgrid.

Wires the component models into a sequential decision process over a whole
ensemble of scenario-days at once: normalized policy decisions in [0, 1]
are mapped onto the feasible window of each unit (ramp limits anchored at
the previous hour), the grid exchange closes the electric balance exactly,
and every hour records its cost, emissions, heat-waste flag and heat
reliability.  One array pass maps every power and steam decision onto its
static limits (``[p_min, p_max]``, ``[q_min, q_max]``, zero for an off
unit).  When every CHP's ramps span its power range, as on the default
plant, each ramp window is the static ``[p_min, p_max]`` and that pass sets
power too; otherwise an hourly loop carries the ramp anchor.  A day's start
power must be 0 (off) or lie within ``[p_min, p_max]``.  Gas and
steam-turbine power come from the formulas of :mod:`.grid_model`'s fitted
curves, each called once over every (unit, scenario, hour) without the
curves' range checks: the clipping guarantees them, and ``ChpParams``
keeps the efficiency positive on ``[p_min, p_max]``.  :class:`Ensemble`
holds the scenario-days as arrays, and :func:`dispatch` is the one
simulator; training reduces its per-hour arrays to daily objectives with
:func:`day_objectives`, and ``evaluate`` writes its traces from the same
arrays.

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

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .grid_model import (
    LB_PER_METRIC_TON,
    MicrogridConfig,
    _boiler_fuel,
    _power_fuel,
    _steam_fuel,
    _turbine_power,
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
    off, else within the unit's ``[p_min, p_max]``, which :func:`dispatch`
    checks); None starts every CHP on at the midpoint of its power range.
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
    off (ramping across an off period is waived).  A day's start power must
    be 0 (off) or lie within ``[p_min, p_max]``.  When every unit's ramps
    span its range (``config.chp_stack.ramps_span``) each window is exactly
    ``[p_min, p_max]``, so power maps onto these static limits in the same
    pass as steam, with the same bits; otherwise an hourly loop carries the
    anchor.  Steam maps onto the static steam limits.  Commitment outputs
    at or above 0.5 turn a switchable unit on; an off unit's continuous
    outputs are zero.
    Cost is gas burned at the gas price plus the signed grid exchange at
    the real-time price; emissions combine local combustion with purchased
    power (exports earn no credit).  An hour wastes heat when steam exceeds
    the heat load by more than the threshold ratio, or, at zero heat load,
    when it raises any steam at all.
    """
    cfg = config
    nc = len(cfg.chp)
    S = len(days)
    k = decision_dim(cfg)
    if S == 0:
        raise ValueError("scenario ensemble must be nonempty")
    if u.shape != (S, HOURS_PER_DAY, k):
        raise ValueError(f"expected decisions of shape {(S, HOURS_PER_DAY, k)}, got {u.shape}")
    if days.init_power is not None and days.init_power.shape != (S, nc):
        raise ValueError(f"expected initial power of shape {(S, nc)}, got {days.init_power.shape}")
    if not (u.min() >= 0.0 and u.max() <= 1.0):
        raise ValueError("decisions must lie in [0, 1]")

    units = cfg.chp_stack  # (nc, 1, 1) per ChpParams field
    if days.init_power is not None:
        _check_start(days, units.p_min[:, :, 0], units.p_max[:, :, 0])

    # Unit axis first: every decision column is a contiguous (S, 24) array,
    # and per-unit arrays are (nc, S, 24).  An extra last column of ones is
    # the flag that commitment index -1 (always committed) reads.
    cols = np.empty((k + 1, S, HOURS_PER_DAY))
    cols[:k] = u.transpose(2, 0, 1)
    cols[k] = 1.0
    limits = cfg.static_limits  # rows 0 .. 2 nc: CHP powers, CHP steams, boiler steam
    on = cols[2 * nc + 1 :][limits.flag] >= 0.5
    chp_on, boiler_on = on[:nc], on[2 * nc]

    # One pass maps every row onto its static limits; off units produce
    # nothing.  With spanning ramps each window is exactly [p_min, p_max]
    # (anchors lie in it, rounding is monotone): the loop's bits, in one pass.
    x = limits.lo + cols[: 2 * nc + 1] * limits.span
    x = np.where(on, np.minimum(np.maximum(x, limits.lo), limits.hi), 0.0)
    power, steam, qb = x[:nc], x[nc : 2 * nc], x[2 * nc]

    if not units.ramps_span:
        # Each hour's window ramps off the last.  One set of array
        # operations per hour moves every unit.  State and limits are full
        # (nc, S) arrays, which numpy combines without broadcasting.
        p_min, p_max, ramp_down, ramp_up = (
            np.repeat(limit[:, :, 0], S, axis=1)
            for limit in (units.p_min, units.p_max, units.ramp_down, units.ramp_up)
        )
        zero = np.zeros((nc, S))
        u_power = cols[:nc].transpose(2, 0, 1).copy()  # (24, nc, S)
        on_power = chp_on.transpose(2, 0, 1).copy()
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
            prev = power[:, :, t]  # off units keep the static pass's zero
            np.copyto(prev, np.minimum(np.maximum(p, lo), hi), where=on_power[t])

    # Unit-by-unit summation order q1 + q2 + ... + qb, as in the oracle.
    steam_total = sum(steam[1:], steam[0]) + qb
    st_power = _turbine_power(steam_total, cfg.steam_turbine)

    chp_sum = sum(power[1:], power[0])
    p_e = days.electric_load - chp_sum - st_power - days.hydro - days.solar

    fuel = _power_fuel(power, units) + _steam_fuel(steam, units)
    gas = sum(fuel, 0.0) + _boiler_fuel(qb, cfg.boiler, boiler_on)

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


def _check_start(days: Ensemble, p_min: np.ndarray, p_max: np.ndarray) -> None:
    """Reject a start power that is neither 0 (off) nor within its unit's
    ``[p_min, p_max]`` (limits (nc, 1)), naming the unit and the day."""
    start = days.init_power.T  # (nc, S)
    ok = (start == 0.0) | ((start >= p_min) & (start <= p_max))
    if not ok.all():
        i, s = np.argwhere(~ok)[0]
        raise ValueError(
            f"init_power of chp{i + 1} on day {days.labels[s]}: {start[i, s]} kW is "
            f"neither 0 (off) nor within [{p_min[i, 0]}, {p_max[i, 0]}]"
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


def _float_cells(values: np.ndarray) -> Iterator[str]:
    return map(repr, values.tolist())


def _flag_cells(values: np.ndarray) -> Iterator[str]:
    return map(str, values.astype(int).tolist())


def export_trace(d: Dispatch, day: int, path: str | Path) -> str:
    """Write one day's hourly dispatch to CSV in one write, floats at full
    precision (``repr``) and flags as 0/1; returns the sha256 of the bytes
    written."""
    columns = [map(str, range(HOURS_PER_DAY))]
    columns += map(_float_cells, d.power[day].T)
    columns += map(_float_cells, d.steam[day].T)
    columns.append(_float_cells(d.boiler_steam[day]))
    columns += map(_flag_cells, d.chp_on[day].T)
    columns += [
        _flag_cells(d.boiler_on[day]),
        _float_cells(d.st_power[day]),
        _float_cells(d.exchange[day]),
        _float_cells(d.cost[day]),
        _float_cells(d.emission_lb[day]),
        _flag_cells(d.waste[day]),
        _float_cells(d.heat_satisfaction[day]),
        _flag_cells(d.reliable[day]),
    ]
    lines = [",".join(trace_columns(d.power.shape[2])), *map(",".join, zip(*columns)), ""]
    data = "\n".join(lines).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
