"""Fitted component models for a combined-heat-and-power microgrid.

Each fitted curve in this module is a pure map from operating points
(scalars or arrays) to a physical quantity, using regression coefficients
fitted from plant history; the dispatch kernel calls these same functions.
Internal units are fixed across the whole package:

    power            kW
    steam            klb/h   (thousand pounds of steam per hour)
    natural gas      dth/h   (dekatherms per hour)
    gas price        $/dth
    electricity      $/kWh
    emissions        lb      (reported as metric tonnes, lb / 2204.62)

The hour step is 1 h everywhere, so power and energy are numerically
interchangeable per hour.

Two fitted-curve quirks are kept verbatim because they are what the
regression produced, not physical truths:

* The steam-turbine output is a discontinuous piecewise-linear function of
  total steam (5626.8 vs 8842.2 kW on either side of the 215 klb/h
  breakpoint) and reports 1552.2 kW at zero steam.  No clamp is applied.
* The second CHP's electrical-efficiency polynomial exceeds 1.0 above
  roughly 14 700 kW.  Validation only requires the polynomial to stay
  strictly positive over the committed operating range.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import numpy as np

LB_PER_METRIC_TON = 2204.62


def _require_finite(params) -> None:
    """Reject a NaN or infinite coefficient of a params dataclass, naming it."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class ChpParams:
    """One combined-heat-and-power unit (combustion turbine + heat recovery).

    Attributes
    ----------
    a_c, b_c, c_c : float
        Electrical-efficiency polynomial coefficients; efficiency is
        evaluated on the load ratio p / p_max.
    a_q, b_q : float
        Marginal fuel for steam beyond the free heat-recovery band, in
        dth per klb and dth.  Steam up to b_q / a_q klb/h costs no gas.
    p_min, p_max : float
        Committed power limits, kW.
    ramp_down, ramp_up : float
        Hour-to-hour power change limits, kW/h (ramp_down < 0).
    q_min, q_max : float
        Steam output limits, klb/h.
    heating_value : float
        Fuel heating value, kWh per dth.
    """

    a_c: float
    b_c: float
    c_c: float
    a_q: float
    b_q: float
    p_min: float
    p_max: float
    ramp_down: float
    ramp_up: float
    q_min: float
    q_max: float
    heating_value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_min < self.p_max:
            raise ValueError(f"need 0 <= p_min < p_max, got [{self.p_min}, {self.p_max}]")
        if not (self.ramp_down < 0.0 < self.ramp_up):
            raise ValueError(
                "ramp limits must straddle zero (ramp_down < 0 < ramp_up), "
                f"got [{self.ramp_down}, {self.ramp_up}]"
            )
        if not 0.0 <= self.q_min <= self.q_max:
            raise ValueError(f"need 0 <= q_min <= q_max, got [{self.q_min}, {self.q_max}]")
        if self.heating_value <= 0.0:
            raise ValueError(f"heating_value must be > 0, got {self.heating_value}")
        _require_finite(self)
        # The fuel model divides by the efficiency, so it must stay strictly
        # positive on [p_min, p_max].
        if self._min_efficiency_committed() <= 0.0:
            raise ValueError(
                "efficiency polynomial must be strictly positive on [p_min, p_max]"
            )

    def _min_efficiency_committed(self) -> float:
        """Minimum of the efficiency quadratic on [p_min, p_max], taken at
        an end of the range or at the vertex."""
        points = [self.p_min, self.p_max]
        if self.c_c != 0.0:
            vertex = -self.b_c / (2.0 * self.c_c) * self.p_max
            if self.p_min < vertex < self.p_max:
                points.append(vertex)
        return float(np.min(chp_efficiency(np.array(points), self)))

    @property
    def free_steam_limit(self) -> float:
        """Steam output below which heat recovery needs no extra gas, klb/h."""
        return self.b_q / self.a_q


@dataclass(frozen=True)
class BoilerParams:
    """Auxiliary boiler: quadratic fuel curve a_b*q^2 + b_b*q + c_b.

    The constant term c_b is the idle burn of a committed boiler at zero
    steam output; an uncommitted boiler burns nothing.
    """

    a_b: float
    b_b: float
    c_b: float
    q_min: float
    q_max: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.q_min <= self.q_max:
            raise ValueError(f"need 0 <= q_min <= q_max, got [{self.q_min}, {self.q_max}]")
        _require_finite(self)
        # Fuel must be nonnegative and nondecreasing on the operating range:
        # the slope 2 a_b q + b_b of the quadratic is monotone in q.
        slope_lo = 2.0 * self.a_b * self.q_min + self.b_b
        slope_hi = 2.0 * self.a_b * self.q_max + self.b_b
        if min(slope_lo, slope_hi) < 0.0:
            raise ValueError("boiler fuel curve must be nondecreasing on [q_min, q_max]")
        if boiler_fuel(self.q_min, self) < 0.0:
            raise ValueError("boiler fuel curve must be nonnegative on [q_min, q_max]")


@dataclass(frozen=True)
class SteamTurbineParams:
    """Piecewise-linear steam-to-power recovery with breakpoint c_s (klb/h)."""

    a1_s: float  # kW per klb, branch above the breakpoint
    b1_s: float  # kW
    a2_s: float  # kW per klb, branch at/below the breakpoint
    b2_s: float  # kW
    c_s: float

    def __post_init__(self) -> None:
        if self.c_s <= 0.0:
            raise ValueError(f"breakpoint c_s must be > 0, got {self.c_s}")
        _require_finite(self)


@dataclass(frozen=True)
class EmissionParams:
    """Emission accounting factors and the heat-waste threshold."""

    gas_emission_rate: float  # lb CO2 per dth of natural gas
    grid_emission_factor: float  # lb CO2 per kWh purchased
    heat_waste_threshold: float  # steam/heat-load ratio above which an hour wastes heat

    def __post_init__(self) -> None:
        if self.gas_emission_rate <= 0.0 or self.grid_emission_factor <= 0.0:
            raise ValueError(
                "gas_emission_rate and grid_emission_factor must be > 0, "
                f"got {self.gas_emission_rate} and {self.grid_emission_factor}"
            )
        if self.heat_waste_threshold <= 1.0:
            raise ValueError(
                f"heat_waste_threshold must exceed 1, got {self.heat_waste_threshold}"
            )
        _require_finite(self)


@dataclass(frozen=True)
class MicrogridConfig:
    """Full component inventory plus seasonal commitment rules.

    ``switchable_units`` lists the units whose on/off status is a policy
    decision; it must be empty in winter, where every unit stays committed.
    Unit identifiers are ``chp1`` .. ``chpN`` and ``boiler``.
    """

    chp: tuple[ChpParams, ...]
    boiler: BoilerParams
    steam_turbine: SteamTurbineParams
    emission: EmissionParams
    season: str = "winter"
    switchable_units: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if len(self.chp) < 1:
            raise ValueError("at least one CHP unit is required")
        if self.season not in ("winter", "summer"):
            raise ValueError(f"season must be 'winter' or 'summer', got {self.season!r}")
        if self.season == "winter" and self.switchable_units:
            raise ValueError("switchable_units must be empty in winter")
        valid = set(self.unit_ids)
        unknown = set(self.switchable_units) - valid
        if unknown:
            raise ValueError(f"unknown switchable units: {sorted(unknown)}")

    def __getstate__(self) -> dict:
        # Pickle the fields only; the cached views below are rebuilt on use.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def unit_ids(self) -> tuple[str, ...]:
        return tuple(f"chp{i + 1}" for i in range(len(self.chp))) + ("boiler",)

    @cached_property
    def commitment_units(self) -> tuple[str, ...]:
        """Switchable units in canonical order (CHPs by index, then boiler)."""
        return tuple(u for u in self.unit_ids if u in self.switchable_units)

    @cached_property
    def chp_stack(self) -> SimpleNamespace:
        """Every :class:`ChpParams` field as an (nc, 1, 1) array, units on
        the first axis: the curves below read it as they read one unit's
        params, and evaluate all units at once on (nc, S, 24) arrays."""
        return SimpleNamespace(
            **{
                f.name: np.array([getattr(c, f.name) for c in self.chp]).reshape(-1, 1, 1)
                for f in fields(ChpParams)
            }
        )


def _check(ok, message: str, **values) -> None:
    """Raise ``ValueError(message)`` unless every element of ``ok`` holds,
    formatting ``message`` with ``values`` at the first element that fails
    (values broadcast against ``ok``)."""
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        first = np.flatnonzero(np.logical_not(ok))[0]
        shape = np.shape(ok)
        at = {name: np.broadcast_to(v, shape).flat[first] for name, v in values.items()}
        raise ValueError(message.format(**at))


# The fitted curves.  Each takes scalars or arrays of operating points and
# reads its coefficients by attribute, from one unit's params or from
# MicrogridConfig.chp_stack; dispatch calls them on whole ensembles.


def chp_efficiency(p, params: ChpParams):
    """Electrical efficiency at power output ``p`` (kW), as a fraction.

    Evaluates the fitted quadratic on the load ratio p / p_max for any
    p in [0, p_max]; below p_min the polynomial is extrapolated as written.
    """
    _check((p >= 0.0) & (p <= params.p_max), "power {p} kW outside [0, {p_max}]",
           p=p, p_max=params.p_max)  # fmt: skip
    r = p / params.p_max
    return params.a_c + params.b_c * r + params.c_c * r * r


def chp_power_fuel(p, params: ChpParams):
    """Gas burned for electric output ``p`` (kW), dth/h.  p = 0 means off."""
    eff = chp_efficiency(p, params)  # checks 0 <= p <= p_max
    off = p == 0.0
    _check(off | (p >= params.p_min), "power {p} kW outside [{p_min}, {p_max}]",
           p=p, p_min=params.p_min, p_max=params.p_max)  # fmt: skip
    _check(off | (eff > 0.0), "fitted efficiency is non-positive ({eff}) at {p} kW",
           eff=eff, p=p)  # fmt: skip
    return np.where(off, 0.0, p / (params.heating_value * np.where(off, 1.0, eff)))


def chp_steam_fuel(q, params: ChpParams):
    """Extra gas for steam output ``q`` (klb/h), dth/h; free below b_q/a_q.
    q = 0 is also an off unit's steam."""
    _check((q == 0.0) | ((q >= params.q_min) & (q <= params.q_max)),
           "steam {q} klb/h outside [{q_min}, {q_max}]",
           q=q, q_min=params.q_min, q_max=params.q_max)  # fmt: skip
    return np.maximum(params.a_q * q - params.b_q, 0.0)


def boiler_fuel(q, params: BoilerParams, committed=True):
    """Boiler gas consumption at steam output ``q`` (klb/h), dth/h.

    A committed boiler burns its idle fuel even at q = 0; an uncommitted
    boiler burns nothing and must have q = 0.
    """
    _check(committed | (q == 0.0), "uncommitted boiler cannot produce steam (q={q})", q=q)
    _check(np.logical_not(committed) | ((q >= params.q_min) & (q <= params.q_max)),
           "steam {q} klb/h outside [{q_min}, {q_max}]",
           q=q, q_min=params.q_min, q_max=params.q_max)  # fmt: skip
    return np.where(committed, params.a_b * q * q + params.b_b * q + params.c_b, 0.0)


def steam_turbine_power(q_total, params: SteamTurbineParams):
    """Electric output (kW) recovered from total steam flow ``q_total`` (klb/h).

    The breakpoint itself takes the lower branch (strict > on the upper
    branch), reproducing the fitted curve including its discontinuity.
    """
    _check(q_total >= 0.0, "steam flow must be nonnegative, got {q}", q=q_total)
    return np.where(
        q_total > params.c_s,
        params.a1_s * q_total + params.b1_s,
        params.a2_s * q_total + params.b2_s,
    )


def default_config(season: str = "winter") -> MicrogridConfig:
    """Two-CHP plant with the fitted coefficients and limits used throughout.

    In summer the second CHP and the boiler become switchable; the first
    CHP stays committed for baseline electricity and steam.
    """
    chp1 = ChpParams(
        a_c=0.088094, b_c=0.42435, c_c=0.19291,
        a_q=1.1766, b_q=65.881,
        p_min=12000.0, p_max=16000.0, ramp_down=-5000.0, ramp_up=5000.0,
        q_min=0.0, q_max=153.0, heating_value=293.0,
    )
    chp2 = ChpParams(
        a_c=-0.027957, b_c=0.80107, c_c=0.34667,
        a_q=1.3293, b_q=77.25,
        p_min=12000.0, p_max=16000.0, ramp_down=-5000.0, ramp_up=5000.0,
        q_min=0.0, q_max=153.0, heating_value=293.0,
    )
    boiler = BoilerParams(a_b=0.0009, b_b=1.0968, c_b=3.7742, q_min=0.0, q_max=540.0)
    turbine = SteamTurbineParams(a1_s=-1.9341, b1_s=6042.6, a2_s=33.907, b2_s=1552.2, c_s=215.0)
    emission = EmissionParams(
        gas_emission_rate=116.65, grid_emission_factor=0.932, heat_waste_threshold=1.05
    )
    switchable = frozenset({"chp2", "boiler"}) if season == "summer" else frozenset()
    return MicrogridConfig(
        chp=(chp1, chp2),
        boiler=boiler,
        steam_turbine=turbine,
        emission=emission,
        season=season,
        switchable_units=switchable,
    )


def config_to_dict(config: MicrogridConfig) -> dict:
    d = asdict(config)
    d["switchable_units"] = sorted(config.switchable_units)
    return d


def _section(where: str, params: type, doc: dict):
    """``params(**doc)``, with a rejected value's error prefixed by ``where``."""
    try:
        return params(**doc)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def config_from_dict(d: dict) -> MicrogridConfig:
    try:
        return MicrogridConfig(
            chp=tuple(_section(f"chp[{i}]", ChpParams, c) for i, c in enumerate(d["chp"])),
            boiler=_section("boiler", BoilerParams, d["boiler"]),
            steam_turbine=_section("steam_turbine", SteamTurbineParams, d["steam_turbine"]),
            emission=_section("emission", EmissionParams, d["emission"]),
            season=d.get("season", "winter"),
            switchable_units=frozenset(d.get("switchable_units", ())),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed microgrid config: {exc}") from exc


def save_config(config: MicrogridConfig, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"
    )


def load_config(path: str | Path) -> MicrogridConfig:
    return config_from_dict(json.loads(Path(path).read_text()))
