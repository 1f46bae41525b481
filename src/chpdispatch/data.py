"""Scenario ingestion, validation, and synthetic generation.

A scenario set is an :class:`~.environment.Ensemble`: S days of hourly
arrays holding the observable signals a policy may use, the hidden
realizations the simulator needs, and the gas price.  Scenarios arrive as
CSV with this fixed header (one row per hour, timestamps on the hour, the
24 rows of a day contiguous and in hour order, each day once):

    datetime, temperature_c, wind_mps, solar_wm2, streamflow_cms,
    price_prior_rt_usd_mwh, price_rt_usd_mwh, gas_usd_dth,
    load_kw, heat_load_klbh, solar_kw, hydro_kw

The file is read as UTF-8; a leading byte-order mark, as spreadsheet
programs write, is dropped.  Text without quotes, carriage returns or NUL
splits on newlines and commas; other text goes through :mod:`csv`.  Each
column is then parsed whole.  When every stamp has the writer's form
``{date}T{hh}:00`` and the days are distinct and complete, one comparison
checks them all; otherwise a row-by-row check finds the first bad row.

Prices are ingested in $/MWh and held internally in $/kWh; all other
columns are already in internal units.  A price is its cell's exact
decimal value times 1e-3, rounded once to a double: a column of plain
decimals (digits, sign and point, at most 400 characters a cell) parses as
``float(text + "e-3")``, and any other column through a 400-digit
``Decimal`` scale, which gives the same double for such cells.  The writer
renders floats at full precision so ``load_scenarios(write_scenarios(s))``
reproduces every value bit-exactly (scaled price columns fall back to an
exact decimal expansion when the short form would not invert exactly).

The synthetic generator exists for tests and desk-scale studies: each
signal is a deterministic seeded sinusoid-plus-noise, and the hidden loads
are tied to temperature by a documented affine rule so a policy has
structure to learn.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from decimal import Decimal, localcontext
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .environment import HOURLY_FIELDS, HOURS_PER_DAY, Ensemble, domain_violation

SCHEMA = (
    "datetime",
    "temperature_c",
    "wind_mps",
    "solar_wm2",
    "streamflow_cms",
    "price_prior_rt_usd_mwh",
    "price_rt_usd_mwh",
    "gas_usd_dth",
    "load_kw",
    "heat_load_klbh",
    "solar_kw",
    "hydro_kw",
)

#: Columns of :attr:`Ensemble.signals`, in its last-axis order.
SIGNAL_COLUMNS = SCHEMA[1:6]

#: Column of each hidden hourly array, by :class:`Ensemble` field.
HIDDEN_COLUMNS = {
    "electric_load": "load_kw",
    "heat_load": "heat_load_klbh",
    "solar": "solar_kw",
    "hydro": "hydro_kw",
    "rt_price": "price_rt_usd_mwh",
    "gas_price": "gas_usd_dth",
}

PRICE_COLUMNS = frozenset({"price_prior_rt_usd_mwh", "price_rt_usd_mwh"})

class ScenarioLoadError(ValueError):
    """Raised when a scenario file violates the documented schema."""


#: Digits of the decimal scale of a price; no price cell of at most this
#: many characters is rounded before its one conversion to float.
_PRICE_DIGITS = 400

#: A column of plain decimal cells joined by commas: digits, sign and point
#: only, so no exponent, whitespace, ``_``, ``inf`` or ``nan``.
_PLAIN_DECIMALS = re.compile(r"[0-9.+\-,]*")


def _parse_prices(cells: Sequence[str]) -> list[float]:
    """$/MWh column text to $/kWh: each cell's decimal value times 1e-3,
    rounded once, so the writer can always produce an exactly inverting
    representation.  A column of plain decimals of at most
    :data:`_PRICE_DIGITS` characters parses as ``float(text + "e-3")``, which
    rounds that exact product once; any other column takes the decimal
    scale, which agrees with it on those cells."""
    if (
        _PLAIN_DECIMALS.fullmatch(",".join(cells))
        and max(map(len, cells), default=0) <= _PRICE_DIGITS
    ):
        try:
            return [float(text + "e-3") for text in cells]
        except ValueError:
            pass  # e.g. "" or "1.2.3"; the decimal scale rejects it too
    with localcontext() as ctx:
        ctx.prec = _PRICE_DIGITS
        return [float(Decimal(text).scaleb(-3)) for text in cells]


def _format_price_mwh(price_kwh: float) -> str:
    price_kwh = float(price_kwh)
    short = repr(price_kwh * 1000.0)
    if _parse_prices([short])[0] == price_kwh:
        return short
    with localcontext() as ctx:
        ctx.prec = _PRICE_DIGITS
        return format(Decimal(price_kwh).scaleb(3), "f")


def _parse_floats(cells: Sequence[str]) -> list[float]:
    return list(map(float, cells))


def _parse_column(column: str, cells: Sequence[str]) -> np.ndarray:
    """One numeric column, parsed whole with Python ``float`` (prices: see
    :func:`_parse_prices`).  Only when that fails or gives a non-finite
    value does a second scan look for the first bad cell, to name its row."""
    parse = _parse_prices if column in PRICE_COLUMNS else _parse_floats
    try:
        values = np.array(parse(cells), dtype=float)
        if np.isfinite(values).all():
            return values
    except (ValueError, ArithmeticError):
        pass
    for line, text in enumerate(cells, start=2):
        try:
            value = parse([text])[0]
        except (ValueError, ArithmeticError) as exc:
            raise ScenarioLoadError(
                f"row {line}: column {column!r} is not numeric: {text!r}"
            ) from exc
        if not math.isfinite(value):
            break
    raise ScenarioLoadError(f"row {line}: column {column!r} is not finite: {text!r}")


def _day_labels(stamps: Sequence[str]) -> list[str]:
    """Dates of the 24-row days, checking that each timestamp is on the
    hour, each day's rows are contiguous and in hour order, and no day
    repeats."""
    labels: list[str] = []
    first_row: dict[str, int] = {}
    count = 0

    def close_day(line: int) -> None:
        if labels and count != HOURS_PER_DAY:
            raise ScenarioLoadError(
                f"rows {first_row[labels[-1]]}-{line}: day {labels[-1]} has {count} rows, "
                "expected 24 (partial day)"
            )

    for line, text in enumerate(stamps, start=2):
        try:
            stamp = datetime.fromisoformat(text)
        except ValueError as exc:
            raise ScenarioLoadError(f"row {line}: bad datetime {text!r}") from exc
        if stamp.minute or stamp.second or stamp.microsecond:
            raise ScenarioLoadError(f"row {line}: datetime {text!r} is not on the hour")
        day = stamp.date().isoformat()
        if not labels or day != labels[-1]:
            close_day(line - 1)
            if day in first_row:
                raise ScenarioLoadError(
                    f"row {line}: day {day} repeats; its rows began at row {first_row[day]}"
                )
            labels.append(day)
            first_row[day] = line
            count = 0
        if count == HOURS_PER_DAY:
            raise ScenarioLoadError(f"row {line}: day {day} has more than 24 rows")
        if stamp.hour != count:
            raise ScenarioLoadError(
                f"row {line}: expected hour {count} of day {day}, got {stamp.hour}"
            )
        count += 1
    close_day(len(stamps) + 1)
    return labels


#: What follows the date in each hour's stamp as :func:`write_scenarios`
#: writes it.
_STAMP_HOURS = tuple(f"T{t:02d}:00" for t in range(HOURS_PER_DAY))


def _canonical_day_labels(stamps: Sequence[str]) -> list[str] | None:
    """Dates of the days when every stamp has the writer's form
    ``{date}T{hh}:00``, the days are distinct and each holds hours 0-23 in
    order; None when any of that fails, and :func:`_day_labels` decides."""
    labels = [stamp[:10] for stamp in stamps[::HOURS_PER_DAY]]
    if len(stamps) != HOURS_PER_DAY * len(labels) or len(set(labels)) != len(labels):
        return None
    for label in labels:
        try:
            if date.fromisoformat(label).isoformat() != label:
                return None
        except ValueError:
            return None
    if list(stamps) != [label + hour for label in labels for hour in _STAMP_HOURS]:
        return None
    return labels


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """The header and the non-empty rows of a UTF-8 CSV file (a leading
    byte-order mark is dropped), split into cells.  Lines are split on
    commas as they are read, so the file's text is never held whole; at
    the first quote, carriage return or NUL the file is read again
    through :mod:`csv`."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        rows = []
        for line in fh:
            if '"' in line or "\r" in line or "\0" in line:
                break
            rows.append(line.rstrip("\n").split(","))
        else:
            header = rows[0] if rows else []
            return header, [row for row in rows[1:] if row != [""]]
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        return next(reader, []), [row for row in reader if row]


def load_scenarios(path: str | Path) -> Ensemble:
    """Read and validate a scenario CSV; any schema violation raises
    :class:`ScenarioLoadError` naming the offending column and row."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"scenario file not found: {path}")
    header, rows = _read_rows(path)
    missing = [c for c in SCHEMA if c not in header]
    if missing:
        raise ScenarioLoadError(f"{path}: missing column(s): {', '.join(missing)}")
    if not rows:
        raise ScenarioLoadError(f"{path}: no data rows")
    position: dict[str, int] = {}
    for i, name in enumerate(header):
        if name in SCHEMA and position.setdefault(name, i) != i:
            raise ScenarioLoadError(
                f"{path}: column {name!r} appears twice, at positions "
                f"{position[name] + 1} and {i + 1}"
            )
    width = max(position.values()) + 1
    for line, row in enumerate(rows, start=2):
        if len(row) < width:
            absent = next(name for name in header[len(row) :] if name in position)
            raise ScenarioLoadError(f"row {line}: column {absent!r} is missing")
    columns = list(zip(*rows))
    del rows

    stamps = columns[position["datetime"]]
    labels = _canonical_day_labels(stamps)
    if labels is None:
        labels = _day_labels(stamps)
    shape = (len(labels), HOURS_PER_DAY)

    def column(name: str) -> np.ndarray:
        return _parse_column(name, columns[position[name]]).reshape(shape)

    signals = np.stack([column(name) for name in SIGNAL_COLUMNS], axis=-1)
    hidden = {field: column(name) for field, name in HIDDEN_COLUMNS.items()}
    bad = domain_violation(hidden)
    if bad is not None:
        field, s, t, reason = bad
        raise ScenarioLoadError(
            f"row {2 + HOURS_PER_DAY * s + t}: column {HIDDEN_COLUMNS[field]!r}: {reason}"
        )
    return Ensemble(labels=labels, signals=signals, **hidden)


def write_scenarios(ensemble: Ensemble, path: str | Path) -> None:
    columns = {name: ensemble.signals[:, :, j] for j, name in enumerate(SIGNAL_COLUMNS)}
    columns.update((name, getattr(ensemble, field)) for field, name in HIDDEN_COLUMNS.items())
    text = [[f"{label}T{t:02d}:00" for label in ensemble.labels for t in range(HOURS_PER_DAY)]]
    for name in SCHEMA[1:]:
        render = _format_price_mwh if name in PRICE_COLUMNS else repr
        text.append([render(v) for v in columns[name].ravel().tolist()])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCHEMA)
        writer.writerows(zip(*text))


@dataclass(frozen=True)
class SignalSpec:
    """Daily sinusoid: mean + amplitude * sin(2 pi (t - phase) / 24) plus
    Gaussian noise of the given scale (peak lands at phase + 6 h)."""

    mean: float
    amplitude: float
    phase: float
    noise: float

    def __post_init__(self) -> None:
        if self.noise < 0.0:
            raise ValueError(f"noise scale must be >= 0, got {self.noise}")

    def value(self, hour: int, shock: float) -> float:
        angle = 2.0 * math.pi * (hour - self.phase) / 24.0
        return float(self.mean + self.amplitude * math.sin(angle) + self.noise * shock)


#: Base-signal generation order; fixed so a seed pins every draw.
SIGNAL_ORDER = (
    "temperature",
    "wind_speed",
    "solar_radiation",
    "streamflow",
    "rt_price",
    "gas_price",
    "electric_load",
    "heat_load",
    "hydro_output",
)

WINTER_SIGNALS: dict[str, SignalSpec] = {
    "temperature": SignalSpec(0.0, 5.0, 9.0, 1.5),
    "wind_speed": SignalSpec(6.0, 2.0, 0.0, 0.8),
    "solar_radiation": SignalSpec(120.0, 220.0, 6.5, 25.0),
    "streamflow": SignalSpec(14.0, 3.0, 18.0, 1.0),
    "rt_price": SignalSpec(0.045, 0.018, 12.0, 0.004),
    "gas_price": SignalSpec(3.5, 0.0, 0.0, 0.05),
    "electric_load": SignalSpec(22000.0, 3500.0, 12.0, 600.0),
    "heat_load": SignalSpec(170.0, 35.0, 1.0, 8.0),
    "hydro_output": SignalSpec(1100.0, 150.0, 18.0, 60.0),
}

SUMMER_SIGNALS: dict[str, SignalSpec] = {
    "temperature": SignalSpec(22.0, 6.0, 9.0, 1.8),
    "wind_speed": SignalSpec(4.5, 1.5, 0.0, 0.7),
    "solar_radiation": SignalSpec(260.0, 340.0, 6.5, 35.0),
    "streamflow": SignalSpec(8.0, 2.0, 18.0, 0.8),
    "rt_price": SignalSpec(0.038, 0.022, 9.0, 0.006),
    "gas_price": SignalSpec(2.8, 0.0, 0.0, 0.05),
    "electric_load": SignalSpec(20000.0, 4500.0, 9.0, 700.0),
    "heat_load": SignalSpec(60.0, 12.0, 1.0, 4.0),
    "hydro_output": SignalSpec(800.0, 120.0, 18.0, 50.0),
}

# Affine couplings from temperature deviation into the hidden loads, and
# from the other observables into the renewable outputs.
LOAD_TEMP_SLOPE = {"winter": -180.0, "summer": 250.0}  # kW per degC
HEAT_TEMP_SLOPE = {"winter": -4.0, "summer": -1.5}  # klb/h per degC
HYDRO_FLOW_SLOPE = 25.0  # kW per m^3/s
SOLAR_KW_PER_WM2 = 0.2
SOLAR_CAP_KW = 200.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic recipe for an ensemble of synthetic days."""

    seed: int
    days: int
    season: str = "winter"
    overrides: Mapping[str, SignalSpec] | None = None

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError(f"days must be >= 1, got {self.days}")
        if self.season not in ("winter", "summer"):
            raise ValueError(f"season must be 'winter' or 'summer', got {self.season!r}")
        if self.overrides:
            unknown = set(self.overrides) - set(SIGNAL_ORDER)
            if unknown:
                raise ValueError(f"unknown signals in overrides: {sorted(unknown)}")

    def signals(self) -> dict[str, SignalSpec]:
        base = dict(WINTER_SIGNALS if self.season == "winter" else SUMMER_SIGNALS)
        if self.overrides:
            base.update(self.overrides)
        return base


def generate_synthetic(spec: SyntheticSpec) -> Ensemble:
    """Generate ``spec.days`` scenario-days; identical specs give identical data.

    The previous-day price forecast is an independent draw of the same
    price process, so it predicts the real-time price through the shared
    daily shape without revealing it.
    """
    signals = spec.signals()
    season = spec.season
    rng = np.random.default_rng(spec.seed)
    start = date(2019, 1, 1) if season == "winter" else date(2019, 7, 1)
    observed: list[tuple[float, ...]] = []
    hidden: dict[str, list[float]] = {field: [] for field in HOURLY_FIELDS}
    for _ in range(spec.days):
        shocks = {name: rng.standard_normal(24) for name in SIGNAL_ORDER}
        prior_shocks = rng.standard_normal(24)
        for t in range(24):
            base = {name: signals[name].value(t, shocks[name][t]) for name in SIGNAL_ORDER}
            temp_dev = base["temperature"] - signals["temperature"].mean
            solar_rad = max(base["solar_radiation"], 0.0)
            streamflow = max(base["streamflow"], 0.01)
            observed.append(
                (
                    base["temperature"],
                    max(base["wind_speed"], 0.0),
                    solar_rad,
                    streamflow,
                    signals["rt_price"].value(t, prior_shocks[t]),
                )
            )
            hidden["electric_load"].append(
                max(base["electric_load"] + LOAD_TEMP_SLOPE[season] * temp_dev, 1000.0)
            )
            hidden["heat_load"].append(
                max(base["heat_load"] + HEAT_TEMP_SLOPE[season] * temp_dev, 0.0)
            )
            hidden["solar"].append(min(SOLAR_KW_PER_WM2 * solar_rad, SOLAR_CAP_KW))
            hidden["hydro"].append(
                max(
                    base["hydro_output"]
                    + HYDRO_FLOW_SLOPE * (streamflow - signals["streamflow"].mean),
                    0.0,
                )
            )
            hidden["rt_price"].append(base["rt_price"])
            hidden["gas_price"].append(max(base["gas_price"], 0.5))
    shape = (spec.days, HOURS_PER_DAY)
    return Ensemble(
        labels=[(start + timedelta(days=d)).isoformat() for d in range(spec.days)],
        signals=np.reshape(observed, shape + (-1,)),
        **{field: np.reshape(values, shape) for field, values in hidden.items()},
    )
