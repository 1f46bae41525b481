"""Scenario ingestion, round-trip, season split, and synthetic generation."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
from datetime import date, timedelta
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chpdispatch.data import (
    HIDDEN_COLUMNS,
    PRICE_COLUMNS,
    SCHEMA,
    SIGNAL_COLUMNS,
    ScenarioLoadError,
    SignalSpec,
    SyntheticSpec,
    _day_labels,
    _format_price_mwh,
    _parse_prices,
    generate_synthetic,
    load_scenarios,
    write_scenarios,
)
from chpdispatch.environment import HOURLY_FIELDS, HOURS_PER_DAY, Ensemble

from conftest import constant_scenario

#: sha256 of the 7-day winter desk-study file, seed 7 (criterion 8's input).
DESK_STUDY_CSV_SHA256 = "a13f6743308e262d12b90d96af584d7c6f55d72363614541423bd40c7ba960d2"


def scenarios_equal(a: Ensemble, b: Ensemble) -> bool:
    """Same labels, and every array with the same shape and bits."""
    if a.labels != b.labels:
        return False
    for name in ("signals", *HOURLY_FIELDS):
        x, y = getattr(a, name), getattr(b, name)
        if x.shape != y.shape or x.tobytes() != y.tobytes():
            return False
    return True


class TestSyntheticGenerator:
    def test_deterministic(self):
        spec = SyntheticSpec(seed=5, days=3)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert len(a) == len(b) == 3
        assert scenarios_equal(a, b)

    def test_desk_study_file_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "winter7.csv"
        write_scenarios(generate_synthetic(SyntheticSpec(seed=7, days=7)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DESK_STUDY_CSV_SHA256

    def test_zero_noise_gives_pure_sinusoids(self):
        overrides = {
            name: SignalSpec(s.mean, s.amplitude, s.phase, 0.0)
            for name, s in __import__("chpdispatch.data", fromlist=["WINTER_SIGNALS"]).WINTER_SIGNALS.items()
        }
        spec = SyntheticSpec(seed=1, days=2, overrides=overrides)
        days = generate_synthetic(spec)
        temp_spec = overrides["temperature"]
        for s in range(2):
            for t in range(24):
                assert days.signals[s, t, 0] == pytest.approx(temp_spec.value(t, 0.0), abs=1e-12)
        # no noise: both days identical apart from the label
        assert scenarios_equal(dataclasses.replace(days[1], labels=days.labels[:1]), days[0])

    def test_flat_spec_gives_constant_signals(self):
        overrides = {name: SignalSpec(5.0, 0.0, 0.0, 0.0) for name in (
            "temperature", "wind_speed", "solar_radiation", "streamflow",
            "rt_price", "gas_price", "electric_load", "heat_load", "hydro_output",
        )}
        # electric load floor keeps the ensemble's load domain valid
        overrides["electric_load"] = SignalSpec(20000.0, 0.0, 0.0, 0.0)
        days = generate_synthetic(SyntheticSpec(seed=9, days=1, overrides=overrides))
        assert set(days.signals[0, :, 0].tolist()) == {5.0}

    def test_loads_follow_temperature(self):
        scenarios = generate_synthetic(SyntheticSpec(seed=11, days=30))
        temp = scenarios.signals[:, :, 0].ravel()
        heat = scenarios.heat_load.ravel()
        assert np.corrcoef(temp, heat)[0, 1] < -0.5  # winter heating correlation

    def test_season_labels(self):
        winter = generate_synthetic(SyntheticSpec(seed=1, days=2))
        summer = generate_synthetic(SyntheticSpec(seed=1, days=2, season="summer"))
        assert winter.labels[0].startswith("2019-01")
        assert summer.labels[0].startswith("2019-07")

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, days=0)
        with pytest.raises(ValueError):
            SyntheticSpec(seed=1, days=1, season="spring")
        with pytest.raises(ValueError):
            SignalSpec(0.0, 1.0, 0.0, -1.0)


class TestCsvRoundTrip:
    def test_lossless(self, tmp_path):
        scenarios = generate_synthetic(SyntheticSpec(seed=13, days=3))
        path = tmp_path / "days.csv"
        write_scenarios(scenarios, path)
        loaded = load_scenarios(path)
        assert len(loaded) == 3
        assert scenarios_equal(scenarios, loaded)

    def test_price_scaling_is_exactly_invertible(self):
        rng = np.random.default_rng(3)
        values = list(rng.uniform(-0.2, 0.2, 20000)) + [0.0, 0.057, 0.1 + 2**-54]
        for p in values:
            assert _parse_prices([_format_price_mwh(float(p))])[0] == float(p)

    def test_human_entered_prices_load_naturally(self, tmp_path):
        assert _parse_prices(["57.3"])[0] == pytest.approx(0.0573, abs=1e-15)
        assert _parse_prices(["-12.5"])[0] == -0.0125


def load_cell_by_cell(path) -> Ensemble:
    """The loader one cell at a time: ``csv.reader``, the row-by-row stamp
    check, and every price through a 400-digit ``Decimal`` scale."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    position = {name: i for i, name in enumerate(header)}
    labels = _day_labels([row[position["datetime"]] for row in rows])

    def column(name):
        cells = [row[position[name]] for row in rows]
        if name in PRICE_COLUMNS:
            with localcontext() as ctx:
                ctx.prec = 400
                values = [float(Decimal(text).scaleb(-3)) for text in cells]
        else:
            values = [float(text) for text in cells]
        return np.array(values).reshape(len(labels), HOURS_PER_DAY)

    return Ensemble(
        labels=labels,
        signals=np.stack([column(name) for name in SIGNAL_COLUMNS], axis=-1),
        **{field: column(name) for field, name in HIDDEN_COLUMNS.items()},
    )


_positive = st.floats(min_value=1e-3, max_value=1e6)
_count = st.integers(1, 10**6)
#: Hand-typed positive cells, in forms other than the writer's.
_typed = st.one_of(
    _positive.map(repr),
    _positive.map(lambda x: f"+{x!r}"),
    _positive.map(lambda x: f" {x!r}"),
    _count.map(lambda n: f".{n}"),
    _count.map(lambda n: f"{n}."),
    st.tuples(_count, _count, st.integers(-5, 5)).map(lambda m: f"{m[0]}.{m[1]}e{m[2]}"),
    st.tuples(_count, st.integers(0, 999)).map(lambda m: f"{m[0]}_{m[1]:03d}"),
)
_prices = st.one_of(
    _typed,
    st.floats(min_value=-1.0, max_value=1.0).map(_format_price_mwh),
    st.tuples(st.sampled_from(["", "-"]), st.text("0123456789", min_size=401, max_size=440)).map(
        lambda m: f"{m[0]}1.{m[1]}"
    ),
)
_STAMPS = ("{}T{:02d}:00", "{} {:02d}:00:00", "{}T{:02d}:00:00")


@st.composite
def scenario_files(draw) -> str:
    """A scenario CSV's text: canonical or other stamps, typed cells and
    long prices, some cells quoted, some blank lines, ``\\n`` or ``\\r\\n``
    line ends."""
    start = date(2019, 1, 1) + timedelta(days=draw(st.integers(0, 700)))
    stamp = draw(st.sampled_from(_STAMPS))
    quote = draw(st.booleans())
    cells = {
        name: draw(st.lists(_prices if name in PRICE_COLUMNS else _typed, min_size=1, max_size=4))
        for name in SCHEMA[1:]
    }
    lines = [",".join(SCHEMA)]
    for row in range(HOURS_PER_DAY * draw(st.integers(1, 3))):
        label = (start + timedelta(days=row // HOURS_PER_DAY)).isoformat()
        texts = [column[row % len(column)] for column in cells.values()]
        if quote:
            texts = [f'"{text}"' if row % 3 == 0 else text for text in texts]
        lines.append(",".join([stamp.format(label, row % HOURS_PER_DAY), *texts]))
    if draw(st.booleans()):
        for i in range(len(lines) - 1, 0, -7):
            lines.insert(i, "")  # a blank line among the rows
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


class TestWholeColumnParse:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(text=scenario_files())
    def test_matches_cell_by_cell_load(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "days.csv"
        path.write_bytes(text.encode())
        assert scenarios_equal(load_scenarios(path), load_cell_by_cell(path))

    @pytest.mark.parametrize("seed,season", [(13, "winter"), (14, "summer")])
    def test_writer_files_match_cell_by_cell_load(self, tmp_path, seed, season):
        path = tmp_path / "days.csv"
        write_scenarios(generate_synthetic(SyntheticSpec(seed, 4, season)), path)
        assert scenarios_equal(load_scenarios(path), load_cell_by_cell(path))

    def test_price_cell_beyond_the_decimal_scale_keeps_its_rounding(self, tmp_path):
        # Just above the midpoint of two doubles, in a digit past the 400th:
        # the 400-digit scale rounds to the midpoint, which ties to the even
        # neighbour, while one rounding of the exact text would go up.
        low = 0.05 if np.array(0.05).view(np.int64) % 2 == 0 else np.nextafter(0.05, 0.0)
        low, high = float(low), float(np.nextafter(low, 1.0))
        with localcontext() as ctx:
            ctx.prec = 1000
            midpoint_mwh = ((Decimal(low) + Decimal(high)) / 2).scaleb(3)
        text = format(midpoint_mwh, "f") + "0" * 400 + "1"
        assert float(text + "e-3") == high
        path = _write_rows(
            tmp_path, mutate=lambda lines: [lines[0], _set_cell(lines[1], 6, text), *lines[2:]]
        )
        loaded = load_scenarios(path)
        assert loaded.rt_price[0, 0] == low
        assert scenarios_equal(loaded, load_cell_by_cell(path))

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_utf8_byte_order_mark_is_dropped(self, tmp_path, newline):
        plain = _write_rows(tmp_path)
        text = plain.read_text().replace("\n", newline)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert scenarios_equal(load_scenarios(marked), load_scenarios(plain))


def _set_cell(line: str, index: int, text: str) -> str:
    parts = line.split(",")
    parts[index] = text
    return ",".join(parts)


def _write_rows(tmp_path, mutate=None, drop_column=None):
    scenarios = generate_synthetic(SyntheticSpec(seed=21, days=2))
    path = tmp_path / "fixture.csv"
    write_scenarios(scenarios, path)
    lines = path.read_text().splitlines()
    if drop_column is not None:
        header = lines[0].split(",")
        idx = header.index(drop_column)
        lines = [",".join(v for i, v in enumerate(l.split(",")) if i != idx) for l in lines]
    if mutate is not None:
        lines = mutate(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoaderErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenarios(tmp_path / "nope.csv")

    def test_missing_column_is_named(self, tmp_path):
        path = _write_rows(tmp_path, drop_column="heat_load_klbh")
        with pytest.raises(ScenarioLoadError, match="heat_load_klbh"):
            load_scenarios(path)

    def test_partial_day_reports_rows(self, tmp_path):
        path = _write_rows(tmp_path, mutate=lambda lines: lines[:-1])
        with pytest.raises(ScenarioLoadError, match="partial day"):
            load_scenarios(path)

    def test_extra_25th_row_rejected(self, tmp_path):
        def dup(lines):
            return lines + [lines[-1]]

        path = _write_rows(tmp_path, mutate=dup)
        with pytest.raises(ScenarioLoadError, match="row 50"):
            load_scenarios(path)

    def test_bad_datetime_reports_row(self, tmp_path):
        def mangle(lines):
            lines[3] = "notadate" + lines[3][lines[3].index(","):]
            return lines

        path = _write_rows(tmp_path, mutate=mangle)
        with pytest.raises(ScenarioLoadError, match="row 4"):
            load_scenarios(path)

    def test_non_numeric_value_names_column(self, tmp_path):
        def mangle(lines):
            parts = lines[5].split(",")
            parts[1] = "cold"
            lines[5] = ",".join(parts)
            return lines

        path = _write_rows(tmp_path, mutate=mangle)
        with pytest.raises(ScenarioLoadError, match="temperature_c"):
            load_scenarios(path)

    def test_non_finite_value_rejected(self, tmp_path):
        def mangle(lines):
            parts = lines[7].split(",")
            parts[8] = "inf"
            lines[7] = ",".join(parts)
            return lines

        path = _write_rows(tmp_path, mutate=mangle)
        with pytest.raises(ScenarioLoadError, match="row 8"):
            load_scenarios(path)

    @pytest.mark.parametrize("text,reason", [("abc", "not numeric"), ("inf", "not finite")])
    def test_bad_price_names_column_and_row(self, tmp_path, text, reason):
        def mangle(lines):
            parts = lines[9].split(",")
            parts[6] = text
            lines[9] = ",".join(parts)
            return lines

        path = _write_rows(tmp_path, mutate=mangle)
        match = f"row 10: column 'price_rt_usd_mwh' is {reason}"
        with pytest.raises(ScenarioLoadError, match=match):
            load_scenarios(path)

    def test_short_row_names_missing_column(self, tmp_path):
        def truncate(lines):
            lines[4] = lines[4].rsplit(",", 1)[0]
            return lines

        path = _write_rows(tmp_path, mutate=truncate)
        with pytest.raises(ScenarioLoadError, match="row 5: column 'hydro_kw' is missing"):
            load_scenarios(path)

    def test_out_of_order_hours_rejected(self, tmp_path):
        def swap(lines):
            lines[1], lines[2] = lines[2], lines[1]
            return lines

        path = _write_rows(tmp_path, mutate=swap)
        with pytest.raises(ScenarioLoadError, match="expected hour"):
            load_scenarios(path)

    def test_invalid_domain_value_reports_row(self, tmp_path):
        def mangle(lines):
            parts = lines[2].split(",")
            parts[8] = "-5.0"  # electric load must be positive
            lines[2] = ",".join(parts)
            return lines

        path = _write_rows(tmp_path, mutate=mangle)
        with pytest.raises(ScenarioLoadError, match="row 3"):
            load_scenarios(path)

    def test_repeated_day_reports_row(self, tmp_path):
        # 2019-01-01, 2019-01-02, then 2019-01-01 again
        path = _write_rows(tmp_path, mutate=lambda lines: lines + lines[1:25])
        with pytest.raises(ScenarioLoadError, match="row 50: day 2019-01-01 repeats"):
            load_scenarios(path)

    def test_repeated_schema_column_names_both_positions(self, tmp_path):
        def second_load(lines):
            return [lines[0] + ",load_kw"] + [line + ",1234.5" for line in lines[1:]]

        path = _write_rows(tmp_path, mutate=second_load)
        with pytest.raises(ScenarioLoadError, match="'load_kw' appears twice, at positions 9 and 13"):
            load_scenarios(path)

    def test_impossible_date_in_writer_form_reports_row(self, tmp_path):
        def february_30(lines):
            return [line.replace("2019-01-02T", "2019-02-30T") for line in lines]

        path = _write_rows(tmp_path, mutate=february_30)
        with pytest.raises(ScenarioLoadError, match="row 26: bad datetime '2019-02-30T00:00'"):
            load_scenarios(path)

    def test_timestamp_off_the_hour_reports_row(self, tmp_path):
        def half_past(lines):
            lines[1] = lines[1].replace("T00:00", "T00:30", 1)
            return lines

        path = _write_rows(tmp_path, mutate=half_past)
        with pytest.raises(ScenarioLoadError, match="row 2: .* not on the hour"):
            load_scenarios(path)


class TestScenarioInvariants:
    def test_needs_24_hours(self):
        full = constant_scenario()
        with pytest.raises(ValueError):
            dataclasses.replace(full, heat_load=full.heat_load[:, :23])

    @pytest.mark.parametrize(
        "field,value", [("electric_load", 0.0), ("heat_load", -1.0), ("hydro", -1.0),
                        ("solar", np.nan), ("rt_price", np.inf)],
    )
    def test_rejects_values_outside_the_domain(self, field, value):
        full = constant_scenario()
        values = getattr(full, field).copy()
        values[0, 5] = value
        reason = "must be" if np.isfinite(value) else "non-finite"
        with pytest.raises(ValueError, match=f"{field} of day 2019-01-10.*{reason}"):
            dataclasses.replace(full, **{field: values})
