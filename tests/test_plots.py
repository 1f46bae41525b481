"""SVG emitter tests: the TVSA bars against a reference rendering."""

from __future__ import annotations

import numpy as np
import pytest

from chpdispatch.environment import decision_dim
from chpdispatch.plots import _PAIR_COLORS, _SIGNAL_COLORS, tvsa_stacked_bars_svg
from chpdispatch.policy import InputNormalization, PolicyNetwork, weight_count
from chpdispatch.tvsa import PAIRS, TvsaReport, build_report

from conftest import make_policy


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _reference_bars_svg(report: TvsaReport, decision: int) -> str:
    """The stacked bars drawn cell by cell: each hour's shares read from
    the report, filtered by panel and sign, and stacked one rectangle at a
    time."""
    names = report.input_names
    panel_w, panel_h = 540.0, 110.0
    left, top, vgap = 60.0, 34.0, 44.0
    width = left + panel_w + 190.0 + 20.0
    height = top + 3 * (panel_h + vgap) + 10.0
    bar_w = panel_w / 24.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>',
        f'<text x="{_fmt(left)}" y="18" font-size="13" font-weight="bold">'
        f"{report.decision_labels[decision]}</text>",
    ]
    titles = ("first-order", "interaction (+)", "interaction (-)")
    for panel_index, title in enumerate(titles):
        y0 = top + panel_index * (panel_h + vgap)
        y_base = y0 + panel_h
        parts.append(
            f'<rect x="{_fmt(left)}" y="{_fmt(y0)}" width="{_fmt(panel_w)}" '
            f'height="{_fmt(panel_h)}" fill="none" stroke="#333333"/>'
        )
        parts.append(f'<text x="{_fmt(left)}" y="{_fmt(y0 - 5)}" font-size="11">{title}</text>')
        parts.append(
            f'<text x="{_fmt(left - 6)}" y="{_fmt(y0 + 10)}" text-anchor="end" '
            f'font-size="9">1</text>'
        )
        parts.append(
            f'<text x="{_fmt(left - 6)}" y="{_fmt(y_base)}" text-anchor="end" '
            f'font-size="9">0</text>'
        )
        for t in range(24):
            if report.empty[t, decision]:
                continue
            if panel_index == 0:
                values = [
                    (color, float(report.normalized_first[t, decision, a]))
                    for a, color in enumerate(_SIGNAL_COLORS)
                ]
            else:
                values = []
                for color, a, b in zip(_PAIR_COLORS, *PAIRS):
                    share = float(report.normalized_second[t, decision, a, b])
                    if (share > 0.0) == (panel_index == 1) and share != 0.0:
                        values.append((color, abs(share)))
            x, y = left + t * bar_w, y_base
            for color, share in values:
                h = share * panel_h
                if h <= 0.0:
                    continue
                parts.append(
                    f'<rect x="{_fmt(x + 1)}" y="{_fmt(y - h)}" width="{_fmt(bar_w - 2)}" '
                    f'height="{_fmt(h)}" fill="{color}"/>'
                )
                y -= h
        for t in (0, 6, 12, 18, 23):
            parts.append(
                f'<text x="{_fmt(left + (t + 0.5) * bar_w)}" y="{_fmt(y_base + 12)}" '
                f'text-anchor="middle" font-size="8">{t}</text>'
            )
    lx, ly = left + panel_w + 16.0, top
    labels = list(zip(_SIGNAL_COLORS, names))
    labels += [(None, None)]  # a 6-unit gap between the two legends
    labels += [(color, f"{names[a]}*{names[b]}") for color, a, b in zip(_PAIR_COLORS, *PAIRS)]
    for color, label in labels:
        if color is None:
            ly += 6.0
            continue
        parts.append(
            f'<rect x="{_fmt(lx)}" y="{_fmt(ly)}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(f'<text x="{_fmt(lx + 14)}" y="{_fmt(ly + 9)}" font-size="9">{label}</text>')
        ly += 15.0
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _report(kind: str, config, scenarios) -> TvsaReport:
    """A report whose cells are all forced off or zero ("forced_off"), all
    zero and none forced off ("zero_total"), or a random policy's, some of
    them forced off ("live")."""
    k = decision_dim(config)
    if kind == "live":
        policy = make_policy(np.random.default_rng(17), config, scenarios, scale=2.0)
    else:
        weights = np.zeros(weight_count(6, 15, k))
        if kind == "forced_off":
            weights[-2:] = -10.0  # commitment output biases: both units off
        norm = InputNormalization.from_scenarios(scenarios)
        policy = PolicyNetwork(6, 15, k, weights, norm)
    return build_report(policy, scenarios, config=config)


@pytest.mark.parametrize("kind", ["forced_off", "zero_total", "live"])
def test_bars_match_reference_rendering(summer_config, summer_scenarios, kind):
    report = _report(kind, summer_config, summer_scenarios)
    if kind == "forced_off":
        assert report.forced_off.any() and (report.total_abs == 0.0).all()
    elif kind == "zero_total":
        assert not report.forced_off.any() and (report.total_abs == 0.0).all()
    else:
        assert report.forced_off.any() and not report.empty.all()
        second = report.normalized_second[..., PAIRS[0], PAIRS[1]]
        assert (second > 0.0).any() and (second < 0.0).any()
    bars = 0
    for d in range(len(report.decision_labels)):
        svg = tvsa_stacked_bars_svg(report, d)
        assert svg == _reference_bars_svg(report, d), report.decision_labels[d]
        bars += svg.count('width="20.50"')  # bar_w - 2
    assert (bars > 0) == (kind == "live")
