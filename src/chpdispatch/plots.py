"""Deterministic SVG emitters for study outputs.

Plots are assembled as plain SVG text with fixed formatting so identical
inputs always produce byte-identical files (no plotting library state or
embedded timestamps).  Two figures are provided: pairwise scatter panels
of an archive's objective space, and per-decision stacked bars of the
sensitivity shares with positive and negative interactions split out,
whose segment heights come from the report's arrays, one panel at a time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tvsa import PAIRS, TvsaReport

_SIGNAL_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd")
_PAIR_COLORS = (
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
    "#aec7e8",
    "#ffbb78",
    "#98df8a",
    "#ff9896",
    "#c5b0d5",
)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _axis_label(x: float) -> str:
    return f"{x:.4g}"


def pareto_scatter_svg(
    objectives: np.ndarray,
    names: Sequence[str] = ("cost", "emission", "heat_waste"),
    reference: Sequence[float] | None = None,
) -> str:
    """Three 2D projections of the objective triple.

    Each panel marks the ideal point (componentwise minimum) with a star;
    an optional reference point (e.g. a baseline policy) is drawn as a
    cross when it falls inside the panel.
    """
    objectives = np.atleast_2d(np.asarray(objectives, dtype=float))
    if objectives.shape[0] == 0:
        raise ValueError("cannot plot an empty archive")
    panel, margin, gap = 240.0, 46.0, 34.0
    width = 3 * panel + 2 * gap + 2 * margin
    height = panel + 2 * margin
    pairs = ((0, 1), (0, 2), (1, 2))
    ideal = objectives.min(axis=0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>',
    ]
    for p, (ix, iy) in enumerate(pairs):
        x0 = margin + p * (panel + gap)
        y0 = margin
        xs, ys = objectives[:, ix], objectives[:, iy]
        all_x = [*xs, ideal[ix]] + ([reference[ix]] if reference is not None else [])
        all_y = [*ys, ideal[iy]] + ([reference[iy]] if reference is not None else [])
        lo_x, hi_x = min(all_x), max(all_x)
        lo_y, hi_y = min(all_y), max(all_y)
        span_x = (hi_x - lo_x) or 1.0
        span_y = (hi_y - lo_y) or 1.0
        pad_x, pad_y = 0.06 * span_x, 0.06 * span_y

        def to_px(x: float, y: float) -> tuple[float, float]:
            fx = (x - lo_x + pad_x) / (span_x + 2 * pad_x)
            fy = (y - lo_y + pad_y) / (span_y + 2 * pad_y)
            return x0 + fx * panel, y0 + (1.0 - fy) * panel

        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(panel)}" '
            f'height="{_fmt(panel)}" fill="none" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 + panel / 2)}" y="{_fmt(y0 + panel + 30)}" '
            f'text-anchor="middle" font-size="12">{names[ix]}</text>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(y0 + panel / 2)}" text-anchor="middle" '
            f'font-size="12" transform="rotate(-90 {_fmt(x0 - 8)} {_fmt(y0 + panel / 2)})">'
            f"{names[iy]}</text>"
        )
        parts.append(
            f'<text x="{_fmt(x0)}" y="{_fmt(y0 + panel + 14)}" font-size="9">'
            f"{_axis_label(lo_x)}</text>"
        )
        parts.append(
            f'<text x="{_fmt(x0 + panel)}" y="{_fmt(y0 + panel + 14)}" '
            f'text-anchor="end" font-size="9">{_axis_label(hi_x)}</text>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 4)}" y="{_fmt(y0 + panel)}" text-anchor="end" '
            f'font-size="9">{_axis_label(lo_y)}</text>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 4)}" y="{_fmt(y0 + 8)}" text-anchor="end" '
            f'font-size="9">{_axis_label(hi_y)}</text>'
        )
        for x, y in zip(xs, ys):
            px, py = to_px(x, y)
            parts.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="#1f77b4" '
                f'fill-opacity="0.75"/>'
            )
        sx, sy = to_px(ideal[ix], ideal[iy])
        parts.append(_star(sx, sy, 6.0, "#000000"))
        if reference is not None:
            rx, ry = to_px(reference[ix], reference[iy])
            parts.append(
                f'<path d="M {_fmt(rx - 5)} {_fmt(ry - 5)} L {_fmt(rx + 5)} {_fmt(ry + 5)} '
                f'M {_fmt(rx - 5)} {_fmt(ry + 5)} L {_fmt(rx + 5)} {_fmt(ry - 5)}" '
                f'stroke="#d62728" stroke-width="2"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _star(cx: float, cy: float, r: float, fill: str) -> str:
    points = []
    for i in range(10):
        radius = r if i % 2 == 0 else 0.45 * r
        angle = -np.pi / 2 + i * np.pi / 5
        points.append(
            f"{_fmt(cx + radius * float(np.cos(angle)))},"
            f"{_fmt(cy + radius * float(np.sin(angle)))}"
        )
    return f'<polygon points="{" ".join(points)}" fill="{fill}"/>'


def tvsa_stacked_bars_svg(report: TvsaReport, decision: int) -> str:
    """Hourly stacked bars of one decision's variance shares.

    Three panels: first-order shares, positive interactions, and negative
    interactions (stacked by absolute share).  Hours whose cell is empty
    (unit forced off, or nothing to attribute) stay blank.
    """
    names = report.input_names
    panel_w, panel_h = 540.0, 110.0
    left, top, vgap = 60.0, 34.0, 44.0
    legend_w = 190.0
    width = left + panel_w + legend_w + 20.0
    height = top + 3 * (panel_h + vgap) + 10.0
    bar_w = panel_w / 24.0
    bar_x = [_fmt(left + t * bar_w + 1) for t in range(24)]
    bar_width = _fmt(bar_w - 2)
    empty = report.empty[:, decision].tolist()
    second = report.normalized_second[:, decision, PAIRS[0], PAIRS[1]]
    # Each panel's (24, ·) segment heights; a segment of height <= 0 is
    # not drawn, which leaves each interaction panel its own sign.
    panels = (
        ("first-order", _SIGNAL_COLORS, report.normalized_first[:, decision] * panel_h),
        ("interaction (+)", _PAIR_COLORS, second * panel_h),
        ("interaction (-)", _PAIR_COLORS, second * -panel_h),
    )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>',
        f'<text x="{_fmt(left)}" y="18" font-size="13" font-weight="bold">'
        f"{report.decision_labels[decision]}</text>",
    ]
    for panel_index, (title, colors, heights) in enumerate(panels):
        y0 = top + panel_index * (panel_h + vgap)
        y_base = y0 + panel_h
        parts += [
            f'<rect x="{_fmt(left)}" y="{_fmt(y0)}" width="{_fmt(panel_w)}" '
            f'height="{_fmt(panel_h)}" fill="none" stroke="#333333"/>',
            f'<text x="{_fmt(left)}" y="{_fmt(y0 - 5)}" font-size="11">{title}</text>',
            f'<text x="{_fmt(left - 6)}" y="{_fmt(y0 + 10)}" text-anchor="end" '
            f'font-size="9">1</text>',
            f'<text x="{_fmt(left - 6)}" y="{_fmt(y_base)}" text-anchor="end" '
            f'font-size="9">0</text>',
        ]
        for x, hidden, hour in zip(bar_x, empty, heights.tolist()):
            if hidden:
                continue
            y = y_base
            for color, h in zip(colors, hour):
                if h <= 0.0:
                    continue
                parts.append(
                    f'<rect x="{x}" y="{y - h:.2f}" width="{bar_width}" '
                    f'height="{h:.2f}" fill="{color}"/>'
                )
                y -= h
        for t in (0, 6, 12, 18, 23):
            parts.append(
                f'<text x="{_fmt(left + (t + 0.5) * bar_w)}" y="{_fmt(y_base + 12)}" '
                f'text-anchor="middle" font-size="8">{t}</text>'
            )

    lx, ly = left + panel_w + 16.0, top
    pair_names = [f"{names[a]}*{names[b]}" for a, b in zip(*PAIRS)]
    for legend in (zip(_SIGNAL_COLORS, names), zip(_PAIR_COLORS, pair_names)):
        for color, name in legend:
            parts += [
                f'<rect x="{_fmt(lx)}" y="{_fmt(ly)}" width="10" height="10" fill="{color}"/>',
                f'<text x="{_fmt(lx + 14)}" y="{_fmt(ly + 9)}" font-size="9">{name}</text>',
            ]
            ly += 15.0
        ly += 6.0
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
