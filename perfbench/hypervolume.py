"""Exact hypervolume of a set of 3-objective points (all minimized).

Dimension sweep (Fonseca, Paquete & Lopez-Ibanez 2006): visit the points in
ascending order of the third objective; between consecutive levels the
dominated region is a prism whose base is the 2-D hypervolume of the
points seen so far, kept as a front sorted by the first objective.
"""

from __future__ import annotations

import bisect
from typing import Sequence


def _area(front: list[tuple[float, float]], ref: Sequence[float]) -> float:
    """2-D hypervolume of a front sorted by x ascending (so y descending)."""
    area = 0.0
    for i, (x, y) in enumerate(front):
        x_next = front[i + 1][0] if i + 1 < len(front) else ref[0]
        area += (x_next - x) * (ref[1] - y)
    return area


def _insert(front: list[tuple[float, float]], point: tuple[float, float]) -> None:
    """Add a point to a 2-D non-dominated front, dropping what it dominates."""
    x, y = point
    i = bisect.bisect_left(front, (x, float("-inf")))  # first with x' >= x
    if i > 0 and front[i - 1][1] <= y:
        return  # a point with x' < x and y' <= y covers it
    if i < len(front) and front[i][0] == x and front[i][1] <= y:
        return
    j = i
    while j < len(front) and front[j][1] >= y:
        j += 1
    front[i:j] = [point]


def hypervolume(points: Sequence[Sequence[float]], ref: Sequence[float]) -> float:
    """Volume dominated by ``points`` and bounded above by ``ref``.

    Points not strictly better than ``ref`` in every objective add nothing.
    """
    inside = sorted(
        (tuple(float(v) for v in p) for p in points if all(p[i] < ref[i] for i in range(3))),
        key=lambda p: p[2],
    )
    front: list[tuple[float, float]] = []
    volume = 0.0
    for i, (x, y, z) in enumerate(inside):
        _insert(front, (x, y))
        z_next = inside[i + 1][2] if i + 1 < len(inside) else ref[2]
        volume += _area(front, ref) * (z_next - z)
    return volume
