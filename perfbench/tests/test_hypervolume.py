import itertools

import numpy as np
import pytest

from hypervolume import hypervolume

REF = (10.0, 10.0, 10.0)


def box_volume(corner, ref=REF):
    return float(np.prod([max(r - c, 0.0) for c, r in zip(corner, ref)]))


def inclusion_exclusion(points, ref=REF):
    """Exact union volume of the boxes [p, ref] by inclusion-exclusion."""
    total = 0.0
    for k in range(1, len(points) + 1):
        for subset in itertools.combinations(points, k):
            corner = np.max(np.array(subset), axis=0)
            total += (-1) ** (k + 1) * box_volume(corner, ref)
    return total


def test_one_point_is_its_box():
    assert hypervolume([(1.0, 2.0, 3.0)], REF) == pytest.approx(9.0 * 8.0 * 7.0, rel=1e-15)


def test_two_points_closed_form():
    a, b = (1.0, 5.0, 2.0), (4.0, 1.0, 6.0)
    expected = box_volume(a) + box_volume(b) - box_volume(np.maximum(a, b))
    assert hypervolume([a, b], REF) == pytest.approx(expected, rel=1e-12)


def test_dominated_and_outside_points_add_nothing():
    base = [(1.0, 5.0, 2.0), (4.0, 1.0, 6.0)]
    extra = [(2.0, 6.0, 3.0), (1.0, 5.0, 2.0), (11.0, 0.0, 0.0), (0.0, 10.0, 0.0)]
    assert hypervolume(base + extra, REF) == pytest.approx(hypervolume(base, REF), rel=1e-15)


def test_empty_set_is_zero():
    assert hypervolume([], REF) == 0.0


@pytest.mark.parametrize("seed", range(12))
def test_matches_inclusion_exclusion_on_small_random_sets(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    points = rng.uniform(0.0, 10.0, (n, 3))
    if seed % 3 == 0:
        points = np.round(points)  # ties in every coordinate
    expected = inclusion_exclusion([tuple(p) for p in points])
    assert hypervolume(points.tolist(), REF) == pytest.approx(expected, rel=1e-12, abs=1e-12)
    shuffled = points[rng.permutation(n)]
    assert hypervolume(shuffled.tolist(), REF) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_agrees_with_monte_carlo_on_a_larger_front():
    rng = np.random.default_rng(7)
    # Points near the simplex x + y + z = 10, so most are non-dominated.
    raw = rng.dirichlet((1.0, 1.0, 1.0), 40) * 10.0
    samples = rng.uniform(0.0, 10.0, (400_000, 3))
    covered = np.zeros(len(samples), dtype=bool)
    for p in raw:
        covered |= np.all(samples >= p, axis=1)
    share = covered.mean()
    estimate = share * 1000.0
    sigma = np.sqrt(share * (1.0 - share) / len(samples)) * 1000.0
    assert abs(hypervolume(raw.tolist(), REF) - estimate) < 4.0 * sigma
