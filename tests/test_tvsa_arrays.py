"""The all-hours TVSA pass against the hour-by-hour, cell-by-cell rule it
replaced: every cell of a report keeps its bytes."""

from __future__ import annotations

import csv
from itertools import groupby

import numpy as np
import pytest

from chpdispatch import tvsa
from chpdispatch.data import SyntheticSpec, generate_synthetic
from chpdispatch.environment import decision_dim
from chpdispatch.grid_model import default_config
from chpdispatch.policy import InputNormalization, PolicyNetwork, weight_count
from chpdispatch.tvsa import build_report, ensemble_moments, forced_off_mask

from conftest import make_policy


def _reference_hour_terms(policy, scenarios, hour, gradient_at):
    """The Taylor terms of one hour, with its own moments and gradient call,
    as the report once computed them hour by hour."""
    mean, cov = ensemble_moments(scenarios, hour)
    if gradient_at == "mean":
        grads = policy.input_gradient(np.append(mean, float(hour)))[:, :5]
    else:
        rows = scenarios.policy_inputs()[:, hour]
        grads = np.mean(policy.input_gradient(rows)[:, :, :5], axis=0)
    first = grads * grads * np.diag(cov)
    second = grads[:, :, None] * grads[:, None, :] * cov
    second[:, range(5), range(5)] = 0.0
    return first, second


def _reference_normalize_cell(first, second):
    """One cell's shares, normalized on their own, as the report once did
    for each cell."""
    upper = np.triu(second, k=1)
    total = float(np.abs(first).sum() + np.abs(2.0 * upper).sum())
    if total == 0.0:
        return 0.0, np.zeros_like(first), np.zeros_like(second)
    return total, first / total, 2.0 * second / total


def _bits(value) -> tuple:
    array = np.asarray(value, dtype=float)
    return array.shape, array.tobytes()


def _season(season: str, days: int):
    return generate_synthetic(SyntheticSpec(seed=300 + days, days=days, season=season))


def _policies(season: str, scenarios):
    """A random policy and, for the summer plant, one with zero gradients
    (every total zero) whose commitment outputs are off everywhere."""
    config = default_config(season)
    policies = [make_policy(np.random.default_rng(17), config, scenarios, scale=2.0)]
    if season == "summer":
        k = decision_dim(config)
        off = np.zeros(weight_count(6, 15, k))
        off[-2:] = -10.0  # commitment output biases
        norm = InputNormalization.from_scenarios(scenarios)
        policies.append(PolicyNetwork(6, 15, k, off, norm))
    return config, policies


@pytest.mark.parametrize("gradient_at", ["mean", "per_scenario"])
@pytest.mark.parametrize("days", [7, 30])
@pytest.mark.parametrize("season", ["summer", "winter"])
@pytest.mark.parametrize("gradient_rows", [tvsa.GRADIENT_ROWS, 64])
def test_report_matches_hour_by_hour_reference(
    monkeypatch, season, days, gradient_at, gradient_rows
):
    # 64 rows puts 9 hours (7 days) or 2 hours (30 days) in each gradient
    # call, so that grouped calls, and an uneven last group, are covered.
    monkeypatch.setattr(tvsa, "GRADIENT_ROWS", gradient_rows)
    scenarios = _season(season, days)
    config, policies = _policies(season, scenarios)
    forced = []
    for policy in policies:
        report = build_report(policy, scenarios, gradient_at=gradient_at, config=config)
        outputs = policy.forward(scenarios.policy_inputs())
        off = forced_off_mask(outputs, config)
        forced.append(int(report.forced_off.sum()))
        for t in range(24):
            firsts, seconds = _reference_hour_terms(policy, scenarios, t, gradient_at)
            variances = outputs[:, t, :].var(axis=0, ddof=1)
            for d in range(policy.output_dim):
                total, norm_first, norm_second = _reference_normalize_cell(firsts[d], seconds[d])
                assert _bits(report.first_order[t, d]) == _bits(firsts[d])
                assert _bits(report.second_order[t, d]) == _bits(seconds[d])
                assert _bits(report.normalized_first[t, d]) == _bits(norm_first)
                assert _bits(report.normalized_second[t, d]) == _bits(norm_second)
                assert _bits(report.total_abs[t, d]) == _bits(total)
                assert _bits(report.empirical_variance[t, d]) == _bits(variances[d])
                assert report.forced_off[t, d] == bool(off[d, t])
    if season == "summer":
        # chp2's and the boiler's three decisions: off in some hours only
        # under the random policy, and in every hour under the other.
        assert 0 < forced[0] < 3 * 24 and forced[1] == 3 * 24


def test_normalize_cell_matches_reference_on_zero_and_signed_cells():
    rng = np.random.default_rng(19)
    cells = [(np.zeros(5), np.zeros((5, 5)))]
    for _ in range(20):
        first = rng.uniform(0.0, 1.0, 5) * (rng.random(5) < 0.7)
        second = rng.normal(0.0, 0.3, (5, 5))
        second = second + second.T
        np.fill_diagonal(second, 0.0)
        cells.append((first, second))
    got = tvsa._shares(np.array([f for f, _ in cells]), np.array([s for _, s in cells]))
    for i, (first, second) in enumerate(cells):
        want = _reference_normalize_cell(first, second)
        assert [_bits(x[i]) for x in got] == [_bits(x) for x in want]


@pytest.mark.parametrize("season", ["summer", "winter"])
def test_cells_iterate_hour_outer_decision_inner(season, tmp_path):
    # The CSV writes its cells hour outer, decision inner.
    scenarios = _season(season, 7)
    config, policies = _policies(season, scenarios)
    report = build_report(policies[0], scenarios, config=config)
    tvsa.export_report_csv(report, tmp_path / "tvsa.csv")
    with open(tmp_path / "tvsa.csv") as fh:
        rows = list(csv.DictReader(fh))
    # One run of rows per cell, so a cell split in two would show twice.
    cells = [cell for cell, _ in groupby((row["hour"], row["decision"]) for row in rows)]
    labels = report.decision_labels
    assert cells == [(str(t), label) for t in range(24) for label in labels]


@pytest.mark.parametrize("days", [7, 30])
@pytest.mark.parametrize("season", ["summer", "winter"])
def test_input_gradient_rows_keep_their_bytes_in_any_grouping(season, days):
    # The per-scenario report takes gradients over groups of whole hours;
    # each row's Jacobian must not depend on the rows it is computed with.
    scenarios = _season(season, days)
    policy = _policies(season, scenarios)[1][0]
    rows = scenarios.policy_inputs()
    together = policy.input_gradient(rows)
    for t in range(24):
        assert policy.input_gradient(rows[:, t]).tobytes() == together[:, t].tobytes()
    for t in range(0, 24, 5):
        grouped = policy.input_gradient(rows[:, t : t + 5])
        assert grouped.tobytes() == together[:, t : t + 5].tobytes()
