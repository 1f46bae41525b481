"""Variance-decomposition tests: moments, Taylor terms, normalization."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io

import numpy as np
import pytest

from chpdispatch.environment import OBSERVABLE_SIGNALS
from chpdispatch.policy import InputNormalization, PolicyNetwork, weight_count
from chpdispatch.tvsa import (
    TvsaReport,
    _shares,
    build_report,
    decompose,
    ensemble_moments,
    export_report_csv,
    forced_off_mask,
)

from conftest import constant_scenario, make_policy


def ensemble(signal_rows):
    """One scenario per row; each row gives the five signal values used for
    every hour of that scenario's day."""
    rows = np.asarray(signal_rows, dtype=float)
    days = constant_scenario()[[0] * len(rows)]
    return dataclasses.replace(
        days,
        labels=[f"2019-01-{i + 1:02d}" for i in range(len(rows))],
        signals=np.repeat(rows[:, None, :], 24, axis=1),
    )


class LinearPolicy:
    """Exactly linear map u = c + G w over the five signals (test double)."""

    def __init__(self, intercepts, gradients):
        self._c = np.asarray(intercepts, dtype=float)
        self._g = np.atleast_2d(np.asarray(gradients, dtype=float))
        self.output_dim = len(self._c)

    def forward(self, obs):
        return self._c + np.asarray(obs)[..., :5] @ self._g.T

    def input_gradient(self, obs):
        return np.hstack([self._g, np.zeros((self.output_dim, 1))])


class TestEnsembleMoments:
    def test_needs_two_scenarios(self):
        with pytest.raises(ValueError):
            ensemble_moments([constant_scenario()], 0)

    def test_identical_scenarios_have_zero_covariance(self):
        scenarios = ensemble([[1.0, 2.0, 3.0, 4.0, 0.05]] * 4)
        mean, cov = ensemble_moments(scenarios, 7)
        assert np.allclose(mean, [1.0, 2.0, 3.0, 4.0, 0.05])
        assert np.array_equal(cov, np.zeros((5, 5)))

    def test_unbiased_two_point_variance(self):
        scenarios = ensemble([[0.0, 5.0, 100.0, 10.0, 0.04], [2.0, 5.0, 100.0, 10.0, 0.04]])
        _, cov = ensemble_moments(scenarios, 12)
        assert cov[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_independent_signals_decorrelate(self):
        rng = np.random.default_rng(33)
        n = 800
        rows = np.column_stack(
            [
                rng.normal(0.0, 2.0, n),
                rng.normal(5.0, 1.0, n),
                np.abs(rng.normal(150.0, 30.0, n)),
                np.abs(rng.normal(10.0, 2.0, n)) + 0.1,
                rng.normal(0.05, 0.01, n),
            ]
        )
        _, cov = ensemble_moments(ensemble(rows.tolist()), 3)
        sd = np.sqrt(np.diag(cov))
        for a in range(5):
            for b in range(a + 1, 5):
                assert abs(cov[a, b]) < 3.0 * sd[a] * sd[b] / np.sqrt(n) + 1e-9


class TestDecompose:
    def test_zero_gradient_policy_contributes_nothing(self):
        n = weight_count(6, 15, 5)
        w = np.zeros(n)
        w[: 6 * 15 + 15] = 0.3  # hidden layer only; output weights stay zero
        norm = InputNormalization(offsets=(0.0,) * 6, scales=(1.0,) * 6)
        policy = PolicyNetwork(6, 15, 5, w, norm)
        rng = np.random.default_rng(2)
        rows = rng.normal(0, 1, (6, 5)).tolist()
        first, second = decompose(policy, ensemble(rows), 5, 0)
        assert np.array_equal(first, np.zeros(5))
        assert np.array_equal(second, np.zeros((5, 5)))

    def test_single_varying_input(self, winter_config, winter_scenarios):
        rng = np.random.default_rng(3)
        rows = [[t, 5.0, 100.0, 10.0, 0.04] for t in rng.normal(0.0, 3.0, 8)]
        scenarios = ensemble(rows)
        policy = make_policy(rng, winter_config, scenarios, scale=1.0)
        first, second = decompose(policy, scenarios, 9, 2)
        _, cov = ensemble_moments(scenarios, 9)
        grad = policy.input_gradient(
            np.append(ensemble_moments(scenarios, 9)[0], 9.0)
        )[2, :5]
        assert first[0] == pytest.approx(grad[0] ** 2 * cov[0, 0], rel=1e-12)
        assert np.all(first[1:] == 0.0)
        assert np.array_equal(second, np.zeros((5, 5)))

    def test_linear_policy_reproduces_variance_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = rng.normal(0, 0.3, 5)
            policy = LinearPolicy([0.2], [g])
            rows = rng.normal(0, 1, (30, 5)) * rng.uniform(0.5, 4.0, 5)
            scenarios = ensemble(rows.tolist())
            first, second = decompose(policy, scenarios, 11, 0)
            total = float(first.sum() + np.triu(second, 1).sum() * 2.0)
            u = policy.forward(scenarios.policy_inputs()[:, 11])[:, 0]
            assert total == pytest.approx(float(np.var(u, ddof=1)), abs=1e-9, rel=1e-9)

    def test_second_order_is_symmetric_with_zero_diagonal(self, winter_config, winter_scenarios):
        policy = make_policy(np.random.default_rng(5), winter_config, winter_scenarios)
        first, second = decompose(policy, winter_scenarios, 6, 1)
        assert np.array_equal(second, second.T)
        assert np.all(np.diag(second) == 0.0)
        assert np.all(first >= 0.0)

    def test_gradient_point_options_differ_for_curved_policy(self, winter_config):
        rng = np.random.default_rng(6)
        rows = rng.normal(0, 1, (12, 5)) + np.array([0, 5, 150, 10, 0.05])
        scenarios = ensemble(rows.tolist())
        policy = make_policy(rng, winter_config, scenarios, scale=6.0)
        f_mean, _ = decompose(policy, scenarios, 3, 0, gradient_at="mean")
        f_per, _ = decompose(policy, scenarios, 3, 0, gradient_at="per_scenario")
        assert not np.allclose(f_mean, f_per)
        with pytest.raises(ValueError):
            decompose(policy, scenarios, 3, 0, gradient_at="midpoint")


class TestNormalization:
    def test_single_term_normalizes_to_one(self):
        first = np.array([0.7, 0.0, 0.0, 0.0, 0.0])
        total, norm_first, norm_second = _shares(first, np.zeros((5, 5)))
        assert total == pytest.approx(0.7)
        assert norm_first[0] == pytest.approx(1.0)
        assert np.all(norm_second == 0.0)

    def test_signed_shares(self):
        first = np.array([0.3, 0.0, 0.0, 0.0, 0.0])
        second = np.zeros((5, 5))
        second[0, 1] = second[1, 0] = -0.05  # pair total -0.1
        total, norm_first, norm_second = _shares(first, second)
        assert total == pytest.approx(0.4)
        assert norm_first[0] == pytest.approx(0.75)
        assert norm_second[0, 1] == pytest.approx(-0.25)

    def test_zero_cell_flagged(self):
        total, norm_first, norm_second = _shares(np.zeros(5), np.zeros((5, 5)))
        assert total == 0.0
        assert np.all(norm_first == 0.0) and np.all(norm_second == 0.0)

    def test_absolute_shares_sum_to_one(self, winter_config, winter_scenarios):
        policy = make_policy(np.random.default_rng(7), winter_config, winter_scenarios, scale=3.0)
        report = build_report(policy, winter_scenarios, config=winter_config)
        live = ~report.empty
        totals = np.abs(report.normalized_first).sum(axis=-1) + np.abs(
            np.triu(report.normalized_second, 1)
        ).sum(axis=(-2, -1))
        assert totals[live] == pytest.approx(1.0, abs=1e-9)
        assert live.any()


class TestAffineInvariance:
    def test_rescaled_input_units_leave_shares_unchanged(self, winter_config):
        rng = np.random.default_rng(8)
        rows = rng.normal(0, 1, (10, 5)) + np.array([0, 5, 150, 10, 0.05])
        base = ensemble(rows.tolist())
        scaled_rows = rows.copy()
        scaled_rows[:, 0] *= 1000.0  # temperature in millidegrees
        scaled = ensemble(scaled_rows.tolist())

        weights = rng.uniform(-2, 2, weight_count(6, 15, 5))
        p_base = PolicyNetwork(6, 15, 5, weights, InputNormalization.from_scenarios(base))
        p_scaled = PolicyNetwork(6, 15, 5, weights, InputNormalization.from_scenarios(scaled))
        r_base = build_report(p_base, base)
        r_scaled = build_report(p_scaled, scaled)
        assert np.allclose(r_base.normalized_first, r_scaled.normalized_first, atol=1e-9)
        assert np.allclose(r_base.normalized_second, r_scaled.normalized_second, atol=1e-9)


class TestForcedOff:
    def _off_policy(self, summer_config, scenarios):
        from chpdispatch.environment import decision_dim

        k = decision_dim(summer_config)
        n = weight_count(6, 15, k)
        w = np.zeros(n)
        w[-2:] = -10.0  # commitment output biases: both units off
        return PolicyNetwork(6, 15, k, w, InputNormalization.from_scenarios(scenarios))

    def test_mask_covers_unit_decisions(self, summer_config, summer_scenarios):
        policy = self._off_policy(summer_config, summer_scenarios)
        outputs = policy.forward(summer_scenarios.policy_inputs())
        mask = forced_off_mask(outputs, summer_config)
        # layout: chp1_p, chp2_p, chp1_q, chp2_q, boiler_q, chp2_on, boiler_on
        assert mask[1].all() and mask[3].all() and mask[4].all()
        assert not mask[0].any() and not mask[2].any()
        assert not mask[5].any() and not mask[6].any()

    @pytest.mark.parametrize(
        "switchable",
        [(), ("chp2", "boiler"), ("chp1",), ("boiler",), ("chp1", "chp2", "boiler")],
    )
    def test_mask_matches_unit_by_unit_reference(self, summer_config, switchable):
        # The mask written out unit by unit over the decision layout
        # (power, steam, boiler steam, commitment flags), on outputs where
        # each flag is off in every scenario for some hours only.
        config = dataclasses.replace(summer_config, switchable_units=frozenset(switchable))
        nc = len(config.chp)
        flags = config.commitment_units
        k = 2 * nc + 1 + len(flags)
        rng = np.random.default_rng(len(switchable))
        outputs = rng.uniform(0.5, 1.0, (6, 24, k))
        for j in range(len(flags)):
            hours = rng.random(24) < 0.5
            outputs[:, hours, 2 * nc + 1 + j] = rng.uniform(0.0, 0.49, (6, int(hours.sum())))
        owners = [f"chp{i + 1}" for i in range(nc)] * 2 + ["boiler"] + [None] * len(flags)
        expected = np.zeros((k, 24), dtype=bool)
        for d, unit in enumerate(owners):
            if unit in flags:
                expected[d] = (outputs[:, :, 2 * nc + 1 + flags.index(unit)] < 0.5).all(axis=0)
        assert np.array_equal(forced_off_mask(outputs, config), expected)
        assert expected.any() == bool(flags)

    def test_empty_cells_marked_in_report_and_csv(self, tmp_path, summer_config, summer_scenarios):
        policy = self._off_policy(summer_config, summer_scenarios)
        report = build_report(policy, summer_scenarios, config=summer_config)
        assert report.empty[0, 1]
        path = tmp_path / "tvsa.csv"
        export_report_csv(report, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        empties = {r["decision"] for r in rows if r["term_type"] == "empty"}
        assert {"chp2_power", "chp2_steam", "boiler_steam"} <= empties
        assert not any(
            r["decision"] == "chp2_power" and r["term_type"] != "empty" for r in rows
        )


class TestReportCsv:
    @pytest.mark.parametrize("labels", [None, ["a,b", 'say "on"', "", "d", "e", "f", "g"]])
    def test_bytes_match_csv_writer_rendering(
        self, tmp_path, summer_config, summer_scenarios, labels
    ):
        policy = TestForcedOff()._off_policy(summer_config, summer_scenarios)
        report = build_report(policy, summer_scenarios, labels, config=summer_config)
        live = make_policy(np.random.default_rng(12), summer_config, summer_scenarios)
        live_report = build_report(live, summer_scenarios, labels, config=summer_config)
        for r, rep in enumerate((report, live_report)):
            path = tmp_path / f"tvsa{r}.csv"
            digest = export_report_csv(rep, path)
            assert path.read_bytes() == _csv_writer_report(rep)
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert b",empty,," in (tmp_path / "tvsa0.csv").read_bytes()


def _csv_writer_report(report: TvsaReport) -> bytes:
    """The long-format report as ``csv.writer`` rendered it row by row."""
    names = report.input_names
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["decision", "hour", "term_type", "inputs", "raw", "normalized"])
    for t in range(24):
        for d, label in enumerate(report.decision_labels):
            if report.empty[t, d]:
                writer.writerow([label, t, "empty", "", repr(0.0), repr(0.0)])
                continue
            for a in range(len(names)):
                writer.writerow(
                    [label, t, "first", names[a], repr(float(report.first_order[t, d, a])),
                     repr(float(report.normalized_first[t, d, a]))]
                )  # fmt: skip
            for a in range(len(names)):
                for b in range(a + 1, len(names)):
                    pair_total = 2.0 * float(report.second_order[t, d, a, b])
                    if pair_total != 0.0:
                        writer.writerow(
                            [label, t, "second_pos" if pair_total > 0.0 else "second_neg",
                             f"{names[a]}*{names[b]}", repr(pair_total),
                             repr(float(report.normalized_second[t, d, a, b]))]
                        )  # fmt: skip
    return buffer.getvalue().encode()


class TestBuildReport:
    def test_structure(self, winter_config, winter_scenarios):
        policy = make_policy(np.random.default_rng(9), winter_config, winter_scenarios)
        report = build_report(policy, winter_scenarios, config=winter_config)
        assert isinstance(report, TvsaReport)
        assert report.first_order.shape == (24, 5, 5)
        assert report.second_order.shape == (24, 5, 5, 5)
        assert report.decision_labels[0] == "chp1_power"
        assert report.input_names == OBSERVABLE_SIGNALS
        assert report.gradient_at == "mean"

    def test_needs_two_scenarios(self, winter_config, winter_scenarios):
        policy = make_policy(np.random.default_rng(10), winter_config, winter_scenarios)
        with pytest.raises(ValueError):
            build_report(policy, winter_scenarios[:1], config=winter_config)

    def test_empirical_variance_recorded(self, winter_config, winter_scenarios):
        policy = make_policy(np.random.default_rng(11), winter_config, winter_scenarios)
        report = build_report(policy, winter_scenarios, config=winter_config)
        u = policy.forward(winter_scenarios.policy_inputs()[:, 4])[:, 2]
        assert report.empirical_variance[4, 2] == pytest.approx(
            float(np.var(u, ddof=1)), rel=1e-12
        )
