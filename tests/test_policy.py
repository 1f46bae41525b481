"""Policy network tests: forward pass, flat encoding, analytic gradients."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from chpdispatch.policy import (
    InputNormalization,
    PolicyNetwork,
    load_policy,
    policy_from_doc,
    save_policy,
    sigmoid,
    weight_count,
)


IDENTITY_NORM = InputNormalization(offsets=(0.0,) * 6, scales=(1.0,) * 6)


def random_net(rng, input_dim=6, hidden=15, out=5, scale=3.0, norm=None):
    n = weight_count(input_dim, hidden, out)
    return PolicyNetwork(
        input_dim, hidden, out, rng.uniform(-scale, scale, n),
        norm or InputNormalization(offsets=(0.0,) * input_dim, scales=(1.0,) * input_dim),
    )  # fmt: skip


class TestForward:
    def test_zero_weights_give_half_everywhere(self):
        net = PolicyNetwork(6, 15, 5, np.zeros(weight_count(6, 15, 5)), IDENTITY_NORM)
        u = net.forward(np.array([3.0, -1.0, 200.0, 9.0, 0.04, 12.0]))
        assert np.array_equal(u, np.full(5, 0.5))

    def test_output_bias_saturates(self):
        # zero weights except one output bias of +10
        n = weight_count(6, 15, 5)
        w = np.zeros(n)
        w[-5] = 10.0  # bias of output 0
        net = PolicyNetwork(6, 15, 5, w, IDENTITY_NORM)
        u = net.forward(np.zeros(6))
        assert u[0] == pytest.approx(0.9999546021312976, abs=1e-12)
        assert np.all(u[1:] == 0.5)

    def test_outputs_strictly_inside_unit_interval(self):
        # Strict interior on the realistic operating envelope; saturated
        # activations may round to exactly 0 or 1 in float64, so the
        # closed interval is all that holds at the search-box corners.
        rng = np.random.default_rng(7)
        for _ in range(50):
            net = random_net(rng, scale=3.0)
            u = net.forward(rng.uniform(0.0, 1.0, 6))
            assert np.all(u > 0.0) and np.all(u < 1.0)
        for _ in range(20):
            net = random_net(rng, scale=10.0)
            u = net.forward(rng.uniform(-5.0, 5.0, 6))
            assert np.all(u >= 0.0) and np.all(u <= 1.0)

    def test_finite_at_search_box_corners(self):
        n = weight_count(6, 15, 5)
        for sign in (1.0, -1.0):
            net = PolicyNetwork(6, 15, 5, np.full(n, sign * 10.0), IDENTITY_NORM)
            u = net.forward(np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
            g = net.input_gradient(np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
            assert np.all(np.isfinite(u)) and np.all(np.isfinite(g))

    def test_returns_c_contiguous_array(self):
        net = random_net(np.random.default_rng(4))
        rows = np.random.default_rng(5).uniform(-2.0, 2.0, (3, 24, 6))
        for obs in (rows, rows[0, 0], rows.transpose(1, 0, 2)):
            u = net.forward(obs)
            assert u.shape == obs.shape[:-1] + (5,)
            assert u.flags.c_contiguous

    def test_stable_sigmoid_extremes(self):
        assert sigmoid(np.array([800.0]))[0] == 1.0
        assert sigmoid(np.array([-800.0]))[0] == 0.0
        assert np.all(np.isfinite(sigmoid(np.array([-1e6, 0.0, 1e6]))))

    def test_sigmoid_matches_two_branch_formula_bit_for_bit(self):
        edges = [0.0, 1e-300, 2.0**-60, 2.0**-53, 1e-17, 36.7, 700.0, np.inf]
        z = np.array(edges + [-e for e in edges])
        rng = np.random.default_rng(8)
        for values in (z, rng.standard_normal((168, 15)) * 8.0):
            pos = values >= 0.0
            expected = np.empty_like(values)
            expected[pos] = 1.0 / (1.0 + np.exp(-values[pos]))
            ez = np.exp(values[~pos])
            expected[~pos] = ez / (1.0 + ez)
            got = sigmoid(values)
            assert got.shape == values.shape
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestEncodeDecode:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(12)
        net = random_net(rng)
        clone = PolicyNetwork(6, 15, 5, net.weights, net.normalization)
        assert np.array_equal(clone.weights, net.weights)
        x = rng.uniform(-2, 2, 6)
        assert np.array_equal(clone.forward(x), net.forward(x))

    def test_zero_vector_decodes_to_zero_net(self):
        net = PolicyNetwork(6, 15, 5, np.zeros(weight_count(6, 15, 5)), IDENTITY_NORM)
        assert np.all(net.weights == 0.0)

    def test_winter_architecture_length(self):
        assert weight_count(6, 15, 5) == 185

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"expected 185 weights, got \(184,\)"):
            PolicyNetwork(6, 15, 5, np.zeros(184), IDENTITY_NORM)

    @pytest.mark.parametrize("index, value", [(3, math.nan), (0, math.inf), (184, -math.inf)])
    def test_non_finite_weight_rejected_by_index(self, index, value):
        w = np.zeros(185)
        w[index] = value
        with pytest.raises(ValueError, match=rf"weights\[{index}\] must be finite, got {value}"):
            PolicyNetwork(6, 15, 5, w, IDENTITY_NORM)

    def test_weights_are_immutable(self):
        net = PolicyNetwork(6, 15, 5, np.zeros(185), IDENTITY_NORM)
        with pytest.raises(ValueError):
            net.weights[0] = 1.0


def finite_difference_gradient(net: PolicyNetwork, raw: np.ndarray) -> np.ndarray:
    """Central differences on the raw inputs, step scaled per input so the
    normalized step is 1e-5."""
    jac = np.zeros((net.output_dim, net.input_dim))
    for a in range(net.input_dim):
        h = 1e-5 * net.normalization.scales[a]
        hi = raw.copy()
        lo = raw.copy()
        hi[a] += h
        lo[a] -= h
        jac[:, a] = (net.forward(hi) - net.forward(lo)) / (2.0 * h)
    return jac


class TestInputGradient:
    def test_zero_output_weights_give_zero_gradient(self):
        n = weight_count(6, 15, 5)
        w = np.zeros(n)
        w[: 6 * 15 + 15] = np.random.default_rng(3).uniform(-2, 2, 6 * 15 + 15)
        net = PolicyNetwork(6, 15, 5, w, IDENTITY_NORM)
        assert np.array_equal(net.input_gradient(np.zeros(6)), np.zeros((5, 6)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            scales = tuple(float(s) for s in rng.uniform(0.5, 30.0, 6))
            offsets = tuple(float(o) for o in rng.uniform(-5.0, 5.0, 6))
            norm = InputNormalization(offsets=offsets, scales=scales)
            net = random_net(rng, scale=2.0, norm=norm)
            raw = np.array(offsets) + np.array(scales) * rng.uniform(0.0, 1.0, 6)
            analytic = net.input_gradient(raw)
            numeric = finite_difference_gradient(net, raw)
            assert np.all(np.abs(analytic - numeric) <= 1e-6 * np.abs(analytic) + 1e-9)

    def test_single_path_network_by_hand(self):
        # 1 input, 1 hidden, 1 output: u = s(w2*s(w1*x + b1) + b2)
        w1, b1, w2, b2 = 0.8, -0.2, 1.5, 0.3
        norm = InputNormalization(offsets=(0.0,), scales=(2.0,))
        net = PolicyNetwork(1, 1, 1, np.array([w1, b1, w2, b2]), norm)
        raw = 1.7
        x = raw / 2.0
        z1 = w1 * x + b1
        h = 1.0 / (1.0 + math.exp(-z1))
        z2 = w2 * h + b2
        u = 1.0 / (1.0 + math.exp(-z2))
        expected = u * (1 - u) * w2 * h * (1 - h) * w1 / 2.0
        assert net.input_gradient(np.array([raw]))[0, 0] == pytest.approx(expected, rel=1e-12)


    def test_batched_rows_match_single_rows(self):
        rng = np.random.default_rng(31)
        norm = InputNormalization(
            offsets=tuple(float(o) for o in rng.uniform(-5.0, 5.0, 6)),
            scales=tuple(float(s) for s in rng.uniform(0.5, 30.0, 6)),
        )
        net = random_net(rng, out=9, scale=4.0, norm=norm)
        rows = rng.uniform(-10.0, 40.0, (4, 24, 6))
        batched = net.input_gradient(rows)
        assert batched.shape == (4, 24, 9, 6)
        assert net.input_gradient(rows[0]).shape == (24, 9, 6)
        assert net.input_gradient(rows[0, 0]).shape == (9, 6)
        for s in range(4):
            for t in range(24):
                single = net.input_gradient(rows[s, t])
                assert np.allclose(batched[s, t], single, rtol=1e-12, atol=0.0)


class TestNormalization:
    def test_from_scenarios_minmax(self, winter_scenarios):
        norm = InputNormalization.from_scenarios(winter_scenarios)
        signals = winter_scenarios.signals.reshape(-1, 5)
        assert np.allclose(norm.offsets[:5], signals.min(axis=0))
        assert np.allclose(norm.scales[:5], signals.max(axis=0) - signals.min(axis=0))
        assert norm.offsets[5] == 0.0 and norm.scales[5] == 23.0
        normalized = norm.normalize(signals.max(axis=0).tolist() + [23.0])
        assert np.allclose(normalized, 1.0)

    def test_constant_signal_degenerates_to_unit_scale(self, winter_scenarios):
        from conftest import constant_scenario

        norm = InputNormalization.from_scenarios(constant_scenario())
        assert all(s == 1.0 for s in norm.scales[:5])

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            InputNormalization(offsets=(0.0,), scales=(0.0,))

    @pytest.mark.parametrize(
        "offsets, scales, message",
        [
            ((0.0, math.nan), (1.0, 1.0), "offsets[1] must be finite, got nan"),
            ((0.0, 0.0), (math.inf, 1.0), "scales[0] must be finite, got inf"),
            ((0.0, 0.0), (1.0, math.nan), "scales[1] must be finite, got nan"),
        ],
    )
    def test_non_finite_entry_rejected_by_index(self, offsets, scales, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            InputNormalization(offsets=offsets, scales=scales)


def sidecar_doc():
    """The fields of an archive sidecar that a policy is built from."""
    return {
        "hidden_dim": 15,
        "decision_names": [f"u{i}" for i in range(5)],
        "normalization": {"offsets": [0.0] * 6, "scales": [1.0] * 6},
    }


class TestArtifactIO:
    def test_save_load_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(77)
        norm = InputNormalization(
            offsets=tuple(float(x) for x in rng.uniform(-3, 3, 6)),
            scales=tuple(float(x) for x in rng.uniform(0.1, 40, 6)),
        )
        net = random_net(rng, norm=norm)
        path = tmp_path / "policy.json"
        save_policy(net, path)
        loaded = load_policy(path)
        assert np.array_equal(loaded.weights, net.weights)
        assert loaded.normalization == net.normalization
        assert (loaded.input_dim, loaded.hidden_dim, loaded.output_dim) == (6, 15, 5)

    def test_malformed_artifact_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"weights": [1, 2, 3]}')
        with pytest.raises(ValueError, match="malformed policy artifact"):
            load_policy(path)

    @pytest.mark.parametrize("missing", ["hidden_dim", "normalization", "decision_names"])
    def test_sidecar_missing_field_is_malformed(self, missing):
        sidecar = sidecar_doc()
        del sidecar[missing]
        with pytest.raises(ValueError, match=f"malformed archive sidecar x.json: '{missing}'"):
            policy_from_doc(sidecar, "archive sidecar x.json", np.zeros(185))

    def test_sidecar_and_genome_rebuild_the_policy(self):
        net = random_net(np.random.default_rng(12))
        rebuilt = policy_from_doc(sidecar_doc(), "archive sidecar", net.weights)
        assert np.array_equal(rebuilt.weights, net.weights)
        assert (rebuilt.input_dim, rebuilt.hidden_dim, rebuilt.output_dim) == (6, 15, 5)
        assert rebuilt.normalization == net.normalization
