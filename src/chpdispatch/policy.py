"""Parametric dispatch policy: a single-hidden-layer sigmoid network.

The network maps six observables (five exogenous signals plus hour of day,
each scaled to roughly [0, 1]) to one normalized decision per output.  Its
weights live in one flat vector so a derivative-free optimizer can treat
the policy as a real-coded genome, and the input gradient is available in
closed form for the sensitivity analysis.

Flat layout (documented and stable): row-major ``W1`` (hidden x input),
then ``b1``, then row-major ``W2`` (output x hidden), then ``b2``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from .environment import Ensemble

#: Search box half-width for policy weights; sigmoids saturate well inside.
DEFAULT_WEIGHT_BOUND = 10.0
DEFAULT_HIDDEN_DIM = 15
HOUR_SCALE = 23.0


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class InputNormalization:
    """Per-input affine scaling (raw - offset) / scale applied before the
    first layer; scales must be nonzero so the map is invertible."""

    offsets: tuple[float, ...]
    scales: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.offsets) != len(self.scales):
            raise ValueError("offsets and scales must have equal length")
        if any(s == 0.0 for s in self.scales):
            raise ValueError("scales must be nonzero")

    def normalize(self, raw: np.ndarray) -> np.ndarray:
        return (np.asarray(raw, dtype=float) - np.asarray(self.offsets)) / np.asarray(
            self.scales
        )

    @classmethod
    def from_scenarios(cls, scenarios: Ensemble) -> "InputNormalization":
        """Min-max scaling fitted on a scenario set, frozen into the policy
        artifact so training and evaluation share identical inputs.  The
        hour-of-day input is always hour / 23."""
        signals = scenarios.signals.reshape(-1, scenarios.signals.shape[-1])
        lo = signals.min(axis=0)
        hi = signals.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        offsets = tuple(float(x) for x in lo) + (0.0,)
        scales = tuple(float(x) for x in span) + (HOUR_SCALE,)
        return cls(offsets=offsets, scales=scales)


def weight_count(input_dim: int, hidden_dim: int, output_dim: int) -> int:
    return (input_dim + 1) * hidden_dim + (hidden_dim + 1) * output_dim


@dataclass(frozen=True)
class PolicyNetwork:
    """Immutable policy: weights plus the input scaling they were trained
    with.  ``forward`` and ``input_gradient`` are safe to call concurrently.
    """

    input_dim: int
    hidden_dim: int
    output_dim: int
    weights: np.ndarray
    normalization: InputNormalization

    def __post_init__(self) -> None:
        expected = weight_count(self.input_dim, self.hidden_dim, self.output_dim)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (expected,):
            raise ValueError(
                f"weight vector must have length {expected}, got {w.shape}"
            )
        if len(self.normalization.offsets) != self.input_dim:
            raise ValueError("normalization size must match input_dim")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def _layers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        ni, nh, no = self.input_dim, self.hidden_dim, self.output_dim
        w = self.weights
        w1 = w[: ni * nh].reshape(nh, ni)
        b1 = w[ni * nh : ni * nh + nh]
        off = ni * nh + nh
        w2 = w[off : off + nh * no].reshape(no, nh)
        b2 = w[off + nh * no :]
        return w1, b1, w2, b2

    def _raw_inputs(self, obs) -> np.ndarray:
        raw = np.asarray(obs, float)
        if raw.shape[-1:] != (self.input_dim,):
            raise ValueError(f"expected {self.input_dim} inputs, got {raw.shape}")
        return raw

    def forward(self, obs) -> np.ndarray:
        """Normalized decisions in (0, 1), one per output, for one
        observation or for every row of an array of shape (..., input_dim);
        the result has shape (..., output_dim)."""
        return self.forward_normalized(self.normalization.normalize(self._raw_inputs(obs)))

    def forward_normalized(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on inputs already passed through the
        normalization, so a caller that evaluates many genomes on the same
        inputs normalizes them once."""
        w1, b1, w2, b2 = self._layers()
        hidden = sigmoid(x.reshape(-1, self.input_dim) @ w1.T + b1)
        u = sigmoid(hidden @ w2.T + b2)
        return u.reshape(x.shape[:-1] + (self.output_dim,))

    def input_gradient(self, obs) -> np.ndarray:
        """Jacobian d(decision) / d(raw input), shape (output_dim,
        input_dim), at one observation or at every row of an array of shape
        (..., input_dim); the result has shape (..., output_dim, input_dim).

        Analytic chain rule through both sigmoid layers, including the
        normalization scales, so entries are per raw input unit.
        """
        raw = self._raw_inputs(obs)
        x = self.normalization.normalize(raw).reshape(-1, self.input_dim, 1)
        w1, b1, w2, b2 = self._layers()
        hidden = sigmoid(w1 @ x + b1[:, None])
        out = sigmoid(w2 @ hidden + b2[:, None])
        d_hidden = hidden * (1.0 - hidden)
        d_out = out * (1.0 - out)
        jac = (d_out * w2) @ (d_hidden * w1) / np.asarray(self.normalization.scales)
        return jac.reshape(raw.shape[:-1] + (self.output_dim, self.input_dim))

    def encode(self) -> np.ndarray:
        """Flat genome copy; :meth:`decode` is its exact inverse."""
        return self.weights.copy()

    @classmethod
    def decode(
        cls,
        flat: np.ndarray,
        input_dim: int,
        hidden_dim: int,
        output_dim: int,
        normalization: InputNormalization,
    ) -> "PolicyNetwork":
        flat = np.asarray(flat, dtype=float)
        expected = weight_count(input_dim, hidden_dim, output_dim)
        if flat.shape != (expected,):
            raise ValueError(f"expected {expected} weights, got {flat.shape}")
        return cls(
            input_dim=input_dim,
            hidden_dim=hidden_dim,
            output_dim=output_dim,
            weights=flat,
            normalization=normalization,
        )


def save_policy(net: PolicyNetwork, path: str | Path) -> None:
    """Write a policy artifact as JSON; floats use shortest round-trip
    rendering, so load(save(net)) is bit-exact."""
    doc = {
        "input_dim": net.input_dim,
        "hidden_dim": net.hidden_dim,
        "output_dim": net.output_dim,
        "normalization": {
            "offsets": list(net.normalization.offsets),
            "scales": list(net.normalization.scales),
        },
        "weights": [float(w) for w in net.weights],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_policy(path: str | Path) -> PolicyNetwork:
    doc = json.loads(Path(path).read_text())
    try:
        norm = InputNormalization(
            offsets=tuple(doc["normalization"]["offsets"]),
            scales=tuple(doc["normalization"]["scales"]),
        )
        return PolicyNetwork.decode(
            np.array(doc["weights"], dtype=float),
            input_dim=doc["input_dim"],
            hidden_dim=doc["hidden_dim"],
            output_dim=doc["output_dim"],
            normalization=norm,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed policy artifact {path}: {exc}") from exc
