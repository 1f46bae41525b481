"""Parametric dispatch policy: a single-hidden-layer sigmoid network.

The network maps six observables (five exogenous signals plus hour of day,
each scaled to roughly [0, 1]) to one normalized decision per output.  Its
weights live in one flat vector so a derivative-free optimizer can treat
the policy as a real-coded genome, and the input gradient is available in
closed form for the sensitivity analysis.

Flat layout (documented and stable): row-major ``W1`` (hidden x input),
then ``b1``, then row-major ``W2`` (output x hidden), then ``b2``.
:func:`split_genome` slices a genome into these layers, and
:func:`forward_columns` runs them on normalized inputs held as the columns
of an (input_dim, N) array; :class:`PolicyNetwork` and
:class:`.batch.BatchEvaluator` both use the two.  The pass computes in
place in caller-owned buffers from :func:`forward_workspace`: the
evaluator keeps one workspace for all its calls, and so takes one call at
a time, while ``PolicyNetwork.forward`` passes none and gets fresh buffers
per call.  ``forward`` copies its result to a C-contiguous
(..., output_dim) array, because reductions over a strided view, such as
the TVSA's variances, sum in another order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from .environment import Ensemble

DEFAULT_HIDDEN_DIM = 15
HOUR_SCALE = 23.0


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, elementwise, into a new array."""
    z = np.array(z, dtype=float)
    return _logistic(z, np.empty_like(z))


def _logistic(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Overwrite ``z`` with ``where(z >= 0, 1, e) / (1 + e)``, where
    ``e = exp(-|z|)`` is computed in the scratch array ``e``; returns ``z``.

    As ``e`` lies in [0, 1], the numerator is ``max(z >= 0, e)``: the same
    bits as the two-branch form, without a mask.
    """
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(z, 0.0, out=z)
    np.maximum(z, e, out=z)
    e += 1.0
    z /= e
    return z


@dataclass(frozen=True)
class InputNormalization:
    """Per-input affine scaling (raw - offset) / scale applied before the
    first layer; scales must be nonzero so the map is invertible."""

    offsets: tuple[float, ...]
    scales: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.offsets) != len(self.scales):
            raise ValueError("offsets and scales must have equal length")
        _require_finite("offsets", self.offsets)
        _require_finite("scales", self.scales)
        if any(s == 0.0 for s in self.scales):
            raise ValueError("scales must be nonzero")

    def normalize(self, raw: np.ndarray) -> np.ndarray:
        return (np.asarray(raw, dtype=float) - np.asarray(self.offsets)) / np.asarray(
            self.scales
        )

    def columns(self, raw: np.ndarray) -> np.ndarray:
        """The normalized rows of ``raw`` (..., input_dim) as the columns of
        one C-contiguous (input_dim, N) array."""
        x = self.normalize(raw)
        return np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)

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


def _require_finite(name: str, values) -> None:
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise ValueError(f"{name}[{bad[0]}] must be finite, got {values[bad[0]]}")


def weight_count(input_dim: int, hidden_dim: int, output_dim: int) -> int:
    return (input_dim + 1) * hidden_dim + (hidden_dim + 1) * output_dim


def split_genome(flat: np.ndarray, input_dim: int, hidden_dim: int, output_dim: int):
    """Views (W1, b1, W2, b2) of a flat genome; rejects a wrong length."""
    ni, nh, no = input_dim, hidden_dim, output_dim
    expected = weight_count(ni, nh, no)
    if flat.shape != (expected,):
        raise ValueError(f"expected {expected} weights, got {flat.shape}")
    off = ni * nh + nh
    w1 = flat[: ni * nh].reshape(nh, ni)
    b1 = flat[ni * nh : off]
    w2 = flat[off : off + nh * no].reshape(no, nh)
    b2 = flat[off + nh * no :]
    return w1, b1, w2, b2


def forward_workspace(hidden_dim: int, output_dim: int, n: int):
    """Buffers for :func:`forward_columns` over ``n`` input columns: the
    hidden layer (hidden_dim, n), the decisions (output_dim, n), and the
    logistic's scratch, whose first rows serve both layers."""
    return (
        np.empty((hidden_dim, n)),
        np.empty((output_dim, n)),
        np.empty((max(hidden_dim, output_dim), n)),
    )


def forward_columns(layers, x: np.ndarray, workspace=None) -> np.ndarray:
    """Decisions (output_dim, N) of the network ``layers`` (from
    :func:`split_genome`) at normalized inputs ``x`` (input_dim, N):
    ``sigmoid(W2 @ sigmoid(W1 @ x + b1) + b2)``, computed in place in the
    buffers of a :func:`forward_workspace`, whose decisions buffer it
    returns.  Without a workspace, the call allocates its own."""
    w1, b1, w2, b2 = layers
    if workspace is None:
        workspace = forward_workspace(len(b1), len(b2), x.shape[1])
    hidden, out, e = workspace
    np.matmul(w1, x, out=hidden)
    hidden += b1[:, None]
    _logistic(hidden, e[: len(b1)])
    np.matmul(w2, hidden, out=out)
    out += b2[:, None]
    return _logistic(out, e[: len(b2)])


@dataclass(frozen=True)
class PolicyNetwork:
    """Immutable policy: weights plus the input scaling they were trained
    with, built as ``PolicyNetwork(input_dim, hidden_dim, output_dim,
    weights, normalization)``; ``weights`` is a flat genome (see
    :func:`split_genome`), copied and frozen.  ``forward`` and
    ``input_gradient`` are safe to call concurrently.
    """

    input_dim: int
    hidden_dim: int
    output_dim: int
    weights: np.ndarray
    normalization: InputNormalization

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        self._layers()  # checks the length
        _require_finite("weights", w)
        if len(self.normalization.offsets) != self.input_dim:
            raise ValueError("normalization size must match input_dim")

    def _layers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return split_genome(self.weights, self.input_dim, self.hidden_dim, self.output_dim)

    def _raw_inputs(self, obs) -> np.ndarray:
        raw = np.asarray(obs, float)
        if raw.shape[-1:] != (self.input_dim,):
            raise ValueError(f"expected {self.input_dim} inputs, got {raw.shape}")
        return raw

    def forward(self, obs) -> np.ndarray:
        """Normalized decisions in (0, 1), one per output, for one
        observation or for every row of an array of shape (..., input_dim);
        the result has shape (..., output_dim) and is C-contiguous."""
        raw = self._raw_inputs(obs)
        u = forward_columns(self._layers(), self.normalization.columns(raw))
        return np.ascontiguousarray(u.T).reshape(raw.shape[:-1] + (self.output_dim,))

    def input_gradient(self, obs) -> np.ndarray:
        """Jacobian d(decision) / d(raw input), shape (output_dim,
        input_dim), at one observation or at every row of an array of shape
        (..., input_dim); the result has shape (..., output_dim, input_dim).

        Analytic chain rule through both sigmoid layers, including the
        normalization scales, so entries are per raw input unit.  It keeps
        batched per-row products, whose bits differ from :func:`forward_columns`.
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


def policy_from_doc(doc: dict, source: str, genome: np.ndarray | None = None) -> PolicyNetwork:
    """The policy a JSON document describes: a policy artifact, which holds
    its weights, or an archive sidecar given one archive row's ``genome``
    (its normalization gives the input count, its decision names the
    output count).  A missing or mistyped field raises a ValueError naming
    ``source``."""
    try:
        normalization = InputNormalization(
            offsets=tuple(doc["normalization"]["offsets"]),
            scales=tuple(doc["normalization"]["scales"]),
        )
        if genome is None:
            input_dim, output_dim, genome = doc["input_dim"], doc["output_dim"], doc["weights"]
        else:
            input_dim, output_dim = len(normalization.offsets), len(doc["decision_names"])
        return PolicyNetwork(
            input_dim=input_dim,
            hidden_dim=doc["hidden_dim"],
            output_dim=output_dim,
            weights=genome,
            normalization=normalization,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {source}: {exc}") from exc


def load_policy(path: str | Path) -> PolicyNetwork:
    return policy_from_doc(json.loads(Path(path).read_text()), f"policy artifact {path}")
