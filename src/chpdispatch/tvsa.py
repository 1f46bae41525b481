"""Time-varying sensitivity analysis of a trained policy.

For each decision output and each hour of the day, the variance of the
decision across a scenario ensemble is attributed to the five exogenous
inputs by a second-order Taylor expansion around the ensemble mean:

    first_order[a]    = (du/da)^2 * Var(a)
    second_order[a,b] = (du/da) * (du/db) * Cov(a, b)   for a != b

First-order terms are nonnegative; interaction terms keep their sign and
are reported as positive and negative groups separately.  For an exactly
linear policy the terms sum to the ensemble variance of the decision
exactly; for the sigmoid policy they approximate it.  Shares are
normalized by the sum of absolute contributions so each (decision, hour)
cell's absolute shares sum to one.

The hour-of-day input is deterministic within a cell and is excluded.
Decisions a commitment flag forces to zero in every scenario of an hour
are flagged as empty cells rather than reported as zero variance shares.

Every term, total and share of all 24 hours is computed in whole-array
passes, with the bits the hour-by-hour, cell-by-cell rule gave, and the
report (:class:`TvsaReport`) is those arrays, indexed ``[hour, decision]``.
The moments stay one ``np.cov`` per hour: a stacked product is another
reduction, with other bits.  In per-scenario mode the gradient is taken
over whole hours at up to :data:`GRADIENT_ROWS` rows per call.  On 180
days the 24 hours' gradients took 4.4-4.7 ms in calls of 5 hours, against
5.2-5.4 ms hour by hour and 7.6-7.9 ms in one call over all 4320 rows,
whose (N, k, 15) temporaries outgrow the 2 MB L2 cache (x86 Xeon, one
BLAS thread; at 7 days one call took 0.2 ms against 1.1 ms).
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .environment import HOURS_PER_DAY, OBSERVABLE_SIGNALS, Ensemble, decision_names
from .grid_model import MicrogridConfig

N_SIGNALS = len(OBSERVABLE_SIGNALS)
#: Row and column indices of the interaction pairs a < b, in report order.
PAIRS = tuple(tuple(index.tolist()) for index in np.triu_indices(N_SIGNALS, k=1))

GRADIENT_AT_MEAN = "mean"
GRADIENT_PER_SCENARIO = "per_scenario"
#: Most rows per ``input_gradient`` call in per-scenario mode, taken in whole hours.
GRADIENT_ROWS = 1024


def ensemble_moments(scenarios: Ensemble, hour: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and unbiased covariance of the five exogenous signals at
    one hour, across the scenario ensemble."""
    if len(scenarios) < 2:
        raise ValueError("ensemble moments need at least 2 scenarios")
    signals = scenarios.signals[:, hour]
    mean = signals.mean(axis=0)
    cov = np.cov(signals.T, ddof=1)
    return mean, np.atleast_2d(cov)


def _terms(policy, scenarios: Ensemble, gradient_at: str) -> tuple[np.ndarray, np.ndarray]:
    """Taylor terms of every decision at every hour: first-order (24, k, 5)
    and signed, symmetric, zero-diagonal interactions (24, k, 5, 5), from
    the gradient d(decisions)/d(signals) at the chosen evaluation point."""
    moments = [ensemble_moments(scenarios, t) for t in range(HOURS_PER_DAY)]
    means, covs = np.array([m for m, _ in moments]), np.array([c for _, c in moments])
    if gradient_at == GRADIENT_AT_MEAN:
        grads = policy.input_gradient(np.column_stack([means, np.arange(float(HOURS_PER_DAY))]))
    elif gradient_at == GRADIENT_PER_SCENARIO:
        rows, step = scenarios.policy_inputs(), max(1, GRADIENT_ROWS // len(scenarios))
        hours = range(0, HOURS_PER_DAY, step)
        grads = np.concatenate([policy.input_gradient(rows[:, t : t + step]).mean(0) for t in hours])
    else:
        raise ValueError(f"gradient_at must be 'mean' or 'per_scenario', got {gradient_at!r}")
    grads = grads[..., :N_SIGNALS]
    first = grads * grads * np.diagonal(covs, axis1=1, axis2=2)[:, None]
    second = grads[..., :, None] * grads[..., None, :] * covs[:, None]
    second[..., range(N_SIGNALS), range(N_SIGNALS)] = 0.0
    return first, second


def decompose(
    policy,
    scenarios: Ensemble,
    hour: int,
    decision: int,
    gradient_at: str = GRADIENT_AT_MEAN,
) -> tuple[np.ndarray, np.ndarray]:
    """Taylor decomposition of one decision's variance at one hour.

    Returns the first-order vector over the five signals and the signed,
    symmetric, zero-diagonal interaction matrix.
    """
    first, second = _terms(policy, scenarios, gradient_at)
    return first[hour, decision], second[hour, decision]


def _shares(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shares of absolute contribution of stacked cells, first (..., 5) and
    second (..., 5, 5): each first-order term counts once, each pair counts
    its full (doubled) interaction.  Returns the absolute totals (...) and
    the signed normalized terms (zeros where the total is zero)."""
    total = np.abs(first).sum(axis=-1) + np.abs(2.0 * np.triu(second, k=1)).sum(axis=(-2, -1))
    live = (total != 0.0)[..., None]
    norm_first = np.divide(first, total[..., None], out=np.zeros_like(first), where=live)
    norm_second = np.divide(
        2.0 * second, total[..., None, None], out=np.zeros_like(second), where=live[..., None]
    )
    return total, norm_first, norm_second


@dataclass(frozen=True)
class TvsaReport:
    """Every cell of the report, as arrays indexed ``[hour, decision]``:
    (24, k, 5) and (24, k, 5, 5) for the terms and shares, (24, k) for the
    rest.  ``normalized_second`` holds per-pair shares (already doubled);
    each cell's matrix is symmetric, so read its upper triangle."""

    decision_labels: tuple[str, ...]
    input_names: tuple[str, ...]
    gradient_at: str
    first_order: np.ndarray
    second_order: np.ndarray
    empirical_variance: np.ndarray
    forced_off: np.ndarray
    total_abs: np.ndarray
    normalized_first: np.ndarray
    normalized_second: np.ndarray

    @property
    def empty(self) -> np.ndarray:
        """The cells with nothing to report: forced off, or all terms zero."""
        return self.forced_off | (self.total_abs == 0.0)


def forced_off_mask(outputs: np.ndarray, config: MicrogridConfig) -> np.ndarray:
    """(decision, hour) mask from the policy outputs of shape (S, 24, k):
    True where a commitment output switches the decision's unit off in
    every scenario, emptying that cell."""
    nc = len(config.chp)
    # Off in every scenario, per commitment flag, plus a last column of
    # False that commitment index -1 (always committed) reads.
    off = np.zeros((HOURS_PER_DAY, len(config.commitment_units) + 1), dtype=bool)
    off[:, :-1] = (outputs[:, :, 2 * nc + 1 :] < 0.5).all(axis=0)
    mask = np.zeros((outputs.shape[2], HOURS_PER_DAY), dtype=bool)
    mask[: 2 * nc + 1] = off[:, config.static_limits.flag].T
    return mask


def build_report(
    policy,
    scenarios: Ensemble,
    decision_labels: Sequence[str] | None = None,
    gradient_at: str = GRADIENT_AT_MEAN,
    config: MicrogridConfig | None = None,
) -> TvsaReport:
    """Full report over every (decision, hour) cell.

    Passing the microgrid config enables the forced-off flagging of
    commitment-controlled decisions; labels default to the config's
    decision names or generic indices.
    """
    if len(scenarios) < 2:
        raise ValueError("TVSA needs at least 2 scenarios")
    k = policy.output_dim
    if decision_labels is None:
        decision_labels = (
            decision_names(config) if config is not None else [f"u{i}" for i in range(k)]
        )
    if len(decision_labels) != k:
        raise ValueError("decision label count must match policy outputs")
    outputs = policy.forward(scenarios.policy_inputs())  # (S, 24, k)
    off = (
        forced_off_mask(outputs, config).T
        if config is not None
        else np.zeros((HOURS_PER_DAY, k), dtype=bool)
    )

    first, second = _terms(policy, scenarios, gradient_at)
    totals, norm_first, norm_second = _shares(first, second)
    return TvsaReport(
        decision_labels=tuple(decision_labels),
        input_names=OBSERVABLE_SIGNALS,
        gradient_at=gradient_at,
        first_order=first,
        second_order=second,
        empirical_variance=outputs.var(axis=0, ddof=1),
        forced_off=off,
        total_abs=totals,
        normalized_first=norm_first,
        normalized_second=norm_second,
    )


def _csv_cell(text: str) -> str:
    """``text`` as :mod:`csv` writes it as one cell of a row, quoted only
    where it needs to be."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[: -len(",\n")]


def _report_rows(report: TvsaReport) -> Iterator[str]:
    """The text of each row of :func:`export_report_csv`, header first."""
    inputs = report.input_names
    names = [_csv_cell(name) for name in inputs]
    pairs = [_csv_cell(f"{inputs[a]}*{inputs[b]}") for a, b in zip(*PAIRS)]
    labels = [_csv_cell(label) for label in report.decision_labels]
    yield "decision,hour,term_type,inputs,raw,normalized"
    arrays = (
        report.empty, report.first_order, report.normalized_first,
        report.second_order[..., PAIRS[0], PAIRS[1]],
        report.normalized_second[..., PAIRS[0], PAIRS[1]],
    )  # fmt: skip
    for t, hour in enumerate(zip(*(array.tolist() for array in arrays))):
        for label, empty, first, norm_first, second, norm_second in zip(labels, *hour):
            head = f"{label},{t}"
            if empty:
                yield f"{head},empty,,0.0,0.0"
                continue
            for name, term, share in zip(names, first, norm_first):
                yield f"{head},first,{name},{term!r},{share!r}"
            for name, pair, share in zip(pairs, second, norm_second):
                pair_total = 2.0 * pair
                if pair_total != 0.0:
                    term = "second_pos" if pair_total > 0.0 else "second_neg"
                    yield f"{head},{term},{name},{pair_total!r},{share!r}"


def export_report_csv(report: TvsaReport, path: str | Path) -> str:
    """Long-format export: one row per term, empty cells marked explicitly.

    Columns: decision, hour, term_type (first | second_pos | second_neg |
    empty), inputs ("a" or "a*b"), raw value, normalized value.  Values
    are written with ``repr``, a few hundred rows per write, so that the
    whole text is never held at once; returns the sha256 of the bytes
    written.
    """
    digest = hashlib.sha256()
    rows = _report_rows(report)
    with open(path, "wb") as fh:
        while chunk := list(islice(rows, 512)):
            data = ("\n".join(chunk) + "\n").encode()
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()
