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
passes, with the bits the hour-by-hour, cell-by-cell rule gave.  The
moments stay one ``np.cov`` per hour: a stacked product is another
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


def normalize_cell(
    first: np.ndarray, second: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """The shares (:func:`_shares`) of one cell, with the total as a float."""
    total, norm_first, norm_second = _shares(first, second)
    return float(total), norm_first, norm_second


@dataclass(frozen=True)
class TvsaCell:
    """One (decision, hour) cell of the report.

    ``normalized_second`` holds per-pair shares (already doubled); the
    matrix is symmetric, so read the upper triangle.
    """

    first_order: np.ndarray
    second_order: np.ndarray
    empirical_variance: float
    forced_off: bool
    total_abs: float
    normalized_first: np.ndarray
    normalized_second: np.ndarray

    @property
    def degenerate(self) -> bool:
        return self.forced_off or self.total_abs == 0.0


@dataclass(frozen=True)
class TvsaReport:
    decision_labels: tuple[str, ...]
    input_names: tuple[str, ...]
    gradient_at: str
    cells: dict[tuple[int, int], TvsaCell]

    def cell(self, decision: int, hour: int) -> TvsaCell:
        return self.cells[(decision, hour)]


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
        forced_off_mask(outputs, config)
        if config is not None
        else np.zeros((k, HOURS_PER_DAY), dtype=bool)
    )

    first, second = _terms(policy, scenarios, gradient_at)
    totals, norm_first, norm_second = _shares(first, second)
    variances = outputs.var(axis=0, ddof=1).tolist()
    totals, off = totals.tolist(), off.tolist()
    cells = {  # hour outer, decision inner: the order export_report_csv writes
        (d, t): TvsaCell(
            first[t, d], second[t, d], variances[t][d], off[d][t], totals[t][d],
            norm_first[t, d], norm_second[t, d],
        )  # fmt: skip
        for t in range(HOURS_PER_DAY)
        for d in range(k)
    }
    return TvsaReport(
        decision_labels=tuple(decision_labels),
        input_names=OBSERVABLE_SIGNALS,
        gradient_at=gradient_at,
        cells=cells,
    )


def _csv_cell(text: str) -> str:
    """``text`` as :mod:`csv` writes it as one cell of a row, quoted only
    where it needs to be."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[: -len(",\n")]


def _report_rows(report: TvsaReport) -> Iterator[str]:
    """The text of each row of :func:`export_report_csv`, header first."""
    names = [_csv_cell(name) for name in report.input_names]
    pairs = [
        (a, b, _csv_cell(f"{report.input_names[a]}*{report.input_names[b]}"))
        for a in range(N_SIGNALS)
        for b in range(a + 1, N_SIGNALS)
    ]
    labels = [_csv_cell(label) for label in report.decision_labels]
    yield "decision,hour,term_type,inputs,raw,normalized"
    for (d, t), cell in report.cells.items():
        head = f"{labels[d]},{t}"
        if cell.degenerate:
            yield f"{head},empty,,0.0,0.0"
            continue
        first, norm_first = cell.first_order.tolist(), cell.normalized_first.tolist()
        for a in range(N_SIGNALS):
            yield f"{head},first,{names[a]},{first[a]!r},{norm_first[a]!r}"
        second, norm_second = cell.second_order.tolist(), cell.normalized_second.tolist()
        for a, b, inputs in pairs:
            pair_total = 2.0 * second[a][b]
            if pair_total != 0.0:
                term = "second_pos" if pair_total > 0.0 else "second_neg"
                yield f"{head},{term},{inputs},{pair_total!r},{norm_second[a][b]!r}"


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
