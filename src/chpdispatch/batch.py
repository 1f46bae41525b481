"""Policy evaluation for the optimizer's inner loop.

A derivative-free search needs tens of thousands of policy evaluations, so
this module normalizes a scenario ensemble's policy inputs once and maps each
genome to its ensemble objectives with one forward pass over every
(scenario, hour) and one call of the dispatch kernel in
:mod:`.environment`.  The observable inputs do not depend on past actions,
so the whole day's network outputs are computed up front.

The inputs are held as one C-contiguous (6, S * 24) array, and a genome
runs through :mod:`.policy`'s one decoder and forward pass, with no policy
object per call.  The forward pass writes into one workspace per
evaluator, allocated on the first call and reused by every later one, so
that an evaluation over a long ensemble allocates no large array: freed
arrays that large go back to the operating system, and each call would
page them in again.

The optimizer hands the evaluator a genome it has evaluated before, bit for
bit, for a few to a quarter of its budget (chiefly uniform-mutation children
in which no gene was resampled).  So each evaluator keeps the results of its
last :data:`MEMO_SIZE` distinct genomes and answers a repeat from them.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .environment import HOURS_PER_DAY, Ensemble, day_objectives, decision_dim, dispatch
from .grid_model import MicrogridConfig
from .policy import (
    DEFAULT_HIDDEN_DIM,
    InputNormalization,
    forward_columns,
    forward_workspace,
    split_genome,
    weight_count,
)

#: Distinct genomes whose results an evaluator keeps, least recently used
#: out first.  On the benchmark's 7-day summer inputs (seeds 1-10), 256
#: entries catch 84-96 % of the repeats in about 0.5 MB; 512 catch 97-99 %
#: for twice the memory.
MEMO_SIZE = 256


class BatchEvaluator:
    """Callable mapping a flat weight genome to (objectives, violation).

    Precomputes the normalized policy inputs once; each call then costs
    two matmuls plus the kernel's elementwise work, in a forward-pass
    workspace that the instance keeps between calls.  So an instance takes
    one call at a time.

    The evaluation is a pure function of the genome's bits, so the instance
    memoizes it: a least-recently-used map of :data:`MEMO_SIZE` entries,
    keyed by the genome's float64 bytes, answers a repeated genome with a
    fresh copy of the stored objectives and the same violation.  A genome
    that differs in any bit, -0.0 against 0.0 included, is evaluated afresh.
    Neither the workspace nor the memo is pickled: each process that
    receives a copy, such as a ``--workers`` process, builds its own.
    """

    def __init__(
        self,
        scenarios: Ensemble,
        config: MicrogridConfig,
        normalization: InputNormalization,
        hidden_dim: int = DEFAULT_HIDDEN_DIM,
    ):
        self.config = config
        self.hidden_dim = hidden_dim
        self.input_dim = len(normalization.offsets)
        self.output_dim = decision_dim(config)
        if len(scenarios) == 0:
            raise ValueError("scenario ensemble must be nonempty")
        self.days = scenarios
        self.inputs = normalization.columns(scenarios.policy_inputs())
        self._workspace = None
        self._memo: OrderedDict[bytes, tuple[np.ndarray, float]] = OrderedDict()

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_workspace": None, "_memo": OrderedDict()}

    @property
    def genome_length(self) -> int:
        return weight_count(self.input_dim, self.hidden_dim, self.output_dim)

    def decisions(self, genome: np.ndarray) -> np.ndarray:
        """Network outputs for every (scenario, hour), shape (S, 24, k): the
        view of a contiguous (k, S, 24) array, so the kernel's unit-first
        copy reads contiguous memory.  The array is the instance's
        workspace, so the view is valid until the next call."""
        layers = split_genome(
            np.asarray(genome, dtype=float), self.input_dim, self.hidden_dim, self.output_dim
        )
        if self._workspace is None:
            self._workspace = forward_workspace(
                self.hidden_dim, self.output_dim, self.inputs.shape[1]
            )
        u = forward_columns(layers, self.inputs, self._workspace)
        return u.reshape(self.output_dim, len(self.days), HOURS_PER_DAY).transpose(1, 2, 0)

    def __call__(self, genome: np.ndarray) -> tuple[np.ndarray, float]:
        genome = np.asarray(genome, dtype=float)
        key = genome.tobytes()
        # Every stored key came from a valid 1-D genome, so a 1-D hit has
        # the right length; any other shape goes on to be rejected.
        hit = self._memo.get(key)
        if hit is not None and genome.ndim == 1:
            self._memo.move_to_end(key)
            return hit[0].copy(), hit[1]
        trace = dispatch(self.decisions(genome), self.days, self.config)
        objectives, violation = day_objectives(trace)
        S = len(self.days)  # sum / S is np.mean's arithmetic, without its overhead
        objectives, violation = objectives.sum(axis=1) / S, float(violation.sum() / S)
        self._memo[key] = (objectives.copy(), violation)
        if len(self._memo) > MEMO_SIZE:
            self._memo.popitem(last=False)
        return objectives, violation
