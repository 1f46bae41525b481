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
"""

from __future__ import annotations

import numpy as np

from .environment import HOURS_PER_DAY, Ensemble, day_objectives, decision_dim, dispatch
from .grid_model import MicrogridConfig
from .policy import (
    InputNormalization,
    forward_columns,
    forward_workspace,
    split_genome,
    weight_count,
)


class BatchEvaluator:
    """Callable mapping a flat weight genome to (objectives, violation).

    Precomputes the normalized policy inputs once; each call then costs
    two matmuls plus the kernel's elementwise work, in a forward-pass
    workspace that the instance keeps between calls.  So an instance takes
    one call at a time.  The workspace is not pickled: each process that
    receives a copy, such as a ``--workers`` process, builds its own.
    """

    def __init__(
        self,
        scenarios: Ensemble,
        config: MicrogridConfig,
        normalization: InputNormalization,
        hidden_dim: int = 15,
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

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_workspace": None}

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
        trace = dispatch(self.decisions(genome), self.days, self.config)
        objectives, violation = day_objectives(trace)
        return objectives.mean(axis=1), float(violation.mean())
