"""Policy evaluation for the optimizer's inner loop.

A derivative-free search needs tens of thousands of policy evaluations, so
this module normalizes a scenario ensemble's policy inputs once and maps each
genome to its ensemble objectives with one forward pass over every
(scenario, hour) and one call of the dispatch kernel in
:mod:`.environment`.  The observable inputs do not depend on past actions,
so the whole day's network outputs are computed up front.
"""

from __future__ import annotations

import numpy as np

from .environment import Ensemble, day_objectives, decision_dim, dispatch
from .grid_model import MicrogridConfig
from .policy import InputNormalization, PolicyNetwork, weight_count


class BatchEvaluator:
    """Callable mapping a flat weight genome to (objectives, violation).

    Precomputes the normalized policy inputs once; each call then costs
    two matmuls plus the kernel's elementwise work.  Instances are
    read-only after construction and safe to share.
    """

    def __init__(
        self,
        scenarios: Ensemble,
        config: MicrogridConfig,
        normalization: InputNormalization,
        hidden_dim: int = 15,
    ):
        self.config = config
        self.normalization = normalization
        self.hidden_dim = hidden_dim
        self.input_dim = len(normalization.offsets)
        self.output_dim = decision_dim(config)
        if len(scenarios) == 0:
            raise ValueError("scenario ensemble must be nonempty")
        self.days = scenarios
        self.inputs = normalization.normalize(scenarios.policy_inputs())

    @property
    def genome_length(self) -> int:
        return weight_count(self.input_dim, self.hidden_dim, self.output_dim)

    def policy(self, genome: np.ndarray) -> PolicyNetwork:
        """The genome as a policy artifact (e.g. for export after training)."""
        return PolicyNetwork.decode(
            np.asarray(genome, dtype=float),
            input_dim=self.input_dim,
            hidden_dim=self.hidden_dim,
            output_dim=self.output_dim,
            normalization=self.normalization,
        )

    def decisions(self, genome: np.ndarray) -> np.ndarray:
        """Network outputs for every (scenario, hour), shape (S, 24, k)."""
        return self.policy(genome).forward_normalized(self.inputs)

    def __call__(self, genome: np.ndarray) -> tuple[np.ndarray, float]:
        trace = dispatch(self.decisions(genome), self.days, self.config)
        objectives, violation = day_objectives(trace)
        return objectives.mean(axis=1), float(violation.mean())
