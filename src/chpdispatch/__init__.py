"""Multi-objective dispatch policy toolkit for a combined-heat-and-power
microgrid: fitted component models, an hourly dispatch kernel, an
epsilon-archive evolutionary policy search over cost, emissions, and heat
waste, and a time-varying sensitivity analysis of trained policies."""

__version__ = "0.1.0"

from .grid_model import (  # noqa: F401
    BoilerParams,
    ChpParams,
    EmissionParams,
    MicrogridConfig,
    SteamTurbineParams,
    default_config,
)
from .environment import (  # noqa: F401
    Dispatch,
    Ensemble,
    dispatch,
    simulate_day,
)
from .policy import InputNormalization, PolicyNetwork  # noqa: F401
from .moea import EpsilonArchive, MoeaConfig, Solution, merge_archives, run  # noqa: F401
from .data import SyntheticSpec, generate_synthetic, load_scenarios  # noqa: F401
