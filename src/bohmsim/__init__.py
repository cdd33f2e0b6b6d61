"""Pilot-wave trajectories for a two-slit interferometer watched by an
N-particle which-way pointer, with an exact sqrt(N) reduced backend."""

from .model import (
    NODE_EPS,
    Configuration,
    ModeError,
    NodeError,
    ScenarioParams,
    fast_pointer_E,
)
from .velocity import y_closed_form
from .reduced import reconstruct_pointers, reduced_params
from .integrate import (
    BACKENDS,
    EnsembleSpec,
    IntegratorOptions,
    Trajectory,
    ZInit,
    crossing_time,
    integrate_trajectory,
    run_ensemble,
    sample_initials,
)

__version__ = "0.1.0"
