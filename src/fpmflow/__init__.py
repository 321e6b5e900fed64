"""Pseudo-spectral simulator and estimate-verification harness for the 1D
nonlocal continuity flow with fractional-potential velocity on the unit torus.
"""

__version__ = "0.1.0"

from .grid import (DensityField, PeriodicGrid, apply_multiplier, make_grid,
                   spectral_derivative)
from .initial_data import (InitialDataSpec, gen_cccf, gen_positive_control,
                           gen_smooth_monotone, gen_vacuum_plateau,
                           make_initial_data, validate_hypotheses)
from .operators import (OperatorParams, compute_A, compute_C, compute_delta,
                        decompose_velocity,
                        fractional_laplacian_kernel, fractional_laplacian_spectral,
                        kernel_sum_S, make_params, velocity_kernel,
                        velocity_spectral)
from .solver import RunResult, SimulationState, SolverConfig, run

__all__ = [
    "DensityField", "PeriodicGrid", "apply_multiplier", "make_grid",
    "spectral_derivative",
    "InitialDataSpec", "gen_cccf", "gen_positive_control", "gen_smooth_monotone",
    "gen_vacuum_plateau", "make_initial_data", "validate_hypotheses",
    "OperatorParams", "compute_A", "compute_C",
    "compute_delta", "decompose_velocity", "fractional_laplacian_kernel",
    "fractional_laplacian_spectral", "kernel_sum_S", "make_params",
    "velocity_kernel", "velocity_spectral",
    "RunResult", "SimulationState", "SolverConfig", "run",
    "__version__",
]
