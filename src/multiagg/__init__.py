"""Multi-species nonlocal interaction dynamics.

A library for simulating systems of interacting populations driven by
matrix-valued even kernels, in two state representations:

* one-dimensional quantile (pseudo-inverse distribution) grids for general
  measures, and
* exact atomic (particle) states in any spatial dimension.

Both are weighted point clouds, integrated by one ``run`` and measured by
one set of diagnostics.

The analysis layer computes the geodesic-convexity modulus of the
interaction energy in the compound transport metric, confinement and
irreducibility verdicts, transport distances, energies, dissipation, support
tracking and decay-rate fits.
"""

__version__ = "0.1.0"

from .convexity import (ConvexityReport, SystemParams, analyze_system, confining_check,
                        irreducible, lambda0, lambda0_scalar, necessary_condition)
from .diagnostics import (DiagnosticsRecord, RateFit, dissipation, energy, fit_decay_rate,
                          ground_state, steady_state_check, support_and_diameter)
from .errors import ConfigError, NumericsError
from .measures import (ParticleState, QuantileState, compound_distance, equal_mass_particles,
                       particle_center_of_mass, particles_from_quantile,
                       quantile_from_particles, second_moments, w1_distance,
                       weighted_center_of_mass, winf_distance)
from .particle_solver import (ParticleTrajectory, discrete_energy, discrete_metric,
                              particle_rhs, run_particles)
from .potentials import (ConfiningSpec, DoubleWell, GaussianAR, Morse, PotentialMatrix,
                         Power, Quadratic, Tabulated, Zero, estimate_gradient_lipschitz,
                         estimate_growth_bound, estimate_semiconvexity, matrix_from_entries,
                         validate)
from .quantile_solver import SolverConfig, Trajectory, rhs, run, stable_dt, step

__all__ = [
    "ConfigError", "ConfiningSpec", "ConvexityReport", "DiagnosticsRecord", "DoubleWell",
    "GaussianAR", "Morse", "NumericsError", "ParticleState", "ParticleTrajectory",
    "PotentialMatrix", "Power", "Quadratic", "QuantileState", "RateFit", "SolverConfig",
    "SystemParams", "Tabulated", "Trajectory", "Zero", "analyze_system", "compound_distance",
    "confining_check", "discrete_energy", "discrete_metric", "dissipation", "energy",
    "equal_mass_particles", "estimate_gradient_lipschitz", "estimate_growth_bound",
    "estimate_semiconvexity", "fit_decay_rate", "ground_state", "irreducible", "lambda0",
    "lambda0_scalar", "matrix_from_entries", "necessary_condition", "particle_center_of_mass",
    "particle_rhs", "particles_from_quantile", "quantile_from_particles", "rhs", "run",
    "run_particles", "second_moments", "stable_dt", "steady_state_check", "step",
    "support_and_diameter", "validate", "w1_distance", "weighted_center_of_mass",
    "winf_distance",
]
