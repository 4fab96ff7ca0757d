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
                        irreducible, lambda0, necessary_condition)
from .diagnostics import (DiagnosticsRecord, RateFit, dissipation, energy, fit_decay_rate,
                          ground_state, support_and_diameter)
from .errors import ConfigError, NumericsError
from .measures import (ParticleState, QuantileState, compound_distance, equal_mass_particles,
                       particles_from_quantile, quantile_from_particles,
                       weighted_center_of_mass, winf_distance)
from .potentials import (ConfiningSpec, DoubleWell, GaussianAR, Morse, PotentialMatrix,
                         Power, Quadratic, Tabulated, Zero, estimate_growth_bound,
                         matrix_from_entries, validate)
from .quantile_solver import SolverConfig, Trajectory, run, stable_dt, velocity

__all__ = [
    "ConfigError", "ConfiningSpec", "ConvexityReport", "DiagnosticsRecord", "DoubleWell",
    "GaussianAR", "Morse", "NumericsError", "ParticleState", "PotentialMatrix", "Power",
    "Quadratic", "QuantileState", "RateFit", "SolverConfig", "SystemParams", "Tabulated",
    "Trajectory", "Zero", "analyze_system", "compound_distance", "confining_check",
    "dissipation", "energy", "equal_mass_particles", "estimate_growth_bound", "fit_decay_rate",
    "ground_state", "irreducible", "lambda0", "matrix_from_entries", "necessary_condition",
    "particles_from_quantile", "quantile_from_particles", "run", "stable_dt",
    "support_and_diameter", "validate", "velocity", "weighted_center_of_mass", "winf_distance",
]
