"""The package's public names: each resolves, no two alias, and the list is pinned."""

import multiagg as mg


def test_public_names_are_distinct_objects():
    first = {}
    aliases = []
    for name in mg.__all__:
        obj = getattr(mg, name)
        if id(obj) in first:
            aliases.append((first[id(obj)], name))
        first.setdefault(id(obj), name)
    assert aliases == []


def test_public_names_are_pinned():
    assert mg.__all__ == [
        "ConfigError", "ConfiningSpec", "ConvexityReport", "DiagnosticsRecord", "DoubleWell",
        "GaussianAR", "Morse", "NumericsError", "ParticleState", "PotentialMatrix", "Power",
        "Quadratic", "QuantileState", "RateFit", "SolverConfig", "SystemParams", "Tabulated",
        "Trajectory", "Zero", "analyze_system", "compound_distance", "confining_check",
        "dissipation", "energy", "equal_mass_particles", "estimate_growth_bound",
        "fit_decay_rate", "ground_state", "irreducible", "lambda0", "matrix_from_entries",
        "necessary_condition", "particles_from_quantile", "quantile_from_particles", "run",
        "stable_dt", "support_and_diameter", "validate", "velocity", "weighted_center_of_mass",
        "winf_distance",
    ]
