"""Experiment configuration: JSON parsing, presets, reproducibility manifest.

A config file fully determines a run: system parameters, the kernel matrix,
the initial datum (explicit particles, an explicit quantile grid, or a named
preset), and solver settings.  Parsing either returns a fully built
:class:`ExperimentConfig` or raises :class:`ConfigError` listing every
detected schema problem as ``path: expected``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import measures
from .convexity import SystemParams
from .errors import ConfigError
from .measures import ParticleState, QuantileState
from .potentials import (ConfiningSpec, DoubleWell, GaussianAR, Morse, Power,
                         PotentialMatrix, Quadratic, ScalarPotential, Tabulated, Zero)
from .quantile_solver import SolverConfig

DEFAULT_M = 256
DEFAULT_INITIAL = {"type": "preset", "name": "uniform", "args": {"lo": -1.0, "hi": 1.0}}

# Kernel kind name -> class.  A kind's config fields are the class's dataclass
# fields, all required; tuple-typed fields take lists of numbers.
KERNEL_KINDS = {
    "quadratic": Quadratic,
    "power": Power,
    "morse": Morse,
    "gaussian_ar": GaussianAR,
    "double_well": DoubleWell,
    "zero": Zero,
    "tabulated": Tabulated,
}

# The fields each config object may hold; any other key is a config error.
SECTIONS = ("params", "potential", "initial", "solver", "M", "seed")
PARAMS_FIELDS = ("m", "p", "n", "d", "E")
POTENTIAL_FIELDS = ("entries", "kappa", "growth", "confining")
CONFINING_FIELDS = ("R", "C")
INITIAL_FIELDS = {"particles": ("type", "species"), "quantile_grid": ("type", "values"),
                  "preset": ("type", "name", "args")}
SPECIES_FIELDS = ("x", "mass")
PRESET_ARGS = {"two_diracs": ("positions",), "uniform": ("lo", "hi"),
               "gauss_pair": ("centers", "sigma", "weights")}


@dataclass
class ExperimentConfig:
    params: SystemParams
    potential: PotentialMatrix
    solver: SolverConfig
    M: int
    seed: int
    initial_quantile: Optional[QuantileState]
    initial_particles: Optional[ParticleState]
    source_hash: Optional[str] = None


def _is_number(raw) -> bool:
    """A finite JSON number: not a bool, NaN, an infinity or an integer too large for a float."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return False
    try:
        return math.isfinite(raw)
    except OverflowError:
        return False


def _unknown_fields(raw: dict, path: str, allowed) -> list:
    """The issue naming the keys of ``raw`` outside ``allowed``, if there are any."""
    extra = sorted(set(raw) - set(allowed))
    return [f"{path}: unknown fields {extra} (expected {sorted(allowed)})"] if extra else []


def potential_from_dict(d: dict, path: str) -> ScalarPotential:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"{path}: expected an object with a 'kind' field")
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in KERNEL_KINDS:
        raise ConfigError(f"{path}.kind: expected one of {sorted(KERNEL_KINDS)}, got {kind!r}")
    cls = KERNEL_KINDS[kind]
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    missing = [name for name in names if name not in d]
    if missing:
        raise ConfigError(f"{path}: kind {kind!r} requires fields {names}, missing {missing}")
    unknown = _unknown_fields(d, path, ["kind", *names])
    if unknown:
        raise ConfigError(unknown)
    for f in fields:
        value = d[f.name]
        if f.type in (tuple, "tuple"):
            if not isinstance(value, list) or not all(_is_number(v) for v in value):
                raise ConfigError(f"{path}.{f.name}: expected a list of finite numbers")
        elif not _is_number(value):
            raise ConfigError(f"{path}.{f.name}: expected a finite number, got {value!r}")
    try:
        return cls(**{name: d[name] for name in names})
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _number(raw, path, issues, positive=False, integer=False):
    if not _is_number(raw):
        issues.append(f"{path}: expected a finite number, got {raw!r}")
        return None
    if integer and int(raw) != raw:
        issues.append(f"{path}: expected an integer, got {raw!r}")
        return None
    if positive and raw <= 0:
        issues.append(f"{path}: expected a positive value, got {raw!r}")
        return None
    return int(raw) if integer else float(raw)


def _vector(raw, path, issues, length=None):
    if not isinstance(raw, list) or not all(_is_number(v) for v in raw):
        issues.append(f"{path}: expected a list of finite numbers")
        return None
    if length is not None and len(raw) != length:
        issues.append(f"{path}: expected length {length}, got {len(raw)}")
        return None
    return [float(v) for v in raw]


def _matrix(raw, path, issues, n, symmetric=True):
    if (not isinstance(raw, list) or len(raw) != n
            or any(not isinstance(r, list) or len(r) != n for r in raw)):
        issues.append(f"{path}: expected an {n}x{n} matrix")
        return None
    if not all(_is_number(v) for r in raw for v in r):
        issues.append(f"{path}: expected finite numbers")
        return None
    arr = np.asarray(raw, dtype=float)
    if symmetric and not np.array_equal(arr, arr.T):
        issues.append(f"{path}: must be symmetric")
        return None
    return arr


def _potential_matrix(raw, n, issues) -> Optional[PotentialMatrix]:
    if not isinstance(raw, dict):
        issues.append("potential: expected an object with 'entries' and 'kappa'")
        return None
    issues += _unknown_fields(raw, "potential", POTENTIAL_FIELDS)
    entries_raw = raw.get("entries")
    if (not isinstance(entries_raw, list) or len(entries_raw) != n
            or any(not isinstance(r, list) or len(r) != n for r in entries_raw)):
        issues.append(f"potential.entries: expected an {n}x{n} grid of kernel objects")
        return None
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            try:
                entries[i][j] = potential_from_dict(entries_raw[i][j],
                                                    f"potential.entries[{i}][{j}]")
            except ConfigError as err:
                issues.extend(err.issues)
    if any(e is None for row in entries for e in row):
        return None
    kappa = _matrix(raw.get("kappa"), "potential.kappa", issues, n)
    growth = None
    if "growth" in raw:
        growth = _matrix(raw["growth"], "potential.growth", issues, n, symmetric=False)
    confining = None
    if "confining" in raw:
        spec = raw["confining"]
        if not isinstance(spec, dict) or "R" not in spec or "C" not in spec:
            issues.append("potential.confining: expected an object with 'R' and 'C'")
        else:
            issues += _unknown_fields(spec, "potential.confining", CONFINING_FIELDS)
            radius = _number(spec["R"], "potential.confining.R", issues, positive=True)
            cmat = _matrix(spec["C"], "potential.confining.C", issues, n)
            if radius is not None and cmat is not None:
                confining = ConfiningSpec(radius, cmat)
    if kappa is None:
        return None
    try:
        return PotentialMatrix(tuple(tuple(row) for row in entries), kappa, growth, confining)
    except ValueError as err:  # W_ij != W_ji; every other part is checked above
        issues.append(f"potential.entries: {err}")
        return None


def _build_preset(name: str, args: dict, n: int, M: int, rng) -> np.ndarray:
    if not isinstance(name, str) or name not in PRESET_ARGS:
        raise ConfigError(f"initial.name: unknown preset {name!r} "
                          "(expected two_diracs, uniform or gauss_pair)")
    z = measures.cell_midpoints(M)
    issues = _unknown_fields(args, "initial.args", PRESET_ARGS[name])
    if name == "two_diracs":
        positions = _vector(args.get("positions"), "initial.args.positions", issues, length=n)
        if issues:
            raise ConfigError(issues)
        return np.array([[x] * M for x in positions])
    if name == "uniform":
        bounds = []
        for key, default in (("lo", -1.0), ("hi", 1.0)):
            raw, path = args.get(key, default), f"initial.args.{key}"
            if isinstance(raw, list):
                bounds.append(_vector(raw, path, issues, length=n))
            else:
                value = _number(raw, path, issues)
                bounds.append(None if value is None else [value] * n)
        if issues:
            raise ConfigError(issues)
        lo, hi = bounds
        u = np.empty((n, M))
        for i in range(n):
            if not hi[i] > lo[i]:
                raise ConfigError(f"initial.args: species {i} needs lo < hi")
            u[i] = lo[i] + (hi[i] - lo[i]) * z
        return u
    # gauss_pair
    centers = _vector(args.get("centers", [-1.0, 1.0]), "initial.args.centers", issues,
                      length=2)
    sigma = _number(args.get("sigma", 0.25), "initial.args.sigma", issues)
    weights = _vector(args.get("weights", [0.5, 0.5]), "initial.args.weights", issues,
                      length=2)
    if weights is not None and not (min(weights) >= 0.0 and sum(weights) > 0.0):
        issues.append("initial.args.weights: expected non-negative weights with a "
                      "positive sum")
    if issues:
        raise ConfigError(issues)
    u = np.empty((n, M))
    for i in range(n):
        which = rng.random(M) < weights[0] / (weights[0] + weights[1])
        samples = np.where(which, centers[0], centers[1]) + sigma * rng.standard_normal(M)
        u[i] = np.sort(samples)
    return u


def _build_initial(raw_initial, params: SystemParams, M: int, seed: int):
    """The initial datum as a ParticleState or QuantileState; the state classes validate it."""
    if not isinstance(raw_initial, dict):
        raise ConfigError("initial: expected an object with a 'type' field")
    itype = raw_initial.get("type")
    if not isinstance(itype, str) or itype not in INITIAL_FIELDS:
        raise ConfigError("initial.type: expected particles, quantile_grid or preset, "
                          f"got {itype!r}")
    issues = _unknown_fields(raw_initial, "initial", INITIAL_FIELDS[itype])
    species = raw_initial.get("species")
    if itype == "particles":
        if not isinstance(species, list) or any(
                not isinstance(s, dict) or "x" not in s or "mass" not in s for s in species):
            issues.append(f"initial.species: expected a list of {params.n} objects "
                          "with 'x' and 'mass'")
        else:
            for k, s in enumerate(species):
                issues += _unknown_fields(s, f"initial.species[{k}]", SPECIES_FIELDS)
    if issues:
        raise ConfigError(issues)
    if itype == "particles":
        return ParticleState([s["x"] for s in species], [s["mass"] for s in species], params)
    if itype == "quantile_grid":
        state = QuantileState(raw_initial.get("values"), params)
        for i, row in enumerate(state.u):
            if np.any(np.diff(row) < 0.0):
                raise ConfigError(f"initial.values[{i}]: quantile values must be non-decreasing")
        return state
    args = raw_initial.get("args", {})
    if not isinstance(args, dict):
        raise ConfigError("initial.args: expected an object")
    rng = np.random.default_rng(seed)
    u = _build_preset(raw_initial.get("name", ""), args, params.n, M, rng)
    return QuantileState(u, params)


def config_from_dict(raw: dict, dt: Optional[float] = None, t_end: Optional[float] = None,
                     seed: Optional[int] = None, source_hash: Optional[str] = None) -> ExperimentConfig:
    """Validate and build a config from parsed JSON; flags override file values."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    issues = _unknown_fields(raw, "config", SECTIONS)

    params_raw = raw.get("params")
    m = p = None
    d = 1
    declared_E = None
    if not isinstance(params_raw, dict):
        issues.append("params: expected an object with 'm' and 'p'")
    else:
        issues += _unknown_fields(params_raw, "params", PARAMS_FIELDS)
        m = _vector(params_raw.get("m"), "params.m", issues)
        if m == []:
            issues.append("params.m: expected at least one species")
            m = None
        p = _vector(params_raw.get("p"), "params.p", issues, length=len(m) if m else None)
        if m is not None and any(v <= 0 for v in m):
            issues.append("params.m: mobilities must be positive")
        if p is not None and any(v <= 0 for v in p):
            issues.append("params.p: masses must be positive")
        if "n" in params_raw and m is not None:
            n_decl = _number(params_raw["n"], "params.n", issues, positive=True, integer=True)
            if n_decl is not None and n_decl != len(m):
                issues.append(f"params.n: declared {n_decl} but params.m has length {len(m)}")
        if "d" in params_raw:
            d = _number(params_raw["d"], "params.d", issues, positive=True, integer=True) or 1
        if "E" in params_raw:
            e_raw = params_raw["E"]
            if isinstance(e_raw, list):
                vec = _vector(e_raw, "params.E", issues, length=d)
                declared_E = None if vec is None else np.asarray(vec)
            else:
                value = _number(e_raw, "params.E", issues)
                declared_E = None if value is None else np.array([value])
            if declared_E is not None and declared_E.shape != (d,):
                issues.append(f"params.E: expected a scalar or length-{d} vector")
                declared_E = None
    if issues:
        raise ConfigError(issues)
    n = len(m)

    potential = _potential_matrix(raw.get("potential"), n, issues)

    M = DEFAULT_M
    if "M" in raw:
        M = _number(raw["M"], "M", issues, positive=True, integer=True) or DEFAULT_M
    file_seed = 0
    if "seed" in raw:
        file_seed = _number(raw["seed"], "seed", issues, integer=True)
        file_seed = 0 if file_seed is None else file_seed
    used_seed = file_seed if seed is None else int(seed)
    if used_seed < 0:
        issues.append(f"seed: expected a non-negative integer, got {used_seed}")

    solver_raw = raw.get("solver", {})
    solver = None
    if not isinstance(solver_raw, dict):
        issues.append("solver: expected an object")
    else:
        allowed = {f.name for f in dataclasses.fields(SolverConfig)}
        issues += _unknown_fields(solver_raw, "solver", allowed)
        kwargs = dict(solver_raw)
        if dt is not None:
            kwargs["dt"] = dt
        if t_end is not None:
            kwargs["t_end"] = t_end
        kwargs.setdefault("record_every", 10)
        try:
            solver = SolverConfig(**{k: v for k, v in kwargs.items() if k in allowed})
        except (TypeError, ValueError) as err:
            issues.append(f"solver: {err}")
    if issues or potential is None or solver is None:
        raise ConfigError(issues)

    # The state classes validate the initial datum against provisional params
    # (E = 0); the conserved center is computed from it and fixes params.E.
    params = SystemParams(np.asarray(m), np.asarray(p), np.zeros(d), d=d)
    try:
        state = _build_initial(raw.get("initial", DEFAULT_INITIAL), params, M, used_seed)
        center = measures.weighted_center_of_mass(state)
        params = dataclasses.replace(params, E=center)
        state = dataclasses.replace(state, params=params)
    except ConfigError:
        raise
    except (TypeError, ValueError, ArithmeticError) as err:
        raise ConfigError(f"initial: {err}") from err
    if declared_E is not None:
        scale = 1.0 + float(np.abs(declared_E).max())
        if float(np.abs(declared_E - center).max()) > 1e-9 * scale:
            raise ConfigError(f"params.E: declared {declared_E.tolist()} but the initial datum "
                              f"has weighted center {center.tolist()}")

    if isinstance(state, ParticleState):
        initial_particles = state
        initial_quantile = measures.quantile_from_particles(state, M) if d == 1 else None
    else:
        M = state.M  # an explicit grid fixes the resolution
        initial_quantile = state
        initial_particles = measures.particles_from_quantile(state)

    return ExperimentConfig(params=params, potential=potential, solver=solver, M=M,
                            seed=used_seed, initial_quantile=initial_quantile,
                            initial_particles=initial_particles,
                            source_hash=source_hash)


def parse_config(path, dt: Optional[float] = None, t_end: Optional[float] = None,
                 seed: Optional[int] = None) -> ExperimentConfig:
    """Read, validate and build an experiment config from a JSON file."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise ConfigError(f"config: cannot read {path}: {err}") from err
    try:
        raw = json.loads(blob)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config: {path} is not valid JSON: {err}") from err
    return config_from_dict(raw, dt=dt, t_end=t_end, seed=seed,
                            source_hash=hashlib.sha256(blob).hexdigest())


def manifest(cfg: ExperimentConfig, command: str, dt_used: Optional[float]) -> dict:
    from . import __version__

    return {
        "command": command,
        "config_hash": cfg.source_hash,
        "version": __version__,
        "dt": dt_used,
        "seed": cfg.seed,
    }


def write_manifest(out_path, cfg: ExperimentConfig, command: str, dt_used: float) -> str:
    path = f"{out_path}.manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest(cfg, command, dt_used), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
