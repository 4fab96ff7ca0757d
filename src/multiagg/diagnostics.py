"""Energy, dissipation, centre, support tracking and decay-rate fits.

Every measure is written once over a state's weighted clouds (``clouds()``),
so it serves quantile and particle states alike.  Quadratures use the same
flat midpoint rule over the M equal-mass cells as the solver velocity, so
a quantile state's dissipation vanishes exactly when the solver would not
move it: a run's last record is steady when |dissipation| < tol (1 + |energy|).
Energy and force field come from the pairwise engine
(``engine.pair_fields``, one pass of the plan the time loop steps with).  A
record takes both from one engine pass, and ``energy`` is that pass's
energy.  Only the support bounds are one-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .convexity import SystemParams
from .measures import QuantileState, compound_distance, weighted_center_of_mass
from .engine import pair_fields
from .potentials import PotentialMatrix


@dataclass
class DiagnosticsRecord:
    t: float
    energy: float
    dissipation: float
    E_invariant: float  # a length-d vector in d > 1
    supp_lo: Optional[np.ndarray]  # the support bounds are None in d > 1
    supp_hi: Optional[np.ndarray]
    diam: Optional[np.ndarray]
    w2_to_ground: Optional[float] = None


@dataclass
class RateFit:
    """Log-linear least-squares decay rate over a declared time window."""

    quantity: str
    fitted_rate: float
    predicted_rate: Optional[float]
    rel_err: Optional[float]
    r_squared: float
    window: tuple
    n_points: int


def energy(state, pm: PotentialMatrix) -> float:
    """(1/2) sum_ij sum_kl w_i^k w_j^l W_ij(x_i^k - x_j^l) over the clouds of a quantile
    (w = p_i / M, x = u_i[k]) or particle state."""
    return pair_fields(pm, *state.clouds(), energy=True)[1]


def dissipation(state, pm: PotentialMatrix, field=None) -> float:
    """Instantaneous energy decay rate -sum_i m_i sum_k w_i^k |F_i^k|^2, always <= 0.

    F is the engine field ``pair_fields(pm, *state.clouds())``, per species an
    (N_i, d) array, computed unless given.
    """
    xs, ws = state.clouds()
    total = 0.0
    for f, w, m in zip(pair_fields(pm, xs, ws) if field is None else field, ws, state.params.m):
        total -= m * float((w * (f * f).sum(axis=1)).sum())
    return total


def concentrated(state):
    """``state`` with every point at x_inf = E / sum_j (p_j / m_j).

    The unique minimizer and stationary point when the convexity modulus is
    positive; its velocity field vanishes for any admissible kernel matrix.
    """
    x_inf = state.params.E / np.sum(state.params.p / state.params.m)
    return state.with_clouds([np.tile(x_inf, (len(x), 1)) for x in state.clouds()[0]])


def ground_state(params: SystemParams, M: int) -> QuantileState:
    """The concentrated quantile state on M cells (see ``concentrated``)."""
    return concentrated(QuantileState(np.zeros((params.n, M)), params))


def support_and_diameter(state):
    """Per-species support bounds and diameters of a 1-d state: each cloud's min and max,
    which are u[:, 0] and u[:, -1] on a sorted quantile grid."""
    xs = state.clouds()[0]
    lo = np.array([x.min() for x in xs])
    hi = np.array([x.max() for x in xs])
    return lo, hi, hi - lo


def fit_decay_rate(times, values, window, predicted_rate: Optional[float] = None,
                   quantity: str = "") -> RateFit:
    """Fit values ~ C exp(-rate t) on the window by least squares in log space.

    Values must be strictly positive on the window (shrink the window if the
    signal has decayed to roundoff); at least 3 points are required.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t0, t1 = float(window[0]), float(window[1])
    mask = (times >= t0) & (times <= t1)
    t = times[mask]
    v = values[mask]
    if t.size < 3:
        raise ValueError(f"window [{t0}, {t1}] contains {t.size} samples, need >= 3")
    if np.any(v <= 0.0):
        raise ValueError("values must be positive on the fit window (shrink the window)")
    logs = np.log(v)
    slope, intercept = np.polyfit(t, logs, 1)
    fitted = -float(slope)
    resid = logs - (slope * t + intercept)
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    rel = None
    if predicted_rate is not None and predicted_rate != 0.0:
        rel = abs(fitted - predicted_rate) / abs(predicted_rate)
    return RateFit(quantity, fitted, predicted_rate, rel, r2, (t0, t1), int(t.size))


def record(state, pm: PotentialMatrix, t: float, ground=None, sums=None) -> DiagnosticsRecord:
    """The standard diagnostics of a quantile or particle state at t.

    ``sums``, the (field, energy) of ``pair_fields(pm, *state.clouds(), True)``,
    is computed unless given.  ``ground`` is a state of the same layout, such
    as ``concentrated(state)``.  A 1-d E_invariant is a number, and the
    support bounds are None in d > 1.
    """
    field, en = pair_fields(pm, *state.clouds(), True) if sums is None else sums
    one_d = state.params.d == 1
    lo, hi, diam = support_and_diameter(state) if one_d else (None, None, None)
    center = weighted_center_of_mass(state)
    return DiagnosticsRecord(
        t=float(t),
        energy=en,
        dissipation=dissipation(state, pm, field),
        E_invariant=float(center[0]) if one_d else center,
        supp_lo=lo,
        supp_hi=hi,
        diam=diam,
        w2_to_ground=None if ground is None else compound_distance(state, ground),
    )

