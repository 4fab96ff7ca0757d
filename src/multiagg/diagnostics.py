"""Energy, dissipation, support tracking, decay-rate fits, steady-state tests.

All quadratures use the same flat midpoint rule over the M equal-mass cells
as the solver right-hand side, so a state is diagnosed as steady exactly when
the solver would not move it.  Energy and force field come from the pairwise
engine ``potentials.pair_fields`` on the grid as weighted clouds, the call
both solvers make; ``energy`` serves particle states as well.  A record takes
both from one engine pass, and ``energy`` is that pass's energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .convexity import SystemParams
from .measures import QuantileState, compound_distance, weighted_center_of_mass
from .potentials import PotentialMatrix, pair_fields


@dataclass
class DiagnosticsRecord:
    t: float
    energy: float
    dissipation: float
    E_invariant: float
    supp_lo: np.ndarray
    supp_hi: np.ndarray
    diam: np.ndarray
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


@dataclass
class SteadyStateReport:
    verdict: bool
    dissipation: float
    energy: float
    residuals: np.ndarray
    tol: float


def energy(state, pm: PotentialMatrix) -> float:
    """(1/2) sum_ij sum_kl w_i^k w_j^l W_ij(x_i^k - x_j^l) over the clouds of a quantile
    (w = p_i / M, x = u_i[k]) or particle state; also named ``discrete_energy``."""
    return pair_fields(pm, *state.clouds(), energy=True)[1]


def force_field(qs: QuantileState, pm: PotentialMatrix, energy=False):
    """Convolved force sum_j (p_j/M) sum_l W'_ij(u_i[k] - u_j[l]) at each cell.

    This is the stationarity residual field: the solver velocity equals
    -m_i times this quantity.  With ``energy``, returns (field, ``energy``)
    from one engine pass.
    """
    sums = pair_fields(pm, *qs.clouds(), energy)
    field = np.stack(sums[0] if energy else sums)[:, :, 0]
    return (field, sums[1]) if energy else field


def dissipation(qs: QuantileState, pm: PotentialMatrix, field=None) -> float:
    """Instantaneous energy decay rate, always <= 0.

    = - sum_i (m_i p_i / M) sum_k [ sum_j (p_j/M) sum_l W'_ij(u_i[k]-u_j[l]) ]^2,
    from ``field``, the ``force_field`` of ``qs``, when given.
    """
    if field is None:
        field = force_field(qs, pm)
    return float(-np.sum(qs.params.m * qs.params.p / qs.M * (field * field).sum(axis=1)))


def ground_state(params: SystemParams, M: int) -> QuantileState:
    """Every species concentrated at x_inf = E / sum_j (p_j / m_j).

    The unique minimizer and stationary point when the convexity modulus is
    positive; its velocity field vanishes for any admissible kernel matrix.
    """
    x_inf = float(params.E[0]) / float(np.sum(params.p / params.m))
    return QuantileState(np.full((params.n, M), x_inf), params)


def support_and_diameter(qs: QuantileState):
    """Per-species support bounds (u[0], u[M-1]) and diameters."""
    lo = qs.u[:, 0].copy()
    hi = qs.u[:, -1].copy()
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


def record(qs: QuantileState, pm: PotentialMatrix, t: float,
           ground: Optional[QuantileState] = None, sums=None) -> DiagnosticsRecord:
    """Assemble the standard per-snapshot diagnostics; ``sums``, the (field, energy) of
    ``force_field(qs, pm, energy=True)``, is computed unless given."""
    field, en = force_field(qs, pm, energy=True) if sums is None else sums
    lo, hi, diam = support_and_diameter(qs)
    w2 = compound_distance(qs, ground) if ground is not None else None
    return DiagnosticsRecord(
        t=float(t),
        energy=en,
        dissipation=dissipation(qs, pm, field),
        E_invariant=weighted_center_of_mass(qs),
        supp_lo=lo,
        supp_hi=hi,
        diam=diam,
        w2_to_ground=w2,
    )


def steady_state_check(trajectory, pm: PotentialMatrix, tol: float = 1e-8) -> SteadyStateReport:
    """Is the final state stationary?

    True iff |dissipation| < tol * (1 + |energy|) at the final time.  Also
    reports the per-species maximum of the convolved-force residual, using
    the same quadrature as the solver velocity.
    """
    if not trajectory.states:
        raise ValueError("trajectory is empty")
    qs = trajectory.states[-1]
    field, en = force_field(qs, pm, energy=True)
    dis = dissipation(qs, pm, field)
    residuals = np.abs(field).max(axis=1)
    verdict = bool(abs(dis) < tol * (1.0 + abs(en)))
    return SteadyStateReport(verdict, dis, en, residuals, tol)
