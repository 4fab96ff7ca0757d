"""Convexity moduli of the interaction energy in the compound transport metric.

Pure arithmetic on the declared semiconvexity matrix, the mobilities and the
total masses: the global modulus ``lambda0`` for any number of species (one
branch on the species count, in ``_modulus``), its per-species auxiliary
weights ``eta``, the necessary positivity condition, graph irreducibility of
the interaction network, and the tail-convexity (confinement) modulus.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .potentials import PotentialMatrix


@dataclass(frozen=True)
class SystemParams:
    """Static system data: mobilities m > 0, total masses p > 0, center E.

    ``E`` is the conserved weighted center of mass ``sum_j (p_j/m_j) mean_j``
    as a length-d vector; ``d`` is the spatial dimension.
    """

    m: np.ndarray
    p: np.ndarray
    E: np.ndarray
    d: int = 1

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.m, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        E = np.atleast_1d(np.asarray(self.E, dtype=float))
        for name, arr in (("m", m), ("p", p), ("E", E)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if m.shape != p.shape or m.ndim != 1:
            raise ValueError("m and p must be 1-d arrays of equal length")
        if np.any(m <= 0.0) or not np.all(np.isfinite(m)):
            raise ValueError("all mobilities m must be positive and finite")
        if np.any(p <= 0.0) or not np.all(np.isfinite(p)):
            raise ValueError("all masses p must be positive and finite")
        if self.d < 1:
            raise ValueError("spatial dimension d must be >= 1")
        if E.shape != (self.d,) or not np.all(np.isfinite(E)):
            raise ValueError(f"E must be a finite vector of length d={self.d}")

    @property
    def n(self) -> int:
        return self.m.shape[0]


@dataclass
class ConfiningReport:
    """Tail-convexity verdict: the modulus recomputed from the tail matrix."""

    lambda0_tilde: float
    eta_tilde: Optional[np.ndarray]
    irreducible_at_distance: bool
    verdict: bool


@dataclass
class ConvexityReport:
    lambda0: float
    eta: Optional[np.ndarray]
    necessary_ok: np.ndarray
    irreducible: bool
    confining: Optional[ConfiningReport] = None


def _modulus(kmat: np.ndarray, params: SystemParams,
             eta_weights: np.ndarray) -> tuple[float, Optional[np.ndarray]]:
    """The modulus built from ``kmat``: m kmat p for one species (no eta), else the
    min-formula with eta_i = min_{j != i} kmat[i,j] * eta_weights[j]."""
    m, p = params.m, params.p
    n = len(m)
    if n == 1:
        return float(m[0] * kmat[0, 0] * p[0]), None
    eta = np.empty(n)
    for i in range(n):
        others = [kmat[i, j] * eta_weights[j] for j in range(n) if j != i]
        eta[i] = min(others)
    values = np.empty(n)
    for i in range(n):
        cross = 0.5 * float(np.sum(p * (eta + eta[i] * m[i] / m)))
        values[i] = p[i] * min(0.0, m[i] * kmat[i, i] - eta[i]) + cross
    return float(values.min()), eta


def _check_square_symmetric(kappa: np.ndarray, n: int, name: str = "kappa") -> np.ndarray:
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n}, got shape {kappa.shape}")
    if not np.array_equal(kappa, kappa.T):
        raise ValueError(f"{name} must be symmetric")
    return kappa


@dataclass
class Lambda0Result:
    lambda0: float
    eta: Optional[np.ndarray]  # None for a single species


def lambda0(kappa, params: SystemParams) -> Lambda0Result:
    """Geodesic-convexity modulus of the interaction energy; the flow contracts at this rate.

    For a single species it is McCann's m kappa p (the center is fixed).  For
    n > 1 species, eta_i = min_{j != i} kappa_ij m_j, and

      lambda0 = min_i [ p_i min(0, m_i kappa_ii - eta_i)
                        + (1/2) sum_j p_j (eta_j + eta_i m_i / m_j) ].

    The energy is lambda-convex along generalized geodesics for every
    lambda <= lambda0.
    """
    kappa = _check_square_symmetric(kappa, params.n)
    return Lambda0Result(*_modulus(kappa, params, eta_weights=params.m))


def necessary_condition(kappa, params: SystemParams) -> np.ndarray:
    """Per-species flags (sum_j kappa_ij p_j > 0).

    All flags are true whenever lambda0 > 0; the converse fails (the
    condition is necessary, not sufficient).
    """
    kappa = _check_square_symmetric(kappa, params.n)
    return kappa @ params.p > 0.0


def _connected(n: int, has_edge) -> bool:
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in range(n):
            if j != i and j not in seen and has_edge(i, j):
                seen.add(j)
                queue.append(j)
    return len(seen) == n


def irreducible(pm: PotentialMatrix) -> bool:
    """Is the interaction graph (edge iff W_ij not identically zero) connected?"""
    return _connected(pm.n, lambda i, j: not pm.entries[i][j].is_identically_zero())


def irreducible_at_distance(pm: PotentialMatrix, radius: float) -> bool:
    """Connectivity of the graph with edges where W'_ij is nonzero beyond radius."""
    return _connected(pm.n, lambda i, j: pm.entries[i][j].nonzero_on_tail(radius))


def confining_check(pm: PotentialMatrix, params: SystemParams) -> ConfiningReport:
    """Evaluate the declared tail convexity: is the potential confining?

    Uses the declared matrix C of convexity moduli on (radius, inf) in the
    same modulus as ``lambda0``, except that for n > 1 the auxiliary weights
    use the masses: eta_tilde_i = min_{j != i} C_ij p_j (as defined, not m_j).
    The verdict requires a positive modulus and connectivity of the far-field
    interaction graph (always connected for a single species).
    """
    if pm.confining is None:
        raise ValueError("potential matrix declares no confining spec (radius, tail matrix)")
    spec = pm.confining
    c = _check_square_symmetric(spec.tail_kappa, params.n, name="tail matrix")
    value, eta_tilde = _modulus(c, params, eta_weights=params.p)
    tail_connected = irreducible_at_distance(pm, spec.radius)
    return ConfiningReport(value, eta_tilde, tail_connected, bool(value > 0.0 and tail_connected))


def analyze_system(pm: PotentialMatrix, params: SystemParams) -> ConvexityReport:
    """Full convexity report: modulus, necessary flags, irreducibility, confinement."""
    if params.n != pm.n:
        raise ValueError(f"params are for n={params.n} species but matrix has n={pm.n}")
    modulus = lambda0(pm.kappa, params)
    report = ConvexityReport(
        lambda0=modulus.lambda0,
        eta=modulus.eta,
        necessary_ok=necessary_condition(pm.kappa, params),
        irreducible=irreducible(pm),
    )
    if pm.confining is not None:
        report.confining = confining_check(pm, params)
    return report
