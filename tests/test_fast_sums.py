"""Closed-form moment sums for quadratic kernels, checked against the direct sum.

Every pairwise sum (quantile and particle velocities, force fields and
energies) evaluates Quadratic entries by moments.  The
oracle is the same routine on a copy of the matrix whose quadratic entries
are a plain ScalarPotential with the same formula, which takes the direct
O(N^2) sum that every non-quadratic kernel uses.
"""

import bisect

import numpy as np
import pytest

import multiagg as mg
from conftest import pair_sum
from multiagg import diagnostics, quantile_solver
from multiagg.engine import pair_fields
from multiagg.potentials import PotentialMatrix, ScalarPotential

TABULATED = mg.Tabulated(knots=(0.0, 1.0, 2.0), values=(0.0, 0.4, 1.9), derivs=(0.0, 1.0, 2.0))
OTHER_KINDS = (
    mg.GaussianAR(1.0, 1.0, 0.5, 0.3),
    mg.Morse(1.0, 1.0, 0.5, 0.4, eps=0.2),
    mg.Power(3.0, 0.5),
    mg.DoubleWell(0.3, 0.5),
    TABULATED,
)


class DirectQuadratic(ScalarPotential):
    """a z^2 / 2 without being a Quadratic, so every sum evaluates it pointwise."""

    def __init__(self, a):
        self.a = a

    def _value(self, z):
        return 0.5 * self.a * z * z

    def _deriv(self, z):
        return self.a * z


def as_direct(pm):
    """The same matrix with every Quadratic entry replaced by DirectQuadratic.

    Entries (i, j) and (j, i) share one DirectQuadratic, which compares by identity.
    """
    entries = [list(row) for row in pm.entries]
    for i in range(pm.n):
        for j in range(i, pm.n):
            if isinstance(entries[i][j], mg.Quadratic):
                entries[i][j] = entries[j][i] = DirectQuadratic(entries[i][j].a)
    return PotentialMatrix(entries, pm.kappa, pm.growth, pm.confining)


def assert_oracle_close(fast, direct):
    fast = np.asarray(fast, dtype=float)
    direct = np.asarray(direct, dtype=float)
    scale = 1.0 + float(np.abs(direct).max())
    assert float(np.abs(fast - direct).max()) <= 1e-12 * scale


def random_matrix(rng, n, mixed):
    """Symmetric entry grid with Quadratic (either sign) and Zero entries.

    With ``mixed`` every other upper-triangle entry is a non-quadratic kernel,
    so quadratic and direct blocks share one sum.
    """
    entries = [[None] * n for _ in range(n)]
    for k, (i, j) in enumerate((i, j) for i in range(n) for j in range(i, n)):
        if mixed and k % 2 == 1:
            entries[i][j] = OTHER_KINDS[rng.integers(len(OTHER_KINDS))]
        elif i != j and rng.random() < 0.3:
            entries[i][j] = mg.Zero()
        else:
            entries[i][j] = mg.Quadratic(float(rng.uniform(-1.5, 2.0)))
    if n > 1 and not mixed:
        entries[0][n - 1] = mg.Zero()
    return mg.matrix_from_entries(entries, kappa=np.zeros((n, n)))


def quantile_state(rng, n, M, offset):
    params = mg.SystemParams(m=rng.uniform(0.5, 2.0, n), p=rng.uniform(0.5, 2.0, n), E=[0.0])
    u = offset + np.sort(rng.uniform(-1.0, 1.0, size=(n, M)), axis=1)
    return mg.QuantileState(u, params)


def particle_state(rng, n, d, offset):
    counts = rng.integers(5, 40, size=n)
    p = rng.uniform(0.5, 2.0, n)
    masses = []
    for c, pi in zip(counts, p):
        w = rng.uniform(0.1, 1.0, c)
        masses.append(w * (pi / w.sum()))
    positions = [offset + rng.normal(0.0, 1.0, (c, d)) for c in counts]
    params = mg.SystemParams(m=rng.uniform(0.5, 2.0, n), p=[w.sum() for w in masses],
                             E=np.zeros(d), d=d)
    return mg.ParticleState(positions, masses, params)


CASES = [(n, mixed, offset) for n in (1, 3) for mixed in (False, True)
         for offset in (0.0, 1e3)]


@pytest.mark.parametrize("n,mixed,offset", CASES)
def test_quantile_sums_match_direct(n, mixed, offset):
    rng = np.random.default_rng([n, mixed, int(offset)])
    pm = random_matrix(rng, n, mixed)
    oracle = as_direct(pm)
    qs = quantile_state(rng, n, 48, offset)
    assert_oracle_close(quantile_solver.velocity(qs, pm), quantile_solver.velocity(qs, oracle))
    assert_oracle_close(pair_fields(pm, *qs.clouds()), pair_fields(oracle, *qs.clouds()))
    assert_oracle_close(diagnostics.energy(qs, pm), diagnostics.energy(qs, oracle))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n,mixed,offset", CASES)
def test_particle_sums_match_direct(n, mixed, offset, d):
    rng = np.random.default_rng([n, mixed, int(offset), d])
    pm = random_matrix(rng, n, mixed)
    oracle = as_direct(pm)
    ps = particle_state(rng, n, d, offset)
    fast = quantile_solver.velocity(ps, pm)
    direct = quantile_solver.velocity(ps, oracle)
    for a, b in zip(fast, direct):
        assert_oracle_close(a, b)
    assert_oracle_close(diagnostics.energy(ps, pm), diagnostics.energy(ps, oracle))


class _NoPointwise(mg.Quadratic):
    """A Quadratic kernel that fails if any sum evaluates it pointwise."""

    def _value(self, z):
        raise AssertionError("quadratic entry was summed pointwise")

    def _deriv(self, z):
        raise AssertionError("quadratic entry was summed pointwise")


def test_quadratic_entries_never_evaluated_pointwise():
    rng = np.random.default_rng(5)
    pm = mg.matrix_from_entries([[_NoPointwise(2.0), _NoPointwise(-0.5)],
                                 [None, _NoPointwise(1.0)]], kappa=np.zeros((2, 2)))
    qs = quantile_state(rng, 2, 16, 0.0)
    quantile_solver.velocity(qs, pm)
    pair_fields(pm, *qs.clouds())
    diagnostics.energy(qs, pm)
    ps = particle_state(rng, 2, 2, 0.0)
    quantile_solver.velocity(ps, pm)
    diagnostics.energy(ps, pm)


def test_energy_is_plain_float():
    rng = np.random.default_rng(9)
    for mixed in (False, True):
        pm = random_matrix(rng, 3, mixed)
        assert type(diagnostics.energy(quantile_state(rng, 3, 8, 0.0), pm)) is float


def horner_deriv(tab, z):
    """W'(z) of a Tabulated kernel, point by point from its documented coefficients:
    on [k_j, k_j+1] with h = k_j+1 - k_j and s = (v_j+1 - v_j) / h, W'(k_j + t) =
    c1 + 2 c2 t + 3 c3 t^2 with c1 = d_j, c2 = (3s - 2d_j - d_j+1) / h and
    c3 = (d_j + d_j+1 - 2s) / h^2; the last derivative beyond the last knot."""
    k, v, d = tab.knots, tab.values, tab.derivs
    out = []
    for zz in z:
        r = abs(zz)
        if r > k[-1]:
            radial = d[-1]
        else:
            j = min(bisect.bisect_right(k, r), len(k) - 1) - 1
            h = k[j + 1] - k[j]
            slope = (v[j + 1] - v[j]) / h
            c2 = (3.0 * slope - 2.0 * d[j] - d[j + 1]) / h
            c3 = (d[j] + d[j + 1] - 2.0 * slope) / (h * h)
            t = r - k[j]
            radial = (3.0 * c3 * t + 2.0 * c2) * t + d[j]
        out.append(radial * np.sign(zz))
    return np.array(out)


def test_tabulated_caches_derivative_and_zero_verdict():
    z = np.linspace(-3.0, 3.0, 101)
    assert np.array_equal(TABULATED.deriv(z), horner_deriv(TABULATED, z))
    assert not TABULATED.is_identically_zero()
    flat = mg.Tabulated(knots=(0.0, 1.0), values=(0.0, 0.0), derivs=(0.0, 0.0))
    assert flat.is_identically_zero()


def test_coincident_points_feel_no_quadratic_force():
    # The quantile and particle Dirac steady states rely on exact zeros.
    pot = mg.Quadratic(2.0)
    x = np.full((5, 2), 1e3 + 0.1)
    w = np.full(5, 0.2)
    fx, fy, _ = pair_sum(pot, x, w, x, w)
    assert not fx.any() and not fy.any()
    assert pair_sum(pot, x, w, x, w, energy=True)[2] == 0.0
