"""One pairwise-interaction engine behind both solvers and the diagnostics.

A one-dimensional quantile state is the atomic state with one particle of
mass p_i / M per cell, and both solvers hand that state to the same engine,
so their velocities and energies must agree bit-exactly, not to roundoff.
"""

import numpy as np
import pytest

import multiagg as mg
from multiagg.measures import particles_from_quantile
from multiagg.engine import pair_fields
from multiagg.quantile_solver import velocity

DIRECT_KINDS = [
    mg.GaussianAR(1.0, 1.0, 0.6, 0.2),
    mg.Morse(1.0, 1.0, 0.5, 0.25, eps=0.1),
    mg.Power(3.0, 0.5),
    mg.DoubleWell(0.3, 0.5),
    mg.Tabulated(knots=(0.0, 1.0, 2.0), values=(0.0, 0.4, 1.9), derivs=(0.0, 1.0, 2.0)),
]


@pytest.mark.parametrize("kind", DIRECT_KINDS, ids=lambda k: type(k).__name__)
def test_quantile_and_particle_paths_agree_bit_exactly(kind):
    rng = np.random.default_rng(11)
    pm = mg.matrix_from_entries([[kind, mg.Quadratic(0.7)], [None, kind]],
                                kappa=np.zeros((2, 2)))
    params = mg.SystemParams(m=[1.3, 0.6], p=[0.9, 1.4], E=[0.0])
    # Row tiles of the engine split this M, so the check covers several tiles.
    qs = mg.QuantileState(np.sort(rng.normal(0.0, 1.0, (2, 300)), axis=1), params)
    ps = particles_from_quantile(qs)
    for vq, vp in zip(velocity(qs, pm), velocity(ps, pm)):
        assert np.array_equal(vp, vq)
    assert mg.energy(ps, pm) == mg.energy(qs, pm)


def test_particle_fields_are_tiled_like_one_block():
    # A cloud larger than one row tile gives the fields of the untiled sum.
    rng = np.random.default_rng(12)
    kind = DIRECT_KINDS[1]
    pm = mg.matrix_from_entries([[kind, kind], [None, kind]], kappa=np.zeros((2, 2)))
    x = [rng.normal(0.0, 1.0, (300, 2)), rng.normal(0.5, 1.0, (70, 2))]
    w = [np.full(300, 1.0 / 300), np.full(70, 0.5 / 70)]
    fields = pair_fields(pm, x, w)
    for i in range(2):
        expected = np.zeros_like(x[i])
        for j in range(2):
            diff = x[i][:, None, :] - x[j][None, :, :]
            r = np.sqrt((diff * diff).sum(axis=-1))
            coef = kind.deriv(r) / np.where(r > 0.0, r, 1.0)
            expected += (w[j][None, :, None] * coef[..., None] * diff).sum(axis=1)
        assert np.allclose(fields[i], expected, rtol=1e-12, atol=1e-14)
