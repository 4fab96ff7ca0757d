import numpy as np
import pytest

import multiagg as mg
from multiagg import engine


@pytest.fixture
def two_species_attractive():
    """Quadratic kernels with kappa = [[2,1],[1,2]], m = p = (1,1): modulus 2."""
    params = mg.SystemParams(m=[1.0, 1.0], p=[1.0, 1.0], E=[0.0])
    pm = mg.matrix_from_entries(
        [[mg.Quadratic(2.0), mg.Quadratic(1.0)],
         [None, mg.Quadratic(2.0)]],
        kappa=[[2.0, 1.0], [1.0, 2.0]])
    return pm, params


def uniform_state(params, M, lo, hi):
    """Uniform-density quantiles per species; lo/hi are per-species sequences."""
    z = mg.measures.cell_midpoints(M) if hasattr(mg, "measures") else (np.arange(M) + 0.5) / M
    u = np.vstack([l + (h - l) * z for l, h in zip(lo, hi)])
    return mg.QuantileState(u, params)


@pytest.fixture
def make_uniform_state():
    return uniform_state


def random_monotone_u(rng, n, M, lo=-1.0, hi=1.0):
    return np.sort(rng.uniform(lo, hi, size=(n, M)), axis=1)


def pair_sum(pot, x, wx, y=None, wy=None, energy=False):
    """One kernel's sum through ``engine.pair_fields``: of the cloud x on itself (one
    species) if y is None, else between x and y (two species, kernels [[0, W], [W, 0]]).

    Returns (field on x, field on y or None, E or None) with
    E = sum_kl wx_k wy_l W(x_k - y_l) over every ordered pair, wy = wx on itself:
    the pass energy (1/2)(2 E) across and twice (1/2) E on itself, both exact.
    """
    if y is None:
        pm, xs, ws = mg.PotentialMatrix(((pot,),), np.zeros((1, 1))), [x], [wx]
    else:
        pm = mg.PotentialMatrix(((mg.Zero(), pot), (pot, mg.Zero())), np.zeros((2, 2)))
        xs, ws = [x, y], [wx, wy]
    out = engine.pair_fields(pm, xs, ws, energy)
    fields, e = out if energy else (out, None)
    if y is None:
        return fields[0], None, (2.0 * e if energy else None)
    return fields[0], fields[1], e
