"""The self path of the pairwise engine, the direct tiles, and kernel symmetry.

A self pair sweeps the upper triangle of a cloud in row tiles, field and
energy.  Row tile [k0, k1) is evaluated against x[k0:], so the pairs within
its own rows are evaluated in both orders and every other pair once.  One
oracle is the two-sided direct cross sum of the cloud against a copy of
itself, which evaluates every ordered pair.  Every sum goes through
``engine.pair_fields`` (``conftest.pair_sum``).  A naive full-broadcast
sum of W'(r) z / r and W(r) over every ordered pair checks the sums in every
d independently (in d = 1, W'(r) z / r is W'(z)), with the energy that the
field pass sums on request from the same tiles.  A tile takes its
differences x_k - y_l from matrix products, checked bit for bit against
numpy's broadcast.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multiagg as mg
from conftest import pair_sum
from multiagg import engine

DIRECT_KINDS = [
    mg.GaussianAR(1.0, 1.0, 0.6, 0.2),
    mg.Morse(1.0, 1.0, 0.5, 0.25, eps=0.1),
    mg.Power(3.0, 0.5),
    mg.DoubleWell(0.3, 0.5),
    mg.Tabulated(knots=(0.0, 1.0, 2.0), values=(0.0, 0.4, 1.9), derivs=(0.0, 1.0, 2.0)),
]
ALL_KINDS = DIRECT_KINDS + [mg.Quadratic(0.7), mg.Quadratic(-1.3), mg.Zero()]


def kind_id(kind):
    return type(kind).__name__


def cloud(N, d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, (N, d)), rng.uniform(0.2, 1.5, N)


@pytest.mark.parametrize("kind", DIRECT_KINDS + [mg.Quadratic(0.7)], ids=kind_id)
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N, tile", [(1, None), (2, None), (300, None), (300, 64)],
                         ids=["N1", "N2", "N300", "N300-above-tile"])
def test_self_path_matches_two_sided_direct_sum(monkeypatch, kind, d, N, tile):
    if tile is not None:
        # N > _TILE: every tile before the last 64 rows holds a single row.
        monkeypatch.setattr(engine, "_TILE", tile)
    x, w = cloud(N, d, seed=N + d)
    direct_f = pair_sum(kind, x, w, x.copy(), w)[0]
    direct_e = pair_sum(kind, x, w, x.copy(), w, energy=True)[2]
    f = pair_sum(kind, x, w)[0]
    e = pair_sum(kind, x, w, energy=True)[2]
    assert f.shape == direct_f.shape
    assert np.abs(f - direct_f).max() <= 1e-12 * (1.0 + np.abs(direct_f).max())
    assert abs(e - direct_e) <= 1e-12 * (1.0 + abs(direct_e))


def naive_fields(kind, x, y, wy):
    """sum_l wy_l W'(r) z / r, z = x_k - y_l, r = |z|, 0 at r = 0, over a full (N, L, d) broadcast."""
    z = x[:, None, :] - y[None, :, :]
    r = np.sqrt((z * z).sum(axis=-1))
    unit = np.divide(z, r[..., None], out=np.zeros_like(z), where=r[..., None] > 0.0)
    return np.einsum("l,kl,kld->kd", wy, kind.deriv(r), unit)


def naive_energy(kind, x, wx, y, wy):
    z = x[:, None, :] - y[None, :, :]
    return float(wx @ kind.value(np.sqrt((z * z).sum(axis=-1))) @ wy)


def close(a, b):
    return np.abs(a - b).max() <= 1e-12 * (1.0 + np.abs(b).max())


@pytest.mark.parametrize("kind", DIRECT_KINDS + [mg.Power(1.5, 0.5)], ids=kind_id)
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("tile", [None, 64], ids=["default-tile", "tile64"])
def test_direct_tiles_match_a_naive_broadcast_sum(monkeypatch, kind, d, offset, tile):
    if tile is not None:
        monkeypatch.setattr(engine, "_TILE", tile)
    x, wx = cloud(120, d, seed=d)
    y, wy = cloud(70, d, seed=d + 10)
    x[7] = x[3]  # a repeated point of the self cloud
    y[5] = x[3]  # and a point of the source cloud on it
    x, y = x + offset, y + offset
    fx, fy, _ = pair_sum(kind, x, wx, y, wy)
    assert close(fx, naive_fields(kind, x, y, wy))
    assert close(fy, naive_fields(kind, y, x, wx))
    assert close(pair_sum(kind, x, wx)[0], naive_fields(kind, x, x, wx))
    # The fused pass: fields and energy from the same tiles.
    gx, gy, cloud_e = pair_sum(kind, x, wx, y, wy, energy=True)
    self_f, _, self_e = pair_sum(kind, x, wx, energy=True)
    assert close(gx, naive_fields(kind, x, y, wy))
    assert close(gy, naive_fields(kind, y, x, wx))
    assert close(self_f, naive_fields(kind, x, x, wx))
    for e, naive in [(cloud_e, naive_energy(kind, x, wx, y, wy)),
                     (self_e, naive_energy(kind, x, wx, x, wx))]:
        assert abs(e - naive) <= 1e-12 * (1.0 + abs(naive))


# Kinds whose W'(r)/r keeps a nonzero limit at r = 0 (about (ca/la - cr/lr)/eps for
# morse), so a point's pair with itself must not enter the product form in d > 1.
SLOPED_AT_ZERO = [mg.Morse(1.0, 1.0, 0.5, 0.25, eps=eps) for eps in (1e-20, 1e-8, 1e-4)]
SLOPED_AT_ZERO.append(mg.GaussianAR(1.0, 1.0, 0.6, 1e-9))


@pytest.mark.parametrize("kind", SLOPED_AT_ZERO, ids=repr)
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("tile", [None, 64], ids=["default-tile", "tile64"])
def test_self_pairs_add_nothing_in_d_above_one(monkeypatch, kind, d, offset, tile):
    if tile is not None:
        monkeypatch.setattr(engine, "_TILE", tile)
    x, w = cloud(200, d, seed=d + 20)
    x = x + offset
    naive = naive_fields(kind, x, x, w)
    assert close(pair_sum(kind, x, w)[0], naive)
    f, _, e = pair_sum(kind, x, w, energy=True)
    assert close(f, naive)
    naive_e = naive_energy(kind, x, w, x, w)
    assert abs(e - naive_e) <= 1e-12 * (1.0 + abs(naive_e))


def same_bits(a, b):
    """a equals b bit for bit where b is a number, and is nan where b is (a nan's sign
    carries nothing and is not compared)."""
    nan = np.isnan(b)
    return (np.array_equal(np.isnan(a), nan)
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


# Overflowing, subnormal, near-equal and offset coordinates; no -0.0 (see below).
EDGES = [np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308, 0.0, 1.0, 1.0 + 1e-12,
         -1.0, -1.0 - 1e-12, 1e3, 1e3 + 1e-12, 1e3 - 2.5, 0.3]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tile_differences_equal_the_broadcast_bit_for_bit(d):
    rng = np.random.default_rng(d)
    x = rng.choice(EDGES, (60, d))
    y = np.concatenate([rng.choice(EDGES, (40, d)), rng.normal(0.0, 1.0, (30, d))])
    A, B = engine._tile_rows(x), engine._tile_cols(y)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, k1, l0 in [(0, 60, 0), (7, 31, 13), (59, 60, 69)]:
            r2 = None
            for a in range(d):
                diff = x[k0:k1, a, None] - y[l0:, a]
                assert same_bits(A[a, k0:k1] @ B[a, :, l0:], diff)
                diff *= diff
                r2 = diff if r2 is None else r2 + diff
            assert same_bits(engine._sq_dist(A[:, k0:k1], B[:, :, l0:]), r2)


@pytest.mark.parametrize("kind", DIRECT_KINDS[:2] + [mg.Power(1.5, 0.5)], ids=kind_id)
def test_d1_fields_over_signed_zeros_equal_broadcast_sums_bit_for_bit(kind):
    # The kinds summed by tiles in d = 1.  A tile's product gives +0.0 for
    # -0.0 - 0.0 where the broadcast gives -0.0; the fields must not see it.
    x = np.array([[-0.0], [0.0], [0.5], [-0.0], [-1.25], [0.0]])
    w = np.array([0.2, 0.3, 0.1, 0.15, 0.05, 0.2])
    y, wy = x[::-1] * 2.0, w[::-1]
    f = np.zeros_like(x)
    f += kind.deriv(x - x.T) @ w[:, None]
    assert same_bits(pair_sum(kind, x, w)[0], f)
    K = kind.deriv(x - y.T)
    fx, fy, _ = pair_sum(kind, x, w, y, wy)
    assert same_bits(fx, K @ wy[:, None])
    assert same_bits(fy, (np.zeros((1, len(y))) + -w[None, :] @ K).T)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fused_pass_equals_the_separate_sums_bit_for_bit(d):
    # Every kind, on the self and the cross paths: the fields equal pair_fields
    # without the energy, and the energy is mg.energy of the state.
    kinds = ALL_KINDS + [mg.Power(1.5, 0.5)]
    n = len(kinds)
    entries = [[kinds[(i + j) % n] for j in range(n)] for i in range(n)]
    pm = mg.matrix_from_entries(entries, kappa=np.zeros((n, n)))
    xs, ws = zip(*(cloud(17 + 5 * i, d, seed=i) for i in range(n)))
    fields, energy = engine.pair_fields(pm, xs, ws, energy=True)
    for f, g in zip(fields, engine.pair_fields(pm, xs, ws)):
        assert np.array_equal(f, g)
    params = mg.SystemParams(m=np.ones(n), p=[w.sum() for w in ws], E=np.zeros(d), d=d)
    assert energy == mg.energy(mg.ParticleState(list(xs), list(ws), params), pm)


@pytest.mark.parametrize("kind", ALL_KINDS + [mg.Power(1.5, 0.5)], ids=kind_id)
def test_slope_is_the_derivative_over_the_radius(kind):
    r = np.concatenate([[0.0, 1e-8], np.linspace(1e-3, 6.0, 500)])
    slope, value = kind._radial(r * r, True)
    assert np.all(np.isfinite(slope))
    expected = kind.deriv(r[1:]) / r[1:]
    assert np.abs(slope[1:] - expected).max() <= 1e-14 * (1.0 + np.abs(expected).max())
    # The value of the same evaluation, as the pointwise kernel gives it.
    assert np.abs(value - kind.value(r)).max() <= 1e-14 * (1.0 + np.abs(kind.value(r)).max())


def test_engine_takes_the_self_path_on_diagonal_pairs(monkeypatch):
    kind = DIRECT_KINDS[0]
    pm = mg.matrix_from_entries([[kind, mg.Quadratic(0.4)], [None, kind]],
                                kappa=np.zeros((2, 2)))
    (x0, w0), (x1, w1) = cloud(40, 2, seed=1), cloud(30, 2, seed=2)
    seen = []
    original = type(kind)._bind

    def counted(self, wx, wy, d):
        if wy is None:  # a self sum
            seen.append(len(wx))
        return original(self, wx, wy, d)

    monkeypatch.setattr(type(kind), "_bind", counted)
    engine.pair_fields(pm, [x0, x1], [w0, w1])
    assert seen == [40, 30]


@settings(max_examples=200, deadline=None)
@given(z=st.floats(-1e6, 1e6))
@pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_id)
def test_value_is_bit_exactly_even(kind, z):
    assert kind.value(z) == kind.value(-z)
    zs = np.array([z, -z, 2.0 * z])
    assert np.array_equal(kind.value(zs), kind.value(-zs))


@pytest.mark.parametrize("kind", DIRECT_KINDS[:2], ids=kind_id)
def test_exponential_kinds_vanish_quietly_at_infinity(kind):
    # Their pointwise value shares its evaluation with W', which is nan there.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kind.value(np.inf) == 0.0
        assert np.array_equal(kind.value(np.array([-np.inf, np.inf])), [0.0, 0.0])


@settings(max_examples=200, deadline=None)
@given(z=st.floats(-1e6, 1e6))
@pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_id)
def test_deriv_is_bit_exactly_odd(kind, z):
    assert kind.deriv(-z) == -kind.deriv(z)
    zs = np.array([z, -z, 2.0 * z])
    assert np.array_equal(kind.deriv(-zs), -kind.deriv(zs))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]), N=st.integers(1, 10))
@pytest.mark.parametrize("kind", ALL_KINDS, ids=kind_id)
def test_self_field_conserves_weighted_momentum(kind, data, d, N):
    coords = st.floats(-5.0, 5.0)
    x = np.array(data.draw(st.lists(coords, min_size=N * d, max_size=N * d))).reshape(N, d)
    w = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=N, max_size=N)))
    f = pair_sum(kind, x, w)[0]
    # Roundoff scale: the weighted sum of |grad W| over every ordered pair.
    diff = x[:, None, :] - x[None, :, :]
    scale = w @ np.abs(kind.deriv(np.sqrt((diff * diff).sum(axis=-1)))) @ w
    assert np.abs(w @ f).max() <= 1e-12 * (1.0 + scale)
