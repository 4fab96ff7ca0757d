"""Exact sums for piecewise-polynomial kernels in d = 1, checked against the direct sum.

``Tabulated``, ``DoubleWell`` and ``Power`` with integer q <= 4 sum a pair of
one-dimensional clouds from moments of the source cloud: whole-cloud moments
for profiles even in z, prefix moments over sorted windows otherwise.  The
oracle is the same kernel written as a plain ScalarPotential, which takes the
direct sum in row tiles.  Every sum goes through ``engine.pair_fields``
(``conftest.pair_sum``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multiagg as mg
from conftest import pair_sum
from multiagg import engine
from multiagg.potentials import ScalarPotential

KNOTS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
SMOOTH_TAB = mg.Tabulated(knots=KNOTS,
                          values=[0.5 * k * k + 0.25 * np.exp(-k * k) for k in KNOTS],
                          derivs=[k - 0.5 * k * np.exp(-k * k) for k in KNOTS])
# Knots on the 0.25 grid, so grid clouds put differences exactly on them.
GRID_TAB = mg.Tabulated(knots=(0.0, 0.5, 1.25, 2.0), values=(0.0, -0.2, 0.3, 1.5),
                        derivs=(0.0, -0.5, 1.5, 0.75))
PIECEWISE_KINDS = [SMOOTH_TAB, GRID_TAB, mg.Power(3.0, 0.5), mg.Power(3.0, -0.25),
                   mg.Power(2.0, -0.7), mg.Power(4.0, 0.3), mg.DoubleWell(0.3, 0.5)]


def kind_id(kind):
    return f"{type(kind).__name__}{getattr(kind, 'q', '')}"


class Plain(ScalarPotential):
    """The same profile as ``kind`` without its moment path: every sum is direct."""

    def __init__(self, kind):
        self.kind = kind

    def _value(self, z):
        return self.kind._value(z)

    def _deriv(self, z):
        return self.kind._deriv(z)


def assert_oracle_close(fast, direct):
    fast = np.asarray(fast, dtype=float)
    direct = np.asarray(direct, dtype=float)
    assert fast.shape == direct.shape
    scale = 1.0 + float(np.abs(direct).max())
    assert float(np.abs(fast - direct).max()) <= 1e-12 * scale


def assert_all_sums_match(kind, x, wx, y, wy):
    plain = Plain(kind)
    for fast, direct in zip(pair_sum(kind, x, wx, y, wy)[:2], pair_sum(plain, x, wx, y, wy)[:2]):
        assert_oracle_close(fast, direct)
    assert_oracle_close(pair_sum(kind, x, wx)[0], pair_sum(plain, x, wx)[0])
    assert_oracle_close(pair_sum(kind, x, wx, y, wy, energy=True)[2],
                        pair_sum(plain, x, wx, y, wy, energy=True)[2])
    assert_oracle_close(pair_sum(kind, x, wx, energy=True)[2],
                        pair_sum(plain, x, wx, energy=True)[2])


def clouds(N, offset):
    """Two unsorted clouds, the second wider than the last tabulated knot."""
    rng = np.random.default_rng([N, int(offset)])
    x = offset + rng.normal(0.0, 1.0, (N, 1))
    y = offset + 0.3 + rng.uniform(-3.0, 3.0, (N // 3 + 1, 1))
    return x, rng.uniform(0.1, 1.0, N), y, np.full(len(y), 1.0 / len(y))


@pytest.mark.parametrize("kind", PIECEWISE_KINDS, ids=kind_id)
@pytest.mark.parametrize("N", [1, 2, 37, 1000])
@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_piecewise_sums_match_direct(kind, N, offset):
    assert_all_sums_match(kind, *clouds(N, offset))


@pytest.mark.parametrize("kind", PIECEWISE_KINDS, ids=kind_id)
@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_large_source_clouds_match_direct_at_sampled_targets(kind, offset):
    # Sources of 10^4 points, where a running prefix sum would lose about
    # 10^4 eps.  The direct oracle is summed only at a sample of targets: a
    # cloud sum with the sample as targets is the full sum's terms there.
    x, wx, y, wy = clouds(10000, offset)
    plain = Plain(kind)
    sample = np.random.default_rng(6).choice(len(x), 150, replace=False)
    xs, ws = x[sample], wx[sample]
    assert_oracle_close(pair_sum(kind, x, wx)[0][sample], pair_sum(plain, xs, ws, x, wx)[0])
    fx, fy, _ = pair_sum(kind, x, wx, y, wy)
    assert_oracle_close(fx[sample], pair_sum(plain, xs, ws, y, wy)[0])
    ys, wys = y[:150], wy[:150]
    assert_oracle_close(fy[:150], pair_sum(plain, ys, wys, x, wx)[0])
    for xt, wt in [(xs, ws), (ys, wys)]:
        assert_oracle_close(pair_sum(kind, xt, wt, x, wx, energy=True)[2],
                            pair_sum(plain, xt, wt, x, wx, energy=True)[2])


def test_prefix_sums_keep_the_bound_on_a_fine_grid():
    # 10^5 equal weights: a running sum's rounding drifts to about 1.5e-12 of
    # the largest field here; the blocked prefix sums stay near 1e-14.
    x, _, _, _ = clouds(100000, 1e3)
    w = np.full(len(x), 1.0 / len(x))
    sample = np.random.default_rng(7).choice(len(x), 50, replace=False)
    direct = pair_sum(Plain(SMOOTH_TAB), x[sample], w[sample], x, w)[0]
    assert_oracle_close(pair_sum(SMOOTH_TAB, x, w)[0][sample], direct)


@pytest.mark.parametrize("kind", PIECEWISE_KINDS, ids=kind_id)
def test_tables_are_tiled_like_one_block(monkeypatch, kind):
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1.5, (300, 1))
    w = rng.uniform(0.1, 1.0, 300)
    whole = pair_sum(kind, x, w, energy=True)
    # A few targets per tile, so the tables of one sum span many tiles.
    monkeypatch.setattr(engine, "_TILE", 64)
    assert_oracle_close(pair_sum(kind, x, w)[0], whole[0])
    assert_oracle_close(pair_sum(kind, x, w, energy=True)[2], whole[2])


@pytest.mark.parametrize("kind", PIECEWISE_KINDS, ids=kind_id)
def test_coincident_points_feel_no_force(kind):
    # Dirac states are steady: their fields vanish exactly, also far out.
    x = np.full((6, 1), 1e3 + 0.1)
    w = np.full(6, 1.0 / 6.0)
    assert not pair_sum(kind, x, w)[0].any()
    fx, fy, _ = pair_sum(kind, x, w, x[:3], w[:3])
    assert not fx.any() and not fy.any()
    energy = pair_sum(kind, x, w, energy=True)[2]
    assert energy == pytest.approx(kind.value(0.0), rel=1e-15, abs=0.0)


class _NoPointwise:
    """Mixin that fails if a sum evaluates the kernel pointwise."""

    def _value(self, z):
        raise AssertionError("summed pointwise")

    def _deriv(self, z):
        raise AssertionError("summed pointwise")


@pytest.mark.parametrize("kind", PIECEWISE_KINDS, ids=kind_id)
def test_sorted_and_shuffled_sources_agree(kind):
    # A sorted source is taken as it comes, without a sort; tied points with
    # unequal weights may then enter the prefix sums in another order.
    rng = np.random.default_rng(8)
    y = np.sort(np.round(rng.normal(0.0, 1.0, 60), 1))[:, None]
    w = rng.uniform(0.2, 1.5, 60)
    assert len(np.unique(y)) < len(y)
    x = np.concatenate([rng.normal(0.0, 1.2, (25, 1)), y])
    shuffle = rng.permutation(len(y))
    wx = np.ones(len(x))  # E is then the sum over x of its energy sums
    # Every output of one pass: the fields on both clouds and the energy.
    fx, fy, e = pair_sum(kind, x, wx, y, w, energy=True)
    gx, gy, g = pair_sum(kind, x, wx, y[shuffle], w[shuffle], energy=True)
    for as_sorted, shuffled in [(fx, gx), (fy[shuffle], gy), (e, g)]:
        assert np.abs(as_sorted - shuffled).max() <= 1e-13 * (1.0 + np.abs(shuffled).max())


@pytest.mark.parametrize("kind", PIECEWISE_KINDS, ids=kind_id)
def test_one_dimensional_sums_never_evaluate_pointwise(kind):
    cls = type(kind)
    strict = type("Strict" + cls.__name__, (_NoPointwise, cls), {})
    fields = {f: getattr(kind, f) for f in kind.__dataclass_fields__}
    pot = strict(**fields)
    pm = mg.matrix_from_entries([[pot, pot], [None, pot]], kappa=np.zeros((2, 2)))
    rng = np.random.default_rng(4)
    xs = [rng.normal(0.0, 1.0, (20, 1)), rng.normal(0.5, 1.0, (9, 1))]
    ws = [np.full(20, 0.05), np.full(9, 1.0 / 9.0)]
    engine.pair_fields(pm, xs, ws)
    engine.pair_fields(pm, xs, ws, energy=True)


@pytest.mark.parametrize("kind, tables",
                         [(SMOOTH_TAB, 1), (mg.Power(3.0, 0.5), 1), (mg.DoubleWell(0.3, 0.5), 0)],
                         ids=["Tabulated", "Power3", "DoubleWell"])
def test_field_and_energy_share_one_moment_table_per_source(monkeypatch, kind, tables):
    # A self sum builds one prefix table, a cloud sum one per source cloud (the two
    # clouds differ in size, so each table is its own call); an even profile takes
    # whole-cloud moments and builds none.
    built = []
    original = engine._prefix_sums

    def counted(v):
        built.append(v.shape)
        return original(v)

    monkeypatch.setattr(engine, "_prefix_sums", counted)
    x, wx, y, wy = clouds(37, 0.0)
    pair_sum(kind, x, wx, energy=True)
    assert len(built) == tables
    built.clear()
    pair_sum(kind, x, wx, y, wy, energy=True)
    assert len(built) == 2 * tables


@pytest.mark.parametrize("cross, own, sizes, tables, with_energy",
                         [(mg.Power(3.0, 0.5), SMOOTH_TAB, (24, 24, 24), [(9, 24)], [(11, 24)]),
                          (mg.Power(3.0, 0.5), SMOOTH_TAB, (24, 24, 10), [(6, 24), (3, 10)],
                           [(7, 24), (4, 10)]),
                          (mg.DoubleWell(0.3, 0.5), mg.DoubleWell(0.3, 0.5), (24, 24, 24), [],
                           [])],
                         ids=["one-size", "two-sizes", "even"])
def test_a_pass_stacks_the_prefix_tables_of_one_size(monkeypatch, cross, own, sizes, tables,
                                                     with_energy):
    # A Tabulated self pair reads one table, a Power q = 3 cross pair one per cloud, each
    # of 3 rows for W' and 4 with W; an even profile takes whole-cloud moments and reads
    # none.  A pass takes the prefix sums of each size's tables in one call, and its fields
    # and energy are those of each pair's own plan bit for bit.
    pm = mg.matrix_from_entries([[mg.Zero(), cross, mg.Zero()], [None, mg.Zero(), mg.Zero()],
                                 [None, None, own]], kappa=np.zeros((3, 3)))
    rng = np.random.default_rng(7)
    xs = [np.sort(rng.normal(0.0, 1.0, (N, 1)), axis=0) for N in sizes]
    ws = [rng.uniform(0.1, 1.0, N) for N in sizes]
    built = []
    original = engine._prefix_sums

    def counted(v):
        built.append(v.shape)
        return original(v)

    monkeypatch.setattr(engine, "_prefix_sums", counted)
    fields = engine.pair_fields(pm, xs, ws)
    assert built == tables
    built.clear()
    fields_e, energy = engine.pair_fields(pm, xs, ws, energy=True)
    assert built == with_energy
    f0, f1, e01 = pair_sum(cross, xs[0], ws[0], xs[1], ws[1], energy=True)
    f2, _, e2 = pair_sum(own, xs[2], ws[2], energy=True)
    for f in (fields, fields_e):
        assert all(np.array_equal(a, b) for a, b in zip(f, (f0, f1, f2)))
    assert energy == float(0.5 * (2.0 * e01 + e2))


@pytest.mark.parametrize("kind", [mg.Power(2.5, 0.5), mg.Power(6.0, 0.1), mg.Power(3.5, 1.0),
                                  mg.Morse(1.0, 1.0, 0.5, 0.25, eps=0.1),
                                  mg.GaussianAR(1.0, 1.0, 0.6, 0.2)], ids=kind_id)
def test_other_kinds_keep_the_direct_sum(kind):
    assert getattr(kind, "_profile", None) is None


@pytest.mark.parametrize("kind", PIECEWISE_KINDS, ids=kind_id)
def test_plane_clouds_keep_the_direct_sum(monkeypatch, kind):
    calls = []
    original = type(kind)._deriv

    def counted(self, z):
        calls.append(z.size)
        return original(self, z)

    monkeypatch.setattr(type(kind), "_deriv", counted)
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 1.0, (12, 2))
    pair_sum(kind, x, np.full(12, 1.0 / 12.0))
    assert calls


def grid_clouds(draw, max_points=40):
    """A cloud on the 0.25 grid, possibly with repeated points, and its weights."""
    N = draw(st.integers(1, max_points))
    half_width = draw(st.sampled_from([4, 12, 24]))  # up to 6, wider than the last knot
    k = draw(st.lists(st.integers(-half_width, half_width), min_size=N, max_size=N))
    w = draw(st.lists(st.floats(0.05, 2.0), min_size=N, max_size=N))
    return 0.25 * np.array(k, dtype=float)[:, None], np.array(w)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind", PIECEWISE_KINDS, ids=kind_id)
def test_knot_ties_and_repeated_points_match_direct(kind, data):
    x, wx = grid_clouds(data.draw)
    y, wy = grid_clouds(data.draw)
    assert_all_sums_match(kind, x, wx, y, wy)
