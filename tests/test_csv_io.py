"""CSV snapshot I/O: byte identity with a csv.writer reference, round trips, parsing, repeats."""

import csv
import json
import random
import re
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import multiagg as mg
from multiagg import cli, measures
from multiagg.diagnostics import DiagnosticsRecord
from multiagg.measures import read_quantile_csv, write_particle_csv, write_quantile_csv

SPECIAL = [-0.0, 5e-324, 1e308, 0.1, 3.0, -2.0, 0.0, 1e-7, 123456789.0]
TIMES = [-0.0, 5e-324, 0.1, 2.0, 1e308]  # every file gets these in its t column


# --- reference writers: the row-at-a-time csv.writer code these replace ---

def ref_quantile_csv(path, times, states):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t", "species", "cell", "u"))
        for t, qs in zip(times, states):
            for i in range(qs.n):
                for k in range(qs.M):
                    writer.writerow([repr(float(t)), i, k, repr(float(qs.u[i, k]))])


def ref_particle_csv(path, times, states):
    d = states[0].params.d
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "species", "k", "mass"] + [f"x_{a + 1}" for a in range(d)])
        for t, ps in zip(times, states):
            for i in range(ps.n):
                for k in range(ps.positions[i].shape[0]):
                    writer.writerow([repr(float(t)), i, k, repr(float(ps.masses[i][k]))]
                                    + [repr(float(v)) for v in ps.positions[i][k]])


def ref_quantile_diag_csv(path, records, n):
    header = (["t", "energy", "dissipation", "E_invariant"]
              + [f"diam_{i + 1}" for i in range(n)]
              + [f"supp_lo_{i + 1}" for i in range(n)]
              + [f"supp_hi_{i + 1}" for i in range(n)]
              + ["w2_to_ground"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in records:
            row = [repr(float(v)) for v in (r.t, r.energy, r.dissipation, r.E_invariant)]
            row += [repr(float(v)) for v in r.diam]
            row += [repr(float(v)) for v in r.supp_lo]
            row += [repr(float(v)) for v in r.supp_hi]
            row.append("" if r.w2_to_ground is None else repr(float(r.w2_to_ground)))
            writer.writerow(row)


def ref_particle_diag_csv(path, traj, d):
    header = ["t", "energy"] + [f"E_invariant_{a + 1}" for a in range(d)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, state, en in zip(traj.times, traj.states, traj.energies):
            center = measures.weighted_center_of_mass(state)
            writer.writerow([repr(float(t)), repr(float(en))]
                            + [repr(float(v)) for v in center])


def special(rng, shape):
    """Values drawn from SPECIAL and a normal sample, in float64."""
    pick = rng.random(shape) < 0.5
    return np.where(pick, rng.choice(SPECIAL, size=shape), rng.normal(size=shape))


def same_bytes(tmp_path, write, ref, *args):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write(ours, *args)
    ref(theirs, *args)
    assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("n", [1, 3])
def test_quantile_writers_match_csv_writer_bytes(tmp_path, n):
    rng = np.random.default_rng(n)
    params = mg.SystemParams(m=[1.0] * n, p=[1.0] * n, E=[0.0])
    states = [mg.QuantileState(special(rng, (n, 7)), params) for _ in TIMES]
    same_bytes(tmp_path, write_quantile_csv, ref_quantile_csv, TIMES, states)

    records = []
    for t in TIMES:
        lo, hi = special(rng, n), special(rng, n)
        records.append(DiagnosticsRecord(
            t=t, energy=float(rng.choice(SPECIAL)), dissipation=np.float64(-0.0),
            E_invariant=np.float64(rng.normal()), supp_lo=lo, supp_hi=hi, diam=hi - lo,
            w2_to_ground=None if n == 1 else np.float64(rng.choice(SPECIAL))))
    same_bytes(tmp_path, cli._write_quantile_diag_csv, ref_quantile_diag_csv, records, n)
    same_bytes(tmp_path, cli._write_quantile_diag_csv, ref_quantile_diag_csv, [], n)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_particle_writers_match_csv_writer_bytes(tmp_path, n, d):
    rng = np.random.default_rng(10 * n + d)
    params = mg.SystemParams(m=[1.0] * n, p=[1.0] * n, E=[0.0] * d, d=d)
    counts = [1, 4, 2][:n]
    masses = [np.full(N, 1.0 / N) for N in counts]
    states = [mg.ParticleState([special(rng, (N, d)) for N in counts], masses, params)
              for _ in TIMES]
    same_bytes(tmp_path, write_particle_csv, ref_particle_csv, TIMES, states)

    # The writer reads each record's centre (a number in d = 1, as diagnostics.record
    # stores it); the reference recomputes it from the states.
    centers = [measures.weighted_center_of_mass(s) for s in states]
    records = [SimpleNamespace(E_invariant=float(c[0]) if d == 1 else c) for c in centers]
    traj = SimpleNamespace(times=TIMES, states=states, records=records,
                           energies=[np.float64(v) for v in (1e308, -0.0, 0.1, 4.0, 5e-324)])
    same_bytes(tmp_path, cli._write_particle_diag_csv, ref_particle_diag_csv, traj, d)


finite = st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(params=[None, 1, 2, 3], ids=lambda c: f"chunk={c or 'default'}")
def chunk(request, monkeypatch):
    """The reader's rows per parse: its own, or so few that every file spans chunks."""
    if request.param:
        monkeypatch.setattr(measures, "_CHUNK", request.param)
    return measures._CHUNK


# The patched chunk size holds for every example, so one fixture per test is right.
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 3), st.integers(1, 4), st.lists(finite, min_size=1, max_size=4, unique=True),
       st.data())
def test_write_then_read_is_bit_exact(chunk, n, M, times, data):
    params = mg.SystemParams(m=[1.0] * n, p=[1.0] * n, E=[0.0])
    u = [np.array(data.draw(st.lists(finite, min_size=n * M, max_size=n * M))).reshape(n, M)
         for _ in times]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traj.csv"
        write_quantile_csv(path, times, [mg.QuantileState(g, params) for g in u])
        times2, states2 = read_quantile_csv(path, params)
    assert np.array(times2).tobytes() == np.array(times).tobytes()
    for g, qs in zip(u, states2):
        assert qs.u.tobytes() == g.tobytes()


def pair_params():
    return mg.SystemParams(m=[1.0, 1.0], p=[1.0, 1.0], E=[0.0])


def canonical(tmp_path):
    """A 2-species, 3-cell trajectory of two snapshots as written, and as read."""
    rng = np.random.default_rng(4)
    states = [mg.QuantileState(rng.normal(size=(2, 3)), pair_params()) for _ in range(2)]
    path = tmp_path / "traj.csv"
    write_quantile_csv(path, [0.0, 0.5], states)
    return path.read_bytes().decode(), read_quantile_csv(path, pair_params())


def read_text(tmp_path, text):
    path = tmp_path / "edited.csv"
    path.write_text(text, newline="")
    return read_quantile_csv(path, pair_params())


def assert_same(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1], want[1]):
        assert np.array_equal(a.u, b.u)


def test_reader_takes_what_csv_reader_takes(tmp_path, chunk):
    text, want = canonical(tmp_path)
    lines = text.split("\r\n")[:-1]
    rows = [line.split(",") for line in lines]

    assert_same(read_text(tmp_path, "\n".join(lines) + "\n"), want)
    assert_same(read_text(tmp_path, "\r\n\r\n".join(lines) + "\r\n\r\n"), want)
    quoted = [",".join(f'"{f}"' for f in row) for row in rows]
    assert_same(read_text(tmp_path, "\r\n".join(quoted) + "\r\n"), want)
    extra = [",".join(row + ["x" if k == 0 else str(k)]) for k, row in enumerate(rows)]
    assert_same(read_text(tmp_path, "\r\n".join(extra) + "\r\n"), want)
    reordered = [",".join([row[3], row[2], row[0], row[1]]) for row in rows]
    assert_same(read_text(tmp_path, "\r\n".join(reordered) + "\r\n"), want)
    # Rows in any order; snapshots in order of their first row.
    shuffled = lines[:1] + lines[1:7][::-1] + lines[7:][::-1]
    assert_same(read_text(tmp_path, "\r\n".join(shuffled) + "\r\n"), want)
    backwards = lines[:1] + lines[1:][::-1]
    assert_same(read_text(tmp_path, "\r\n".join(backwards) + "\r\n"),
                (want[0][::-1], want[1][::-1]))


@pytest.mark.parametrize("rows, where", [
    (["0.0,0,1,2.0", "0.0,0,0,1.0", "0.0,0,1,5.0"], "t=0.0 repeats species 0 cell 1"),
    (["0.0,0,0,1.0", "0.0,0,1,2.0", "0.5,0,0,1.5", "0.5,0,1,2.5", "0.0,0,1,-7.0"],
     "t=0.0 repeats species 0 cell 1"),
])
def test_reader_rejects_repeated_cells(tmp_path, chunk, rows, where):
    one = mg.SystemParams(m=[1.0], p=[1.0], E=[0.0])
    path = tmp_path / "traj.csv"
    path.write_text("\r\n".join(["t,species,cell,u"] + rows) + "\r\n", newline="")
    with pytest.raises(ValueError, match=where):
        read_quantile_csv(path, one)


@pytest.mark.parametrize("body, want", [
    (["0.0,0,0,1.0", "0.0,0,-1,2.0"], "snapshot t=0.0 is incomplete: 2 of 1x1 values"),
    # A grid this size is refused from the counts, never allocated.
    (["0.0,0,1000000000000,1.0"], "snapshot t=0.0 is incomplete: 1 of 1x1000000000001 values"),
    ([], "the trajectory holds no snapshot"),
    # A 2x2 grid for one species, with cell 1 of species 1 given as a second cell 0.
    (["0.0,1,0,1.0", "0.0,0,0,1.0", "0.0,0,1,1.0", "0.0,1,0,2.0"],
     "snapshot t=0.0 repeats species 1 cell 0"),
    (["inf,0,0,1.0", "0.0,0,x,1.0"], "invalid literal for int() with base 10: 'x'"),
    (["-0.0,0,0,1.0", "0.0,0,1,2.0"], ([-0.0], [[[1.0, 2.0]]])),
])
def test_reader_outcomes(tmp_path, chunk, body, want):
    one = mg.SystemParams(m=[1.0], p=[1.0], E=[0.0])
    path = tmp_path / "traj.csv"
    path.write_text("\r\n".join(["t,species,cell,u"] + body) + "\r\n", newline="")
    if isinstance(want, str):
        with pytest.raises(ValueError, match=re.escape(want)):
            read_quantile_csv(path, one)
        return
    times, states = read_quantile_csv(path, one)
    assert np.array(times).tobytes() == np.array(want[0]).tobytes()
    assert np.array([qs.u for qs in states]).tobytes() == np.array(want[1]).tobytes()


def test_reader_refuses_a_grid_past_int64_from_the_counts(tmp_path, chunk):
    # 2 x (2**62 + 1) cells overflow an int64 slot index; the grid is refused, not indexed.
    path = tmp_path / "traj.csv"
    path.write_text("t,species,cell,u\r\n0.5,0,4611686018427387904,1.0\r\n", newline="")
    with pytest.raises(ValueError, match=re.escape(
            "snapshot t=0.5 is incomplete: 1 of 1x4611686018427387905 values")):
        read_quantile_csv(path, pair_params())


def test_reader_rejects_non_finite_times(tmp_path, chunk):
    one = mg.SystemParams(m=[1.0], p=[1.0], E=[0.0])
    path = tmp_path / "traj.csv"
    path.write_text("t,species,cell,u\r\ninf,0,0,1.0\r\n", newline="")
    with pytest.raises(ValueError, match="t=inf: times must be finite"):
        read_quantile_csv(path, one)


def test_reader_names_a_non_finite_value(tmp_path, chunk):
    # The value's time, species and cell; before the fault of a later snapshot, after one of
    # its own snapshot.
    two = mg.SystemParams(m=[1.0, 1.0], p=[1.0, 1.0], E=[0.0])
    path = tmp_path / "traj.csv"
    rows = ["0.0,0,0,1.0", "0.0,0,1,2.0", "0.0,1,0,1.0", "0.0,1,1,2.0",
            "0.01,0,0,1.0", "0.01,0,1,2.0", "0.01,1,0,nan", "0.01,1,1,-inf",
            "0.02,0,0,1.0"]
    path.write_text("t,species,cell,u\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"^snapshot t=0\.01: species 1 cell 0 is not finite$"):
        read_quantile_csv(path, two)
    path.write_text("t,species,cell,u\n" + "\n".join(rows[:6] + rows[7:]) + "\n")
    with pytest.raises(ValueError, match=r"^snapshot t=0\.01 is incomplete: 3 of 2x2 values$"):
        read_quantile_csv(path, two)


def test_reader_ends_on_a_full_chunk(tmp_path, chunk):
    # Two snapshots of `chunk` cells fill two chunks exactly; the third read finds no row.
    one = mg.SystemParams(m=[1.0], p=[1.0], E=[0.0])
    rng = np.random.default_rng(5)
    states = [mg.QuantileState(rng.normal(size=(1, chunk)), one) for _ in range(2)]
    path = tmp_path / "traj.csv"
    write_quantile_csv(path, [0.0, 1.0], states)
    times, got = read_quantile_csv(path, one)
    assert times == [0.0, 1.0]
    assert all(np.array_equal(a.u, b.u) for a, b in zip(got, states))


def large_trajectory(tmp_path):
    """100 snapshots of 2 species on 1024 cells, 204,800 rows, as written."""
    params = pair_params()
    rng = np.random.default_rng(6)
    states = [mg.QuantileState(rng.normal(size=(2, 1024)), params) for _ in range(100)]
    path = tmp_path / "traj.csv"
    write_quantile_csv(path, [0.01 * s for s in range(100)], states)
    return path


def traced_read(path):
    """read_quantile_csv's result and its traced peak in bytes."""
    tracemalloc.start()
    try:
        got = read_quantile_csv(path, pair_params())
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reader_peak_memory_per_row(tmp_path):
    # Parsing the whole body at once held 88 bytes per row at the peak, and keeping every
    # chunk as compact columns until the end about 38; scattering each chunk into its
    # snapshots as it is parsed stays under 16, the 8-byte result included.
    _, peak = traced_read(large_trajectory(tmp_path))
    assert peak <= 16 * 204_800


@pytest.mark.parametrize("order", ["shuffled", "reversed"])
def test_reader_row_order_at_scale(tmp_path, order):
    # Each snapshot's rows after its first moved to the end in seeded random order, as
    # CI shuffles them, or each snapshot's rows reversed, so that its first row holds its
    # largest cell: both read as the file written, within 40 bytes per row.
    path = large_trajectory(tmp_path)
    want = read_quantile_csv(path, pair_params())
    header, *rows = path.read_text().splitlines(keepends=True)
    by_time: dict = {}
    for row in rows:
        by_time.setdefault(row.split(",", 1)[0], []).append(row)
    if order == "shuffled":
        rest = [row for block in by_time.values() for row in block[1:]]
        random.Random(23).shuffle(rest)
        rows = [block[0] for block in by_time.values()] + rest
    else:
        rows = [row for block in by_time.values() for row in block[::-1]]
    path.write_text(header + "".join(rows))
    (times, states), peak = traced_read(path)
    assert np.array(times).tobytes() == np.array(want[0]).tobytes()
    assert all(a.u.tobytes() == b.u.tobytes() for a, b in zip(states, want[1]))
    assert peak <= 40 * 204_800


def pair_config():
    return {
        "params": {"m": [1.0, 1.0], "p": [1.0, 1.0]},
        "potential": {"entries": [[{"kind": "quadratic", "a": 1.0}] * 2] * 2,
                      "kappa": [[1.0, 1.0], [1.0, 1.0]]},
        "M": 3,
    }


def diagnose(tmp_path, text, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(pair_config()))
    traj = tmp_path / "traj.csv"
    traj.write_text(text, newline="")
    code = cli.main(["diagnose", "--traj", str(traj), "--config", str(config)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("value", ["1.5", "x"])
def test_diagnose_rejects_a_species_that_is_no_integer(tmp_path, capsys, chunk, value):
    text, _ = canonical(tmp_path)
    lines = text.split("\r\n")
    fields = lines[4].split(",")
    fields[1] = value
    lines[4] = ",".join(fields)
    code, err = diagnose(tmp_path, "\r\n".join(lines), capsys)
    assert code == 2
    assert "config error: traj:" in err and f"'{value}'" in err


def test_diagnose_rejects_a_repeated_cell(tmp_path, capsys, chunk):
    text, _ = canonical(tmp_path)
    lines = text.split("\r\n")[:-1]
    code, err = diagnose(tmp_path, "\r\n".join(lines + [lines[2]]) + "\r\n", capsys)
    assert code == 2
    assert "config error: traj: snapshot t=0.0 repeats species 0 cell 1" in err


@pytest.mark.parametrize("command", ["simulate", "particles"])
def test_non_finite_record_is_a_numeric_failure(tmp_path, capsys, command):
    # The field a|z|^5 stays finite at |z| = 2e60 while the energy a|z|^6/6 overflows.
    cfg = {
        "params": {"m": [1.0], "p": [1.0]},
        "potential": {"entries": [[{"kind": "power", "q": 6.0, "a": 1e-300}]],
                      "kappa": [[0.0]]},
        "initial": {"type": "quantile_grid", "values": [[-1e60, 1e60]]},
        "solver": {"dt": 1e-300, "t_end": 1e-300, "scheme": "euler"},
    }
    config = tmp_path / "inf.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "traj.csv"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: non-finite energy recorded at t=0.0")
    assert "'i': 0, 'j': 0, 'k': 0, 'l': 1" in err
    assert not out.exists()


def test_non_finite_record_carries_the_partial_trajectory():
    # One repulsive step takes |z| from 2e10 to about 3e55: the field stays
    # finite there while the energy overflows.
    pm = mg.matrix_from_entries([[mg.Power(q=6.0, a=-1.0)]], kappa=[[0.0]])
    qs = mg.QuantileState(np.array([[-1e10, 1e10]]), mg.SystemParams(m=[1.0], p=[1.0], E=[0.0]))
    cfg = mg.SolverConfig(dt=1e4, t_end=1e4, scheme="euler", repair="none")
    with pytest.raises(mg.NumericsError) as exc:
        mg.run(qs, pm, cfg)
    assert exc.value.witness == {"t": 1e4, "quantity": "energy", "i": 0, "j": 0, "k": 0, "l": 1}
    assert exc.value.partial.times == [0.0]
    assert len(exc.value.partial.states) == len(exc.value.partial.records) == 1


def test_non_finite_centre_in_the_plane_names_its_axis():
    # The weighted centre of two points at y = 1e308 with p / m = 2 overflows on axis 1.
    pm = mg.matrix_from_entries([[mg.Zero(), mg.Zero()], [None, mg.Zero()]],
                                kappa=np.zeros((2, 2)))
    xs = [np.array([[0.0, 1e308], [0.0, 1e308]]), np.zeros((1, 2))]
    params = mg.SystemParams(m=[0.5, 1.0], p=[1.0, 1.0], E=[0.0, 0.0], d=2)
    ps = mg.ParticleState(xs, [np.full(2, 0.5), np.ones(1)], params)
    with pytest.raises(mg.NumericsError) as exc:
        mg.run(ps, pm, mg.SolverConfig(dt=0.1, t_end=0.1))
    assert exc.value.witness == {"t": 0.0, "quantity": "E_invariant", "axis": 1}
    assert exc.value.partial.times == []


def test_empty_particle_trajectory_is_refused_before_the_file_opens(tmp_path):
    path = tmp_path / "empty.csv"
    with pytest.raises(ValueError, match="empty particle trajectory"):
        write_particle_csv(path, [], [])
    assert not path.exists()
