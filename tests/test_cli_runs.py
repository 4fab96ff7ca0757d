"""CLI runs on malformed configs, malformed or short trajectories, and the step a run records."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from multiagg import cli, quantile_solver
from multiagg.config import config_from_dict
from multiagg.errors import ConfigError


def pair_config(**solver):
    return {
        "params": {"m": [1.0, 1.0], "p": [1.0, 1.0]},
        "potential": {
            "entries": [[{"kind": "quadratic", "a": 2.0}, {"kind": "quadratic", "a": 1.0}],
                        [{"kind": "quadratic", "a": 1.0}, {"kind": "quadratic", "a": 2.0}]],
            "kappa": [[2.0, 1.0], [1.0, 2.0]],
        },
        "initial": {"type": "preset", "name": "uniform",
                    "args": {"lo": [-1.0, 0.0], "hi": [0.0, 1.0]}},
        "M": 16,
        "seed": 7,
        "solver": dict({"dt": 0.01, "t_end": 0.1, "record_every": 2}, **solver),
    }


def write(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def simulated_rows(tmp_path, cfg):
    """(config path, header, data rows) of a simulate run."""
    config = write(tmp_path / "run.json", cfg)
    traj = str(tmp_path / "traj.csv")
    assert cli.main(["simulate", "--config", config, "--out", traj]) == 0
    with open(traj, newline="") as fh:
        rows = list(csv.reader(fh))
    return config, rows[0], rows[1:]


def diagnose(tmp_path, config, header, rows):
    traj = tmp_path / "edited.csv"
    with open(traj, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    return cli.main(["diagnose", "--traj", str(traj), "--config", config])


def test_diagnose_rejects_snapshot_with_missing_cell(tmp_path, capsys):
    config, header, rows = simulated_rows(tmp_path, pair_config())
    rows = [r for r in rows if r[:3] != ["0.02", "1", "5"]]
    assert diagnose(tmp_path, config, header, rows) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "t=0.02" in err and "incomplete" in err


def test_diagnose_rejects_species_count_other_than_config(tmp_path, capsys):
    _, header, rows = simulated_rows(tmp_path, pair_config())
    single = {"params": {"m": [1.0], "p": [1.0]},
              "potential": {"entries": [[{"kind": "quadratic", "a": 1.0}]], "kappa": [[1.0]]},
              "M": 16}
    config = write(tmp_path / "single.json", single)
    assert diagnose(tmp_path, config, header, rows) == 2
    assert "is a 2x16 grid, expected 1x16" in capsys.readouterr().err


def test_diagnose_rejects_resolution_change(tmp_path, capsys):
    config, header, rows = simulated_rows(tmp_path, pair_config())
    last = rows[-1][0]
    rows = [r for r in rows if not (r[0] == last and r[2] == "15")]
    assert diagnose(tmp_path, config, header, rows) == 2
    assert "is a 2x15 grid, expected 2x16" in capsys.readouterr().err


def test_diagnose_rejects_trajectory_without_snapshots(tmp_path, capsys):
    config, header, _ = simulated_rows(tmp_path, pair_config())
    assert diagnose(tmp_path, config, header, []) == 2
    assert "no snapshot" in capsys.readouterr().err


def test_diagnose_rejects_header_without_u_column(tmp_path, capsys):
    config, header, rows = simulated_rows(tmp_path, pair_config())
    header = ["value" if c == "u" else c for c in header]
    assert diagnose(tmp_path, config, header, rows) == 2
    err = capsys.readouterr().err
    assert "config error: traj:" in err and "lacks column(s) u" in err


def test_diagnose_rejects_truncated_row(tmp_path, capsys):
    config, header, rows = simulated_rows(tmp_path, pair_config())
    rows[5] = rows[5][:3]
    assert diagnose(tmp_path, config, header, rows) == 2
    err = capsys.readouterr().err
    assert "config error: traj:" in err and "line 7 has fewer fields" in err


def test_diagnose_short_run_reports_records_without_fits(tmp_path, capsys):
    # One step with record_every=10: the initial and the final snapshot only.
    config, header, rows = simulated_rows(tmp_path, pair_config(t_end=0.01, record_every=10))
    capsys.readouterr()
    assert diagnose(tmp_path, config, header, rows) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["t"] for r in payload["records"]] == [0.0, 0.01]
    assert payload["rate_fits"] == []


@pytest.mark.parametrize("command", ["simulate", "particles"])
def test_manifest_records_the_derived_step(tmp_path, command):
    raw = pair_config()
    del raw["solver"]["dt"]
    config = write(tmp_path / "run.json", raw)
    out = str(tmp_path / "out.csv")
    assert cli.main([command, "--config", config, "--out", out]) == 0
    cfg = config_from_dict(raw)
    state = cfg.initial_quantile if command == "simulate" else cfg.initial_particles
    expected = quantile_solver.stable_dt(state, cfg.potential, cfg.solver.cfl_safety)
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["dt"] == expected


def particle_initial(x0=(0.0, 1.0), mass0=(0.5, 0.5)):
    return {"type": "particles", "species": [{"x": list(x0), "mass": list(mass0)},
                                             {"x": [0.0], "mass": [1.0]}]}


MALFORMED = {
    "particle_mass_zero": ("initial", particle_initial(mass0=[1.0, 0.0])),
    "particle_mass_negative": ("initial", particle_initial(mass0=[1.5, -0.5])),
    "quantile_grid_nan": ("initial", {"type": "quantile_grid",
                                      "values": [[0.0, float("nan")], [0.0, 1.0]]}),
    "quantile_grid_infinity": ("initial", {"type": "quantile_grid",
                                           "values": [[0.0, float("inf")], [0.0, 1.0]]}),
    "ragged_particle_x": ("initial", particle_initial(x0=[[0.0], [1.0, 2.0]])),
    "ragged_quantile_grid": ("initial", {"type": "quantile_grid",
                                         "values": [[0.0, 1.0], [0.0]]}),
    "quantile_grid_empty": ("initial", {"type": "quantile_grid", "values": [[], []]}),
    "string_coordinate": ("initial", particle_initial(x0=[0.0, "a"])),
    "gauss_pair_string_sigma": ("initial", {"type": "preset", "name": "gauss_pair",
                                            "args": {"sigma": "x"}}),
    "gauss_pair_zero_weights": ("initial", {"type": "preset", "name": "gauss_pair",
                                            "args": {"weights": [0.0, 0.0]}}),
    "mobility_nan": ("params", {"m": [float("nan"), 1.0], "p": [1.0, 1.0]}),
    "t_end_nan": ("solver", {"dt": 0.01, "t_end": float("nan")}),
    "kernel_field_nan": ("potential", dict(pair_config()["potential"], entries=[
        [{"kind": "quadratic", "a": float("nan")}, {"kind": "quadratic", "a": 1.0}],
        [{"kind": "quadratic", "a": 1.0}, {"kind": "quadratic", "a": 2.0}]])),
    "gaussian_ar_overflowing_ca_over_la": ("potential", dict(pair_config()["potential"], entries=[
        [{"kind": "gaussian_ar", "ca": 1.0, "la": 1e-310, "cr": 0.6, "lr": 0.2},
         {"kind": "quadratic", "a": 1.0}],
        [{"kind": "quadratic", "a": 1.0}, {"kind": "quadratic", "a": 2.0}]])),
    "morse_eps_squared_underflows": ("potential", dict(pair_config()["potential"], entries=[
        [{"kind": "morse", "ca": 1.0, "la": 1.0, "cr": 0.5, "lr": 0.25, "eps": 1e-170},
         {"kind": "quadratic", "a": 1.0}],
        [{"kind": "quadratic", "a": 1.0}, {"kind": "quadratic", "a": 2.0}]])),
    "tabulated_slope_overflows": ("potential", dict(pair_config()["potential"], entries=[
        [{"kind": "tabulated", "knots": [0.0, 1e-310], "values": [0.0, 1.0],
          "derivs": [0.0, 0.0]}, {"kind": "quadratic", "a": 1.0}],
        [{"kind": "quadratic", "a": 1.0}, {"kind": "quadratic", "a": 2.0}]])),
    "solver_dt_bool": ("solver", {"dt": True, "t_end": True}),
    "solver_dt_string": ("solver", {"dt": "0.1", "t_end": 1.0}),
    "uniform_bool_lo": ("initial", {"type": "preset", "name": "uniform",
                                    "args": {"lo": True, "hi": 2.0}}),
    "uniform_string_hi": ("initial", {"type": "preset", "name": "uniform",
                                      "args": {"lo": 0.0, "hi": "2.0"}}),
    "asymmetric_entries": ("potential", dict(pair_config()["potential"], entries=[
        [{"kind": "quadratic", "a": 2.0}, {"kind": "quadratic", "a": 1.0}],
        [{"kind": "quadratic", "a": 0.5}, {"kind": "quadratic", "a": 2.0}]])),
    # Misspelt or unknown keys: each would otherwise fall back to a default silently.
    "unknown_section": ("outputs", {"dir": "."}),
    "unknown_params_field": ("params", {"m": [1.0, 1.0], "p": [1.0, 1.0], "dim": 2}),
    "unknown_potential_field": ("potential", dict(pair_config()["potential"], confinig={
        "R": 1.0, "C": [[1.0, 1.0], [1.0, 1.0]]})),
    "unknown_confining_field": ("potential", dict(pair_config()["potential"], confining={
        "R": 1.0, "C": [[1.0, 1.0], [1.0, 1.0]], "radius": 2.0})),
    "unknown_kernel_field": ("potential", dict(pair_config()["potential"], entries=[
        [{"kind": "quadratic", "a": 2.0, "b": 1.0}, {"kind": "quadratic", "a": 1.0}],
        [{"kind": "quadratic", "a": 1.0}, {"kind": "quadratic", "a": 2.0}]])),
    "unknown_initial_field": ("initial", dict(particle_initial(), name="uniform")),
    "unknown_species_field": ("initial", {"type": "particles", "species": [
        {"x": [0.0, 1.0], "mass": [0.5, 0.5]}, {"x": [0.0], "mass": [1.0], "weight": [1.0]}]}),
    "unknown_preset_arg": ("initial", {"type": "preset", "name": "uniform",
                                       "args": {"low": 5.0, "hi": 7.0}}),
    "unknown_solver_field": ("solver", {"dt": 0.01, "t_end": 0.1, "step": 0.1}),
}


def malformed_config(case):
    raw = pair_config()
    key, value = MALFORMED[case]
    raw[key] = value
    return raw


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_is_a_config_error(tmp_path, capsys, case):
    config = write(tmp_path / "bad.json", malformed_config(case))
    assert cli.main(["analyze", "--config", config]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("case,path", [("uniform_bool_lo", "initial.args.lo"),
                                       ("uniform_string_hi", "initial.args.hi"),
                                       ("gauss_pair_string_sigma", "initial.args.sigma"),
                                       ("gauss_pair_zero_weights", "initial.args.weights")])
def test_preset_argument_errors_name_their_path(tmp_path, capsys, case, path):
    config = write(tmp_path / "bad.json", malformed_config(case))
    assert cli.main(["analyze", "--config", config]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err


def test_asymmetric_entries_name_the_pair(tmp_path, capsys):
    config = write(tmp_path / "bad.json", malformed_config("asymmetric_entries"))
    assert cli.main(["analyze", "--config", config]) == 2
    assert capsys.readouterr().err == ("config error: potential.entries: entries[0][1] != "
                                       "entries[1][0] (interaction kernels must be symmetric)\n")


@pytest.mark.parametrize("case,path,unknown", [
    ("unknown_section", "config", ["outputs"]),
    ("unknown_params_field", "params", ["dim"]),
    ("unknown_potential_field", "potential", ["confinig"]),
    ("unknown_confining_field", "potential.confining", ["radius"]),
    ("unknown_kernel_field", "potential.entries[0][0]", ["b"]),
    ("unknown_initial_field", "initial", ["name"]),
    ("unknown_species_field", "initial.species[1]", ["weight"]),
    ("unknown_preset_arg", "initial.args", ["low"]),
    ("unknown_solver_field", "solver", ["step"]),
])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_unknown_fields_are_named_with_their_path(tmp_path, capsys, case, path, unknown,
                                                  command):
    config = write(tmp_path / "bad.json", malformed_config(case))
    assert cli.main([command, "--config", config]) == 2
    assert f"config error: {path}: unknown fields {unknown} (expected " in capsys.readouterr().err


@pytest.mark.parametrize("p,potential", [
    ([], {"entries": [], "kappa": []}),
    ([], pair_config()["potential"]),
    ([1.0], pair_config()["potential"]),
], ids=["no_kernels", "one_kernel", "one_mass"])
def test_no_species_is_a_config_error(tmp_path, capsys, p, potential):
    raw = dict(pair_config(), params={"m": [], "p": p}, potential=potential)
    config = write(tmp_path / "bad.json", raw)
    assert cli.main(["analyze", "--config", config]) == 2
    assert capsys.readouterr().err == "config error: params.m: expected at least one species\n"


def test_malformed_config_exits_2_without_traceback(tmp_path):
    config = write(tmp_path / "bad.json", malformed_config("ragged_particle_x"))
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "multiagg.cli", "analyze", "--config", config],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "config error: initial:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_empty_quantile_grid_is_named_without_numpy_warnings(tmp_path, command):
    config = write(tmp_path / "bad.json", malformed_config("quantile_grid_empty"))
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "multiagg.cli", command, "--config", config,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "config error: initial:" in proc.stderr and "quantile grid" in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("every", [2.5, True])
def test_record_every_must_be_an_integer(every):
    with pytest.raises(ConfigError, match="record_every"):
        config_from_dict(pair_config(record_every=every))


def test_verify_out_writes_the_report_and_nothing_to_stdout(tmp_path, capsys):
    config = write(tmp_path / "run.json", pair_config())
    out = tmp_path / "verify.json"
    cli.main(["verify", "--config", config, "--out", str(out)])
    assert capsys.readouterr().out == ""
    assert "checks" in json.loads(out.read_text())


def test_diagnose_missing_trajectory_is_a_config_error(tmp_path, capsys):
    config = write(tmp_path / "run.json", pair_config())
    missing = str(tmp_path / "missing.csv")
    assert cli.main(["diagnose", "--traj", missing, "--config", config]) == 2
    assert f"config error: {missing}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "particles", "analyze", "verify"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, command):
    config = write(tmp_path / "run.json", pair_config())
    out = str(tmp_path / "no_such_dir" / "out.csv")
    assert cli.main([command, "--config", config, "--out", out]) == 2
    assert f"config error: {out}: " in capsys.readouterr().err


def test_numeric_failure_prints_one_line_and_no_numpy_warning(tmp_path):
    # Power with q = 6 is summed directly, and its tiles overflow before the
    # checked velocity raises.
    cfg = {
        "params": {"m": [1.0], "p": [1.0]},
        "potential": {"entries": [[{"kind": "power", "q": 6.0, "a": -1e4}]], "kappa": [[0.0]]},
        "initial": {"type": "preset", "name": "gauss_pair", "args": {"sigma": 0.3}},
        "solver": {"dt": 0.05, "t_end": 1.0},
        "M": 16,
    }
    config = write(tmp_path / "blowup.json", cfg)
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "multiagg.cli", "simulate", "--config", config,
                           "--out", str(tmp_path / "traj.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure:"), proc.stderr


def plane_config():
    """Two species of atoms in the plane."""
    quad = {"kind": "quadratic", "a": 0.5}
    return {
        "params": {"m": [1.0, 0.5], "p": [1.0, 0.8], "d": 2},
        "potential": {"entries": [[{"kind": "gaussian_ar", "ca": 1.0, "la": 1.0, "cr": 0.5,
                                    "lr": 0.3}, quad],
                                  [quad, {"kind": "power", "q": 4.0, "a": 0.1}]],
                      "kappa": [[0.0, 0.5], [0.5, 0.0]]},
        "initial": {"type": "particles", "species": [
            {"x": [[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]], "mass": [0.5, 0.25, 0.25]},
            {"x": [[0.3, -0.2], [-1.0, 0.4]], "mass": [0.4, 0.4]}]},
        "solver": {"dt": 0.01, "t_end": 0.1, "record_every": 5},
    }


@pytest.mark.parametrize("command,raw,outputs", [
    ("simulate", dict(pair_config(), initial={"type": "preset", "name": "gauss_pair",
                                              "args": {"sigma": 0.3}}),
     ["out.csv", "out.csv.manifest.json", "out.diag.csv"]),
    ("particles", plane_config(), ["out.csv", "out.csv.manifest.json", "out.diag.csv"]),
    ("verify", pair_config(), ["out.json"]),
])
def test_identical_config_and_seed_reproduce_identical_files(tmp_path, command, raw, outputs):
    files = []
    for run in ("first", "second"):
        work = tmp_path / run
        work.mkdir()
        config = write(work / "run.json", raw)
        out = work / outputs[0]
        assert cli.main([command, "--config", config, "--out", str(out)]) == 0
        files.append({f.name: f.read_bytes() for f in sorted(work.iterdir())})
    assert sorted(files[0]) == sorted(["run.json"] + outputs)
    assert files[0] == files[1]
