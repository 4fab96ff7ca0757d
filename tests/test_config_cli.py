import dataclasses
import json

import numpy as np
import pytest

from multiagg import cli, quantile_solver
from multiagg.config import KERNEL_KINDS, config_from_dict, potential_from_dict
from multiagg.errors import ConfigError


def minimal_config():
    return {
        "params": {"m": [1.0], "p": [1.0]},
        "potential": {"entries": [[{"kind": "quadratic", "a": 1.0}]], "kappa": [[1.0]]},
    }


def attractive_pair_config(**solver):
    return {
        "params": {"n": 2, "m": [1.0, 1.0], "p": [1.0, 1.0]},
        "potential": {
            "entries": [[{"kind": "quadratic", "a": 2.0}, {"kind": "quadratic", "a": 1.0}],
                        [{"kind": "quadratic", "a": 1.0}, {"kind": "quadratic", "a": 2.0}]],
            "kappa": [[2.0, 1.0], [1.0, 2.0]],
        },
        "initial": {"type": "preset", "name": "uniform",
                    "args": {"lo": [-1.0, 0.0], "hi": [0.0, 1.0]}},
        "M": 32,
        "seed": 7,
        "solver": dict({"dt": 5e-3, "t_end": 1.0, "record_every": 20}, **solver),
    }


def write(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_minimal_config_defaults():
    cfg = config_from_dict(minimal_config())
    assert cfg.M == 256
    assert cfg.solver.dt is None  # resolved from the stability bound at run time
    assert cfg.solver.t_end == 1.0
    assert cfg.seed == 0
    assert cfg.initial_quantile is not None and cfg.initial_quantile.M == 256
    assert cfg.initial_particles is not None


def test_asymmetric_kappa_error_names_field():
    raw = minimal_config()
    raw["params"] = {"m": [1.0, 1.0], "p": [1.0, 1.0]}
    raw["potential"] = {
        "entries": [[{"kind": "zero"}, {"kind": "quadratic", "a": 1.0}],
                    [{"kind": "quadratic", "a": 1.0}, {"kind": "zero"}]],
        "kappa": [[0.0, 1.0], [2.0, 0.0]],
    }
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert any("potential.kappa" in issue for issue in exc.value.issues)


def test_asymmetric_entries_rejected():
    raw = minimal_config()
    raw["params"] = {"m": [1.0, 1.0], "p": [1.0, 1.0]}
    raw["potential"] = {
        "entries": [[{"kind": "zero"}, {"kind": "quadratic", "a": 1.0}],
                    [{"kind": "quadratic", "a": 2.0}, {"kind": "zero"}]],
        "kappa": [[0.0, 1.0], [1.0, 0.0]],
    }
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert any("entries[0][1]" in issue for issue in exc.value.issues)


def test_mass_mismatch_reports_both_totals():
    raw = minimal_config()
    raw["initial"] = {"type": "particles",
                      "species": [{"x": [0.0, 1.0], "mass": [0.3, 0.3]}]}
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    msg = str(exc.value)
    assert "0.6" in msg and "1.0" in msg


def test_declared_center_must_match_initial():
    raw = minimal_config()
    raw["params"]["E"] = 5.0
    raw["initial"] = {"type": "preset", "name": "two_diracs", "args": {"positions": [1.0]}}
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert "params.E" in str(exc.value)
    raw["params"]["E"] = 1.0
    cfg = config_from_dict(raw)
    assert cfg.params.E[0] == 1.0


def test_schema_errors_accumulate():
    raw = {"params": {"m": [1.0, -1.0], "p": [1.0]}, "bogus": 1}
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    issues = exc.value.issues
    assert any("params.m" in s for s in issues)
    assert any("params.p" in s for s in issues)
    assert any("bogus" in s for s in issues)


def test_unknown_kind_and_missing_fields():
    raw = minimal_config()
    raw["potential"]["entries"] = [[{"kind": "lennard_jones"}]]
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert "entries[0][0]" in str(exc.value)
    raw["potential"]["entries"] = [[{"kind": "quadratic"}]]
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert "missing" in str(exc.value)


KIND_SAMPLES = {
    "quadratic": {"a": 1.0},
    "power": {"q": 3.0, "a": 0.5},
    "morse": {"ca": 1.0, "la": 1.0, "cr": 0.5, "lr": 0.25, "eps": 0.1},
    "gaussian_ar": {"ca": 1.0, "la": 1.0, "cr": 0.6, "lr": 0.2},
    "double_well": {"a": 1.0, "b": 0.5},
    "zero": {},
    "tabulated": {"knots": [0.0, 1.0, 2.0], "values": [0.0, 0.5, 2.0],
                  "derivs": [0.0, 1.0, 2.0]},
}


def test_every_kernel_kind_has_a_sample():
    assert set(KIND_SAMPLES) == set(KERNEL_KINDS)


@pytest.mark.parametrize("kind", sorted(KIND_SAMPLES))
def test_kernel_kind_fields_are_its_dataclass_fields(kind):
    cls = KERNEL_KINDS[kind]
    sample = KIND_SAMPLES[kind]
    assert set(sample) == {f.name for f in dataclasses.fields(cls)}
    pot = potential_from_dict(dict(sample, kind=kind), "k")
    assert pot == cls(**sample)
    for name in sample:
        missing = {f: v for f, v in sample.items() if f != name}
        with pytest.raises(ConfigError, match=f"missing \\['{name}'\\]"):
            potential_from_dict(dict(missing, kind=kind), "k")
    with pytest.raises(ConfigError, match="unknown fields \\['extra'\\]"):
        potential_from_dict(dict(sample, kind=kind, extra=1.0), "k")


def test_presets_two_diracs_and_gauss_pair():
    raw = minimal_config()
    raw["M"] = 8
    raw["initial"] = {"type": "preset", "name": "two_diracs", "args": {"positions": [0.5]}}
    cfg = config_from_dict(raw)
    assert np.all(cfg.initial_quantile.u == 0.5)

    raw["initial"] = {"type": "preset", "name": "gauss_pair",
                      "args": {"centers": [-1.0, 1.0], "sigma": 0.1}}
    raw["seed"] = 3
    a = config_from_dict(raw)
    b = config_from_dict(raw)
    assert np.array_equal(a.initial_quantile.u, b.initial_quantile.u)
    c = config_from_dict(raw, seed=4)
    assert not np.array_equal(a.initial_quantile.u, c.initial_quantile.u)
    assert (np.diff(a.initial_quantile.u, axis=1) >= 0.0).all()


def test_quantile_grid_must_be_monotone():
    raw = minimal_config()
    raw["initial"] = {"type": "quantile_grid", "values": [[0.0, -1.0, 1.0]]}
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert "non-decreasing" in str(exc.value)


def test_quantile_grid_fixes_resolution():
    raw = minimal_config()
    raw["M"] = 256
    raw["initial"] = {"type": "quantile_grid", "values": [[0.0, 0.5, 1.0, 2.0]]}
    cfg = config_from_dict(raw)
    assert cfg.M == 4
    assert cfg.initial_quantile.M == 4


def test_cli_analyze_reports_lambda0(tmp_path, capsys):
    path = write(tmp_path, attractive_pair_config())
    assert cli.main(["analyze", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lambda0"] == 2.0
    assert report["irreducible"] is True
    assert report["necessary_ok"] == [True, True]


def test_cli_config_error_exit_code(tmp_path, capsys):
    raw = attractive_pair_config()
    raw["potential"]["kappa"] = [[2.0, 1.0], [0.0, 2.0]]
    path = write(tmp_path, raw)
    assert cli.main(["analyze", "--config", path]) == 2
    assert "potential.kappa" in capsys.readouterr().err
    assert cli.main(["analyze", "--config", str(tmp_path / "absent.json")]) == 2


def test_cli_simulate_outputs_and_determinism(tmp_path, capsys):
    raw = attractive_pair_config()
    raw["initial"] = {"type": "preset", "name": "gauss_pair",
                      "args": {"centers": [-0.5, 0.5], "sigma": 0.2}}
    path = write(tmp_path, raw)
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert cli.main(["simulate", "--config", path, "--out", out1]) == 0
    assert cli.main(["simulate", "--config", path, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    diag = open(out1[:-4] + ".diag.csv").read().splitlines()
    assert diag[0].startswith("t,energy,dissipation,E_invariant,diam_1,diam_2")
    manifest = json.loads(open(out1 + ".manifest.json").read())
    assert manifest["dt"] == 5e-3
    assert manifest["seed"] == 7
    assert manifest["command"] == "simulate"
    assert len(manifest["config_hash"]) == 64


def test_cli_seed_override_changes_output(tmp_path):
    raw = attractive_pair_config()
    raw["initial"] = {"type": "preset", "name": "gauss_pair",
                      "args": {"centers": [-0.5, 0.5], "sigma": 0.2}}
    path = write(tmp_path, raw)
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert cli.main(["simulate", "--config", path, "--out", out1]) == 0
    assert cli.main(["simulate", "--config", path, "--out", out2, "--seed", "99"]) == 0
    assert open(out1, "rb").read() != open(out2, "rb").read()


def test_cli_particles_roundtrip(tmp_path):
    raw = {
        "params": {"m": [1.0], "p": [1.0], "d": 2},
        "potential": {"entries": [[{"kind": "gaussian_ar", "ca": 1.0, "la": 1.0,
                                    "cr": 0.5, "lr": 2.0}]], "kappa": [[0.0]]},
        "initial": {"type": "particles",
                    "species": [{"x": [[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]],
                                 "mass": [0.5, 0.25, 0.25]}]},
        "solver": {"dt": 0.01, "t_end": 0.1, "record_every": 5},
    }
    path = write(tmp_path, raw)
    out = str(tmp_path / "p.csv")
    assert cli.main(["particles", "--config", path, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "t,species,k,mass,x_1,x_2"
    diag = open(out[:-4] + ".diag.csv").read().splitlines()
    assert diag[0] == "t,energy,E_invariant_1,E_invariant_2"


def test_cli_diagnose(tmp_path, capsys):
    raw = attractive_pair_config(t_end=0.5)
    path = write(tmp_path, raw)
    out = str(tmp_path / "traj.csv")
    assert cli.main(["simulate", "--config", path, "--out", out]) == 0
    capsys.readouterr()
    diag_out = str(tmp_path / "diag.json")
    assert cli.main(["diagnose", "--traj", out, "--config", path, "--out", diag_out]) == 0
    payload = json.loads(open(diag_out).read())
    assert payload["records"][0]["t"] == 0.0
    assert {f["quantity"] for f in payload["rate_fits"]} >= {"w2_to_ground"}
    assert payload["records"][-1]["energy"] <= payload["records"][0]["energy"]


def test_cli_verify_paper_example_passes(tmp_path, capsys):
    raw = attractive_pair_config(t_end=1.0)
    path = write(tmp_path, raw)
    code = cli.main(["verify", "--config", path])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["center_conservation"] == "pass"
    assert statuses["contraction"] == "pass"
    assert statuses["delta_separation"] == "pass"
    assert statuses["finite_propagation"] == "pass"
    assert statuses["gradient_consistency"] == "pass"
    assert statuses["ground_state"] == "skipped"  # horizon too short by design
    assert statuses["confinement"] == "skipped"
    assert all(c["status"] in ("pass", "skipped") for c in payload["checks"])
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)


def test_cli_verify_detects_false_declarations(tmp_path, capsys):
    # kappa declares strong convexity the kernels do not have: the contraction
    # bound must fail and the exit code must say so
    raw = attractive_pair_config(t_end=1.0)
    raw["potential"]["entries"] = [
        [{"kind": "quadratic", "a": 0.05}, {"kind": "quadratic", "a": 0.05}],
        [{"kind": "quadratic", "a": 0.05}, {"kind": "quadratic", "a": 0.05}]]
    path = write(tmp_path, raw)
    code = cli.main(["verify", "--config", path])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["contraction"] == "fail"


def test_cli_verify_repulsive_single_species(tmp_path, capsys):
    raw = {
        "params": {"m": [1.0], "p": [1.0]},
        "potential": {"entries": [[{"kind": "quadratic", "a": -0.5}]],
                      "kappa": [[-0.5]]},
        "initial": {"type": "preset", "name": "uniform", "args": {"lo": -1.0, "hi": 1.0}},
        "M": 32,
        "solver": {"dt": 1e-2, "t_end": 2.0, "record_every": 10},
    }
    path = write(tmp_path, raw)
    code = cli.main(["verify", "--config", path])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["contraction"] == "skipped"
    assert statuses["delta_separation"] == "skipped"
    assert statuses["finite_propagation"] == "pass"
    assert statuses["center_conservation"] == "pass"


def test_cli_verify_zero_potential_trivially_passes(tmp_path, capsys):
    raw = {
        "params": {"m": [1.0, 1.0], "p": [1.0, 1.0]},
        "potential": {"entries": [[{"kind": "zero"}, {"kind": "zero"}],
                                  [{"kind": "zero"}, {"kind": "zero"}]],
                      "kappa": [[0.0, 0.0], [0.0, 0.0]]},
        "M": 16,
        "solver": {"dt": 0.05, "t_end": 1.0, "record_every": 4},
    }
    path = write(tmp_path, raw)
    code = cli.main(["verify", "--config", path])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(c["status"] in ("pass", "skipped") for c in payload["checks"])
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["center_conservation"] == "pass"


def test_cli_verify_manifest_records_derived_dt(tmp_path, capsys):
    raw = attractive_pair_config(t_end=0.2)
    del raw["solver"]["dt"]
    path = write(tmp_path, raw)
    cli.main(["verify", "--config", path])
    dt = json.loads(capsys.readouterr().out)["manifest"]["dt"]
    cfg = config_from_dict(raw)
    assert dt > 0.0
    assert dt == quantile_solver.stable_dt(cfg.initial_quantile, cfg.potential,
                                           cfg.solver.cfl_safety)


@pytest.mark.parametrize("kind", [{"kind": "quadratic", "a": 1.0},
                                  {"kind": "gaussian_ar", "ca": 1.0, "la": 1.0,
                                   "cr": 0.5, "lr": 2.0}])
def test_cli_simulate_diag_csv_is_plain_numbers(tmp_path, kind):
    raw = attractive_pair_config(t_end=0.1)
    raw["potential"]["entries"] = [[kind, kind], [kind, kind]]
    raw["potential"]["kappa"] = [[0.0, 0.0], [0.0, 0.0]]
    path = write(tmp_path, raw)
    out = str(tmp_path / "traj.csv")
    assert cli.main(["simulate", "--config", path, "--out", out]) == 0
    rows = [line.split(",") for line in open(str(tmp_path / "traj.diag.csv")).read().splitlines()]
    for row in rows[1:]:
        for cell in row:
            if cell:
                float(cell)


def test_cli_t_end_and_dt_overrides(tmp_path):
    path = write(tmp_path, attractive_pair_config())
    out = str(tmp_path / "t.csv")
    assert cli.main(["simulate", "--config", path, "--out", out,
                     "--t-end", "0.1", "--dt", "0.01"]) == 0
    lines = open(out).read().splitlines()
    last_t = float(lines[-1].split(",")[0])
    assert last_t == 0.1
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["dt"] == 0.01


def test_cli_verify_d2_particles_runs_gradient_check(tmp_path, capsys):
    raw = {
        "params": {"m": [1.0], "p": [1.0], "d": 2},
        "potential": {"entries": [[{"kind": "gaussian_ar", "ca": 1.0, "la": 1.0,
                                    "cr": 0.5, "lr": 2.0}]], "kappa": [[0.0]]},
        "initial": {"type": "particles",
                    "species": [{"x": [[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]],
                                 "mass": [0.5, 0.25, 0.25]}]},
        "solver": {"dt": 0.01, "t_end": 0.1},
    }
    path = write(tmp_path, raw)
    code = cli.main(["verify", "--config", path])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["gradient_consistency"] == "pass"
    assert statuses["center_conservation"] == "pass"


def test_cli_verify_d2_manifest_keeps_configured_dt(tmp_path, capsys):
    raw = {
        "params": {"m": [1.0], "p": [1.0], "d": 2},
        "potential": {"entries": [[{"kind": "quadratic", "a": 1.0}]], "kappa": [[1.0]]},
        "initial": {"type": "particles",
                    "species": [{"x": [[0.0, 0.0], [1.0, 0.5]], "mass": [0.5, 0.5]}]},
        "solver": {"dt": 0.02, "t_end": 0.1},
    }
    path = write(tmp_path, raw)
    cli.main(["verify", "--config", path])
    assert json.loads(capsys.readouterr().out)["manifest"]["dt"] == 0.02


def test_cli_simulate_numeric_failure_exit_code(tmp_path, capsys):
    raw = {
        "params": {"m": [1.0], "p": [1.0]},
        "potential": {"entries": [[{"kind": "power", "q": 6.0, "a": -1e4}]],
                      "kappa": [[0.0]]},
        "initial": {"type": "preset", "name": "uniform", "args": {"lo": -1.0, "hi": 1.0}},
        "M": 8,
        "solver": {"dt": 0.5, "t_end": 50.0, "scheme": "euler", "repair": "none",
                   "record_every": 1},
    }
    path = write(tmp_path, raw)
    out = str(tmp_path / "traj.csv")
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["simulate", "--config", path, "--out", out])
    assert code == 1
    assert "numeric failure" in capsys.readouterr().err
    # partial trajectory was still written
    assert open(out).read().splitlines()[0] == "t,species,cell,u"
