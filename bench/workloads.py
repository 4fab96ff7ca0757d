"""Benchmark workloads: seeded config generation, CLI invocations, output checks.

Each workload is a closed loop of jobs driven by one client.  A job is one
user-level use of the ``multiagg`` command line on a freshly generated
config: the job's inputs come only from the run seed and the job index, and
the program sees nothing but the files written into the job directory.

Every job and every output check is one operation of the run.  A check that
fails is counted, never skipped.  ``KNOWN_DEFECTS`` names the checks that
fail at the commit that introduced this benchmark; they stay counted in the
failure total but do not by themselves mark the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

# Checks that fail on the unmodified program, kept visible in the failure
# count until the program is fixed:
#   diag_csv_numeric: `simulate` writes every energy cell of `<out>.diag.csv`
#     as `np.float64(...)` because the CSV writer calls repr() on a numpy
#     scalar.
#   verify.dissipation_identity: the 5 h^2 tolerance ignores the time scale
#     of the flow, so the finite-difference error (which does shrink like
#     h^2) exceeds it on fast kernels at any record spacing.
KNOWN_DEFECTS = {
    "mixed_verify": {"verify.dissipation_identity"},
    "snapshot_pipeline": {"diag_csv_numeric"},
    "particles_plane": set(),
}


def job_seed(seed: int, index: int) -> int:
    """Seed of job `index` in a run started with `seed` (stable across runs)."""
    return int(np.random.default_rng([seed, index]).integers(2**31 - 1))


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1))
    return path


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


_NUMPY_SCALAR = re.compile(r"^np\.float64\((.*)\)$")


def _lenient_float(cell: str) -> float:
    """Parse a number, also when written as `np.float64(...)`."""
    m = _NUMPY_SCALAR.match(cell)
    return float(m.group(1) if m else cell)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _nonincreasing(values, rel=1e-12):
    """(no rise beyond `rel`, largest relative rise between consecutive values)."""
    worst = -math.inf
    for a, b in zip(values, values[1:]):
        worst = max(worst, (b - a) / (1.0 + abs(a)))
    return worst <= rel, worst


class Workload:
    name = ""
    expected_codes = (0,)

    def write_config(self, job_dir: Path, seed: int) -> Path:
        raise NotImplementedError

    def commands(self, job_dir: Path, config: Path) -> list:
        """argv lists for `multiagg.cli.main`, run in order."""
        raise NotImplementedError

    def job_ok(self, codes: list) -> bool:
        return len(codes) > 0 and all(c in self.expected_codes for c in codes)

    def check(self, job_dir: Path, config: Path, codes: list) -> list:
        """[(check name, passed, detail)] for one completed job."""
        raise NotImplementedError

    def expected_checks(self) -> set:
        raise NotImplementedError


class MixedVerify(Workload):
    """`multiagg verify` on three species with one kernel of each kind.

    Kernels: Morse (eps > 0), GaussianAR and Tabulated on the diagonal,
    Power(q=3), Quadratic and zero across.  The step is derived by
    `stable_dt` and snapshots are recorded every 5 steps.
    """

    name = "mixed_verify"
    # 3 is the documented "verification failure" exit; the job still ran.
    expected_codes = (0, 3)
    M = 256
    t_end = 0.8
    record_every = 5

    def write_config(self, job_dir, seed):
        knots = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
        # W(z) = z^2/2 + exp(-z^2)/4 sampled with exact derivatives.
        values = [0.5 * k * k + 0.25 * math.exp(-k * k) for k in knots]
        derivs = [k - 0.5 * k * math.exp(-k * k) for k in knots]
        morse = {"kind": "morse", "ca": 1.0, "la": 1.0, "cr": 0.5, "lr": 0.25, "eps": 0.1}
        power = {"kind": "power", "q": 3.0, "a": 0.5}
        quad = {"kind": "quadratic", "a": 1.0}
        gauss = {"kind": "gaussian_ar", "ca": 1.0, "la": 1.0, "cr": 0.6, "lr": 0.2}
        zero = {"kind": "zero"}
        tab = {"kind": "tabulated", "knots": knots, "values": values, "derivs": derivs}
        cfg = {
            "params": {"m": [1.0, 0.5, 1.5], "p": [1.0, 0.8, 1.2]},
            "potential": {
                "entries": [[morse, power, quad], [power, gauss, zero], [quad, zero, tab]],
                # Declared moduli lie below each kernel's sampled semiconvexity
                # (Morse -4.36, GaussianAR -4.0, Tabulated 0, linear past its
                # last knot), so every prediction verify makes is a valid one.
                "kappa": [[-5.0, 0.0, 1.0], [0.0, -4.5, 0.0], [1.0, 0.0, 0.0]],
            },
            "initial": {"type": "preset", "name": "gauss_pair",
                        "args": {"centers": [-1.0, 1.0], "sigma": 0.2, "weights": [0.5, 0.5]}},
            "solver": {"t_end": self.t_end, "scheme": "rk4", "record_every": self.record_every},
            "M": self.M,
            "seed": seed,
        }
        return _write_json(job_dir / "config.json", cfg)

    def commands(self, job_dir, config):
        return [["verify", "--config", str(config), "--out", str(job_dir / "verify.json")]]

    def check(self, job_dir, config, codes):
        report = json.loads((job_dir / "verify.json").read_text())
        out = []
        any_failed = False
        for c in report["checks"]:
            if c["status"] == "skipped":
                continue
            passed = c["status"] == "pass"
            any_failed |= not passed
            out.append((f"verify.{c['name']}", passed, c["details"]))
        consistent = (codes[0] == 3) == any_failed and report["all_passed"] == (not any_failed)
        out.append(("exit_code_matches_report", consistent, {"exit_code": codes[0]}))
        return out

    def expected_checks(self):
        return {"verify.center_conservation", "verify.delta_separation",
                "verify.dissipation_identity", "verify.finite_propagation",
                "verify.gradient_consistency", "exit_code_matches_report"}


class SnapshotPipeline(Workload):
    """`multiagg simulate` with a snapshot at every step, then `multiagg diagnose`.

    Two species with quadratic kernels W_ij(z) = a_ij z^2 / 2, for which the
    support diameters decay in closed form:
    diam_i(t) = diam_i(0) exp(-m_i (A p)_i t).
    """

    name = "snapshot_pipeline"
    M = 1024
    dt = 0.002
    steps = 24
    A = [[2.0, 1.0], [1.0, 1.5]]
    m = [1.0, 0.7]
    p = [1.0, 1.3]

    def write_config(self, job_dir, seed):
        entries = [[{"kind": "quadratic", "a": a} for a in row] for row in self.A]
        cfg = {
            "params": {"m": self.m, "p": self.p},
            "potential": {"entries": entries, "kappa": self.A},
            "initial": {"type": "preset", "name": "gauss_pair",
                        "args": {"centers": [-1.0, 1.0], "sigma": 0.25, "weights": [0.5, 0.5]}},
            "solver": {"dt": self.dt, "t_end": self.steps * self.dt, "scheme": "rk4",
                       "record_every": 1},
            "M": self.M,
            "seed": seed,
        }
        return _write_json(job_dir / "config.json", cfg)

    def commands(self, job_dir, config):
        traj = str(job_dir / "traj.csv")
        return [["simulate", "--config", str(config), "--out", traj],
                ["diagnose", "--traj", traj, "--config", str(config),
                 "--out", str(job_dir / "diagnose.json")]]

    def check(self, job_dir, config, codes):
        rows = _read_csv(job_dir / "traj.diag.csv")
        records = json.loads((job_dir / "diagnose.json").read_text())["records"]
        out = []

        bad = [(k, col, cell) for k, row in enumerate(rows)
               for col, cell in row.items() if cell != "" and not _is_number(cell)]
        out.append(("diag_csv_numeric", not bad,
                    {"bad_cells": len(bad), "first": bad[0] if bad else None}))

        centers = [float(r["E_invariant"]) for r in rows]
        u0 = max(np.abs(records[0]["supp_lo"]).max(), np.abs(records[0]["supp_hi"]).max())
        scale = max(1.0, u0 * sum(p / m for p, m in zip(self.p, self.m)))
        drift = max(abs(c - centers[0]) for c in centers) / scale
        out.append(("center_drift", drift <= 1e-12, {"relative_drift": drift}))

        ap = np.asarray(self.A) @ np.asarray(self.p)
        worst = 0.0
        tol = 0.0
        for i in range(len(self.m)):
            lam = self.m[i] * ap[i]
            d0 = records[0]["diam"][i]
            for k, rec in enumerate(records):
                exact = d0 * math.exp(-lam * rec["t"])
                worst = max(worst, abs(rec["diam"][i] / exact - 1.0))
                # RK4 reproduces exp(-lam dt) up to (lam dt)^5 / 120 per step;
                # allow twice that plus roundoff.
                tol = max(tol, k * (2.0 * (lam * self.dt) ** 5 / 120.0 + 1e-14) + 1e-14)
        out.append(("diameter_closed_form", worst <= tol,
                    {"max_relative_error": worst, "tolerance": tol}))

        energies = [r["energy"] for r in records]
        ok, rise = _nonincreasing(energies)
        out.append(("energy_nonincreasing", ok, {"max_relative_rise": rise}))

        sim = [_lenient_float(r["energy"]) for r in rows]
        mismatch = (max(abs(a - b) / (1.0 + abs(a)) for a, b in zip(sim, energies))
                    if len(sim) == len(energies) else math.inf)
        out.append(("energy_matches_simulate", mismatch <= 1e-12,
                    {"max_relative_difference": mismatch, "records": [len(sim), len(energies)]}))
        return out

    def expected_checks(self):
        return {"diag_csv_numeric", "center_drift", "diameter_closed_form",
                "energy_nonincreasing", "energy_matches_simulate"}


class ParticlesPlane(Workload):
    """`multiagg particles` in the plane with two species.

    Morse and GaussianAR self-interaction, quadratic cross-interaction;
    positions are drawn from the seed.  Snapshots every 2 steps.
    """

    name = "particles_plane"
    counts = (1000, 500)
    dt = 0.01
    steps = 4
    record_every = 2
    m = [1.0, 0.8]
    p = [1.0, 0.5]

    def write_config(self, job_dir, seed):
        rng = np.random.default_rng(seed)
        x1 = rng.normal(0.0, 1.0, (self.counts[0], 2))
        x2 = rng.normal(0.5, 0.7, (self.counts[1], 2))
        cross = {"kind": "quadratic", "a": 0.5}
        cfg = {
            "params": {"m": self.m, "p": self.p, "d": 2},
            "potential": {
                "entries": [[{"kind": "morse", "ca": 1.0, "la": 1.0, "cr": 0.6, "lr": 0.3,
                              "eps": 0.05}, cross],
                            [cross, {"kind": "gaussian_ar", "ca": 1.0, "la": 1.0, "cr": 0.6,
                                     "lr": 0.2}]],
                # Below the sampled semiconvexity (Morse -14.8, GaussianAR -4.0).
                "kappa": [[-15.0, 0.5], [0.5, -4.5]],
            },
            "initial": {"type": "particles", "species": [
                {"x": x.tolist(), "mass": [p / len(x)] * len(x)}
                for x, p in zip((x1, x2), self.p)]},
            "solver": {"dt": self.dt, "t_end": self.steps * self.dt, "scheme": "rk4",
                       "record_every": self.record_every},
            "seed": seed,
        }
        return _write_json(job_dir / "config.json", cfg)

    def commands(self, job_dir, config):
        return [["particles", "--config", str(config), "--out", str(job_dir / "part.csv")]]

    def check(self, job_dir, config, codes):
        rows = _read_csv(job_dir / "part.diag.csv")
        out = []
        cols = [c for c in rows[0] if c.startswith("E_invariant_")]
        centers = np.array([[float(r[c]) for c in cols] for r in rows])
        scale = max(1.0, float(np.abs(centers[0]).max()))
        drift = float(np.abs(centers - centers[0]).max()) / scale
        out.append(("center_drift", drift <= 1e-12, {"relative_drift": drift}))
        energies = [float(r["energy"]) for r in rows]
        ok, rise = _nonincreasing(energies)
        out.append(("energy_nonincreasing", ok and len(energies) >= 3,
                    {"max_relative_rise": rise, "records": len(energies)}))
        return out

    def expected_checks(self):
        return {"center_drift", "energy_nonincreasing"}


WORKLOADS = {w.name: w for w in (MixedVerify(), SnapshotPipeline(), ParticlesPlane())}
