"""Command-line interface: analyze, simulate, particles, diagnose, verify.

Exit codes: 0 success, 1 numeric failure during integration, 2 config error
(also an unreadable or unwritable path), 3 verification failure.  All outputs
are UTF-8; CSV uses '.' decimals, and identical config + seed reproduce
bit-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import diagnostics, measures, quantile_solver, verify as verify_mod
from .config import manifest, parse_config, write_manifest
from .convexity import analyze_system, lambda0
from .errors import ConfigError, NumericsError


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _print_json(payload, out=None):
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_quantile_diag_csv(path, records, n):
    header = (["t", "energy", "dissipation", "E_invariant"]
              + [f"diam_{i + 1}" for i in range(n)]
              + [f"supp_lo_{i + 1}" for i in range(n)]
              + [f"supp_hi_{i + 1}" for i in range(n)]
              + ["w2_to_ground"])
    columns = [measures.float_fields([getattr(r, a) for r in records])
               for a in ("t", "energy", "dissipation", "E_invariant")]
    for a in ("diam", "supp_lo", "supp_hi"):
        per_species = np.reshape([getattr(r, a) for r in records], (len(records), n))
        columns += [measures.float_fields(v) for v in per_species.T]
    columns.append(["" if r.w2_to_ground is None else repr(float(r.w2_to_ground))
                    for r in records])
    measures.write_csv(path, header, [columns])


def _write_particle_diag_csv(path, traj, d):
    header = ["t", "energy"] + [f"E_invariant_{a + 1}" for a in range(d)]
    centers = np.reshape([r.E_invariant for r in traj.records], (len(traj.records), d))
    measures.write_csv(path, header, [[measures.float_fields(traj.times),
                                       measures.float_fields(traj.energies)]
                                      + [measures.float_fields(v) for v in centers.T]])


def _diag_path(out: str) -> str:
    return (out[:-4] if out.endswith(".csv") else out) + ".diag.csv"


def _run_and_write(integrate, write) -> int:
    """Write the trajectory of a run, or on a numeric failure its partial one, if it holds a
    snapshot, before re-raising."""
    try:
        traj = integrate()
    except NumericsError as err:
        if err.partial is not None and err.partial.times:
            write(err.partial)
        raise
    write(traj)
    return 0


def _cmd_analyze(args) -> int:
    cfg = parse_config(args.config, dt=args.dt, t_end=args.t_end, seed=args.seed)
    report = analyze_system(cfg.potential, cfg.params)
    _print_json(report, args.out)
    return 0


def _cmd_simulate(args) -> int:
    cfg = parse_config(args.config, dt=args.dt, t_end=args.t_end, seed=args.seed)
    if cfg.initial_quantile is None:
        raise ConfigError("initial: quantile simulation requires d=1 data "
                          "(use the particles subcommand)")

    def write(traj):
        measures.write_quantile_csv(args.out, traj.times, traj.states)
        _write_quantile_diag_csv(_diag_path(args.out), traj.records, cfg.params.n)
        write_manifest(args.out, cfg, "simulate", traj.dt)

    return _run_and_write(lambda: quantile_solver.run(cfg.initial_quantile, cfg.potential,
                                                      cfg.solver), write)


def _cmd_particles(args) -> int:
    cfg = parse_config(args.config, dt=args.dt, t_end=args.t_end, seed=args.seed)
    ps0 = cfg.initial_particles
    if ps0 is None:
        raise ConfigError("initial: no particle representation available")

    def write(traj):
        measures.write_particle_csv(args.out, traj.times, traj.states)
        _write_particle_diag_csv(_diag_path(args.out), traj, cfg.params.d)
        write_manifest(args.out, cfg, "particles", traj.dt)

    return _run_and_write(lambda: quantile_solver.run(ps0, cfg.potential, cfg.solver), write)


def _cmd_diagnose(args) -> int:
    cfg = parse_config(args.config)
    try:
        times, states = measures.read_quantile_csv(args.traj, cfg.params)
    except ValueError as err:
        raise ConfigError(f"traj: {err}") from err
    rate = lambda0(cfg.potential.kappa, cfg.params).lambda0
    ground = diagnostics.ground_state(cfg.params, states[0].M) if rate > 0.0 else None
    records = [diagnostics.record(qs, cfg.potential, t, ground)
               for t, qs in zip(times, states)]

    t_arr = np.array(times)
    window = (float(t_arr[0] + 0.1 * (t_arr[-1] - t_arr[0])), float(t_arr[-1]))
    in_window = t_arr >= window[0]
    s = cfg.potential.kappa @ cfg.params.p
    series = [(f"diam_supp_{i + 1}", [r.diam[i] for r in records], float(cfg.params.m[i] * s[i]))
              for i in range(cfg.params.n) if s[i] > 0.0]
    if ground is not None:
        series.append(("w2_to_ground", [r.w2_to_ground for r in records], rate))
    fits = []
    for quantity, values, predicted in series:
        values = np.array(values)
        # A log-linear fit needs 3 positive samples in the window; skip the others.
        if np.count_nonzero(in_window) >= 3 and np.all(values[in_window] > 0.0):
            fits.append(diagnostics.fit_decay_rate(t_arr, values, window,
                                                   predicted_rate=predicted, quantity=quantity))

    payload = {"records": records, "rate_fits": fits,
               "manifest": manifest(cfg, "diagnose", dt_used=None)}
    _print_json(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    cfg = parse_config(args.config, dt=args.dt, t_end=args.t_end, seed=args.seed)
    report = verify_mod.run_verification(cfg)
    payload = {"checks": report.checks, "all_passed": report.all_passed,
               "manifest": manifest(cfg, "verify", dt_used=report.dt)}
    _print_json(payload, args.out)
    return 0 if report.all_passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiagg",
        description="Multi-species nonlocal interaction dynamics: analysis and simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_required=False):
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        if out_required:
            p.add_argument("--out", required=True, help="output CSV path")
        else:
            p.add_argument("--out", default=None, help="optional output path (JSON)")
        p.add_argument("--dt", type=float, default=None, help="override solver dt")
        p.add_argument("--t-end", dest="t_end", type=float, default=None,
                       help="override solver horizon")
        p.add_argument("--seed", type=int, default=None, help="override preset seed")

    p = sub.add_parser("analyze", help="convexity / confinement report as JSON")
    add_common(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("simulate", help="integrate the quantile dynamics (d=1)")
    add_common(p, out_required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("particles", help="integrate the atomic dynamics (any d)")
    add_common(p, out_required=True)
    p.set_defaults(fn=_cmd_particles)

    p = sub.add_parser("diagnose", help="recompute diagnostics and rate fits from a trajectory")
    p.add_argument("--traj", required=True, help="trajectory CSV from simulate")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("verify", help="run the applicable verification battery")
    add_common(p)
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        for issue in err.issues:
            print(f"config error: {issue}", file=sys.stderr)
        return 2
    except OSError as err:
        where = f"{err.filename}: " if err.filename is not None else ""
        print(f"config error: {where}{err.strerror or err}", file=sys.stderr)
        return 2
    except NumericsError as err:
        print(f"numeric failure: {err} (witness {err.witness})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
