"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py with `src/` on PYTHONPATH.  Runs jobs back to back (one
client, closed loop) through `multiagg.cli.main` for at least `--seconds`,
checks each job's outputs, and writes a JSON result for the parent.  With
`--trace 1` every other job runs under the tracer, so the untraced jobs in
between give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, job_seed  # noqa: E402


def run_job(cli, workload, job_dir: Path, config: Path):
    """Run the job's commands in order; returns (wall seconds, exit codes, error)."""
    codes, error = [], None
    stderr = io.StringIO()
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull), \
            contextlib.redirect_stderr(stderr):
        t0 = perf_counter()
        for argv in workload.commands(job_dir, config):
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed job, not a failed run
                error = traceback.format_exc(limit=3)
                break
            codes.append(code)
            if code not in workload.expected_codes:
                break
        wall = perf_counter() - t0
    if error is None and not workload.job_ok(codes):
        error = f"exit codes {codes}: {stderr.getvalue()[-400:]}"
    return wall, codes, error


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer, traced_jobs: int, overhead_frac: float, verify_counts) -> dict:
    """Per-layer metrics from the traced jobs; totals are per traced job."""
    spans = tracer.by_name()
    jobs = max(traced_jobs, 1)

    def dur(name):
        return spans.get(name, ([], [], []))[0]

    def total(name):
        return sum(dur(name)) / jobs

    def self_s(name):
        return sum(spans.get(name, ([], [], []))[1]) / jobs

    def extra(name):
        return sum(spans.get(name, ([], [], []))[2])

    def calls(name):
        return len(dur(name)) / jobs

    def ms(name, q):
        return 1e3 * _pct(dur(name), q)

    def rate(name):
        s = sum(dur(name))
        return extra(name) / s / 1e6 if s > 0 else 0.0

    deriv_calls, deriv_evals, deriv_s = tracer.counted["potentials.deriv"]
    value_calls, value_evals, value_s = tracer.counted["potentials.value"]
    steps = len(dur("quantile_solver.step"))
    particle_steps = extra("particle_solver.run_particles")
    return {
        "config.parse_config.s": (total("config.parse_config"), "s"),
        "potentials.deriv.calls": (deriv_calls / jobs, "count"),
        "potentials.deriv.evals": (deriv_evals / jobs, "count"),
        "potentials.deriv.s": (deriv_s / jobs, "s"),
        "potentials.deriv.ns_per_eval": (1e9 * deriv_s / deriv_evals if deriv_evals else 0.0,
                                         "ns"),
        "potentials.value.calls": (value_calls / jobs, "count"),
        "potentials.value.evals": (value_evals / jobs, "count"),
        "potentials.value.s": (value_s / jobs, "s"),
        "potentials.estimate_growth_bound.s": (total("potentials.estimate_growth_bound"), "s"),
        "quantile_solver.step.calls": (calls("quantile_solver.step"), "count"),
        "quantile_solver.step.s": (total("quantile_solver.step"), "s"),
        "quantile_solver.step.self_s": (self_s("quantile_solver.step"), "s"),
        "quantile_solver.step.ms_p50": (ms("quantile_solver.step", 50), "ms"),
        "quantile_solver.step.ms_p99": (ms("quantile_solver.step", 99), "ms"),
        "quantile_solver.step.samples": (steps, "count"),
        "quantile_solver.run.self_s": (self_s("quantile_solver.run"), "s"),
        "quantile_solver.stable_dt.calls": (calls("quantile_solver.stable_dt"), "count"),
        "quantile_solver.stable_dt.s": (total("quantile_solver.stable_dt"), "s"),
        "quantile_solver.repair_frac": (extra("quantile_solver.step") / steps if steps else 0.0,
                                        "frac"),
        "particle_solver.run_particles.self_s": (self_s("particle_solver.run_particles"), "s"),
        "particle_solver.run_particles.ms_per_step": (
            1e3 * sum(dur("particle_solver.run_particles")) / particle_steps
            if particle_steps else 0.0, "ms"),
        "particle_solver.discrete_energy.calls": (calls("particle_solver.discrete_energy"),
                                                  "count"),
        "particle_solver.discrete_energy.s": (total("particle_solver.discrete_energy"), "s"),
        "particle_solver.discrete_energy.ms_p50": (ms("particle_solver.discrete_energy", 50),
                                                   "ms"),
        "particle_solver.discrete_energy.samples": (len(dur("particle_solver.discrete_energy")),
                                                    "count"),
        "diagnostics.record.calls": (calls("diagnostics.record"), "count"),
        "diagnostics.record.s": (total("diagnostics.record"), "s"),
        "diagnostics.record.ms_p50": (ms("diagnostics.record", 50), "ms"),
        "diagnostics.record.ms_p99": (ms("diagnostics.record", 99), "ms"),
        "diagnostics.record.samples": (len(dur("diagnostics.record")), "count"),
        "diagnostics.energy.s": (total("diagnostics.energy"), "s"),
        "diagnostics.dissipation.s": (total("diagnostics.dissipation"), "s"),
        "measures.write_quantile_csv.s": (total("measures.write_quantile_csv"), "s"),
        "measures.write_quantile_csv.bytes": (extra("measures.write_quantile_csv") / jobs, "B"),
        "measures.write_quantile_csv.mb_per_s": (rate("measures.write_quantile_csv"), "MB/s"),
        "measures.read_quantile_csv.s": (total("measures.read_quantile_csv"), "s"),
        "measures.read_quantile_csv.bytes": (extra("measures.read_quantile_csv") / jobs, "B"),
        "measures.read_quantile_csv.mb_per_s": (rate("measures.read_quantile_csv"), "MB/s"),
        "measures.write_particle_csv.s": (total("measures.write_particle_csv"), "s"),
        "measures.write_particle_csv.bytes": (extra("measures.write_particle_csv") / jobs, "B"),
        "measures.compound_distance.calls": (calls("measures.compound_distance"), "count"),
        "measures.compound_distance.s": (total("measures.compound_distance"), "s"),
        "verify.run_verification.self_s": (self_s("verify.run_verification"), "s"),
        "verify.checks_applicable": (verify_counts[0] / jobs, "count"),
        "verify.checks_failed": (verify_counts[1] / jobs, "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_frac": (overhead_frac, "frac"),
        "trace.jobs": (traced_jobs, "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True, help="scratch directory for job files")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    parser.add_argument("--spans", default=None, help="where to write traced spans")
    args = parser.parse_args(argv)

    import scipy
    from multiagg import cli

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    tmp = Path(args.tmp)
    jobs = []
    verify_counts = [0, 0]  # applicable, failed verify checks in traced jobs
    min_jobs = 2 if tracer else 1
    start = perf_counter()
    while len(jobs) < min_jobs or perf_counter() - start < args.seconds:
        index = len(jobs)
        traced = tracer is not None and index % 2 == 1
        job_dir = tmp / f"job{index}"
        job_dir.mkdir(parents=True)
        config = workload.write_config(job_dir, job_seed(args.seed, index))
        if traced:
            tracer.job = index
            tracer.install()
        try:
            wall, codes, error = run_job(cli, workload, job_dir, config)
        finally:
            if traced:
                tracer.uninstall()
        checks = []
        if error is None:
            try:
                checks = workload.check(job_dir, config, codes)
            except Exception:  # unreadable outputs fail the job
                error = traceback.format_exc(limit=3)
        if traced:
            verify = [c for c in checks if c[0].startswith("verify.")]
            verify_counts[0] += len(verify)
            verify_counts[1] += sum(not c[1] for c in verify)
        jobs.append({"index": index, "traced": traced, "wall_s": wall, "codes": codes,
                     "error": error,
                     "checks": [[name, bool(ok), detail] for name, ok, detail in checks]})
        shutil.rmtree(job_dir)

    result = {
        "jobs": jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        traced = [j["wall_s"] for j in jobs if j["traced"]]
        plain = [j["wall_s"] for j in jobs if not j["traced"]]
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        result["layers"] = layer_metrics(tracer, len(traced), overhead, verify_counts)
        if args.spans:
            tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
