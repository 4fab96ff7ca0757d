"""multiagg benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics from a traced run instead.  `--workload all` runs every
workload both ways and prints a table.  The program under test is imported
from `src/` of the checkout; without it the benchmark exits with status 2.

Each run starts a fresh interpreter for the workload, so its peak memory is
the workload's own, and measures set-up time in further fresh interpreters.
BLAS and OpenMP pools are pinned to one thread, so the load is one process
running one thread on one closed-loop client.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from workloads import KNOWN_DEFECTS, WORKLOADS, job_seed  # noqa: E402

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
RUN_TIMEOUT = 170.0  # seconds allowed for one whole run

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import multiagg.cli
from multiagg.config import parse_config
parse_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def provenance(seed: int, versions: dict) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "multiagg").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "threads": THREAD_ENV,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def measure_setup(workload, seed: int, tmp: Path, repeats: int, deadline: float) -> list:
    """Seconds to import multiagg.cli and parse the first job's config, per fresh interpreter."""
    job_dir = tmp / "setup"
    job_dir.mkdir(parents=True)
    config = workload.write_config(job_dir, job_seed(seed, 0))
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr[-2000:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_worker(name: str, seed: int, seconds: float, trace: int, tmp: Path,
               deadline: float) -> dict:
    result_path = tmp / "result.json"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tmp", str(tmp / "jobs"),
           "--result", str(result_path)]
    if trace:
        cmd += ["--spans", str(out_dir / f"spans-{name}-seed{seed}.jsonl")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload {name} did not finish in time")
    if code != 0 or not result_path.is_file():
        raise BenchError(f"workload process exited with status {code}")
    return json.loads(result_path.read_text())


def count_operations(name: str, jobs: list) -> dict:
    """Operations: each job, and each expected output check of each job.

    A check that did not run (its job failed first) counts as failed.
    `per_check` maps each check to [attempted, failed, ran].
    """
    workload = WORKLOADS[name]
    expected = workload.expected_checks()
    per_check: dict = {}
    attempted = failed = 0
    unexpected_failures = []
    for job in jobs:
        attempted += 1
        if job["error"] is not None:
            failed += 1
            unexpected_failures.append(f"job {job['index']}: {job['error']}")
        results = {c[0]: c[1] for c in job["checks"]}
        for check in sorted(expected | set(results)):
            ok = results.get(check, False)
            stats = per_check.setdefault(check, [0, 0, 0])
            stats[0] += 1
            stats[2] += check in results
            attempted += 1
            if not ok:
                stats[1] += 1
                failed += 1
                if check not in KNOWN_DEFECTS[name]:
                    unexpected_failures.append(f"job {job['index']}: {check} failed")
    return {"attempted": attempted, "failed": failed, "per_check": per_check,
            "unexpected_failures": unexpected_failures}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """One run; returns the result object plus a `report` of details."""
    deadline = perf_counter() + RUN_TIMEOUT
    tmp = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        setup = [] if trace else measure_setup(WORKLOADS[name], seed, tmp, setup_repeats,
                                               deadline)
        worker = run_worker(name, seed, seconds, trace, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = count_operations(name, worker["jobs"])
    plain = [j["wall_s"] for j in worker["jobs"] if not j["traced"]]
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in worker["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": not ops["unexpected_failures"], "attempted": ops["attempted"],
              "failed": ops["failed"], "metrics": metrics}
    report = {
        "provenance": provenance(seed, worker["versions"]),
        "jobs": len(worker["jobs"]),
        "job_wall_s": [j["wall_s"] for j in worker["jobs"]],
        "setup_s": setup,
        "error_rate": ops["failed"] / ops["attempted"],
        "checks": ops["per_check"],
        "unexpected_failures": ops["unexpected_failures"][:10],
    }
    return {"result": result, "report": report}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_table(name: str, out: dict, trace: int):
    res, rep = out["result"], out["report"]
    mode = "traced run, per-layer metrics" if trace else "untraced run, end-to-end metrics"
    print(f"== {name}: {mode}; {rep['jobs']} jobs, error_rate {rep['error_rate']:.4f} "
          f"({res['failed']} failed of {res['attempted']} operations)")
    for metric, mv in res["metrics"].items():
        print(f"   {metric:48s} {mv['value']:>14.6g} {mv['unit']}")
    for check, (n, bad, _) in sorted(rep["checks"].items()):
        print(f"   check {check:42s} {n - bad}/{n} passed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multiagg" / "cli.py").is_file():
        print(f"error: {ROOT} holds no multiagg sources (src/multiagg)", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]

    try:
        if args.workload == "all":
            for name in WORKLOADS:
                for trace in (0, 1):
                    print_table(name, run_workload(name, args.seed, seconds, trace), trace)
            return 0
        out = run_workload(args.workload, args.seed, seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
