"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at the shortest length (one untraced job, then one
untraced and one traced job) and asserts that:

* each run emits exactly the metrics BENCHMARK.json declares for its mode,
  each with the declared unit and a finite value;
* every output check of the workload ran on every job;
* a directory holding only BENCHMARK.json and the benchmark, without the
  program's sources, makes run.py fail without printing a result.

Takes about half a minute on two cores.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import BENCH, ROOT, load_spec, run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check_run(name: str, trace: int, declared: dict):
    out = run_workload(name, seed=0, seconds=0.0, trace=trace, setup_repeats=1)
    res, rep = out["result"], out["report"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    metrics = res["metrics"]
    assert set(metrics) == set(declared), (name, trace, set(metrics) ^ set(declared))
    for metric, unit in declared.items():
        got = metrics[metric]
        assert got["unit"] == unit, (name, metric, got["unit"], unit)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
    expected = WORKLOADS[name].expected_checks()
    assert expected <= set(rep["checks"]), (name, expected - set(rep["checks"]))
    for check, (attempted, _, ran) in rep["checks"].items():
        assert attempted == ran == rep["jobs"], (name, check, attempted, ran, rep["jobs"])
    print(f"ok  {name} trace={trace}: {len(metrics)} metrics, {len(rep['checks'])} checks "
          f"on {rep['jobs']} jobs, failed {res['failed']}/{res['attempted']}")


def check_without_sources():
    bare = ROOT / ".bench_tmp" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                               next(iter(WORKLOADS)), "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without sources: exit {proc.returncode}, nothing on stdout")


def main() -> int:
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in WORKLOADS:
        for trace, declared in modes.items():
            check_run(name, trace, declared)
    check_without_sources()
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
