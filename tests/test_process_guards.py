"""Whole-process properties, each checked in a fresh interpreter.

What a CLI run imports, and how the tiled direct sum uses the allocator,
depend on everything imported before; a fresh interpreter sees them as a
CLI run does.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import multiagg


def run_fresh(code: str) -> str:
    src = str(Path(multiagg.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_out():
    assert run_fresh("import sys, multiagg.cli; print('scipy' in sys.modules)") == "False"


FAULTS = """
import resource
import numpy as np
from multiagg.engine import pair_fields
from multiagg.potentials import GaussianAR, matrix_from_entries

g = GaussianAR(1.0, 1.0, 0.6, 0.2)
pm = matrix_from_entries([[g, g], [g, g]], np.zeros((2, 2)))
rng = np.random.default_rng(0)
xs = [rng.normal(size=(256, 1)) for _ in range(2)]
ws = [np.full(256, 1.0 / 256)] * 2
pair_fields(pm, xs, ws)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    pair_fields(pm, xs, ws)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="the mmap threshold it guards is glibc's")
def test_tiled_sum_does_not_refault_its_temporaries():
    # Each call holds about 1 MiB of 128 KiB tile temporaries; if glibc maps
    # and unmaps them per tile, 100 calls take tens of thousands of faults.
    assert int(run_fresh(FAULTS)) < 2000
