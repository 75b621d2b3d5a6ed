"""The scripts under benchmarks/ run: each once, at its smallest size, so
that neither rots while the library changes under it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcasim import kernels

BENCHMARKS = Path(__file__).parents[1] / "benchmarks"


@pytest.mark.parametrize("script, argv, header", [
    ("bench_coherence.py", ["--total-time", "1e-14", "--repeats", "1"],
     "  kernel   B    best ms  point-steps/s"),
    ("bench_coupling.py", ["--max-cells", "100"],
     "layout,cells,pairs,build_s,parse_s,kink_s,kink_loop_s,emit_s,bistable_s,"
     "bistable_loop_s"),
])
def test_script_runs(script, argv, header):
    src = str(Path(kernels.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(BENCHMARKS / script), *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()
