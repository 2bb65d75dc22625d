"""The benchmark's smoke run: every workload small, verdicts checked, traced twice.

It fails when a function the benchmark traces is renamed or moved, or when
a workload's verdicts change, so such breakage shows in the test suite and
not only in a benchmark run.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke ok" in proc.stdout
