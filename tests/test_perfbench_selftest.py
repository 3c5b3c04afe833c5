"""The benchmark's own self-test passes against the package beside it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # perfbench/workloads.py imports package functions and checks the
    # oracle counts; a deleted or renamed name makes the self-test fail
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stderr.rstrip().endswith("OK"), run.stderr
