"""The benchmark's outside tracer still finds every name it patches."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_runs_verify():
    # tracer.py replaces package functions by name; a renamed or deleted
    # one makes it fail before the command runs
    command = ["verify", "--m", "2", "--dmax", "3", "--primes", ""]
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
         json.dumps(command)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    payload = json.loads(run.stdout)
    assert payload["exit"] == 0
