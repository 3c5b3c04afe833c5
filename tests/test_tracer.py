"""The benchmark's outside tracer still finds every name it patches."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trace(*command):
    """The tracer's JSON payload for one CLI command."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
         json.dumps(command)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_tracer_runs_verify():
    # tracer.py replaces package functions by name; a renamed or deleted
    # one makes it fail before the command runs.  It patches only the
    # modules that `import charvar.cli` loaded, so every series layer must
    # show calls: a layer loaded later would run unpatched and read zero
    payload = _trace("verify", "--m", "2", "--dmax", "3", "--primes", "")
    metrics = payload["metrics"]
    assert payload["exit"] == 0
    assert metrics["counting.orbit_series.calls"] > 0
    assert metrics["plethystic.Exp.calls"] > 0
    assert metrics["qpoly.expand_in_s.calls"] > 0
    assert metrics["tseries.TSeries.inverse.calls"] > 0
    assert metrics["combinatorics.perm_rep_census.calls"] > 0


def test_tracer_hooks_the_oracle():
    # the census engine and the oracle's matrix product are still the
    # functions the tracer wraps: 197 orbits of pairs in GL_3(F_2)
    payload = _trace("oracle", "--d", "3", "--p", "2", "--m", "2")
    metrics = payload["metrics"]
    assert payload["exit"] == 0
    assert metrics["fforacle.orbit_census.calls"] == 1
    assert metrics["fforacle.mat_mul.calls"] > 0
    assert metrics["fforacle.orbit_census.orbits"] == 197
