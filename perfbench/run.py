"""charvar benchmark: cold CLI processes, one at a time, from one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload series --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

Each operation runs one of the workload's ``charvar`` command lines in a
fresh interpreter (a closed loop with one client; every lru_cache starts
cold) and checks its output.  ``--trace 0`` reports the end-to-end
metrics, with times taken to a fixed machine speed by a reference loop
run between the commands (see ``reference_loop``); ``--trace 1``
alternates untraced operations with traced ones (see tracer.py) and
reports the per-layer metrics and the tracing overhead.  The seed only
shuffles the order in which commands, reference loops and set-up samples
interleave.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
from child import PEAK_RSS_TAG  # noqa: E402
from workloads import WORKLOADS, Checker, expected_oracle_counts  # noqa: E402

OP_TIMEOUT_S = 120          # a hung child is killed, so the run still ends
SETUPS_PER_ROUND = 4
REFERENCES_PER_COMMAND = 2
# About the reference loop's time on an idle core of the 2-vCPU Xeon host
# the benchmark was tuned on; timings are reported at that speed.
REFERENCE_S = 0.1

# (name, unit, better); BENCHMARK.json lists the same metrics
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)


def _layer(name):
    """(name, unit, better) of a per-layer metric, read from its last part."""
    stat = name.rsplit(".", 1)[1]
    if stat == "s" or stat.endswith("_s"):
        return name, "s", "lower"
    if stat in ("hits", "orbits"):
        return name, "count", "higher"
    if stat == "useful_ratio":
        return name, "ratio", "higher"
    if stat == "max_coeff_bits":
        return name, "bits", "lower"
    return name, "count", "lower"


_CACHES = (
    "counting.qpochhammer_series", "counting._twisted_inverse",
    "counting.rep_series", "counting.abs_irr_series",
    "counting.centralizer_weight", "counting.class_weight_series",
    "counting.orbit_series", "counting.abs_ind_series",
    "arith.partitions", "combinatorics.q_factorial",
    "combinatorics.perm_rep_census",
)

PER_LAYER = tuple(_layer(name) for name in (
    "qpoly.QPoly.__mul__.calls", "qpoly.QPoly.__mul__.s",
    "qpoly.QPoly.__init__.calls", "qpoly.QPoly.__add__.calls",
    "qpoly.ratio.calls", "qpoly.ratio.s", "qpoly.limit_at_1.s",
    "qpoly.expand_in_s.s",
    "qpoly.max_degree", "qpoly.max_coeff_bits", "counting.partitions_visited",
    "tseries.TSeries.inverse.s", "tseries.TSeries.qpower_twist.s",
    "tseries.TSeries.__mul__.s", "tseries.TSeries.adams.calls",
    "plethystic.Log.s", "plethystic.Exp.s", "plethystic.Pow.s",
    "plethystic.series_log.self_s", "plethystic.series_exp.self_s",
    "plethystic.psi.self_s", "plethystic.psi_inv.self_s",
    "counting.class_weight_series.s", "counting.class_weight_series.self_s",
    "counting.centralizer_weight.calls",
    "counting.rep_series.self_s", "counting.abs_irr_series.self_s",
    "counting.orbit_series.self_s", "counting.abs_ind_series.self_s",
    "counting.euler_characteristics.s", "counting.e_polynomial.s",
    *(f"{cache}.{stat}" for cache in _CACHES for stat in ("hits", "misses")),
    "combinatorics.perm_rep_census.s", "combinatorics.limit_transform.s",
    "combinatorics.subgroup_counts.s",
    "fforacle.gl_enumerate.s", "fforacle.mat_mul.calls",
    "fforacle.mat_inv.calls",
    "fforacle.is_absolutely_irreducible.calls",
    "fforacle.is_absolutely_irreducible.s",
    "fforacle.is_absolutely_indecomposable.calls",
    "fforacle.is_absolutely_indecomposable.s",
    "fforacle.orbit_census.self_s", "fforacle.tuples_swept",
    "fforacle.orbit_census.orbits", "fforacle.orbit_census.useful_ratio",
    "verify.run_verification.s",
    "cli.main.s", "cli.main.self_s",
    "trace.wall_s", "trace.overhead_s",
))

# size stats combine across a workload's commands by max, not sum
_MAX_STATS = ("qpoly.max_degree", "qpoly.max_coeff_bits")


@dataclass
class Child:
    status: int          # exit code; negative for a signal
    wall: float
    cpu: float
    stdout: bytes
    stderr: bytes


def spawn(argv) -> Child:
    """Run one child to completion; wall time, CPU time and both streams."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # children read the bytecode cache, as an installed CLI does; the
    # untimed warm-up import writes it in a fresh checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        # wait4 instead of proc.wait(): it also returns the child's rusage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 out, err[0] if err else b"")


def _peak_rss_kib(stderr: bytes) -> int:
    """The peak resident set child.py writes as the last line of stderr."""
    tag, _, value = stderr.rstrip().rpartition(b"\n")[2].partition(b" ")
    return int(value) if tag.decode() == PEAK_RSS_TAG else 0


@dataclass
class Sample:
    """One run of one command, in a fresh process."""
    label: str
    wall: float
    cpu: float
    rss_mib: float = 0.0
    problem: Optional[str] = None
    layers: dict = field(default_factory=dict)
    caches: dict = field(default_factory=dict)


def run_command(command, checker, traced: bool = False) -> Sample:
    """Run one command of a workload and check its output."""
    if traced:
        argv = [sys.executable, str(TRACER), json.dumps(command.argv)]
    else:
        argv = [sys.executable, str(CHILD), *command.argv]
    child = spawn(argv)
    sample = Sample(command.label, child.wall, child.cpu)
    if child.status != 0:
        tail = child.stderr.decode(errors="replace").strip()[-300:]
        sample.problem = f"{command.label} exited {child.status}: {tail}"
        return sample
    stdout = child.stdout.decode()
    if traced:
        payload = json.loads(stdout)
        sample.wall -= payload["post_s"]
        sample.layers = payload["metrics"]
        sample.caches = payload["caches"]
        if payload["exit"] != 0:
            sample.problem = f"{command.label} returned {payload['exit']}"
            return sample
        stdout = payload["stdout"]
    else:
        sample.rss_mib = _peak_rss_kib(child.stderr) / 1024
    sample.problem = checker(command, stdout)
    return sample


def by_command(samples) -> dict:
    """The samples that passed their check, grouped by command label."""
    groups = {}
    for sample in samples:
        if sample.problem is None:
            groups.setdefault(sample.label, []).append(sample)
    return groups


def mean_time(samples, attr: str = "wall") -> float:
    """Mean ``attr`` of each command over the samples, summed."""
    return sum(statistics.fmean(getattr(s, attr) for s in group)
               for group in by_command(samples).values())


def layer_values(samples) -> dict:
    """Per-layer metrics: the median per command, combined over commands."""
    groups = by_command(samples).values()
    out = {}
    for metric, _, _ in PER_LAYER:
        per_command = [_median([s.layers.get(metric, 0) for s in group])
                       for group in groups]
        out[metric] = (max(per_command, default=0) if metric in _MAX_STATS
                       else sum(per_command))
    swept = out["fforacle.tuples_swept"]
    out["fforacle.orbit_census.useful_ratio"] = (
        out["fforacle.orbit_census.orbits"] / swept if swept else 0)
    return out


def reference_loop() -> tuple:
    """Wall and CPU seconds of a fixed pure-Python loop, run in this process.

    It multiplies integer lists as charvar's polynomial code does.  Run
    between the commands, it tells how fast the shared machine runs pure
    Python at the time: other tenants slow it by up to about 50% for
    minutes at a time, and the commands with it.
    """
    a = [(i * 7919) % 1000003 for i in range(300)]
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(12):
        out = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                out[i + j] += x * y
    return time.perf_counter() - wall, time.process_time() - cpu


def measure_setup() -> Child:
    """A fresh interpreter that imports charvar and exits."""
    return spawn([sys.executable, "-c", "import charvar"])


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "charvar").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None           # a plain checkout is not a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Run:
    """Samples of one benchmark invocation, in the order they were taken."""

    def __init__(self, names, checker, trace: bool):
        self.names = names
        self.checker = checker
        self.trace = trace
        self.samples = {name: [] for name in names}
        self.traced = {name: [] for name in names}
        self.setup = []
        self.reference = []     # (wall, cpu) of each reference loop
        self.schedule = []
        self.durations = {}     # item -> seconds each run of it took

    def round_items(self):
        """One round: every command of every workload, plus reference loops
        and set-up samples when untraced.

        An item is (kind, workload, command index); kind is "op", "traced",
        "reference" or "setup".
        """
        kinds = ("op", "traced") if self.trace else ("op",)
        items = [(kind, name, index) for kind in kinds for name in self.names
                 for index in range(len(WORKLOADS[name].commands))]
        if not self.trace:
            items += ([("reference", None, None)]
                      * (REFERENCES_PER_COMMAND * len(items)))
            items += [("setup", None, None)] * SETUPS_PER_ROUND
        return items

    def plan(self, rng):
        """Endless rounds of items, each round shuffled by the seeded rng."""
        while True:
            items = self.round_items()
            rng.shuffle(items)
            yield from items

    def expected(self, item) -> float:
        """Median duration of earlier runs of this item, 0 if none yet."""
        return _median(self.durations.get(item, []))

    def take(self, item) -> None:
        start = time.perf_counter()
        try:
            self._take(*item)
        finally:
            self.durations.setdefault(item, []).append(
                time.perf_counter() - start)

    def _take(self, kind, name, index) -> None:
        if kind == "reference":
            self.schedule.append(kind)
            self.reference.append(reference_loop())
            return
        if kind == "setup":
            self.schedule.append(kind)
            child = measure_setup()
            self.setup.append(child.wall)
            if child.status != 0:
                raise SystemExit("importing charvar failed: "
                                 + child.stderr.decode(errors="replace"))
            return
        command = WORKLOADS[name].commands[index]
        self.schedule.append(f"{kind}:{name}:{command.label}")
        sample = run_command(command, self.checker, traced=kind == "traced")
        (self.traced if kind == "traced" else self.samples)[name].append(sample)
        if sample.problem:
            print(f"FAILED {kind} {name}: {sample.problem}", file=sys.stderr)

    def all_samples(self, name):
        return self.samples[name] + self.traced[name]

    def speed(self) -> dict:
        """Factors that take wall and CPU times to the reference speed.

        Each is REFERENCE_S over the mean reference loop of the run.  Loops
        and commands interleave through the whole run, so the mean of each
        is slowed by the same average load, and the ratio cancels it.
        """
        return {"wall": REFERENCE_S / statistics.fmean(
                    wall for wall, _ in self.reference),
                "cpu": REFERENCE_S / statistics.fmean(
                    cpu for _, cpu in self.reference)}

    def end_to_end(self, name) -> dict:
        samples = self.samples[name]
        speed = self.speed()
        rss = [_median([s.rss_mib for s in group])
               for group in by_command(samples).values()]
        return {"wall_s": mean_time(samples, "wall") * speed["wall"],
                "cpu_s": mean_time(samples, "cpu") * speed["cpu"],
                "peak_rss_mib": max(rss, default=0.0),
                "setup_s": _median(self.setup) * speed["wall"]}

    def per_layer(self, name) -> dict:
        out = layer_values(self.traced[name])
        out["trace.wall_s"] = mean_time(self.traced[name])
        out["trace.overhead_s"] = (out["trace.wall_s"]
                                   - mean_time(self.samples[name]))
        return out


def profile_checks(name, traced, layers) -> list:
    """Statements of the ROADMAP profile that the trace should bear out."""
    out = []
    deep = by_command(traced).get("polys-deep")
    if deep:
        share = _median([s.layers["counting.class_weight_series.s"]
                         / s.layers["cli.main.s"] for s in deep])
        out.append((f"class_weight_series takes {share:.1%} of traced "
                    "polys-deep time", share > 0.5))
    if name == "oracle-boxes":
        calls = sum(value for metric, value in layers.items()
                    if metric.startswith("qpoly.") and metric.endswith(".calls"))
        out.append((f"qpoly calls: {calls:g}", calls == 0))
    return out


def report(run: Run, seed: int, seconds: int, env: dict) -> dict:
    """Print the readable report and the record; return the metrics."""
    units = dict((n, u) for n, u, _ in END_TO_END + PER_LAYER)
    metrics = {}
    record = {"seed": seed, "seconds": seconds, "trace": int(run.trace),
              "environment": env, "schedule": run.schedule, "workloads": {}}
    for name in run.names:
        samples = run.all_samples(name)
        failed = sum(s.problem is not None for s in samples)
        print(f"== {name}: {len(run.samples[name])} untraced command runs"
              + (f", {len(run.traced[name])} traced" if run.trace else ""))
        values = run.per_layer(name) if run.trace else run.end_to_end(name)
        if run.trace:
            for metric, value in values.items():
                print(f"  {metric:<52} {value:14.6g} {units[metric]}")
            for text, holds in profile_checks(name, run.traced[name],
                                               values):
                print(f"  profile: {text}: {'holds' if holds else 'DIFFERS'}")
        else:
            speed = run.speed()
            raw = {"wall_s": (mean_time(run.samples[name], "wall"), "wall"),
                   "cpu_s": (mean_time(run.samples[name], "cpu"), "cpu"),
                   "setup_s": (_median(run.setup), "wall")}
            for metric, value in values.items():
                line = f"  {metric:<13} {value:10.4f} {units[metric]}"
                if metric in raw:
                    measured, factor = raw[metric]
                    line += (f"  (measured {measured:.4f} s, times"
                             f" {speed[factor]:.4f} to the reference speed)")
                print(line)
            walls = [wall for wall, _ in run.reference]
            q1, q3 = _quartiles(walls)
            print(f"    {'reference loop':<16} wall mean"
                  f" {statistics.fmean(walls):.4f} s,"
                  f" median {_median(walls):.4f} s, quartiles"
                  f" {q1:.4f}..{q3:.4f} of {len(walls)}")
            for label, group in by_command(run.samples[name]).items():
                walls = [s.wall for s in group]
                q1, q3 = _quartiles(walls)
                print(f"    {label:<16} wall mean {statistics.fmean(walls):.4f}"
                      f" s, median {_median(walls):.4f} s, quartiles"
                      f" {q1:.4f}..{q3:.4f}"
                      f" of {len(walls)}; peak rss median"
                      f" {_median([s.rss_mib for s in group]):.2f} MiB")
            q1, q3 = _quartiles(run.setup)
            print(f"    {'setup':<16} median of {len(run.setup)},"
                  f" quartiles {q1:.4f}..{q3:.4f}")
        print(f"  {'error_rate':<13} {failed / len(samples):10.4f} ratio,"
              f" {failed} failed of {len(samples)}")
        record["workloads"][name] = {
            kind: [{"command": s.label, "wall_s": s.wall, "cpu_s": s.cpu,
                    "peak_rss_mib": s.rss_mib, "problem": s.problem}
                   for s in group]
            for kind, group in (("untraced", run.samples[name]),
                                ("traced", run.traced[name]))}
        record["workloads"][name]["caches"] = {
            s.label: s.caches for s in run.traced[name]}
        prefix = "" if len(run.names) == 1 else f"{name}."
        for metric, value in values.items():
            if prefix and metric == "setup_s":
                metrics["setup_s"] = {"value": value, "unit": "s"}
                continue
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    record["setup_s"] = run.setup
    record["reference"] = run.reference
    print(json.dumps({"record": record}))
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles the interleaving of operations")
    parser.add_argument("--seconds", type=float, default=60,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "charvar" / "__init__.py").is_file():
        print(f"error: no charvar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng = random.Random(args.seed)
    # set-up, outside the measured time: expected oracle counts, and one
    # import that writes the bytecode cache of a fresh checkout
    checker = Checker(expected_oracle_counts())
    env = environment()
    if measure_setup().status != 0:
        print("error: importing charvar failed", file=sys.stderr)
        return 2

    run = Run(names, checker, trace=bool(args.trace))
    # the first round always runs whole; after it, an item starts only if
    # its median duration so far still fits before the deadline
    deadline = time.perf_counter() + args.seconds * len(names)
    first_round = len(run.round_items())
    for index, item in enumerate(run.plan(rng)):
        if (index >= first_round and
                time.perf_counter() + run.expected(item) > deadline):
            break
        run.take(item)

    metrics = report(run, args.seed, args.seconds, env)
    samples = [s for name in names for s in run.all_samples(name)]
    failed = sum(s.problem is not None for s in samples)
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
