"""Self-test of the benchmark itself.

Run from the root of a checkout (takes about 30 s):

    python3 perfbench/selftest.py

It checks that wrong outputs are counted as failed operations, that span
self time is inclusive time minus child coverage, how a run's timings and
peak resident set are read, and that BENCHMARK.json lists exactly the
workloads and metrics the benchmark reports.
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (POLYS_DIGESTS, WORKLOADS, Checker,  # noqa: E402
                       expected_oracle_counts)

PAPER_ORACLE_COUNTS = {(2, 3, 3): (4888, 4272, 4600), (3, 2, 2): (197, 130, 170)}


def _failed_runs(checker, workload) -> int:
    """Failed command runs in one run of every command of the workload."""
    bench = run.Run([workload], checker, trace=False)
    for index in range(len(WORKLOADS[workload].commands)):
        bench.take(("op", workload, index))
    return sum(s.problem is not None for s in bench.all_samples(workload))


class SpanSummary(unittest.TestCase):
    def test_self_time_is_inclusive_minus_child_coverage(self):
        spans = [
            (0, "root", 0.0, 10.0, -1),
            (1, "a", 1.0, 4.0, 0),
            (2, "leaf", 2.0, 3.0, 1),
            (3, "b", 5.0, 7.0, 0),
            (4, "leaf", 5.5, 6.0, 3),
            (5, "leaf", 8.0, 9.5, 0),
        ]
        stats = tracer.summarise(spans)
        self.assertEqual(stats["root"], {"calls": 1, "s": 10.0, "self_s": 3.5})
        self.assertEqual(stats["a"], {"calls": 1, "s": 3.0, "self_s": 2.0})
        self.assertEqual(stats["b"], {"calls": 1, "s": 2.0, "self_s": 1.5})
        self.assertEqual(stats["leaf"], {"calls": 3, "s": 3.0, "self_s": 3.0})
        total_self = sum(entry["self_s"] for entry in stats.values())
        self.assertEqual(total_self, 10.0)

    def test_recursion_is_counted_once_in_inclusive_time(self):
        spans = [(0, "f", 0.0, 8.0, -1), (1, "g", 1.0, 7.0, 0),
                 (2, "f", 2.0, 6.0, 1)]
        stats = tracer.summarise(spans)
        self.assertEqual(stats["f"], {"calls": 2, "s": 8.0, "self_s": 6.0})
        self.assertEqual(stats["g"]["self_s"], 2.0)

    def test_overlapping_children_are_covered_once(self):
        self.assertEqual(tracer._covered(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0),
                                                     (9.0, 12.0)]), 5.0)

    def test_recorder_links_nested_spans(self):
        recorder = tracer.Recorder()
        inner = recorder.timed("m.inner", lambda x: x + 1)
        counted = recorder.counted("m.hot", lambda x: x)
        outer = recorder.timed("m.outer",
                               lambda x: inner(counted(x)) + inner(x))
        self.assertEqual(outer(1), 4)
        spans = sorted(recorder.spans)
        self.assertEqual([name for _, name, _, _, _ in spans],
                         ["m.outer", "m.inner", "m.inner"])
        self.assertEqual([parent for *_, parent in spans], [-1, 0, 0])
        self.assertEqual(recorder.counts["m.hot"], 1)


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.oracle_counts = expected_oracle_counts()

    def test_oracle_counts_match_the_paper_polynomials(self):
        self.assertEqual(self.oracle_counts, PAPER_ORACLE_COUNTS)

    def test_corrupted_polys_digest_is_a_failed_operation(self):
        corrupted = dict(POLYS_DIGESTS, **{"polys-wide": "0" * 64})
        self.assertEqual(_failed_runs(Checker(self.oracle_counts, corrupted),
                                     "series"), 1)
        self.assertEqual(_failed_runs(Checker(self.oracle_counts),
                                     "series"), 0)

    def test_wrong_oracle_count_is_a_failed_operation(self):
        wrong = dict(self.oracle_counts)
        orbits, irr, ind = wrong[(3, 2, 2)]
        wrong[(3, 2, 2)] = (orbits, irr + 1, ind)
        self.assertEqual(_failed_runs(Checker(wrong), "oracle-boxes"), 1)
        self.assertEqual(_failed_runs(Checker(self.oracle_counts),
                                     "oracle-boxes"), 0)

    def test_failed_verify_check_is_reported(self):
        check = Checker(self.oracle_counts)
        verify, = [command for command in WORKLOADS["series"].commands
                   if command.argv[0] == "verify"]
        bad = json.dumps({"checks": [{"name": "x", "passed": False}],
                          "all_passed": False})
        self.assertIsNotNone(check(verify, bad))
        self.assertIsNotNone(check(verify, "not json"))


class Schedule(unittest.TestCase):
    def test_seed_shuffles_the_interleaving_reproducibly(self):
        bench = run.Run(list(WORKLOADS), checker=None, trace=False)
        plans = [[item for item, _ in zip(bench.plan(random.Random(seed)),
                                          range(40))] for seed in (1, 1, 2)]
        self.assertEqual(plans[0], plans[1])
        self.assertNotEqual(plans[0], plans[2])
        size = len(bench.round_items())
        self.assertEqual(sorted(plans[0][:size]), sorted(bench.round_items()))


class Timings(unittest.TestCase):
    def test_mean_time_sums_the_mean_of_each_command(self):
        samples = [run.Sample("a", 3.0, 2.9), run.Sample("b", 1.0, 0.9),
                   run.Sample("a", 2.0, 2.1), run.Sample("b", 4.0, 3.9),
                   run.Sample("b", 0.1, 0.1, problem="wrong output")]
        self.assertAlmostEqual(run.mean_time(samples, "wall"), 2.5 + 2.5)
        self.assertAlmostEqual(run.mean_time(samples, "cpu"), 2.5 + 2.4)

    def test_times_are_taken_to_the_reference_speed(self):
        bench = run.Run(["oracle-boxes"], checker=None, trace=False)
        ref = run.REFERENCE_S
        bench.samples["oracle-boxes"] = [run.Sample("a", 3.0, 2.0),
                                         run.Sample("a", 5.0, 1.0)]
        bench.setup = [0.3, 0.5, 0.4]
        # the loops took 2 times REFERENCE_S on average, 3 times in CPU time
        bench.reference = [(1 * ref, 3 * ref), (2 * ref, 2 * ref),
                           (3 * ref, 4 * ref)]
        values = bench.end_to_end("oracle-boxes")
        self.assertAlmostEqual(values["wall_s"], 4.0 / 2)
        self.assertAlmostEqual(values["cpu_s"], 1.5 / 3)
        self.assertAlmostEqual(values["setup_s"], 0.4 / 2)

    def test_peak_rss_is_read_from_the_last_stderr_line(self):
        stderr = f"warning\n{run.PEAK_RSS_TAG} 20480\n".encode()
        self.assertEqual(run._peak_rss_kib(stderr), 20480)
        self.assertEqual(run._peak_rss_kib(b"Traceback ...\n"), 0)

    def test_peak_rss_is_the_child_s_own(self):
        # this process holds 64 MiB more than any child needs; wait4's
        # ru_maxrss would report it for the child, VmHWM does not
        ballast = b"\x01" * (64 << 20)
        bench = run.Run(["oracle-boxes"], Checker(expected_oracle_counts()),
                        trace=False)
        bench.take(("op", "oracle-boxes", 0))
        del ballast
        rss = bench.samples["oracle-boxes"][0].rss_mib
        self.assertGreater(rss, 5)
        self.assertLess(rss, 64)


class BenchmarkFile(unittest.TestCase):
    def test_lists_the_reported_workloads_and_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {name: w.why for name, w in WORKLOADS.items()})
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
