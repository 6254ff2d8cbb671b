#!/usr/bin/env python3
"""Self-tests of the benchmark, on the small shape of every workload.

    python3 perfbench/test_perfbench.py

Builds perfbench_sim like run.py does, then checks that every metric named
in BENCHMARK.json prints with its unit, that the fingerprint check runs and
catches a mismatch, that tracing (sliced run_until plus probes) and
sharding leave the fingerprint unchanged, and that specs are a pure
function of the seed.
"""

import json
import os
import subprocess
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def bench(workload, trace):
    """Runs run.py on the small shape; returns (stdout lines, result)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "0.1", "--trace",
         str(trace), "--small"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise AssertionError("run.py exit %d:\n%s\n%s"
                             % (proc.returncode, proc.stdout, proc.stderr))
    return lines, json.loads(lines[-1])


def fingerprint(workload, world=0, traced=False, threads=None):
    spec = run.write_spec(workload, SEED, True, world)
    shape = workloads.shape(workload, small=True)
    trace = None
    if traced:
        trace = os.path.join(run.ROOT, ".bench_build", "traces",
                             "selftest-%s.json" % workload)
        os.makedirs(os.path.dirname(trace), exist_ok=True)
    result, why = run.execute(spec, trace, shape, threads)
    if result is None:
        raise AssertionError(why)
    return result["fingerprint"], result


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench_sim failed to build")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.declared = json.load(f)

    def test_benchmark_json_matches_runner(self):
        declared = self.declared
        self.assertEqual(sorted(w["name"] for w in declared["workloads"]),
                         sorted(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in declared["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in declared["per_layer"]},
                         run.PER_LAYER)

    def test_every_metric_prints_with_unit(self):
        for workload in sorted(workloads.WORKLOADS):
            for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = bench(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(names))
                    text = "\n".join(lines[:-1])
                    for name, unit in names.items():
                        self.assertEqual(result["metrics"][name]["unit"], unit)
                        self.assertIsInstance(
                            result["metrics"][name]["value"], (int, float))
                        self.assertIn(name, text)
                    self.assertIn("fingerprint", text)
                    if trace == 0:
                        for name in names:
                            self.assertGreater(
                                result["metrics"][name]["value"], 0, name)

    def test_traced_matches_untraced(self):
        for workload in sorted(workloads.WORKLOADS):
            with self.subTest(workload=workload):
                plain, _ = fingerprint(workload)
                traced, result = fingerprint(workload, traced=True)
                self.assertEqual(plain, traced)
                self.assertTrue(result["slices"])
                self.assertTrue(result["spans"])

    def test_sharded_matches_serial(self):
        serial, r1 = fingerprint("steady")
        self.assertEqual(r1["sim"]["shards"], 1)
        twin = workloads.WORKLOADS["steady"]["twin_threads"]
        for threads in sorted({2, twin}):
            with self.subTest(threads=threads):
                sharded, rn = fingerprint("steady", threads=threads)
                self.assertGreater(rn["sim"]["shards"], 1)
                self.assertGreater(rn["sim"]["windows"], 0)
                self.assertEqual(serial, sharded)

    def test_fingerprint_mismatch_fails_the_run(self):
        _, good = fingerprint("flood-512")
        bad = dict(good, fingerprint="0" * 16)
        outcomes = iter([(good, None), (bad, None)] * 8)
        with mock.patch.object(run, "execute",
                               lambda *a, **k: next(outcomes)):
            _, _, failures = run.measure("flood-512", SEED, 0, False,
                                         small=True)
        self.assertTrue(any("fingerprints differ" in f for f in failures))

    def test_spec_is_a_function_of_the_seed(self):
        for workload in sorted(workloads.WORKLOADS):
            with self.subTest(workload=workload):
                a = workloads.make_spec(workload, 3)
                self.assertEqual(a, workloads.make_spec(workload, 3))
                self.assertNotEqual(a, workloads.make_spec(workload, 4))
                self.assertNotEqual(a, workloads.make_spec(workload, 3,
                                                           world=1))


if __name__ == "__main__":
    unittest.main()
