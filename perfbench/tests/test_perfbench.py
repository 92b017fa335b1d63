#!/usr/bin/env python3
"""Self-test of the apf benchmark: a tiny-size smoke pass of every workload.

Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

It builds the benchmark like perfbench/run.py does, then checks that
 * every metric BENCHMARK.json names is emitted, with its declared unit;
 * metric names use only [A-Za-z0-9_.-];
 * the campaign's runs are re-executed to check each reported success;
 * the timing decorator leaves the exact counts unchanged: the traced pass
   cross-checks every run's cycles, events and random bits (and the
   campaign's payloads) against an untraced pass and fails otherwise, and
   the exact metrics of the two modes agree.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = ("election", "formation", "campaign")


def run_bench(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError("%s trace %d failed (%d):\n%s\n%s" % (
            workload, trace, done.returncode, done.stdout, done.stderr))
    return json.loads(lines[-1]), lines[:-1]


class PerfbenchSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.results = {(w, t): run_bench(w, t)
                       for w in WORKLOADS for t in (0, 1)}

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(
            sorted(w["name"] for w in self.spec["workloads"]),
            sorted(WORKLOADS))

    def test_every_metric_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.spec[key]}
            for w in WORKLOADS:
                result, _ = self.results[(w, trace)]
                self.assertTrue(result["correct"], (w, trace))
                self.assertGreaterEqual(result["attempted"], 1)
                emitted = result["metrics"]
                self.assertEqual(set(emitted), set(declared), (w, trace))
                for name, unit in declared.items():
                    self.assertEqual(emitted[name]["unit"], unit, name)
                    self.assertIsInstance(emitted[name]["value"],
                                          (int, float), name)

    def test_metric_names(self):
        for key in ("end_to_end", "per_layer"):
            for m in self.spec[key]:
                self.assertRegex(m["name"], NAME)
        for result, _ in self.results.values():
            for name in result["metrics"]:
                self.assertRegex(name, NAME)

    def test_campaign_runs_are_re_executed(self):
        # The payloads carry no positions, so the end-to-end mode re-runs
        # every campaign run to check each success; missed goals are listed.
        _, notes = self.results[("campaign", 0)]
        self.assertTrue(any(n.startswith("check: all ") for n in notes))
        self.assertTrue(any(n.startswith("events: ") for n in notes))

    def test_decorator_leaves_exact_counts_unchanged(self):
        for w in WORKLOADS:
            plain, plain_notes = self.results[(w, 0)]
            traced, traced_notes = self.results[(w, 1)]
            self.assertTrue(any(n.startswith("determinism: the traced pass "
                                             "reproduces all")
                                for n in traced_notes), w)
            # Both modes report the untraced bits-per-cycle ratio of the
            # same runs (the traced mode on a prefix of them, equal to the
            # whole at tiny size for the serial workloads).
            if w != "campaign":
                note = [n for n in plain_notes if n.startswith("exact:")][0]
                bits = float(note.split()[2])
                self.assertEqual(
                    bits, traced["metrics"]["random_bits_per_cycle"]["value"])
            m = plain["metrics"]
            self.assertGreater(m["cycles_per_run"]["value"], 0)
            self.assertGreater(m["events_per_run"]["value"],
                               m["cycles_per_run"]["value"])


if __name__ == "__main__":
    unittest.main()
