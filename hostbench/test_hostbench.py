#!/usr/bin/env python3
"""Tests of the host-time benchmark itself, on the Tiny profile.

Run from the root of a checkout (builds the benchmark first):

    python3 hostbench/test_hostbench.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

REPO = os.path.dirname(run.HERE)
WORKLOADS = ("cold_large", "replay_sweep", "variant_bakeoff")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
# A Tiny run of any workload (three iterations) takes a few seconds.
TINY_LIMIT_S = 60


def tiny(workload, trace=0, *extra):
    """Run one Tiny-profile workload; return (json result, stdout, secs)."""
    start = time.monotonic()
    res = subprocess.run(
        [BINARY, "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--profile", "tiny",
         "--work-dir", os.path.join(run.build_dir(), "test-work")]
        + list(extra),
        stdout=subprocess.PIPE, text=True, timeout=TINY_LIMIT_S * 2,
        check=True, env=run.child_env())
    elapsed = time.monotonic() - start
    return json.loads(res.stdout.strip().splitlines()[-1]), res.stdout, \
        elapsed


def cell_re(scene, column):
    return re.escape(scene), re.escape(column)


def setUpModule():
    global BINARY
    BINARY = run.build()


class HostbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {(w, t): tiny(w, t) for w in WORKLOADS
                    for t in (0, 1)}

    def test_tiny_runs_finish_in_seconds_and_pass(self):
        for (workload, trace), (result, _, secs) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertLess(secs, TINY_LIMIT_S)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)

    def test_metric_names_and_sets(self):
        end_to_end = {m["name"] for m in self.spec["end_to_end"]}
        per_layer = {m["name"] for m in self.spec["per_layer"]}
        for (workload, trace), (result, _, _) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                names = set(result["metrics"])
                for name in names:
                    self.assertTrue(NAME_RE.fullmatch(name), name)
                self.assertEqual(names, per_layer if trace else end_to_end)

    def test_units_match_benchmark_json(self):
        units = {m["name"]: m["unit"]
                 for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        for (workload, trace), (result, _, _) in self.runs.items():
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], units[name], name)

    def test_stdout_names_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            out = self.runs[(workload, 0)][1]
            for name in ("setup_s", "sweep_s", "peak_rss_mb",
                         "failed_cell_frac", "sms_ipc_gap_pp"):
                self.assertRegex(out, r"(?m)^%s\s+\S+ \S+" % name)

    def test_replay_sweep_design_claim_holds(self):
        result, out, _ = self.runs[("replay_sweep", 1)]
        self.assertIn("claim: replay_sweep runs no scene, BVH, render or "
                      "execute work: holds", out)
        metrics = result["metrics"]
        for name in ("scene.make_s", "bvh.build_s", "trace.render_s",
                     "sim.cells_executed"):
            self.assertEqual(metrics[name]["value"], 0, name)
        self.assertGreater(metrics["sim.cells_replayed"]["value"], 0)

    def corrupt_one_digest(self, workload, pick):
        """Write a reference for the Tiny run of @p workload, flip one bit
        of the digest of the first cell for which pick(scene, column)
        holds, and run against it; return (json result before and after,
        stdout after, cell)."""
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            ref = os.path.join(tmp, "ref.txt")
            tiny(workload, 0, "--write-reference", ref)
            result, _, _ = tiny(workload, 0, "--reference", ref)
            self.assertTrue(result["correct"])

            with open(ref) as f:
                lines = f.read().splitlines()
            i = next(i for i, line in enumerate(lines[1:], 1)
                     if pick(*line.split()[:2]))
            scene, column, digest = lines[i].split()
            lines[i] = "%s %s %016x" % (scene, column, int(digest, 16) ^ 1)
            with open(ref, "w") as f:
                f.write("\n".join(lines) + "\n")
            corrupted, out, _ = tiny(workload, 0, "--reference", ref)
            self.assertRegex(out, r"failed cell %s %s: .*counters differ "
                             r"from the reference" % cell_re(scene, column))
            return result, corrupted, out, (scene, column)

    def test_one_corrupted_reference_digest_fails_one_cell(self):
        before, result, _, _ = self.corrupt_one_digest(
            "replay_sweep", lambda scene, column: column == "RB_8")
        self.assertEqual(before["failed"], 0)
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])

    def test_known_defect_column_does_not_excuse_a_reference_failure(self):
        # Only an oracle divergence of a known-defect cell keeps the run
        # correct; any other failure in those columns does not.
        for column in ("RB_8+sl", "RB_8+pred"):
            with self.subTest(column=column):
                _, result, out, cell = self.corrupt_one_digest(
                    "variant_bakeoff",
                    lambda scene, col: col == column and scene == "SPNZA")
                self.assertFalse(result["correct"])
                self.assertNotRegex(out, r"failed cell %s %s: .*known "
                                    r"defect" % cell_re(*cell))


if __name__ == "__main__":
    unittest.main()
