"""Tests of the benchmark harness, at the small input size.

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of a checkout; the first test builds the harness.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("fig4-exec", "fig5-tput", "table3-contain", "fleet-churn")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args, cwd=ROOT, runner=RUN):
    """Runs the benchmark; returns (exit code, result or None, manifest or None)."""
    proc = subprocess.run([sys.executable, runner, "--size", "small", "--seconds", "1"]
                          + list(args), cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    manifest = json.loads(lines[-2])["manifest"] if len(lines) > 1 else None
    return proc.returncode, result, manifest


class ResultShapeTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            emitted = result["metrics"][metric["name"]]
            self.assertEqual(emitted["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(emitted["value"], (int, float), metric["name"])

    def test_every_end_to_end_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, manifest = run("--workload", workload, "--trace", "0")
                self.assertEqual(code, 0)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                for key in ("nproc", "cpu_model", "compiler", "build_type", "git_commit",
                            "seed", "model_shape", "threads", "spread_iqr_over_median"):
                    self.assertIn(key, manifest)
                self.assertEqual(manifest["digest"], manifest["expected_digest"])

    def test_traced_run_emits_every_per_layer_metric_and_linked_spans(self):
        with tempfile.TemporaryDirectory() as tmp:
            spans_path = os.path.join(tmp, "spans.json")
            code, result, _ = run("--workload", "fleet-churn", "--trace", "1",
                                  "--spans-out", spans_path)
            self.assertEqual(code, 0)
            self.check_metrics(result, SPEC["per_layer"])
            self.assertTrue(result["correct"])
            with open(spans_path) as f:
                spans = {span["id"]: span for span in json.load(f)}
        roots = {span["name"] for span in spans.values() if span["parent"] == 0}
        self.assertEqual(roots, {"sim.pass_1t_s", "ledger"})
        children = [span for span in spans.values() if span["parent"] != 0]
        self.assertGreater(len(children), 10)
        for span in children:
            parent = spans[span["parent"]]
            self.assertLessEqual(parent["start_ns"], span["start_ns"], span["name"])
            self.assertLessEqual(span["end_ns"], parent["end_ns"], span["name"])
        names = {span["name"] for span in children}
        for probe in ("probe.fig4", "probe.table3", "probe.fleet", "siloz.MigrateVm",
                      "audit.Auditor::Run", "memctl.RunShardedClosedLoop"):
            self.assertIn(probe, names)


class FailureTest(unittest.TestCase):
    def test_corrupted_expected_digest_fails_the_operations(self):
        with open(os.path.join(ROOT, "perfbench", "digests.json")) as f:
            digests = json.load(f)
        digests["small"]["fig4-exec"] = "0123456789abcdef"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "digests.json")
            with open(path, "w") as f:
                json.dump(digests, f)
            code, result, manifest = run("--workload", "fig4-exec", "--digests", path)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])
        self.assertTrue(any("0123456789abcdef" in f for f in manifest["failures"]))

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _ = run("--workload", "fig4-exec", cwd=tmp,
                                  runner=os.path.join(tmp, "perfbench", "run.py"))
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
