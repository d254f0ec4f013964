#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_run.py

The metric and workload names run.py prints must match BENCHMARK.json
exactly, and the correctness gate must trip on every failure it guards,
including on a tampered digest from a real run. The real runs build the
driver first (as run.py does) and fail if the build fails.
"""

import copy
import json
import os
import subprocess
import unittest

import run

GOOD = {
    "workload": "serve-churn",
    "timed_epochs": 3,
    "wall_s": 0.5,
    "answers": 10,
    "recall_sum": 9.5,
    "energy_mj": 12.0,
    "fleet_energy_mj": 30.0,
    "tenant_energy_mj": 25.0,
    "install_energy_mj": 5.0,
    "digest": "00112233445566778",
    "attempted": 40,
    "failed": 0,
    "first_error": "",
    "per_layer": {},
}


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_end_to_end_names_and_units_match(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END)

    def test_per_layer_names_and_units_match(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         run.PER_LAYER)

    def test_command_runs_this_script(self):
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])


class GateTest(unittest.TestCase):
    def test_clean_result_passes(self):
        self.assertEqual(run.gate(GOOD), [])
        self.assertEqual(run.gate_replay(GOOD, copy.deepcopy(GOOD)), [])

    def test_tampered_digest_trips_replay_gate(self):
        traced = copy.deepcopy(GOOD)
        traced["digest"] = "ffffffffffffffff"
        self.assertTrue(any("digest" in e for e in run.gate_replay(GOOD, traced)))

    def test_energy_drift_trips_replay_gate(self):
        traced = copy.deepcopy(GOOD)
        traced["energy_mj"] += 1e-12
        self.assertTrue(run.gate_replay(GOOD, traced))

    def test_failed_operation_trips_gate(self):
        bad = dict(GOOD, failed=1, first_error="admit rejected")
        self.assertTrue(any("failed_op_ratio" in e for e in run.gate(bad)))

    def test_unreconciled_energy_trips_gate(self):
        bad = dict(GOOD, tenant_energy_mj=24.0)
        self.assertTrue(any("fleet total" in e for e in run.gate(bad)))

    def test_metric_set_mismatch_is_refused(self):
        with self.assertRaises(RuntimeError):
            run.report(True, 1, 0, {"epoch_ms_p50": 1.0}, run.END_TO_END)


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_real_runs_pass_and_tampering_trips(self):
        # The shortest run the driver allows: its 100-epoch floor.
        untraced = run.run_driver("serve-churn", 7, 0.01, 0, 0)
        traced = run.run_driver("serve-churn", 7, 0.01, 1, 0)
        self.assertEqual(run.gate(untraced), [])
        self.assertEqual(run.gate(traced), [])
        self.assertEqual(run.gate_replay(untraced, traced), [])
        self.assertEqual(set(run.per_layer(untraced, traced)),
                         set(run.PER_LAYER))
        self.assertEqual(set(run.end_to_end(untraced)), set(run.END_TO_END))
        tampered = dict(traced, digest="%016x" % (int(traced["digest"], 16) ^ 1))
        self.assertTrue(run.gate_replay(untraced, tampered))

    def test_unknown_workload_is_refused(self):
        proc = subprocess.run([run.BINARY, "--workload", "nope", "--seed", "1"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
