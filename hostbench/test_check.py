#!/usr/bin/env python3
"""Self-test of the benchmark's output check.

    python3 hostbench/test_check.py

Proves that a corrupted simulated-result digest, a runtime-breakdown
mismatch, a failed sweep config or an empty run each count as a failed
repetition, and that clean repetitions do not.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def clean_rep():
    return {"wall_s": 2.0, "event.events": 4111360.0,
            "network.messages": 4030464.0,
            "check.breakdown_max_err_ns": 0.0, "check.failures": 0.0,
            "sim.total_ns": 730449606.3387, "sim.exposed_comm_frac": 0.1694,
            "sim.digest": 29235401636443.0}


class OutputCheckTest(unittest.TestCase):
    def test_clean_repetitions_pass(self):
        reps = [clean_rep() for _ in range(4)]
        self.assertEqual(run.count_failed(reps), 0)
        self.assertEqual(run.check_rep(clean_rep(), clean_rep()), [])

    def test_corrupted_digest_is_a_failure(self):
        reps = [clean_rep() for _ in range(4)]
        reps[2]["sim.digest"] += 1
        self.assertEqual(run.count_failed(reps), 1)

    def test_traced_result_drift_is_a_failure(self):
        reps = [clean_rep() for _ in range(3)]
        reps[1]["sim.total_ns"] *= 1.0 + 1e-12
        self.assertEqual(run.count_failed(reps), 1)

    def test_breakdown_mismatch_is_a_failure(self):
        reps = [clean_rep() for _ in range(4)]
        reps[0]["check.breakdown_max_err_ns"] = 1.5
        self.assertEqual(run.count_failed(reps), 1)
        reps[0]["check.breakdown_max_err_ns"] = float("nan")
        self.assertEqual(run.count_failed(reps), 1)

    def test_breakdown_within_tolerance_passes(self):
        rep = clean_rep()
        rep["check.breakdown_max_err_ns"] = run.BREAKDOWN_TOL_NS
        self.assertEqual(run.check_rep(rep), [])

    def test_failed_sweep_config_is_a_failure(self):
        rep = clean_rep()
        rep["check.failures"] = 1.0
        self.assertEqual(run.count_failed([rep, clean_rep(), clean_rep()]), 1)

    def test_empty_run_is_a_failure(self):
        for key in ("event.events", "network.messages"):
            rep = clean_rep()
            rep[key] = 0.0
            self.assertEqual(len(run.check_rep(rep)), 1, key)

    def test_disagreement_with_an_earlier_run_fails_every_rep(self):
        reps = [clean_rep() for _ in range(3)]
        stored = dict(run.sim_reference(reps))
        stored["sim.digest"] += 1
        self.assertEqual(run.count_failed(reps, stored), 3)


if __name__ == "__main__":
    unittest.main()
