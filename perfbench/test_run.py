"""Tests for run.py's own logic: aggregation, name grammar, output checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import tempfile
import unittest
from pathlib import Path

import run


def result(**overrides):
    r = {
        "workload": "w", "seed": 0, "traced": False, "offered": 100, "served": 100,
        "refused": 0, "total_distance": 400, "outcome_digest": "aa", "effort_digest": None,
        "setup_s": 0.5, "sim_s": 2.0, "total_s": 3.0, "peak_rss_kb": 2048, "failures": [],
    }
    r.update(overrides)
    return r


class Aggregation(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        q1, med, q3 = run.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_single_value_quartiles(self):
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_end_to_end_figures(self):
        runs = [result(sim_s=2.0, total_s=3.0), result(sim_s=4.0, total_s=5.0, served=80,
                                                       refused=20, total_distance=240)]
        e2e = run.end_to_end(runs)
        self.assertEqual(e2e["req_per_s"], [50.0, 25.0])
        self.assertEqual(e2e["mean_distance"], [4.0, 3.0])
        self.assertEqual(e2e["served_frac"], [1.0, 0.8])
        self.assertEqual(e2e["peak_rss_mb"], [2.0, 2.0])

    def test_summarize_reports_medians(self):
        declared = {"total_s": "s"}
        out = run.summarize({"total_s": [3.0, 1.0, 2.0]}, declared)
        self.assertEqual(out, {"total_s": {"value": 2.0, "unit": "s"}})

    def test_summarize_rejects_undeclared_or_missing(self):
        with self.assertRaises(run.BenchError):
            run.summarize({"a": [1.0]}, {"b": "s"})
        with self.assertRaises(run.BenchError):
            run.summarize({"a": [1.0], "b": [1.0]}, {"a": "s"})

    def test_trace_overhead_within_pairs(self):
        untraced = [result(total_s=2.0), result(total_s=4.0)]
        traced = [result(traced=True, total_s=2.4, layers={"des.events": 7.0}),
                  result(traced=True, total_s=3.0, layers={"des.events": 7.0})]
        layers = run.per_layer(untraced, traced)
        self.assertEqual(layers["des.events"], [7.0, 7.0])
        self.assertEqual([round(x, 9) for x in layers["trace.overhead_pct"]], [20.0, -25.0])


class NameGrammar(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "placement.seeds_per_request", "trace.overhead_pct", "mr_1920",
                     "9lives", "a-b.c_d"):
            self.assertTrue(run.valid_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_lead", ".lead", "has space", "slash/name", "pct%", "x" * 65,
                     "ümlaut"):
            self.assertFalse(run.valid_name(name), name)

    def test_spec_with_bad_name_is_refused(self):
        spec = {"workloads": [{"name": "ok"}], "end_to_end": [{"name": "bad name"}],
                "per_layer": []}
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "BENCHMARK.json"
            path.write_text(json.dumps(spec))
            with self.assertRaises(run.BenchError):
                run.load_spec(path)

    def test_committed_spec_loads(self):
        spec = run.load_spec(run.ROOT / "BENCHMARK.json")
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["paper_obs", "cloud_16k"])


class OutputChecks(unittest.TestCase):
    def test_consistent_runs_pass(self):
        runs = [result(), result(), result(traced=True, effort_digest="e")]
        self.assertEqual(run.check_runs(runs), ([], set()))
        self.assertEqual(run.operations(runs, set()), (300, 0))

    def test_refusals_count_as_failed(self):
        runs = [result(served=90, refused=10)]
        self.assertEqual(run.operations(runs, set()), (100, 10))

    def test_corrupted_run_fails_all_its_requests(self):
        runs = [result(), result(failures=["per-outcome distances sum to 1"])]
        failures, failed = run.check_runs(runs)
        self.assertEqual(failed, {1})
        self.assertIn("per-outcome distances", failures[0])
        self.assertEqual(run.operations(runs, failed), (200, 100))

    def test_mismatched_outcome_digest_fails_every_run(self):
        runs = [result(), result(outcome_digest="bb")]
        failures, failed = run.check_runs(runs)
        self.assertEqual(failed, {0, 1})
        self.assertIn("outcome_digest", failures[0])

    def test_mismatched_effort_digest_fails(self):
        runs = [result(effort_digest="e1"), result(effort_digest="e2"), result()]
        failures, failed = run.check_runs(runs)
        self.assertEqual(failed, {0, 1, 2})
        self.assertIn("effort_digest", failures[0])


if __name__ == "__main__":
    unittest.main()
