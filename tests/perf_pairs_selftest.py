#!/usr/bin/env python3
"""Self-test of tools/perf_pairs.py's verdict on synthetic pairs; runs no
benchmark.

    python3 tests/perf_pairs_selftest.py
"""

import os
import random
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
import perf_pairs  # noqa: E402

SPEC = perf_pairs.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NOMINAL = {"setup_s": 0.08, "jobs_per_s": 40.0, "job_ms_p50": 20.0, "job_ms_p90": 25.0,
           "cpu_ms_per_job": 60.0, "peak_rss_mib": 130.0}


def result(values, correct=True, attempted=640, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in SPEC["end_to_end"]}}


def draw(rng):
    """One run's metrics: every timing within a few per cent of nominal, and
    peak RSS within 1 %, as same-build runs read on a quiet host."""
    return {name: v * (1 + rng.gauss(0, 0.01 if name == "peak_rss_mib" else 0.04))
            for name, v in NOMINAL.items()}


def same_distribution(seed, n=10):
    """n pairs per workload, both sides drawn from one distribution."""
    rng = random.Random(seed)
    return {w: [(result(draw(rng)), result(draw(rng))) for _ in range(n)] for w in WORKLOADS}


def scaled(pairs, workload, metric, factor):
    """`pairs` with the change's `metric` on `workload` multiplied by `factor`."""
    out = {}
    for w, runs in pairs.items():
        out[w] = []
        for base, change in runs:
            if w == workload:
                values = {k: v["value"] for k, v in change["metrics"].items()}
                values[metric] *= factor
                change = result(values)
            out[w].append((base, change))
    return out


def against_base(pairs, workload, metric, factors):
    """`pairs` with the change's `metric` on `workload` set, in pair k, to
    the base's value times factors[k]."""
    runs = pairs[workload]
    for k, (base, change) in enumerate(runs):
        values = {m: v["value"] for m, v in change["metrics"].items()}
        values[metric] = base["metrics"][metric]["value"] * factors[k]
        runs[k] = (base, result(values))
    return pairs


def table_row(lines, workload, metric):
    """The cells of the metric's row in the workload's block of the table."""
    current = None
    for line in lines:
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) != 6:
            continue
        if cells[0]:
            current = cells[0]
        if current.startswith("`%s`" % workload) and cells[1].startswith("`%s`" % metric):
            return cells
    raise AssertionError("no row for %s %s" % (workload, metric))


class PerfPairsTest(unittest.TestCase):
    def test_pairs_from_one_distribution_pass(self):
        for seed in range(1, 6):
            _, failures = perf_pairs.evaluate(SPEC, same_distribution(seed))
            self.assertEqual(failures, [], "seed %d" % seed)

    def test_regressions_fail_and_name_workload_and_metric(self):
        base = same_distribution(7)
        for workload, metric, factor in (("sort_cold", "job_ms_p50", 2.0),
                                         ("tenants_procs", "jobs_per_s", 0.5),
                                         ("wordcount_warm", "peak_rss_mib", 1.15)):
            _, failures = perf_pairs.evaluate(SPEC, scaled(base, workload, metric, factor))
            self.assertEqual(len(failures), 1, failures)
            self.assertIn("%s %s:" % (workload, metric), failures[0])

    def test_small_rss_growth_passes(self):
        _, failures = perf_pairs.evaluate(
            SPEC, scaled(same_distribution(8), "wordcount_warm", "peak_rss_mib", 1.05))
        self.assertEqual(failures, [])

    def test_incorrect_run_fails(self):
        pairs = same_distribution(9)
        base, change = pairs["sort_cold"][3]
        values = {k: v["value"] for k, v in change["metrics"].items()}
        pairs["sort_cold"][3] = (base, result(values, correct=False, failed=1))
        _, failures = perf_pairs.evaluate(SPEC, pairs)
        self.assertTrue(any("sort_cold" in f and "correct: false" in f for f in failures),
                        failures)

    def test_higher_failed_share_fails(self):
        pairs = same_distribution(10)
        base, change = pairs["tenants_procs"][0]
        values = {k: v["value"] for k, v in change["metrics"].items()}
        # correct stays true, so only the failed share can fail the change.
        pairs["tenants_procs"][0] = (base, result(values, failed=2))
        _, failures = perf_pairs.evaluate(SPEC, pairs)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("tenants_procs: failed share", failures[0])

    def test_ties_count_for_neither_side(self):
        # 3 pairs better, 2 tied, 5 worse (within the bound).
        pairs = against_base(same_distribution(11), "wordcount_warm", "job_ms_p50",
                             [0.9] * 3 + [1.0] * 2 + [1.1] * 5)
        lines, failures = perf_pairs.evaluate(SPEC, pairs)
        self.assertEqual(failures, [])
        self.assertEqual(table_row(lines, "wordcount_warm", "job_ms_p50")[5], "3/10")

    def test_clear_gain_meets_the_claim_rule(self):
        lines, failures = perf_pairs.evaluate(
            SPEC, scaled(same_distribution(12), "sort_cold", "job_ms_p50", 0.7))
        self.assertEqual(failures, [])
        self.assertEqual(table_row(lines, "sort_cold", "job_ms_p50")[5], "10/10")
        self.assertIn("holds for: sort_cold job_ms_p50", lines[-1])

    def test_src_lines_counts_headers_and_sources_under_src_only(self):
        with tempfile.TemporaryDirectory() as tree:
            files = {"src/a.h": "1\n2\n3\n", "src/sub/b.cc": "x\ny\n",
                     "src/notes.txt": "ignored\n", "src/c.cpp": "ignored\n",
                     "tests/d.cc": "outside src\n"}
            for path, text in files.items():
                os.makedirs(os.path.dirname(os.path.join(tree, path)), exist_ok=True)
                with open(os.path.join(tree, path), "w") as f:
                    f.write(text)
            self.assertEqual(perf_pairs.src_lines(tree), 5)
            self.assertEqual(perf_pairs.src_lines(os.path.join(tree, "tests")), 0)

    def test_claim_needs_a_gap_wider_than_the_parent_iqr(self):
        # Every pair won by 1 %, far less than the parent's spread.
        pairs = against_base(same_distribution(13), "sort_cold", "job_ms_p50", [0.99] * 10)
        lines, _ = perf_pairs.evaluate(SPEC, pairs)
        self.assertEqual(table_row(lines, "sort_cold", "job_ms_p50")[5], "10/10")
        self.assertNotIn("sort_cold job_ms_p50", lines[-1])


if __name__ == "__main__":
    unittest.main()
