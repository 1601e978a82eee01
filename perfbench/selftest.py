#!/usr/bin/env python3
"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload once at a small size and requires a zero error rate,
shows that the gate can fail (a corrupted reference answer and a
``reduce_word`` that drops a syllable both raise the error rate), checks that
two traced runs count the same work, that the speed probe's own time is left
out of the work's, and that ``BENCHMARK.json`` names exactly
the metrics the benchmark prints.
"""

from __future__ import annotations

import copy
import json
import unittest

import child
import run
import tracer


def small(workload, seed=run.DEFAULT_SEED, **kw):
    return run.run_workload(workload, seed, 0, small=True, **kw)


class SelfTest(unittest.TestCase):
    def test_every_workload_passes_at_small_size(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                res = small(workload)
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(res["failed"], 0)
                self.assertEqual(res["extra"]["error_rate"]["value"], 0)
                self.assertTrue(res["aslr_off"])

    def test_corrupted_reference_is_caught(self):
        reference = run.load_reference()
        bad = copy.deepcopy(reference)
        bad["small"]["verify_all/c5_mixed"]["answer"]["pass:davis.free-faces"] += 1
        bad["small"]["word_stream/reduce"]["digests"][5] = "0" * 12
        for workload in ("verify_all", "word_stream"):
            with self.subTest(workload=workload):
                res = small(workload, reference=bad)
                self.assertGreater(res["extra"]["error_rate"]["value"], 0)

    def test_wrong_reduce_word_is_caught(self):
        # seed 1 has no stored digests, so only the invariants can catch it
        for seed in (run.DEFAULT_SEED, 1):
            with self.subTest(seed=seed):
                res = small("word_stream", seed, fault="reduce_word")
                self.assertGreater(res["extra"]["error_rate"]["value"], 0)

    def test_traced_runs_count_the_same_work(self):
        spec = tracer.load_layers()
        names = [name for name, _ in tracer.metric_names(spec)]
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a, b = (small(workload, trace=True) for _ in range(2))
                self.assertEqual(a["failed"], 0)
                self.assertEqual(sorted(a["per_layer"]),
                                 sorted(names + ["trace_overhead_s"]))
                for name in names:
                    if name.endswith((".calls", ".distinct_ratio")):
                        self.assertEqual(a["per_layer"][name], b["per_layer"][name],
                                         name)

    def test_probe_time_is_left_out_of_the_work(self):
        probe = child.Probe()
        t0 = probe.clock()
        probe._loop()
        self.assertLess(probe.clock() - t0, probe.times[0] / 10)

    def test_benchmark_json_matches_the_printed_metrics(self):
        with open(run.ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        res = small("reconstruct")
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         {k: m["unit"] for k, m in res["metrics"].items()})
        layer = {name: tracer.unit_of(stat)
                 for name, stat in tracer.metric_names(tracer.load_layers())}
        layer["trace_overhead_s"] = "s"
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, layer)


if __name__ == "__main__":
    unittest.main()
