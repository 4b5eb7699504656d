"""Self-tests of the benchmark at tiny scale (about a minute on 2 cores).

    python3 perfbench/selftest.py

Each workload runs end to end at one second of load; its correctness
check passes on the real outputs and fails on corrupted ones; its traced
run reports every per-layer metric named for it; and the benchmark
refuses to run where the program's source is missing.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import unittest

from harness import PROBE_REFERENCE_S, ROOT, SRC, WORK_ROOT, HostClock

sys.path.insert(0, str(SRC))

import firehose  # noqa: E402
import prequential  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402

SEED = 3
SECONDS = 1

SERVING_LAYERS = (
    "core.normalization.transform.s", "serve.admission.acquire.s",
    "serve.tweet_from_payload.s", "serve.model.classify.s",
    "serve.model.classify.calls", "serve.model.explain.self_s",
    "serve.snapshot.load.s", "serve.snapshot.load.calls", "serve.other_s",
    "serve.model.degraded",
)

#: Per-layer metrics each workload's traced run must report above zero.
#: The traced run of prequential ends with a serve pass, so the listed
#: workloads between them cover every per-layer metric.
NAMED_LAYERS = {
    "prequential": (
        "text.analyze.s", "text.analyze.calls",
        "core.features.extract.self_s",
        "core.normalization.transform_instance.s", "streamml.learn_one.s",
        "streamml.learn_one.calls",
        "streamml.predict_proba_one.s", "data.read_jsonl.s",
        "data.read_jsonl.tweets", "reliability.supervisor.run.self_s",
        "core.checkpoint.write.s", "core.checkpoint.write.calls",
        "core.checkpoint.write.bytes",
    ) + SERVING_LAYERS,
    "firehose": (
        "text.analyze.s", "core.features.extract.self_s",
        "streamml.learn_one.s", "streamml.predict_proba_one.s",
        "engine.microbatch.process_batch.s",
        "engine.microbatch.process_batch.calls",
        "engine.microbatch.process_batch.tweets", "engine.runners.run.s",
        "engine.microbatch.driver_self_s", "engine.microbatch.wait_s",
        "engine.microbatch.backlog_max",
    ),
    "serve": (
        "text.analyze.s", "core.features.extract.self_s",
        "streamml.predict_proba_one.s",
    ) + SERVING_LAYERS,
}


class WorkloadChecks:
    """Runs one workload once (untraced) and shares the outcome; mixed
    into one TestCase per workload."""

    module = None

    @classmethod
    def setUpClass(cls):
        cls.work = WORK_ROOT / f"selftest-{cls.module.__name__}"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)
        cls.inputs = cls.module.prepare(SEED, SECONDS, cls.work)
        cls.outcome = cls.module.measure(cls.inputs, setup_repeats=2)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def corrupted(self):
        return copy.deepcopy(self.outcome)

    def test_real_outputs_pass_the_check(self):
        self.assertEqual(self.module.check(self.outcome), [])

    def test_every_end_to_end_metric_is_positive(self):
        values = self.module.end_to_end(self.outcome)
        self.assertEqual(set(values), {name for name, _ in run.END_TO_END})
        for name, value in values.items():
            self.assertTrue(math.isfinite(value) and value > 0, name)
        tally = self.module.counts(self.outcome)
        self.assertGreater(tally["attempted"], 0)
        self.assertEqual(tally["failed"], 0)


class PrequentialTest(WorkloadChecks, unittest.TestCase):
    module = prequential

    def test_diverging_resumed_model_fails(self):
        bad = self.corrupted()
        bad["resumed_digest"] = "0" * 64
        self.assertTrue(prequential.check(bad))

    def test_lost_tweet_fails(self):
        bad = self.corrupted()
        bad["n_processed"] -= 1
        self.assertTrue(prequential.check(bad))


class FirehoseTest(WorkloadChecks, unittest.TestCase):
    module = firehose

    def test_missing_verdict_fails(self):
        bad = self.corrupted()
        bad["batches"][0]["unlabeled_verdicts"].pop()
        self.assertTrue(firehose.check(bad))

    def test_duplicate_verdict_fails(self):
        bad = self.corrupted()
        verdicts = bad["batches"][0]["unlabeled_verdicts"]
        verdicts[-1] = verdicts[0]
        self.assertTrue(firehose.check(bad))

    def test_missing_labeled_verdict_fails(self):
        bad = self.corrupted()
        bad["batches"][0]["labeled_verdicts"] -= 1
        self.assertTrue(firehose.check(bad))


class ServeTest(WorkloadChecks, unittest.TestCase):
    module = serve

    def _first_ok(self, outcome):
        for phase in outcome["phases"]:
            for response in phase["responses"]:
                if response and response["status"] == 200:
                    return response
        self.fail("no successful response")

    def test_wrong_probability_fails(self):
        bad = self.corrupted()
        proba = self._first_ok(bad)["proba"]
        label = next(iter(proba))
        proba[label] = proba[label] + 1e-12
        self.assertTrue(serve.check(bad))

    def test_wrong_label_fails(self):
        bad = self.corrupted()
        response = self._first_ok(bad)
        response["predicted"] = (
            "normal" if response["predicted"] != "normal" else "hateful"
        )
        self.assertTrue(serve.check(bad))

    def test_unanswered_request_fails(self):
        bad = self.corrupted()
        bad["phases"][1]["responses"][0] = None
        self.assertTrue(serve.check(bad))

    def test_one_snapshot_only_fails(self):
        bad = self.corrupted()
        bad["published"] = [
            {"version": entry["version"], "payload": 0}
            for entry in bad["published"]
        ]
        self.assertTrue(serve.check(bad))


class TracedRunTest(unittest.TestCase):
    def test_traced_runs_report_their_layers(self):
        for name, layers in NAMED_LAYERS.items():
            with self.subTest(workload=name):
                report = run.run_workload(name, SEED, SECONDS, trace=True)
                self.assertEqual(report["errors"], [])
                metrics = report["metrics"]
                self.assertEqual(
                    list(metrics), [metric for metric, _ in run.PER_LAYER])
                for layer in layers:
                    self.assertGreater(metrics[layer]["value"], 0, layer)
                overhead = metrics["trace.overhead_frac"]["value"]
                self.assertTrue(math.isfinite(overhead))


class HostClockTest(unittest.TestCase):
    """Host-scaled time leaves out the marks and scales wall time between
    them by the reference probe over the mean of the probes around it."""

    def clock(self, starts, ends, probes):
        host = HostClock()
        host.starts.extend(starts)
        host.ends.extend(ends)
        host.probes.extend(probes)
        return host

    def test_reference_speed_leaves_wall_time_less_the_marks(self):
        ref = PROBE_REFERENCE_S
        host = self.clock([0.0, 1.0, 3.0], [0.1, 1.1, 3.1], [ref] * 3)
        self.assertAlmostEqual(host.scaled(0.5), 0.4)
        self.assertAlmostEqual(host.scaled(1.05), 0.9)  # inside a mark
        self.assertAlmostEqual(host.scaled(2.1), 1.9)
        self.assertAlmostEqual(host.total(), 2.8)

    def test_slow_host_shrinks_and_fast_host_stretches_time(self):
        ref = PROBE_REFERENCE_S
        host = self.clock([0.0, 1.0, 2.0], [0.0, 1.0, 2.0],
                          [2 * ref, 2 * ref, 0.5 * ref])
        self.assertAlmostEqual(host.scaled(1.0), 0.5)
        # Mean of the probes around the second second: 1.25 * ref.
        self.assertAlmostEqual(host.total(), 0.5 + 0.8)

    def test_probe_is_timed(self):
        host = HostClock()
        host.mark()
        host.mark()
        self.assertGreater(host.probes[0], 0.0)
        self.assertGreaterEqual(host.total(), 0.0)


class BenchmarkSpecTest(unittest.TestCase):
    def test_listed_workloads_cover_every_layer(self):
        listed = set(run.WORKLOADS) - {"serve"}
        covered = {layer for name in listed for layer in NAMED_LAYERS[name]}
        names = {metric for metric, _ in run.PER_LAYER}
        # The overhead may read 0 or below; it is checked for finiteness.
        self.assertEqual(names - covered, {"trace.overhead_frac"})

    def test_benchmark_json_matches_the_code(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
        # serve runs by hand only: see run.py on why it is not listed.
        self.assertEqual(
            sorted(w["name"] for w in spec["workloads"]),
            sorted(set(run.WORKLOADS) - {"serve"}))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            list(run.PER_LAYER))

    def test_refuses_to_run_without_the_program(self):
        bare = WORK_ROOT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "serve",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
