"""The repository's benchmark: one command per workload, seed and run length.

    python3 perfbench/run.py --workload prequential|firehose|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark generates the workload's
inputs from the seed, runs the system from ``src/`` in processes of its
own, checks that its outputs are correct, prints every metric by name
with its unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` runs the workload twice on the same inputs, sized for
half the run length so the pair takes about as long as one timed run:
untraced, then with spans around each layer's public calls. It reports
the per-layer metrics of the traced pass plus the tracing overhead
(``trace.overhead_frac``). Layers a workload does not use read 0.
A failed correctness check makes ``correct`` false and the exit code 1.

BENCHMARK.json lists ``prequential`` and ``firehose``. ``serve`` runs the
same way but is not listed: on a shared 2-core VM its p99 latency and
burst capacity moved by a third to a half of their median from one run
to the next (whole-machine stalls of tens of ms reach about 1% of
requests), too much for a regression bound. Its layers are still
measured on a listed workload: the traced run of ``prequential`` ends
with a short traced ``serve`` pass (``SERVE_PASS_SECONDS`` of open-loop
load plus its bursts) over the same seed, checked like any serve run, and
reports the serving layers and ``core.normalization.transform.s`` from it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path
from typing import Dict, List

import firehose
import prequential
import serve
from harness import SETUP_REPEATS, SRC, WORK_ROOT, BenchError, host_stamp
from spans import LayerTotals

WORKLOADS = {
    "prequential": prequential,
    "firehose": firehose,
    "serve": serve,
}

#: Workloads whose traced run ends with a short traced serve pass, since
#: serve is not listed and no listed workload calls the serving layers.
SERVE_PASS_AFTER = {"prequential"}
SERVE_PASS_SECONDS = 5

#: End-to-end metrics: (name, unit). Every workload reports all of them.
END_TO_END = (
    ("tweets_per_s", "tweets/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p99_ms", "ms"),
    ("serve_capacity_rps", "req/s"),
    ("f1", "ratio"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("rss_mb", "MB"),
)

#: Per-layer metrics of the traced run: (name, unit). Names follow the
#: program's modules; ``.s`` is busy seconds, ``.self_s`` busy seconds
#: minus child spans, ``.calls`` a count.
PER_LAYER = (
    ("text.analyze.s", "s"),
    ("text.analyze.calls", "count"),
    ("core.features.extract.self_s", "s"),
    ("core.normalization.transform_instance.s", "s"),
    ("core.normalization.transform.s", "s"),
    ("streamml.learn_one.s", "s"),
    ("streamml.learn_one.calls", "count"),
    ("streamml.predict_proba_one.s", "s"),
    ("data.read_jsonl.s", "s"),
    ("data.read_jsonl.tweets", "count"),
    ("reliability.supervisor.run.self_s", "s"),
    ("core.checkpoint.write.s", "s"),
    ("core.checkpoint.write.calls", "count"),
    ("core.checkpoint.write.bytes", "bytes"),
    ("engine.microbatch.process_batch.s", "s"),
    ("engine.microbatch.process_batch.calls", "count"),
    ("engine.microbatch.process_batch.tweets", "count"),
    ("engine.runners.run.s", "s"),
    ("engine.microbatch.driver_self_s", "s"),
    ("engine.microbatch.wait_s", "s"),
    ("engine.microbatch.backlog_max", "count"),
    ("serve.admission.acquire.s", "s"),
    ("serve.tweet_from_payload.s", "s"),
    ("serve.model.classify.s", "s"),
    ("serve.model.classify.calls", "count"),
    ("serve.model.explain.self_s", "s"),
    ("serve.snapshot.load.s", "s"),
    ("serve.snapshot.load.calls", "count"),
    ("serve.other_s", "s"),
    ("serve.model.degraded", "count"),
    ("trace.overhead_frac", "ratio"),
)


def shared_layers(totals: LayerTotals) -> Dict[str, float]:
    """Layers that more than one workload calls."""
    return {
        "text.analyze.s": totals.busy("text.analyze"),
        "text.analyze.calls": totals.count("text.analyze"),
        "core.features.extract.self_s": totals.own("core.features.extract"),
        "core.normalization.transform_instance.s":
            totals.busy("core.normalization.transform_instance"),
        "core.normalization.transform.s":
            totals.busy("core.normalization.transform"),
        "streamml.learn_one.s": totals.busy("streamml.learn_one"),
        "streamml.learn_one.calls": totals.count("streamml.learn_one"),
        "streamml.predict_proba_one.s":
            totals.busy("streamml.predict_proba_one"),
    }


def _serve_pass(seed: int, work: Path, values: Dict[str, float]) -> Dict:
    """Run serve once, traced and short, and add the layers only it calls
    to ``values``; returns its outcome for checking."""
    pass_work = work / "serve"
    pass_work.mkdir()
    inputs = serve.prepare(seed, SERVE_PASS_SECONDS, pass_work)
    trace_dir = pass_work / "spans"
    outcome = serve.measure(inputs, 1, trace_dir)
    totals = LayerTotals.load(trace_dir)
    values.update(serve.per_layer(outcome, totals, trace_dir))
    # Transform without observe: the read-only use of the normalizer.
    values["core.normalization.transform.s"] = totals.busy(
        "core.normalization.transform")
    return outcome


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> Dict:
    """Prepare, measure and check one workload; returns the report."""
    module = WORKLOADS[name]
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = module.prepare(
            seed, max(1, seconds // 2) if trace else seconds, work)
        if trace:
            untraced = module.measure(inputs, setup_repeats=1)
            trace_dir = work / "spans"
            traced = module.measure(inputs, 1, trace_dir)
            outcomes = [(module, untraced), (module, traced)]
            values = dict.fromkeys((n for n, _ in PER_LAYER), 0.0)
            totals = LayerTotals.load(trace_dir)
            values.update(shared_layers(totals))
            values.update(module.per_layer(traced, totals, trace_dir))
            values["trace.overhead_frac"] = module.tracing_overhead(
                untraced, traced)
            if name in SERVE_PASS_AFTER:
                outcomes.append((serve, _serve_pass(seed, work, values)))
            catalog = PER_LAYER
        else:
            outcomes = [(module, module.measure(inputs, SETUP_REPEATS))]
            values = module.end_to_end(outcomes[0][1])
            catalog = END_TO_END
        errors = [error for owner, outcome in outcomes
                  for error in owner.check(outcome)]
        info = [owner.info(outcome) for owner, outcome in outcomes
                if hasattr(owner, "info")]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tallies = [owner.counts(outcome) for owner, outcome in outcomes]
    return {
        "errors": errors,
        "info": info,
        "attempted": sum(t["attempted"] for t in tallies),
        "failed": sum(t["failed"] for t in tallies),
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in catalog
        },
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is not at {SRC}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an exception, so every child is stopped.
    signal.signal(signal.SIGTERM, _terminate)
    try:
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("host " + json.dumps(host_stamp(args.seed)))
    for entry in report["info"]:
        print("info " + json.dumps(entry))
    for metric, cell in report["metrics"].items():
        print(f"  {metric:<42} {cell['value']:>14.6g} {cell['unit']}")
    for error in report["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 1 if report["errors"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
