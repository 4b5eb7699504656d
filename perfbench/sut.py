"""Systems under test for the engine workloads, plus the snapshot publisher.

Run by the benchmark as a child process, never by hand:

    python3 perfbench/sut.py prequential|firehose|publish CONFIG.json

The child builds its system, prints ``READY`` (with the host probe's
time over set-up, see ``harness.HostClock``), waits for ``GO`` on stdin
(end of input means quit: the benchmark starts the system several times
to measure set-up), does its work, writes the result file named in the
config and prints ``DONE``. Only the benchmark's generated inputs reach
the program; everything measured here is written to the result file and
checked by the benchmark.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import select
import signal
import sys
import time
from array import array
from pathlib import Path
from statistics import median
from typing import Dict, List, Sequence

from harness import (
    PROBE_REFERENCE_S, HostClock, peak_rss_mb, percentile, probe_seconds,
    write_json,
)
from spans import Recorder


def _wait_for_go(start_probe_s: float) -> bool:
    """Print ``READY`` with the host probe's mean over set-up (timed at
    process start and now), so the benchmark can host-scale the set-up
    time; then wait for ``GO``."""
    probe_s = 0.5 * (start_probe_s + probe_seconds())
    print(f"READY {probe_s!r}", flush=True)
    return sys.stdin.readline().strip() == "GO"


def _latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    return {
        "n": len(latencies_s),
        "p50_ms": 1000.0 * percentile(latencies_s, 50),
        "p99_ms": 1000.0 * percentile(latencies_s, 99),
    }


# -- prequential --------------------------------------------------------

#: Verdicts between two marks of the host clock: about 50 ms of work,
#: short enough to follow the host's changes of speed inside a chunk.
MARK_EVERY = 100


def run_prequential(config: Dict, start_probe_s: float) -> None:
    """``repro run --classes 3 --checkpoint-dir DIR`` on a JSONL file,
    built with the same calls as the CLI's supervised sequential path."""
    from repro.core.config import PipelineConfig
    from repro.data.loader import read_jsonl
    from repro.engine.replay import model_state_digest
    from repro.engine.sequential import SequentialEngine
    from repro.obs.slo import SLOTracker, default_slos
    from repro.reliability import DeadLetterQueue, StreamSupervisor

    dead_letters = DeadLetterQueue()
    engine = SequentialEngine(
        PipelineConfig(n_classes=3), dead_letters=dead_letters
    )
    supervisor = StreamSupervisor(
        engine,
        checkpoint_dir=config["checkpoint_dir"],
        dead_letters=dead_letters,
        slos=SLOTracker(default_slos(), sinks=[]),
    )
    if not _wait_for_go(start_probe_s):
        return
    pipeline = engine.pipeline
    recorder = None
    if config["trace_dir"]:
        recorder = Recorder(config["trace_dir"])
        recorder.patch(supervisor, "run", "reliability.supervisor.run")
        recorder.patch(
            supervisor, "write_checkpoint", "core.checkpoint.write",
            tally=lambda size, args: size or 0,
        )
        _trace_features(recorder, pipeline.extractor, "extract")
        recorder.patch(pipeline.normalizer, "transform_instance",
                       "core.normalization.transform_instance")
        recorder.patch(pipeline.model, "learn_one", "streamml.learn_one")
        recorder.patch(pipeline.model, "predict_proba_one",
                       "streamml.predict_proba_one")

    # Arrival is the moment the tweet is read from the file; its verdict
    # is the return of the pipeline's per-tweet process call. The loop is
    # saturated, so the wait between is the tweet's place in its chunk.
    # Times are host-scaled: the clock is marked every MARK_EVERY verdicts.
    host = HostClock()
    arrived: Dict[str, float] = {}
    arrivals = array("d")
    verdicts = array("d")
    clock = time.perf_counter
    process = pipeline.process

    def stamped_process(tweet):
        result = process(tweet)
        verdicts.append(clock())
        arrivals.append(arrived.pop(tweet.tweet_id))
        if len(verdicts) % MARK_EVERY == 0:
            host.mark()
        return result

    pipeline.process = stamped_process
    ingested = 0

    def stamped_stream(stream):
        nonlocal ingested
        for tweet in stream:
            ingested += 1
            arrived[tweet.tweet_id] = clock()
            yield tweet

    stream = read_jsonl(config["data"], metrics=supervisor.metrics)
    if recorder is not None:
        stream = recorder.wrap_iter(stream, "data.read_jsonl")
    host.mark()
    start = clock()
    run = supervisor.run(stamped_stream(stream))
    end = clock()
    host.mark()
    rss_mb = peak_rss_mb(os.getpid())
    wall_s = end - start
    scaled = host.scaled
    latencies = [scaled(v) - scaled(a) for a, v in zip(arrivals, verdicts)]
    if recorder is not None:
        recorder.dump()
    health = run.health
    live_digest = model_state_digest(pipeline.model)
    resumed = StreamSupervisor.resume(
        config["checkpoint_dir"], dead_letters=DeadLetterQueue()
    )
    with open(supervisor.checkpoint_path, encoding="utf-8") as handle:
        cursor = json.load(handle)["cursor"]
    write_json(Path(config["result"]), {
        "ingested": ingested,
        "n_processed": health.n_processed,
        "n_quarantined": health.n_quarantined,
        "n_checkpoints": health.n_checkpoints,
        "checkpoint_cursor": cursor,
        "f1": run.metrics["f1"],
        "wall_s": wall_s,
        "scaled_s": host.total(),
        "probe_ms": 1000.0 * median(host.probes),
        "latency": _latency_summary(latencies),
        "rss_mb": rss_mb,
        "live_digest": live_digest,
        "resumed_digest": model_state_digest(resumed.engine.pipeline.model),
    })


def _trace_features(recorder: Recorder, owner, attr: str) -> None:
    """Trace feature extraction and the text analysis inside it."""
    import repro.core.features as features

    recorder.patch(features, "analyze", "text.analyze")
    recorder.patch(owner, attr, "core.features.extract")


# -- firehose -----------------------------------------------------------


def run_firehose(config: Dict, start_probe_s: float) -> None:
    """Spark-style micro-batching: every interval, hand the tweets due in
    that interval to ``MicroBatchEngine.process_batch``."""
    from repro.core.config import PipelineConfig
    from repro.core.features import FeatureExtractor
    from repro.engine.microbatch import MicroBatchEngine

    workers = config["workers"]
    recorder = None
    if config["trace_dir"]:
        # Partition work runs in forked pool workers, which inherit these
        # class-level wrappers and write their own span files on exit.
        from repro.streamml.hoeffding_tree import HoeffdingTree

        recorder = Recorder(config["trace_dir"])
        _trace_features(recorder, FeatureExtractor, "extract")
        recorder.patch(HoeffdingTree, "learn_one", "streamml.learn_one")
        recorder.patch(HoeffdingTree, "predict_proba_one",
                       "streamml.predict_proba_one")
    # Two partitions per worker: the pool hands the next partition to
    # whichever worker is free, so one slowed core does not hold the batch.
    engine = MicroBatchEngine(
        PipelineConfig(n_classes=3), n_partitions=2 * workers,
        runner="processes", n_workers=workers,
    )
    try:
        # Ready means every pool worker answers.
        engine.runner.run([os.getpid] * workers)
        if not _wait_for_go(start_probe_s):
            return
        with open(config["arrivals"], encoding="utf-8") as handle:
            arrivals = json.load(handle)
        pool_run = engine.runner.run
        if recorder is not None:
            recorder.patch(
                engine, "process_batch", "engine.microbatch.process_batch",
                tally=lambda result, args: len(args[0]),
            )
            recorder.patch(engine.runner, "run", "engine.runners.run")
        verdicts: List[str] = []
        alert_batch = engine.alert_manager.process_batch

        def record_verdicts(classified_with_users):
            verdicts.extend(
                classified.instance.tweet_id
                for classified, _ in classified_with_users
            )
            return alert_batch(classified_with_users)

        engine.alert_manager.process_batch = record_verdicts
        with open(config["input"], encoding="utf-8") as lines:
            batches = _firehose_loop(
                engine, lines, arrivals, config["interval_s"],
                config["n_ticks"], verdicts,
                lambda: _host_probe(pool_run, workers),
            )
        rss_mb = peak_rss_mb(os.getpid()) + sum(
            peak_rss_mb(child.pid)
            for child in multiprocessing.active_children()
        )
        result = engine.result()
    finally:
        engine.close()
    if recorder is not None:
        recorder.dump()
    write_json(Path(config["result"]), {
        "batches": batches,
        "f1": result.metrics["f1"],
        "n_processed": result.n_processed,
        "n_quarantined": result.n_quarantined,
        "rss_mb": rss_mb,
    })


def _host_probe(pool_run, workers: int) -> float:
    """Probe seconds on the driver and on each pool worker, averaged:
    the batch's work runs on all of them."""
    probes = [probe_seconds(), *pool_run([probe_seconds] * workers)]
    return sum(probes) / len(probes)


def _firehose_loop(engine, lines, arrivals, interval_s, n_ticks,
                   verdicts, host_probe) -> List[Dict]:
    """Run ``n_ticks`` batches; ``lines`` yields one JSON tweet per line,
    in arrival order. ``host_probe`` is timed before every batch and
    after the last, while the system waits for the tick, and scales each
    batch's busy time to the reference host speed (see
    ``harness.HostClock``) by the mean of the probes around it."""
    from repro.data.tweet import Tweet

    clock = time.perf_counter
    origin = clock() + 0.05
    batches: List[Dict] = []
    probes: List[float] = []
    cursor = 0
    for tick in range(1, n_ticks + 1):
        # The batch holds exactly the tweets that arrive by its tick, so
        # its composition (and the model it trains) is a function of the
        # seed alone, however late the batch starts. It is parsed while
        # the system waits for the tick.
        first = cursor
        while cursor < len(arrivals) and arrivals[cursor] <= tick * interval_s:
            cursor += 1
        batch = [Tweet.from_json(json.loads(next(lines)))
                 for _ in range(cursor - first)]
        probes.append(host_probe())
        due = origin + tick * interval_s
        now = clock()
        if now < due:
            time.sleep(due - now)
        labeled_before = engine.cumulative.total
        verdicts.clear()
        start = clock()
        backlog = cursor
        while backlog < len(arrivals) and origin + arrivals[backlog] <= start:
            backlog += 1
        result = engine.process_batch(batch)
        end = clock()
        batches.append({
            "tick_late_s": start - due,
            "busy_s": end - start,
            "n": len(batch),
            "backlog": backlog - first,
            "n_labeled_sent": sum(t.label is not None for t in batch),
            "unlabeled_sent": [t.tweet_id for t in batch if t.label is None],
            "n_processed": result.n_processed,
            "n_quarantined": result.n_quarantined,
            "labeled_verdicts": engine.cumulative.total - labeled_before,
            "unlabeled_verdicts": list(verdicts),
            # Arrival to batch start: batching delay plus lateness.
            "wait_s": [start - (origin + a) for a in arrivals[first:cursor]],
        })
    probes.append(host_probe())
    for index, batch in enumerate(batches):
        around = 0.5 * (probes[index] + probes[index + 1])
        batch["probe_s"] = around
        batch["scaled_busy_s"] = batch["busy_s"] * PROBE_REFERENCE_S / around
    return batches


# -- snapshot publisher -------------------------------------------------


def run_publisher(config: Dict, start_probe_s: float) -> None:
    """Publish the two prepared payloads alternately at a fixed cadence,
    the first half a period after ``GO``, until told to stop, so hot
    swaps happen beside the load."""
    from repro.serve.snapshot import SnapshotStore

    payloads = []
    for path in config["payloads"]:
        with open(path, encoding="utf-8") as handle:
            payloads.append(json.load(handle))
    store = SnapshotStore(config["store"], keep=10_000)
    if not _wait_for_go(start_probe_s):
        return
    published = []
    every_s = config["every_s"]
    next_at = time.monotonic() + every_s / 2
    stdin = sys.stdin.fileno()
    while True:
        timeout = max(0.0, next_at - time.monotonic())
        if select.select([stdin], [], [], timeout)[0]:
            break  # STOP or end of input
        index = (len(published) + 1) % len(payloads)
        info = store.publish(payloads[index], meta={"payload": index})
        published.append({"version": info.version, "payload": index})
        next_at += every_s
    write_json(Path(config["result"]), {"published": published})


ROLES = {
    "prequential": run_prequential,
    "firehose": run_firehose,
    "publish": run_publisher,
}


def main(argv: List[str]) -> int:
    # SIGTERM unwinds like an exception, so the engine closes its pool.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start_probe_s = probe_seconds()
    role, config_path = argv
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    ROLES[role](config, start_probe_s)
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
