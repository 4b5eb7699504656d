"""Workload ``firehose``: open loop at a fixed Poisson rate, micro-batched.

The input is a ``FirehoseWorkload`` mix with a small labeled share, as in
the paper's section V-E. Every batch interval the system hands the
tweets that arrived in that interval to ``MicroBatchEngine.process_batch``
(``runner="processes"``, one worker per visible core, two partitions per
worker):
Spark's batch-interval model. Mostly unlabeled, so predict and alert
dominate and learning is small. It is the only workload that exercises
the runners, broadcast, transport and driver merge, and its latency
includes the batching delay.

Busy time inside ``process_batch`` is host-scaled (``harness.HostClock``):
the driver and each pool worker time a fixed pure-Python probe while the
system waits for each tick, and each batch's busy time is scaled to the
reference host speed by the probes around it. The wait for a batch to
start is the schedule's and stays in wall time. The ``info`` line gives
the unscaled throughput.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from harness import (
    BenchError, percentile, poisson_arrivals, read_json, run_system, visible_cores, write_json,
)
from spans import LayerTotals

#: Offered rate: under half the measured 2-core capacity (~3.5k tweets/s),
#: so batches start on time and latency reflects batching, not backlog.
RATE_HZ = 1500.0
INTERVAL_S = 1.0
LABELED_SHARE = 0.1


def prepare(seed: int, seconds: int, work: Path) -> Dict:
    from repro.data.firehose import FirehoseWorkload

    arrivals = poisson_arrivals(RATE_HZ, seconds, seed)
    n_labeled = math.ceil(LABELED_SHARE * len(arrivals))
    workload = FirehoseWorkload(
        n_unlabeled=len(arrivals) - n_labeled, n_labeled=n_labeled, seed=seed
    )
    tweets = [tweet.to_json() for tweet in workload.stream()]
    unlabeled = Counter(t["id_str"] for t in tweets if t.get("label") is None)
    if any(n > 1 for n in unlabeled.values()):
        raise BenchError("generated firehose repeats an unlabeled tweet id")
    # One tweet per line: the system parses each batch just before it is
    # due, so its peak memory never holds the whole generated stream.
    path = work / "firehose.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for tweet in tweets:
            handle.write(json.dumps(tweet, separators=(",", ":")) + "\n")
    arrivals_path = work / "firehose-arrivals.json"
    write_json(arrivals_path, arrivals)
    return {
        "input": str(path),
        "arrivals": str(arrivals_path),
        "n_tweets": len(tweets),
        "n_ticks": math.ceil(seconds / INTERVAL_S),
        "work": str(work),
    }


def measure(inputs: Dict, setup_repeats: int,
            trace_dir: Optional[Path] = None) -> Dict:
    work = Path(inputs["work"])
    tag = "traced" if trace_dir else "timed"
    config_path = work / f"firehose-{tag}.json"
    result_path = work / f"firehose-{tag}-result.json"
    write_json(config_path, {
        "input": inputs["input"],
        "arrivals": inputs["arrivals"],
        "workers": visible_cores(),
        "interval_s": INTERVAL_S,
        "n_ticks": inputs["n_ticks"],
        "result": str(result_path),
        "trace_dir": str(trace_dir) if trace_dir else None,
    })
    setups = run_system("firehose", config_path, setup_repeats)
    outcome = read_json(result_path)
    outcome["setup_s"] = median(setups)
    outcome["n_tweets"] = inputs["n_tweets"]
    return outcome


def check(outcome: Dict) -> List[str]:
    errors = []
    batches = outcome["batches"]
    scheduled = sum(batch["n"] for batch in batches)
    if scheduled != outcome["n_tweets"]:
        errors.append(f"{scheduled} of {outcome['n_tweets']} tweets were "
                      f"handed to the engine")
    for index, batch in enumerate(batches):
        if Counter(batch["unlabeled_verdicts"]) != Counter(
            batch["unlabeled_sent"]
        ):
            errors.append(f"batch {index}: unlabeled verdicts do not match "
                          f"the unlabeled tweets sent, one each")
        if batch["labeled_verdicts"] != batch["n_labeled_sent"]:
            errors.append(
                f"batch {index}: {batch['labeled_verdicts']} labeled "
                f"verdicts for {batch['n_labeled_sent']} labeled tweets"
            )
        if batch["n_processed"] + batch["n_quarantined"] != batch["n"]:
            errors.append(f"batch {index}: processed + quarantined != sent")
    return errors


def counts(outcome: Dict) -> Dict[str, int]:
    attempted = sum(batch["n"] for batch in outcome["batches"])
    return {
        "attempted": attempted,
        "failed": attempted - outcome["n_processed"],
    }


def _busy_s(outcome: Dict) -> float:
    return sum(batch["scaled_busy_s"] for batch in outcome["batches"])


def end_to_end(outcome: Dict) -> Dict[str, float]:
    # A tweet's latency is its wait for the batch to start, in wall time
    # (the batching delay is the schedule's, not the host's), plus the
    # batch's host-scaled busy time.
    latencies = [
        wait + batch["scaled_busy_s"]
        for batch in outcome["batches"] for wait in batch["wait_s"]
    ]
    # Capacity at the offered rate: verdicts per host-scaled second spent
    # inside process_batch, the median over batches, which all do the
    # same work.
    tweets_per_s = median([
        batch["n_processed"] / batch["scaled_busy_s"]
        for batch in outcome["batches"] if batch["n"]
    ])
    return {
        "tweets_per_s": tweets_per_s,
        "verdict_p50_ms": 1000.0 * percentile(latencies, 50),
        "verdict_p99_ms": 1000.0 * percentile(latencies, 99),
        "serve_capacity_rps": tweets_per_s,
        "f1": outcome["f1"],
        "ok_frac": outcome["n_processed"] / counts(outcome)["attempted"],
        "setup_s": outcome["setup_s"],
        "rss_mb": outcome["rss_mb"],
    }


def info(outcome: Dict) -> Dict[str, float]:
    batches = outcome["batches"]
    return {
        "batches": len(batches),
        "batch_start_late_max_ms":
            1000.0 * max(batch["tick_late_s"] for batch in batches),
        "wall_tweets_per_s": median([
            batch["n_processed"] / batch["busy_s"]
            for batch in batches if batch["n"]
        ]),
        "host_probe_ms": 1000.0 * median(batch["probe_s"] for batch in batches),
    }


def per_layer(traced: Dict, totals: LayerTotals,
              trace_dir: Path) -> Dict[str, float]:
    batches = traced["batches"]
    # Mean seconds a tweet waits from its arrival until its batch starts.
    waits = [wait for batch in batches for wait in batch["wait_s"]]
    return {
        "engine.microbatch.process_batch.s":
            totals.busy("engine.microbatch.process_batch"),
        "engine.microbatch.process_batch.calls":
            totals.count("engine.microbatch.process_batch"),
        "engine.microbatch.process_batch.tweets":
            totals.tally("engine.microbatch.process_batch"),
        "engine.runners.run.s": totals.busy("engine.runners.run"),
        "engine.microbatch.driver_self_s":
            totals.own("engine.microbatch.process_batch"),
        "engine.microbatch.wait_s": sum(waits) / len(waits),
        "engine.microbatch.backlog_max":
            max(batch["backlog"] for batch in batches),
    }


def tracing_overhead(untraced: Dict, traced: Dict) -> float:
    """Extra host-scaled busy time inside process_batch that the spans
    cost."""
    return _busy_s(traced) / _busy_s(untraced) - 1.0
