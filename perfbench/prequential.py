"""Workload ``prequential``: the paper's Fig 11 / Table II job, closed loop.

An all-labeled 3-class stream is written to JSONL and run through
``read_jsonl`` -> ``StreamSupervisor(SequentialEngine)`` with a checkpoint
directory, as ``repro run --checkpoint-dir`` does. Every tweet is
predicted and learned, so text analysis, feature extraction, the
normalizer's observe, Hoeffding-tree learning and checkpointing do all
the work; runners, transport and serving do none. It is the
single-threaded baseline.

The loop is saturated, so a tweet's latency from being read to its
verdict is its place in the supervisor's chunk of 1000 tweets divided
by the throughput: ``verdict_p50_ms`` and ``verdict_p99_ms`` follow
``tweets_per_s`` and add the stall of a checkpoint write. Timing the
per-tweet call instead was tried: on a shared 2-core VM whose speed
flips between two levels every few seconds, its median jumped between
them and spread wider than the throughput.

All three times are host-scaled (``harness.HostClock``): the system
times a fixed pure-Python probe every 500 verdicts and scales the wall
time between probes to the reference host speed. Unscaled, the same
code's throughput moved by 20-40% between sets of runs as the shared
host's speed drifted; the ``info`` line gives the unscaled figures.
"""

from __future__ import annotations

from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from harness import read_json, run_system, write_json
from spans import LayerTotals

#: Tweets per second of ``--seconds``: sizes the stream so one pass takes
#: about that long on a 2-core x86 host. A constant, so the same seed and
#: run length always give the same input.
TWEETS_PER_RUN_SECOND = 2400


def prepare(seed: int, seconds: int, work: Path) -> Dict:
    from repro.data.loader import write_jsonl
    from repro.data.synthetic import AbusiveDatasetGenerator

    n_tweets = max(500, TWEETS_PER_RUN_SECOND * seconds)
    data = work / "prequential.jsonl"
    written = write_jsonl(
        AbusiveDatasetGenerator(n_tweets=n_tweets, seed=seed).generate(), data
    )
    return {"data": str(data), "n_tweets": written, "work": str(work)}


def measure(inputs: Dict, setup_repeats: int,
            trace_dir: Optional[Path] = None) -> Dict:
    work = Path(inputs["work"])
    tag = "traced" if trace_dir else "timed"
    config_path = work / f"prequential-{tag}.json"
    result_path = work / f"prequential-{tag}-result.json"
    checkpoint_dir = work / f"checkpoints-{tag}"
    write_json(config_path, {
        "data": inputs["data"],
        "checkpoint_dir": str(checkpoint_dir),
        "result": str(result_path),
        "trace_dir": str(trace_dir) if trace_dir else None,
    })
    setups = run_system("prequential", config_path, setup_repeats)
    outcome = read_json(result_path)
    outcome["setup_s"] = median(setups)
    outcome["n_tweets"] = inputs["n_tweets"]
    return outcome


def check(outcome: Dict) -> List[str]:
    errors = []
    if outcome["ingested"] != outcome["n_tweets"]:
        errors.append(
            f"read {outcome['ingested']} of {outcome['n_tweets']} tweets"
        )
    if outcome["n_processed"] + outcome["n_quarantined"] != outcome["ingested"]:
        errors.append(
            f"processed {outcome['n_processed']} + quarantined "
            f"{outcome['n_quarantined']} != ingested {outcome['ingested']}"
        )
    if outcome["checkpoint_cursor"] != outcome["ingested"]:
        errors.append(
            f"final checkpoint cursor {outcome['checkpoint_cursor']} != "
            f"ingested {outcome['ingested']}"
        )
    if outcome["resumed_digest"] != outcome["live_digest"]:
        errors.append("model resumed from the final checkpoint differs "
                      "from the live model")
    if outcome["latency"]["n"] != outcome["n_processed"]:
        errors.append(
            f"{outcome['latency']['n']} verdicts for "
            f"{outcome['n_processed']} processed tweets"
        )
    return errors


def counts(outcome: Dict) -> Dict[str, int]:
    return {
        "attempted": outcome["ingested"],
        "failed": outcome["ingested"] - outcome["n_processed"],
    }


def end_to_end(outcome: Dict) -> Dict[str, float]:
    tweets_per_s = outcome["n_processed"] / outcome["scaled_s"]
    return {
        "tweets_per_s": tweets_per_s,
        "verdict_p50_ms": outcome["latency"]["p50_ms"],
        "verdict_p99_ms": outcome["latency"]["p99_ms"],
        # A saturated closed loop runs at its capacity.
        "serve_capacity_rps": tweets_per_s,
        "f1": outcome["f1"],
        "ok_frac": outcome["n_processed"] / outcome["ingested"],
        "setup_s": outcome["setup_s"],
        "rss_mb": outcome["rss_mb"],
    }


def info(outcome: Dict) -> Dict[str, object]:
    """The unscaled figures behind the host-scaled metrics."""
    return {
        "wall_s": outcome["wall_s"],
        "scaled_s": outcome["scaled_s"],
        "wall_tweets_per_s": outcome["n_processed"] / outcome["wall_s"],
        "host_probe_ms": outcome["probe_ms"],
    }


def per_layer(traced: Dict, totals: LayerTotals,
              trace_dir: Path) -> Dict[str, float]:
    return {
        "data.read_jsonl.s": totals.busy("data.read_jsonl"),
        "data.read_jsonl.tweets": totals.tally("data.read_jsonl"),
        "reliability.supervisor.run.self_s":
            totals.own("reliability.supervisor.run"),
        "core.checkpoint.write.s": totals.busy("core.checkpoint.write"),
        "core.checkpoint.write.calls": totals.count("core.checkpoint.write"),
        "core.checkpoint.write.bytes": totals.tally("core.checkpoint.write"),
    }


def tracing_overhead(untraced: Dict, traced: Dict) -> float:
    """Extra host-scaled time per tweet that the spans cost."""
    return traced["scaled_s"] / untraced["scaled_s"] - 1.0
