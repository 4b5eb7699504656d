"""Fig. 16: throughput per streaming system vs workload size.

Paper headline numbers: MOA and SparkSingle constant around ~1,100 and
~950 tweets/s; SparkLocal ~6k tweets/s; SparkCluster up to ~14.5k
tweets/s, both plateauing after ~1M tweets — comfortably above the
reported Twitter Firehose rate of ~9k tweets/s with 3 machines.
"""

from __future__ import annotations

import os

import bench_util
from repro.core.config import PipelineConfig
from repro.engine.cluster import (
    PAPER_SPECS,
    SimulatedCluster,
    machines_needed_for_firehose,
)
from repro.engine.microbatch import MicroBatchEngine
from repro.engine.sequential import SequentialEngine

WORKLOADS = (250_000, 500_000, 1_000_000, 1_500_000, 2_000_000)
FIREHOSE_RATE = 9_000.0


def _simulate():
    grid = {}
    for spec in PAPER_SPECS:
        cluster = SimulatedCluster(spec)
        grid[spec.name] = [cluster.throughput(n) for n in WORKLOADS]
    return grid


def test_fig16_throughput(benchmark):
    grid = benchmark.pedantic(_simulate, rounds=1, iterations=1)
    rows = [
        [f"{n // 1000}k"]
        + [round(grid[spec.name][i]) for spec in PAPER_SPECS]
        for i, n in enumerate(WORKLOADS)
    ]
    machines = machines_needed_for_firehose()
    bench_util.report(
        "fig16_throughput",
        "Fig. 16 — throughput (tweets/s) per streaming system (cost model)",
        ["tweets"] + [spec.name for spec in PAPER_SPECS],
        rows,
        notes=[
            f"reported Twitter Firehose: ~{FIREHOSE_RATE:,.0f} tweets/s",
            f"machines needed to sustain the Firehose (with headroom): "
            f"{machines}",
        ],
        summary={
            "workloads": list(WORKLOADS),
            "n_workers": {
                spec.name: spec.total_cores for spec in PAPER_SPECS
            },
            "n_partitions": {
                spec.name: spec.total_cores for spec in PAPER_SPECS
            },
            "throughput_tweets_per_s": {
                spec.name: grid[spec.name] for spec in PAPER_SPECS
            },
            "firehose_rate_tweets_per_s": FIREHOSE_RATE,
            "machines_for_firehose": machines,
        },
    )
    throughput = {spec.name: dict(zip(WORKLOADS, grid[spec.name]))
                  for spec in PAPER_SPECS}
    # Paper-calibrated plateaus.
    assert abs(throughput["MOA"][2_000_000] - 1100) < 50
    assert abs(throughput["SparkLocal"][2_000_000] - 6000) < 600
    assert abs(throughput["SparkCluster"][2_000_000] - 14_500) < 1500
    # Plateau after ~1M tweets for the parallel setups.
    for name in ("SparkLocal", "SparkCluster"):
        t1m = throughput[name][1_000_000]
        t2m = throughput[name][2_000_000]
        assert (t2m - t1m) / t1m < 0.10
    # The cluster comfortably covers the Firehose; 3 machines suffice.
    assert throughput["SparkCluster"][2_000_000] > FIREHOSE_RATE
    assert machines == 3


def _env_int(name: str) -> "int | None":
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else None


def _visible_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine; a core-pinned runner (CI
    shards, cgroup limits) sees fewer. The affinity mask is the honest
    number for "how much parallel speedup is physically possible".
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_sweep(n_workers: int) -> "list[int]":
    """1, 2, 4, ... doubling up to (and always including) n_workers."""
    counts = {n_workers}
    w = 1
    while w < n_workers:
        counts.add(w)
        w *= 2
    return sorted(counts)


def test_fig16_real_engine_throughput(benchmark):
    """Real engine runs (not the cost model): throughput + stage timings.

    Compares the single-thread sequential baseline against the
    micro-batch engine on the serial and multi-process runners — the
    latter swept across 1..N workers, with and without the numpy
    ``fast_math`` kernels — and reports the driver's per-stage timing
    breakdown: the evidence that per-batch driver work is merging
    O(partitions) aggregates, not looping over O(tweets) records.

    Worker/partition counts scale with the visible cores; override with
    ``FIG16_WORKERS`` / ``FIG16_PARTITIONS``.
    """
    tweets = bench_util.abusive_stream()
    config = PipelineConfig(n_classes=3)
    fast_config = PipelineConfig(n_classes=3, fast_math=True)
    n_cpus = _visible_cpus()
    n_workers = _env_int("FIG16_WORKERS") or n_cpus
    n_partitions = _env_int("FIG16_PARTITIONS") or max(4, n_workers)
    sweep_counts = _worker_sweep(n_workers)

    def run_microbatch(cfg, runner=None, workers=None, telemetry=True):
        with MicroBatchEngine(
            cfg,
            n_partitions=n_partitions,
            batch_size=2000,
            runner=runner,
            n_workers=workers,
            worker_telemetry=telemetry,
        ) as engine:
            result = engine.run(tweets)
            return result, engine.metrics, engine.last_trace

    def run_all():
        sequential = SequentialEngine(config).run(tweets)
        serial_mb, _, _ = run_microbatch(config)
        scalar_mb, scalar_reg, scalar_trace = run_microbatch(
            config, "processes", n_workers
        )
        # Same configuration with worker telemetry stripped: the delta
        # is the cross-process tracing overhead (console/profiling off).
        # This is the *raw* engine throughput; the telemetry-on runs are
        # the *instrumented* throughput (what the scorecard reports).
        dark_mb, _, _ = run_microbatch(
            config, "processes", n_workers, telemetry=False
        )
        # Partition-scaling sweep: multi-process + fast_math is the
        # headline configuration (Fig. 16's SparkLocal analogue).
        sweep = {
            w: run_microbatch(fast_config, "processes", w)[0]
            for w in sweep_counts
        }
        return (
            sequential, serial_mb, scalar_mb, scalar_reg, scalar_trace,
            dark_mb, sweep,
        )

    (
        sequential, serial_mb, scalar_mb, scalar_reg, scalar_trace,
        dark_mb, sweep,
    ) = benchmark.pedantic(run_all, rounds=1, iterations=1)
    process_mb = sweep[n_workers]
    # Worker-side spans ship inside partition outputs and are stitched
    # driver-side; their "partition" root spans must account for (at
    # least) the driver-observed partition_execute wall time.
    worker_partition_s = scalar_mb.worker_stage_seconds.get("partition", 0.0)
    driver_partition_s = scalar_mb.stage_seconds.partition_execute
    trace_cover = (
        worker_partition_s / driver_partition_s
        if driver_partition_s > 0
        else float("nan")
    )
    telemetry_overhead = (
        dark_mb.throughput / scalar_mb.throughput - 1.0
        if scalar_mb.throughput > 0
        else float("nan")
    )
    from repro.obs.slo import Scorecard

    scorecard = Scorecard.from_registry(
        scalar_reg,
        f1=scalar_mb.metrics.get("f1", float("nan")),
        throughput=scalar_mb.throughput,
    )
    stage_cols = list(serial_mb.stage_seconds.as_dict())

    def stage_row(label, result):
        return [label, round(result.throughput)] + [
            result.stage_seconds.as_dict()[s] for s in stage_cols
        ]

    rows = [
        ["sequential", round(sequential.throughput)] + ["-"] * len(stage_cols),
        stage_row("microbatch/serial", serial_mb),
        stage_row(f"microbatch/{n_workers}proc", scalar_mb),
    ] + [
        stage_row(f"microbatch/{w}proc+fast", sweep[w])
        for w in sweep_counts
    ]
    bench_util.report(
        "fig16_real_engine_throughput",
        "Fig. 16 (companion) — real engine throughput and stage timings (s)",
        ["engine", "tweets/s"] + stage_cols,
        rows,
        notes=[
            f"{len(tweets)} tweets, {n_partitions} partitions x 2000-tweet "
            f"batches, up to {n_workers} worker processes "
            f"({n_cpus} cores visible)",
            "fast rows use the numpy fast_math kernels; "
            "scalar rows are the bit-exact default",
            f"driver-side merge/drain per engine: serial "
            f"{serial_mb.stage_seconds.driver_seconds:.3f} s, multi-process "
            f"{process_mb.stage_seconds.driver_seconds:.3f} s",
            "worker stage seconds (processes, scalar): "
            + ", ".join(
                f"{stage}={seconds:.3f}s"
                for stage, seconds in sorted(
                    scalar_mb.worker_stage_seconds.items()
                )
            ),
            f"stitched-trace coverage: worker partition spans sum to "
            f"{trace_cover:.2f}x the driver's partition_execute wall",
            f"worker-telemetry overhead: {telemetry_overhead:+.1%} "
            f"throughput (telemetry-off vs on, console/profiling off)",
            f"raw engine throughput (telemetry off): "
            f"{dark_mb.throughput:,.0f} t/s; instrumented "
            f"(scorecard-comparable): {scalar_mb.throughput:,.0f} t/s",
            f"n_cpus is the affinity mask ({n_cpus} runnable), "
            f"not os.cpu_count() ({os.cpu_count()})",
        ],
        summary={
            "n_tweets": len(tweets),
            "n_workers": n_workers,
            "n_partitions": n_partitions,
            "n_cpus": n_cpus,
            "n_cpus_machine": os.cpu_count(),
            "fast_math": True,
            "speedup_processes_vs_sequential": (
                process_mb.throughput / sequential.throughput
            ),
            "speedup_scalar_processes_vs_sequential": (
                scalar_mb.throughput / sequential.throughput
            ),
            "partition_sweep_tweets_per_s": {
                str(w): sweep[w].throughput for w in sweep_counts
            },
            "throughput_tweets_per_s": {
                "sequential": sequential.throughput,
                "microbatch_serial": serial_mb.throughput,
                "microbatch_processes_scalar": scalar_mb.throughput,
                "microbatch_processes": process_mb.throughput,
            },
            # Raw = worker telemetry off (no per-tweet stage histograms
            # shipped); instrumented = default telemetry, the number the
            # Scorecard reports. The two are NOT comparable.
            "throughput_raw_tweets_per_s": {
                "microbatch_processes": dark_mb.throughput,
            },
            "throughput_instrumented_tweets_per_s": {
                "microbatch_processes": scalar_mb.throughput,
            },
            "transport_bytes_total": {
                "tweets": scalar_reg.counter_value(
                    "transport_bytes_total",
                    engine="microbatch", channel="tweets",
                ),
                "broadcast": scalar_reg.counter_value(
                    "transport_bytes_total",
                    engine="microbatch", channel="broadcast",
                ),
            },
            "tweet_block_encode_seconds_sum": scalar_reg.histogram_sum(
                "tweet_block_encode_seconds", engine="microbatch"
            ),
            "sequential_stage_seconds": sequential.stage_seconds,
            "microbatch_serial_stage_seconds": serial_mb.stage_seconds.as_dict(),
            "microbatch_processes_stage_seconds": (
                process_mb.stage_seconds.as_dict()
            ),
            "worker_stage_seconds": dict(scalar_mb.worker_stage_seconds),
            "trace_coverage_worker_vs_driver": trace_cover,
            "telemetry_overhead_fraction": telemetry_overhead,
            "broadcast_encode_seconds_sum": scalar_reg.histogram_sum(
                "broadcast_encode_seconds", engine="microbatch"
            ),
            "broadcast_decode_seconds_sum": scalar_reg.histogram_sum(
                "broadcast_decode_seconds"
            ),
            "broadcast_decode_total": scalar_reg.total(
                "broadcast_decode_total"
            ),
            "scorecard": scorecard.as_dict(),
        },
    )
    for result in (serial_mb, scalar_mb, *sweep.values()):
        stages = result.stage_seconds
        assert result.n_processed == len(tweets)
        assert stages.partition_execute > 0
        assert all(v >= 0 for v in stages.as_dict().values())
        # Driver per-batch work is O(partitions), not O(tweets).
        assert stages.driver_seconds < 0.5 * stages.partition_execute
    # The stitched trace of the last processes batch must carry real
    # per-partition worker subtrees (pid + spans under one root).
    assert scalar_trace is not None
    traced = [p for p in scalar_trace["partitions"] if p.get("spans")]
    assert traced, "no worker telemetry reached the driver"
    for node in traced:
        assert node["spans"][0]["name"] == "partition"
        assert node["pid"] > 0
    if n_cpus >= 2:
        # With real cores available the multi-process path
        # must beat the single-thread baseline outright.
        assert process_mb.throughput > sequential.throughput
        # Partition scaling: more workers must not lose throughput
        # (small tolerance for scheduler noise), and the full pool must
        # beat one worker.
        ordered = [sweep[w].throughput for w in sweep_counts]
        for slower, faster in zip(ordered, ordered[1:]):
            assert faster >= 0.9 * slower
        if len(ordered) > 1:
            assert ordered[-1] > ordered[0]
        # Worker-observed partition time must account for >= 90% of the
        # driver-observed partition_execute wall (under parallelism the
        # per-worker sum normally exceeds the driver wall).
        assert trace_cover >= 0.9
