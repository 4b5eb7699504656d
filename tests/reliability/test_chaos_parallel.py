"""Chaos recovery: seeded worker kills/hangs heal to bit-exact state.

:func:`repro.engine.replay.run_chaos_scenario` drives a micro-batch
run through a deterministic partition-fault storm (every N-th runner
call misbehaves). The self-healing contract under test: partition
deadlines catch hangs, pool rebuilds replace killed workers,
per-partition retries re-run only the affected slices, and — because
engine-level retries advance the injector past the faulty call — the
run completes with *exactly* the model state and metrics a fault-free
run produces (speculation off, retries within budget), with nothing
quarantined and no shared-memory segments leaked.
"""

from __future__ import annotations

import os

import pytest

from repro.engine.replay import run_chaos_scenario
from repro.engine.runners import live_segment_names

pytestmark = pytest.mark.chaos


def _shm_names():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-POSIX-shm hosts
        return set()


@pytest.fixture(scope="module")
def chaos_tweets(request):
    return request.getfixturevalue("small_stream")[:1500]


@pytest.fixture(scope="module")
def baseline(chaos_tweets):
    """Fault-free run (no injector attached): the equivalence anchor."""
    return run_chaos_scenario(chaos_tweets, every_n_calls=0)


class TestWorkerHang:
    def test_hang_heals_bit_exact_within_wall_time_bound(
        self, chaos_tweets, baseline
    ):
        report = run_chaos_scenario(
            chaos_tweets,
            fault_kind="worker_hang",
            every_n_calls=3,
            partition_deadline_s=1.0,
            hang_s=8.0,
        )
        assert report.n_injected >= 1
        # The hang was caught by the partition deadline, the grinding
        # worker's pool was abandoned (a rebuild), and the partition
        # retried clean — nothing quarantined, nothing lost.
        assert report.n_partition_timeouts >= 1
        assert report.n_pool_rebuilds >= 1
        assert report.n_retries >= 1
        assert report.n_quarantined == 0
        # Bit-exact equivalence with the fault-free run.
        assert report.model_digest == baseline.model_digest
        assert report.final_f1 == baseline.final_f1
        assert report.n_batches == baseline.n_batches
        # Self-healing must be cheap: the faulted run stays within
        # 1.5x the fault-free wall time plus fixed recovery overhead
        # (one deadline wait + pool re-fork).
        assert report.elapsed_s <= 1.5 * baseline.elapsed_s + 3.0

    def test_no_segment_leaks_across_chaos_runs(self, chaos_tweets):
        stale = set(live_segment_names())
        before = _shm_names()
        run_chaos_scenario(
            chaos_tweets[:600],
            fault_kind="worker_hang",
            every_n_calls=2,
            batch_size=300,
            partition_deadline_s=0.8,
            hang_s=8.0,
        )
        assert set(live_segment_names()) - stale == set()
        assert _shm_names() - before == set()


class TestWorkerKill:
    def test_kill_rebuilds_pool_and_heals_bit_exact(
        self, chaos_tweets, baseline
    ):
        report = run_chaos_scenario(
            chaos_tweets,
            fault_kind="worker_kill",
            every_n_calls=3,
            max_rebuilds_per_run=1,
        )
        assert report.n_injected >= 1
        assert report.n_pool_rebuilds >= 1
        assert report.n_retries >= 1
        assert report.n_quarantined == 0
        assert report.model_digest == baseline.model_digest
        assert report.final_f1 == baseline.final_f1

    def test_kill_on_serial_runner_downgrades_to_transient(
        self, chaos_tweets
    ):
        # On the serial runner the injected kill shares the driver's
        # PID, so it downgrades to a retryable error instead of taking
        # the test process down; equivalence still holds.
        tweets = chaos_tweets[:600]
        clean = run_chaos_scenario(
            tweets, every_n_calls=0, runner="serial", batch_size=300
        )
        faulted = run_chaos_scenario(
            tweets,
            fault_kind="worker_kill",
            every_n_calls=2,
            runner="serial",
            batch_size=300,
        )
        assert faulted.n_injected >= 1
        assert faulted.n_retries >= 1
        assert faulted.n_pool_rebuilds == 0
        assert faulted.n_quarantined == 0
        assert faulted.model_digest == clean.model_digest


class TestSlowPartition:
    def test_slow_partition_finishes_within_deadline_unharmed(
        self, chaos_tweets
    ):
        # A straggler that merely runs late (well inside the deadline)
        # needs no recovery at all: no retries, no rebuilds, same state —
        # also when a pool speculates a duplicate attempt past it.
        tweets = chaos_tweets[:600]
        clean = run_chaos_scenario(
            tweets, every_n_calls=0, runner="serial", batch_size=300
        )
        for scenario in (
            {"runner": "serial", "slow_s": 0.05},
            {
                "runner": "processes",
                "slow_s": 1.0,
                "partition_deadline_s": 8.0,
                "speculate": 0.05,
            },
        ):
            faulted = run_chaos_scenario(
                tweets,
                fault_kind="slow_partition",
                every_n_calls=2,
                batch_size=300,
                **scenario,
            )
            assert faulted.n_injected >= 1
            assert faulted.n_retries == 0
            assert faulted.n_partition_timeouts == 0
            assert faulted.n_quarantined == 0
            assert faulted.model_digest == clean.model_digest
            if "speculate" in scenario:
                assert faulted.n_speculative_launches >= 1


class TestScenarioValidation:
    def test_every_n_calls_of_one_is_rejected(self, chaos_tweets):
        with pytest.raises(ValueError):
            run_chaos_scenario(chaos_tweets[:10], every_n_calls=1)
