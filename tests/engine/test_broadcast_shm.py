"""Shared-memory broadcast: segment lifecycle and bounded worker caches.

``StateBroadcast`` writes its encoded payload into one
``multiprocessing.shared_memory`` segment at first pickle and ships
only the segment *name* inside the pickle, so N partition tasks x M
workers map the same bytes instead of copying them. These tests pin the
lifecycle contract: segments exist only between first pickle and
``release()``; serial execution never creates any; the worker-side
decode cache stays bounded no matter how many engine lifetimes share a
pool.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core.config import PipelineConfig
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine import runners
from repro.engine.microbatch import MicroBatchEngine
from repro.engine.runners import (
    BROADCAST_CACHE_MAX,
    ProcessPoolRunner,
    SegmentPool,
    StateBroadcast,
    TweetBlock,
    broadcast_cache_size,
    live_segment_names,
)


def _shm_names():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-POSIX-shm hosts
        return set()


def _probe_cache_size():
    return runners.broadcast_cache_size()


@pytest.fixture(autouse=True)
def _stale_segments():
    # The live-segment registry is process-global: engines elsewhere in
    # the suite may legitimately defer cleanup to the atexit sweep, so
    # every assertion here is a delta against the registry at test
    # start, never an absolute count.
    yield set(live_segment_names())


def _new_live(stale):
    return set(live_segment_names()) - stale


@pytest.fixture()
def payload():
    return {"weights": [[float(i)] * 40 for i in range(50)], "tag": "state"}


class TestSegmentLifecycle:
    def test_no_segment_before_first_pickle(self, payload, _stale_segments):
        broadcast = StateBroadcast("lazy", 1, payload)
        assert _new_live(_stale_segments) == set()
        broadcast.release()

    def test_pickle_ships_name_not_payload(self, payload, _stale_segments):
        broadcast = StateBroadcast("ship", 1, payload)
        data = pickle.dumps(broadcast)
        try:
            # The payload rides in shared memory; the pickle is a stub.
            assert len(data) < len(pickle.dumps(payload)) / 10
            assert len(_new_live(_stale_segments)) == 1
            clone = pickle.loads(data)
            assert clone.value() == payload
        finally:
            broadcast.release()
            runners.evict_broadcast("ship")

    def test_release_unlinks_and_is_idempotent(
        self, payload, _stale_segments
    ):
        before = _shm_names()
        broadcast = StateBroadcast("unlink", 1, payload)
        pickle.dumps(broadcast)
        assert _shm_names() - before
        broadcast.release()
        broadcast.release()
        assert _new_live(_stale_segments) == set()
        assert _shm_names() - before == set()

    def test_repeated_pickle_reuses_one_segment(
        self, payload, _stale_segments
    ):
        broadcast = StateBroadcast("reuse", 1, payload)
        try:
            blobs = {pickle.dumps(broadcast) for _ in range(5)}
            assert len(blobs) == 1
            assert len(_new_live(_stale_segments)) == 1
        finally:
            broadcast.release()

    def test_inline_fallback_when_disabled(self, payload, _stale_segments):
        broadcast = StateBroadcast(
            "inline", 1, payload, use_shared_memory=False
        )
        clone = pickle.loads(pickle.dumps(broadcast))
        assert _new_live(_stale_segments) == set()
        assert clone.value() == payload
        broadcast.release()

    def test_serial_engine_creates_no_segments(self, _stale_segments):
        tweets = AbusiveDatasetGenerator(n_tweets=120, seed=5).generate_list()
        before = _shm_names()
        with MicroBatchEngine(
            PipelineConfig(n_classes=2), n_partitions=2, batch_size=60
        ) as engine:
            engine.run(tweets)
            # Serial runner never pickles the broadcast.
            assert _new_live(_stale_segments) == set()
        assert _shm_names() == before


class TestTweetBlockSegment:
    def test_pool_keeps_one_segment_and_unlinks_on_close(
        self, _stale_segments
    ):
        pool = SegmentPool()
        block = TweetBlock.encode([["a"] * 10, ["b"] * 10], pool)
        shipped = pickle.loads(pickle.dumps(block.slices))
        assert [s.resolve() for s in shipped] == [["a"] * 10, ["b"] * 10]
        block.close()
        kept = _new_live(_stale_segments)
        assert len(kept) == 1
        # The next batch reuses the pooled segment.
        TweetBlock.encode([["c"]], pool).close()
        assert _new_live(_stale_segments) == kept
        # A batch that outgrows it retires it for a bigger one.
        big = TweetBlock.encode([["x" * 200_000]], pool)
        assert len(_new_live(_stale_segments)) == 1
        assert _new_live(_stale_segments) != kept
        # Only one segment is kept: a second block's is unlinked.
        other = TweetBlock.encode([["y"]], pool)
        big.close()
        other.close()
        assert len(_new_live(_stale_segments)) == 1
        pool.close()
        assert _new_live(_stale_segments) == set()


class TestBoundedWorkerCache:
    def test_local_decode_cache_is_lru_bounded(self, payload):
        keys = [f"bounded-{i}" for i in range(BROADCAST_CACHE_MAX * 2)]
        for key in keys:
            broadcast = StateBroadcast(key, 1, payload)
            clone = pickle.loads(pickle.dumps(broadcast))
            assert clone.value() == payload
            broadcast.release()
        assert broadcast_cache_size() <= BROADCAST_CACHE_MAX
        for key in keys:
            runners.evict_broadcast(key)

    def test_cache_bounded_across_engine_lifetimes_on_reused_pool(
        self, _stale_segments
    ):
        tweets = AbusiveDatasetGenerator(n_tweets=80, seed=9).generate_list()
        before = _shm_names()
        with ProcessPoolRunner(n_processes=2) as runner:
            for _ in range(BROADCAST_CACHE_MAX + 2):
                engine = MicroBatchEngine(
                    PipelineConfig(n_classes=2),
                    n_partitions=2,
                    batch_size=80,
                    runner=runner,
                )
                engine.run(tweets)
                engine.close()
                assert _new_live(_stale_segments) == set()
            worker_sizes = runner.run([_probe_cache_size] * 4)
            assert all(s <= BROADCAST_CACHE_MAX for s in worker_sizes)
        assert broadcast_cache_size() <= BROADCAST_CACHE_MAX
        assert _shm_names() - before == set()
