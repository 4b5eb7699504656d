"""SLO burn windows and alert state survive a crash.

The supervisor embeds the full :class:`SLOTracker` state in its
checkpoint; a resumed run must continue the same rolling windows and
firing set bit-exactly — not restart the burn math blind — and a
checkpoint without the section resumes without a tracker.
"""

from __future__ import annotations

import json

import pytest

from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine.microbatch import MicroBatchEngine
from repro.obs.slo import SLO, SLOTracker, default_slos
from repro.reliability.supervisor import StreamSupervisor
from repro.reliability.faults import corrupting_stream


def _tweets(n=600, seed=3):
    return AbusiveDatasetGenerator(n_tweets=n, seed=seed).generate_list()


class _Crash(Exception):
    """Simulated hard driver death mid-stream."""


def _crashing(tweets, at):
    for index, tweet in enumerate(tweets):
        if index >= at:
            raise _Crash(f"driver died at tweet {index}")
        yield tweet


def _engine():
    return MicroBatchEngine(n_partitions=4, batch_size=50)


def _tight_quarantine_slo():
    # Budget far below the injected corruption rate: fires fast and
    # deterministically (windows are counted in chunks, not seconds).
    return SLO(
        name="quarantine_rate",
        kind="ratio",
        budget=0.001,
        bad=[("tweets_quarantined_total", {})],
        total=[("tweets_consumed_total", {})],
    )


class TestCheckpointV5:
    def test_checkpoint_embeds_full_tracker_state(self, tmp_path):
        supervisor = StreamSupervisor(
            _engine(),
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
            chunk_size=100,
            slos=SLOTracker(default_slos()),
        )
        supervisor.run(_tweets())
        payload = json.loads(supervisor.checkpoint_path.read_text())
        assert payload["kind"] == "checkpoint"
        assert payload["slo"] == supervisor.slo_tracker.to_dict()
        # The section is self-describing: definitions ride along, so
        # resume needs no out-of-band SLO list.
        names = {slo["name"] for slo in payload["slo"]["slos"]}
        assert "shed_fraction" in names

    def test_crash_resume_restores_windows_and_firing_bit_exactly(
        self, tmp_path
    ):
        tweets = list(
            corrupting_stream(_tweets(), rate=0.2, seed=7)
        )
        crashed = StreamSupervisor(
            _engine(),
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
            chunk_size=50,
            slos=SLOTracker([_tight_quarantine_slo()]),
        )
        with pytest.raises(_Crash):
            crashed.run(_crashing(tweets, at=330))
        assert crashed.n_checkpoints >= 2
        # The storm was burning budget well past threshold pre-crash.
        assert crashed.slo_tracker.firing() == ["quarantine_rate"]
        payload = json.loads(crashed.checkpoint_path.read_text())

        resumed = StreamSupervisor.resume(tmp_path, checkpoint_every=2)
        assert resumed.slo_tracker is not None
        assert resumed.slo_tracker.to_dict() == payload["slo"]
        assert resumed.slo_tracker.firing() == ["quarantine_rate"]
        fired_before = resumed.slo_tracker.alerts_fired
        (slo_state,) = payload["slo"]["slos"]
        samples_before = len(slo_state["samples"])

        # The resumed run keeps sampling the same windows: the alert
        # stays in its firing state (no duplicate fire event) and the
        # rings keep growing from the restored cut.
        outcome = resumed.run(tweets)
        assert outcome.health.n_processed > 0
        (end_state,) = resumed.slo_tracker.to_dict()["slos"]
        assert len(end_state["samples"]) >= samples_before
        assert resumed.slo_tracker.firing() == ["quarantine_rate"]
        assert resumed.slo_tracker.alerts_fired == fired_before

    def test_checkpoint_without_slo_section_resumes(self, tmp_path):
        tweets = _tweets()
        supervisor = StreamSupervisor(
            _engine(),
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
            chunk_size=50,
        )
        with pytest.raises(_Crash):
            supervisor.run(_crashing(tweets, at=330))
        payload = json.loads(supervisor.checkpoint_path.read_text())
        assert "slo" not in payload  # no tracker -> no section

        resumed = StreamSupervisor.resume(tmp_path, checkpoint_every=2)
        assert resumed.slo_tracker is None
        outcome = resumed.run(tweets)
        assert (
            outcome.health.n_processed
            == StreamSupervisor(_engine(), chunk_size=50)
            .run(tweets)
            .health.n_processed
        )
