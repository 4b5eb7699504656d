"""Checkpoint files: bounded retention and corrupt-file fallback."""

from __future__ import annotations

import pytest

from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine.sequential import SequentialEngine
from repro.reliability.supervisor import StreamSupervisor
from repro.streamml.serialize import SerializationError

from tests.conftest import flip_model_digit


def _tweets(n=1000, seed=31):
    return AbusiveDatasetGenerator(n_tweets=n, seed=seed).generate_list()


def _history(directory):
    return sorted(p.name for p in directory.glob("checkpoint-*.json"))


class TestRetention:
    def test_history_bounded_to_keep_checkpoints(self, tmp_path):
        supervisor = StreamSupervisor(
            SequentialEngine(),
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
            chunk_size=100,
            keep_checkpoints=3,
        )
        supervisor.run(_tweets(1000))
        # One file per write (10 periodic + 1 final); the newest 3 stay.
        names = [f"checkpoint-{n:08d}.json" for n in (9, 10, 11)]
        assert _history(tmp_path) == names
        assert supervisor.checkpoint_path == tmp_path / names[-1]

    def test_keep_checkpoints_validation(self):
        with pytest.raises(ValueError, match="keep_checkpoints"):
            StreamSupervisor(
                SequentialEngine(), keep_checkpoints=0
            )


class TestCorruptFallback:
    def _run(self, tmp_path, keep=3):
        supervisor = StreamSupervisor(
            SequentialEngine(),
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
            chunk_size=100,
            keep_checkpoints=keep,
        )
        supervisor.run(_tweets(600))
        return supervisor

    def test_truncated_newest_file_falls_back(self, tmp_path):
        # Spy on the module logger directly: CLI tests may have set
        # propagate=False on the repro tree, which blinds caplog.
        from unittest import mock

        from repro.reliability import supervisor as supervisor_mod

        newest = self._run(tmp_path).checkpoint_path
        newest.write_text(newest.read_text()[:200])
        with mock.patch.object(
            supervisor_mod.logger, "warning"
        ) as warning:
            resumed = StreamSupervisor.resume(tmp_path)
        assert resumed._cursor == 600
        assert (
            resumed.metrics.counter("checkpoint_corrupt_total").value
            == 1.0
        )
        assert warning.call_count == 1
        assert "corrupt checkpoint" in warning.call_args[0][0]

    def test_falls_back_over_multiple_corrupt_files(self, tmp_path):
        self._run(tmp_path)
        names = _history(tmp_path)
        (tmp_path / names[-1]).write_text("{")
        (tmp_path / names[-2]).write_text("also broken")
        resumed = StreamSupervisor.resume(tmp_path)
        # Landed on an older-but-valid cut: strictly earlier progress.
        assert 0 < resumed._cursor < 600
        assert (
            resumed.metrics.counter("checkpoint_corrupt_total").value
            == 2.0
        )

    @pytest.mark.parametrize("damage", ["zeroed", "digit_flip"])
    def test_fallback_resume_still_completes_the_stream(
        self, tmp_path, damage
    ):
        tweets = _tweets(600)
        baseline = StreamSupervisor(
            SequentialEngine(), chunk_size=100
        ).run(tweets)
        newest = self._run(tmp_path).checkpoint_path
        if damage == "zeroed":
            newest.write_bytes(b"\x00" * 64)
        else:  # still valid JSON and a loadable model: only sha256 tells
            flip_model_digit(newest)
        resumed = StreamSupervisor.resume(tmp_path)
        corrupt = resumed.metrics.counter("checkpoint_corrupt_total")
        assert corrupt.value == 1.0
        final = resumed.run(tweets)
        assert final.result.metrics == baseline.result.metrics

    def test_all_corrupt_raises_serialization_error(self, tmp_path):
        self._run(tmp_path)
        for path in tmp_path.glob("*.json"):
            path.write_text("garbage")
        with pytest.raises(
            SerializationError, match="no verifiable checkpoint"
        ):
            StreamSupervisor.resume(tmp_path)

    def test_missing_directory_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            StreamSupervisor.resume(tmp_path / "never-written")

    def test_corrupt_event_reaches_telemetry(self, tmp_path):
        events = []

        class Sink:
            def event(self, name, **fields):
                events.append((name, fields))

            def snapshot(self, *args, **kwargs):
                pass

        newest = self._run(tmp_path).checkpoint_path
        newest.write_text("~")
        StreamSupervisor.resume(tmp_path, telemetry=Sink())
        corrupt = [e for e in events if e[0] == "checkpoint_corrupt"]
        assert len(corrupt) == 1
        assert corrupt[0][1]["skipped"] == [newest.name]
