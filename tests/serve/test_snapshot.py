"""Snapshot store: publish/verify/load, corruption, retention."""

from __future__ import annotations

import json

import pytest

from repro.core.checkpoint import StateFileError
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.obs.metrics import MetricsRegistry
from repro.serve.model import ServingModel
from repro.serve.snapshot import (
    SnapshotIntegrityError,
    SnapshotStore,
    payload_from_checkpoint,
)

from tests.conftest import flip_model_digit


class TestPublishAndLoad:
    def test_publish_load_roundtrip(self, tmp_path, trained_payload):
        store = SnapshotStore(tmp_path)
        info = store.publish(trained_payload, meta={"chunk": 3})
        assert info.version == 1
        assert info.meta["chunk"] == 3
        loaded_info, payload = store.load_latest_verified()
        assert loaded_info.version == 1
        assert loaded_info.sha256 == info.sha256
        model = ServingModel(payload)
        tweets = AbusiveDatasetGenerator(
            n_tweets=5, seed=3, n_days=1
        ).generate_list()
        result = model.classify(tweets[0])
        assert result["predicted"] in result["proba"]
        assert abs(sum(result["proba"].values()) - 1.0) < 1e-9

    def test_versions_are_monotonic(self, tmp_path, trained_payload):
        store = SnapshotStore(tmp_path)
        v1 = store.publish(trained_payload)
        v2 = store.publish(trained_payload)
        assert (v1.version, v2.version) == (1, 2)
        assert store.latest_version() == 2

    def test_structurally_invalid_payload_is_refused(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with pytest.raises(SnapshotIntegrityError):
            store.publish({"model": {}})
        assert store.versions() == []

    def test_empty_store_load_raises(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with pytest.raises(SnapshotIntegrityError):
            store.load_latest_verified()


class TestCorruption:
    def test_truncated_snapshot_is_refused_with_fallback(
        self, tmp_path, trained_payload
    ):
        registry = MetricsRegistry()
        store = SnapshotStore(tmp_path, metrics=registry)
        store.publish(trained_payload)
        v2 = store.publish(trained_payload)
        v2.path.write_text(v2.path.read_text()[: v2.n_bytes // 2])
        info, _ = store.load_latest_verified()
        assert info.version == 1
        assert store.n_rejected == 1
        assert registry.counter("snapshot_rejected_total").value == 1.0

    def test_bitflipped_snapshot_fails_checksum(
        self, tmp_path, trained_payload
    ):
        store = SnapshotStore(tmp_path)
        info = store.publish(trained_payload)
        raw = bytearray(info.path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        info.path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotIntegrityError):
            store.load_verified(info.version)

    def test_missing_snapshot_file_falls_back(
        self, tmp_path, trained_payload
    ):
        store = SnapshotStore(tmp_path)
        store.publish(trained_payload)
        v2 = store.publish(trained_payload)
        v2.path.unlink()
        info, _ = store.load_latest_verified()
        assert info.version == 1

    def test_pre_state_file_snapshot_is_refused(
        self, tmp_path, trained_payload
    ):
        old = tmp_path / "snapshot-000001.json"  # no sha256 header
        old.write_text(json.dumps(trained_payload))
        with pytest.raises(SnapshotIntegrityError, match="snapshot-000001"):
            SnapshotStore(tmp_path).load_latest_verified()


class TestRetention:
    def test_gc_keeps_newest_k(self, tmp_path, trained_payload):
        store = SnapshotStore(tmp_path, keep=2)
        for _ in range(5):
            store.publish(trained_payload)
        assert store.versions() == [4, 5]
        names = sorted(p.name for p in tmp_path.glob("snapshot-*.json"))
        assert names == ["snapshot-00000004.json", "snapshot-00000005.json"]

    def test_publish_counter(self, tmp_path, trained_payload):
        registry = MetricsRegistry()
        store = SnapshotStore(tmp_path, metrics=registry)
        store.publish(trained_payload)
        store.publish(trained_payload)
        assert (
            registry.counter("snapshots_published_total").value == 2.0
        )
        assert (
            registry.gauge("snapshot_latest_version").value == 2.0
        )


class TestPayloadFromCheckpoint:
    def test_supervisor_checkpoint_extraction(
        self, tmp_path, small_stream
    ):
        from repro.cli import main
        from repro.engine.sequential import SequentialEngine
        from repro.reliability.supervisor import StreamSupervisor

        engine = SequentialEngine()
        supervisor = StreamSupervisor(
            engine, checkpoint_dir=tmp_path / "ckpt", chunk_size=200
        )
        supervisor.run(small_stream[:400])
        payload = payload_from_checkpoint(tmp_path / "ckpt")
        store = SnapshotStore(tmp_path / "snaps")
        info = store.publish(payload)
        model = ServingModel(store.load_verified(info.version)[1])
        assert model.classify(small_stream[0])["predicted"]
        # A flipped model digit is refused, never laundered into a snapshot.
        flip_model_digit(supervisor.checkpoint_path)
        with pytest.raises(StateFileError):
            payload_from_checkpoint(supervisor.checkpoint_path)
        bad = tmp_path / "bad"
        assert main(["snapshot", "publish", str(bad), "--from-checkpoint",
                     str(supervisor.checkpoint_path)]) == 2
        assert SnapshotStore(bad).versions() == []

    def test_rejects_garbage_checkpoint(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(StateFileError):
            payload_from_checkpoint(path)
