"""Graceful shutdown, end to end: real processes, real SIGTERM.

These tests exercise the signal path exactly as an operator (or a
container runtime) would: spawn ``python -m repro ...``, deliver
SIGTERM, and assert the process drains, persists its state, and exits
0 — with no shared-memory segments left behind.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.data.loader import write_jsonl
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.serve.snapshot import SnapshotStore

REPO_ROOT = Path(__file__).resolve().parents[2]


def _spawn(args, log_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    handle = open(log_path, "w", encoding="utf-8")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=handle, stderr=subprocess.STDOUT,
        env=env, cwd=REPO_ROOT,
    )


def _wait_for(predicate, timeout_s=15.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


def _served_port(log_path):
    try:
        text = Path(log_path).read_text(encoding="utf-8")
    except OSError:
        return None
    for line in text.splitlines():
        if "serving on " in line:
            return int(line.rsplit(":", 1)[1].split(" ")[0])
    return None


def _shm_segments():
    shm = Path("/dev/shm")
    if not shm.exists():  # pragma: no cover - platform-dependent
        return set()
    return {p.name for p in shm.glob("psm_*")}


@pytest.fixture(scope="module")
def published_store(tmp_path_factory, trained_payload):
    root = tmp_path_factory.mktemp("store")
    store = SnapshotStore(root)
    store.publish(trained_payload)
    return root


class TestServeSigterm:
    def test_drains_and_exits_zero(self, tmp_path, published_store):
        log = tmp_path / "serve.log"
        shm_before = _shm_segments()
        proc = _spawn(
            ["serve", str(published_store), "--port", "0"], log
        )
        try:
            assert _wait_for(lambda: _served_port(log) is not None)
            port = _served_port(log)
            with socket.create_connection(
                ("127.0.0.1", port), timeout=5
            ) as conn:
                conn.sendall(
                    b'{"op":"classify","tweet":{"text":"hello"}}\n'
                )
                line = conn.makefile().readline()
                assert json.loads(line)["status"] == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        text = log.read_text(encoding="utf-8")
        assert "drain complete" in text
        assert "0 in flight" in text
        assert _shm_segments() == shm_before

    def test_sigterm_while_unready_exits_zero(self, tmp_path):
        empty_store = tmp_path / "empty"
        log = tmp_path / "serve.log"
        proc = _spawn(["serve", str(empty_store), "--port", "0"], log)
        try:
            assert _wait_for(lambda: _served_port(log) is not None)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestRunSigterm:
    def test_training_run_drains_checkpoints_and_exits_zero(
        self, tmp_path
    ):
        data = tmp_path / "data.jsonl"
        write_jsonl(
            AbusiveDatasetGenerator(
                n_tweets=4000, seed=5
            ).generate(),
            data,
        )
        ckpt = tmp_path / "ckpt"
        snaps = tmp_path / "snaps"
        log = tmp_path / "run.log"
        shm_before = _shm_segments()
        proc = _spawn(
            [
                "run", str(data),
                "--checkpoint-dir", str(ckpt),
                "--checkpoint-every", "1",
                "--publish-snapshot", str(snaps),
                "--arrival-rate", "800",
            ],
            log,
        )
        try:
            # Let it make some progress, then ask it to stop.
            assert _wait_for(lambda: any(ckpt.glob("checkpoint-*.json")))
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        text = log.read_text(encoding="utf-8")
        assert "graceful stop complete" in text
        assert "stopped       : graceful drain" in text
        # The final checkpoint is written and resumable.
        payload = json.loads(
            max(ckpt.glob("checkpoint-*.json")).read_text(encoding="utf-8")
        )
        assert payload["cursor"] > 0
        # A serving snapshot landed in the store.
        assert SnapshotStore(snaps).latest_version() is not None
        assert _shm_segments() == shm_before

    def test_resume_after_graceful_stop_completes_stream(self, tmp_path):
        from repro.engine.sequential import SequentialEngine
        from repro.reliability.supervisor import StreamSupervisor

        tweets = AbusiveDatasetGenerator(
            n_tweets=1200, seed=9
        ).generate_list()
        # Baseline: one uninterrupted run.
        baseline = StreamSupervisor(
            SequentialEngine(), chunk_size=200
        ).run(tweets)
        # Stopped run: drain after the second chunk, then resume.
        supervisor = StreamSupervisor(
            SequentialEngine(),
            checkpoint_dir=tmp_path, chunk_size=200,
        )
        chunks_seen = []
        original = supervisor._process_chunk

        def stop_after_two(chunk):
            original(chunk)
            chunks_seen.append(len(chunk))
            if len(chunks_seen) == 2:
                supervisor.request_stop()

        supervisor._process_chunk = stop_after_two
        partial = supervisor.run(tweets)
        assert partial.stopped
        resumed = StreamSupervisor.resume(tmp_path)
        final = resumed.run(tweets)
        assert not final.stopped
        assert final.result.metrics == baseline.result.metrics
