"""Chaos drills for the serving layer: swaps, corruption, floods.

Each drill injects one fault class and asserts the externally
observable contract: every accepted request is answered, corrupt
snapshots never reach clients, and hot swaps drop nothing.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.server import AggressionServer
from repro.serve.snapshot import SnapshotStore

from tests.serve.conftest import http_request

pytestmark = pytest.mark.chaos


def _serve(tmp_path, payload=None, **kwargs):
    store = SnapshotStore(tmp_path / "snaps")
    if payload is not None:
        store.publish(payload)
    kwargs.setdefault("poll_interval_s", 0.02)
    server = AggressionServer(store, port=0, **kwargs)
    return store, server


class TestHotSwapUnderLoad:
    def test_zero_dropped_requests_across_swap(
        self, tmp_path, trained_payload, trained_payload_v2
    ):
        """Continuous load, mid-run publish: no drop, no error, versions
        observed on both sides of the swap."""

        async def main():
            store, server = _serve(tmp_path, trained_payload)
            await server.start()
            results = []

            async def client(i):
                status, _, body = await http_request(
                    server.port, "/classify",
                    {"text": f"message number {i}"},
                )
                results.append((status, body.get("snapshot_version")))

            try:
                for batch in range(10):
                    await asyncio.gather(
                        *(client(batch * 8 + j) for j in range(8))
                    )
                    if batch == 4:
                        store.publish(trained_payload_v2)
                        await asyncio.sleep(0.06)  # let the poll swap
            finally:
                await server.shutdown()
            return results, server

        results, server = asyncio.run(main())
        assert len(results) == 80  # every request answered
        statuses = {status for status, _ in results}
        assert statuses == {200}
        versions = {version for _, version in results}
        assert versions == {1, 2}
        assert server.snapshot_version == 2

    def test_inflight_request_pinned_to_old_snapshot(
        self, tmp_path, trained_payload, trained_payload_v2
    ):
        """A request in flight during the swap finishes on the snapshot
        it started with; the next request sees the new one."""

        async def main():
            gate = asyncio.Event()
            stalled_once = asyncio.Event()

            async def stall(endpoint):
                if not stalled_once.is_set():
                    stalled_once.set()
                    await gate.wait()

            store, server = _serve(
                tmp_path, trained_payload,
                chaos_hook=stall, poll_interval_s=30.0,
            )
            await server.start()
            try:
                slow = asyncio.create_task(http_request(
                    server.port, "/classify", {"text": "pinned"}
                ))
                await stalled_once.wait()
                store.publish(trained_payload_v2)
                server.check_for_update()
                assert server.snapshot_version == 2
                gate.set()
                status, _, old_body = await slow
                assert status == 200
                status, _, new_body = await http_request(
                    server.port, "/classify", {"text": "fresh"}
                )
                assert status == 200
                return old_body, new_body
            finally:
                gate.set()
                await server.shutdown()

        old_body, new_body = asyncio.run(main())
        assert old_body["snapshot_version"] == 1
        assert new_body["snapshot_version"] == 2


class TestSnapshotCorruption:
    def test_truncated_publish_is_refused_and_serving_continues(
        self, tmp_path, trained_payload, trained_payload_v2
    ):
        async def main():
            store, server = _serve(
                tmp_path, trained_payload, poll_interval_s=30.0
            )
            await server.start()
            try:
                info = store.publish(trained_payload_v2)
                # Torn write: the file exists but holds half the bytes.
                info.path.write_text(
                    info.path.read_text()[: info.n_bytes // 3]
                )
                server.check_for_update()
                assert server.snapshot_version == 1
                assert store.n_rejected >= 1
                assert server.metrics.counter(
                    "snapshot_rejected_total"
                ).value >= 1.0
                status, _, body = await http_request(
                    server.port, "/classify", {"text": "still fine"}
                )
                assert status == 200
                assert body["snapshot_version"] == 1
                # The bad version is remembered: polling again does not
                # re-attempt (and re-log) it forever.
                rejected_before = store.n_rejected
                server.check_for_update()
                assert store.n_rejected == rejected_before
            finally:
                await server.shutdown()

        asyncio.run(main())

    def test_vanished_snapshot_file_keeps_serving(
        self, tmp_path, trained_payload, trained_payload_v2
    ):
        """The newest snapshot file is deleted after publish: the
        server keeps serving the version it has."""

        async def main():
            store, server = _serve(
                tmp_path, trained_payload, poll_interval_s=30.0
            )
            await server.start()
            try:
                info = store.publish(trained_payload_v2)
                info.path.unlink()
                server.check_for_update()
                assert server.snapshot_version == 1
                status, _, _ = await http_request(
                    server.port, "/classify", {"text": "alive"}
                )
                assert status == 200
            finally:
                await server.shutdown()

        asyncio.run(main())

    def test_recovery_after_corruption(
        self, tmp_path, trained_payload, trained_payload_v2
    ):
        """A good publish after a corrupt one swaps normally."""

        async def main():
            store, server = _serve(
                tmp_path, trained_payload, poll_interval_s=30.0
            )
            await server.start()
            try:
                bad = store.publish(trained_payload_v2)
                bad.path.write_bytes(b"garbage")
                server.check_for_update()
                assert server.snapshot_version == 1
                store.publish(trained_payload_v2)
                server.check_for_update()
                assert server.snapshot_version == 3
            finally:
                await server.shutdown()

        asyncio.run(main())


class TestStalledHandler:
    def test_health_answers_while_scoring_is_stuck(
        self, tmp_path, trained_payload
    ):
        async def main():
            gate = asyncio.Event()

            async def stall(endpoint):
                await gate.wait()

            _, server = _serve(
                tmp_path, trained_payload, chaos_hook=stall
            )
            await server.start()
            try:
                stuck = asyncio.create_task(http_request(
                    server.port, "/classify", {"text": "stuck"}
                ))
                await asyncio.sleep(0.05)
                status, _, body = await asyncio.wait_for(
                    http_request(server.port, "/health", {}),
                    timeout=2.0,
                )
                assert status == 200
                assert body["inflight"] >= 1
                gate.set()
                status, _, _ = await stuck
                assert status == 200
            finally:
                gate.set()
                await server.shutdown()

        asyncio.run(main())


class TestConnectionFlood:
    def test_every_flooded_request_is_answered(
        self, tmp_path, trained_payload
    ):
        """64 concurrent requests against max_inflight=2, queue=4:
        every one gets a definitive answer (200 or 429), nothing hangs,
        nothing is silently dropped, and the server survives to serve
        afterwards."""

        async def main():
            _, server = _serve(
                tmp_path, trained_payload,
                max_inflight=2, queue_capacity=4,
            )
            await server.start()

            async def client(i):
                try:
                    status, _, _ = await asyncio.wait_for(
                        http_request(
                            server.port, "/classify",
                            {"text": f"flood {i}"},
                        ),
                        timeout=10.0,
                    )
                    return status
                except (ConnectionError, OSError):
                    return -1

            try:
                statuses = await asyncio.gather(
                    *(client(i) for i in range(64))
                )
                status, _, _ = await http_request(
                    server.port, "/classify", {"text": "after the storm"}
                )
            finally:
                await server.shutdown()
            return statuses, status, server

        statuses, after, server = asyncio.run(main())
        assert len(statuses) == 64
        assert set(statuses) <= {200, 429}
        assert statuses.count(200) >= 6  # real work got through
        assert after == 200
        shed = server.admission.n_shed
        assert shed == statuses.count(429)

    def test_flood_sheds_are_observable(self, tmp_path, trained_payload):
        async def main():
            _, server = _serve(
                tmp_path, trained_payload,
                max_inflight=1, queue_capacity=1,
            )
            await server.start()
            try:
                await asyncio.gather(*(
                    http_request(
                        server.port, "/classify", {"text": f"x{i}"}
                    )
                    for i in range(32)
                ))
            finally:
                await server.shutdown()
            return server

        server = asyncio.run(main())
        from repro.obs.export import prometheus_exposition

        exposition = prometheus_exposition(server.metrics)
        if server.admission.n_shed:
            assert "repro_requests_shed_total" in exposition
        assert "repro_requests_total" in exposition
