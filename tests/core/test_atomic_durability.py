"""Crash-window regression tests for atomic+durable file writes.

``atomic_write_text`` must fsync the temp file *and* the parent
directory around the rename: skipping the file fsync risks a
zero-length target after power loss, skipping the directory fsync
risks the rename itself vanishing. These tests pin the call sequence
(via a recording fsync) and the crash-window invariant (replace fails
→ previous content intact, no temp litter).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.checkpoint import atomic_write_text


def _fd_target(fd: int) -> str:
    try:
        return os.readlink(f"/proc/self/fd/{fd}")
    except OSError:  # pragma: no cover - non-Linux fallback
        return f"fd:{fd}"


class TestDurabilityProtocol:
    def test_fsyncs_file_and_directory_around_rename(
        self, tmp_path, monkeypatch
    ):
        events = []
        real_fsync = os.fsync
        real_replace = os.replace

        def recording_fsync(fd):
            events.append(("fsync", _fd_target(fd)))
            real_fsync(fd)

        def recording_replace(src, dst):
            events.append(("replace", str(src), str(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        target = tmp_path / "state.json"
        atomic_write_text(target, '{"ok": true}')

        kinds = [
            (
                event[0],
                "dir" if event[1] == str(tmp_path) else "file",
            )
            for event in events
            if event[0] == "fsync"
        ]
        # Temp-file fsync, then the parent dir before AND after the
        # rename: the rename itself must be on disk.
        assert kinds == [
            ("fsync", "file"), ("fsync", "dir"), ("fsync", "dir")
        ]
        replace_at = next(
            i for i, e in enumerate(events) if e[0] == "replace"
        )
        fsyncs_before = [
            e for e in events[:replace_at] if e[0] == "fsync"
        ]
        fsyncs_after = [
            e for e in events[replace_at:] if e[0] == "fsync"
        ]
        assert len(fsyncs_before) == 2  # file + dir precede the swap
        assert len(fsyncs_after) == 1  # dir follows it

    def test_crashed_rename_leaves_previous_content(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "state.json"
        atomic_write_text(target, "generation-1")

        def exploding_replace(src, dst):
            raise OSError("simulated crash inside the rename window")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(target, "generation-2")
        monkeypatch.undo()
        assert target.read_text(encoding="utf-8") == "generation-1"

    def test_crashed_fsync_never_exposes_partial_target(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "state.json"

        def exploding_fsync(fd):
            raise OSError("simulated device error")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(OSError, match="device error"):
            atomic_write_text(target, "never-visible")
        monkeypatch.undo()
        assert not target.exists()

    def test_directory_fsync_failure_is_tolerated(
        self, tmp_path, monkeypatch
    ):
        """Some filesystems refuse O_RDONLY fsync on directories; the
        write must still land (atomicity holds, durability degrades)."""
        real_open = os.open

        def no_dir_open(path, flags, *args, **kwargs):
            if Path(path).is_dir():
                raise OSError("directories not openable here")
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", no_dir_open)
        target = tmp_path / "state.json"
        atomic_write_text(target, "content")
        monkeypatch.undo()
        assert target.read_text(encoding="utf-8") == "content"

    def test_no_temp_litter_on_success(self, tmp_path):
        atomic_write_text(tmp_path / "a.json", '{"x": 1}')
        leftovers = [
            p.name for p in tmp_path.iterdir() if p.name != "a.json"
        ]
        assert leftovers == []
