"""Checksummed, versioned model snapshots for the serving layer.

The training side (:class:`~repro.reliability.supervisor.
StreamSupervisor`, ``repro run --publish-snapshot``, ``repro snapshot
publish``) periodically *publishes* the serving-relevant slice of the
pipeline state — config, model, normalizer, bag-of-words — and the
server *consumes* it: polls for new versions, verifies them, and
hot-swaps. The store is the contract between the two processes:

* every snapshot is one ``snapshot``-kind state file
  (``snapshot-NNNNNNNN.json``, see :class:`~repro.core.checkpoint.
  StateStore`): written atomically and durably, never torn, and headed
  by a sha256 over its own bytes, so a reader detects a truncated or
  bit-flipped file *before* deserializing it;
* the version is the file number: the newest file on disk is the
  latest version, so there is no separate index to keep in step;
* :meth:`SnapshotStore.load_latest_verified` refuses anything whose
  digest or sections do not verify and falls back to the newest older
  version that does — corrupt state degrades freshness, never
  availability;
* retention is bounded: ``keep`` snapshots are kept on disk, older
  files are garbage-collected at publish time.

Single-writer, many-reader: the publisher owns version assignment and
GC; a reader racing a publish sees the new file whole or not at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.checkpoint import (
    StateFile,
    StateFileError,
    StateStore,
    _bow_to_dict,
    config_to_dict,
    normalizer_to_dict,
    read_state,
)
from repro.obs.logconfig import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.streamml.serialize import model_to_dict

logger = get_logger("serve.snapshot")

PathLike = Union[str, Path]

#: The sections a snapshot carries: the scoring path, nothing more.
SNAPSHOT_SECTIONS = ("config", "model", "normalizer", "bag_of_words")


class SnapshotIntegrityError(StateFileError):
    """A snapshot failed digest or payload verification."""


@dataclass(frozen=True)
class SnapshotInfo:
    """Envelope of one published snapshot."""

    version: int
    path: Path
    sha256: str
    n_bytes: int
    meta: Dict[str, Any]


def payload_from_source(source: Any) -> Dict[str, Any]:
    """Snapshot payload from any pipeline-shaped object.

    Works for :class:`~repro.core.pipeline.AggressionDetectionPipeline`
    and :class:`~repro.engine.microbatch.MicroBatchEngine` directly
    (both expose ``config``/``model``/``normalizer``/``bag_of_words``)
    and for :class:`~repro.engine.sequential.SequentialEngine` via its
    ``pipeline`` attribute. This is deliberately *less* than a
    checkpoint: no evaluator, no sampler, no alert audit log — the
    server scores tweets, it does not train.
    """
    if not hasattr(source, "model") and hasattr(source, "pipeline"):
        source = source.pipeline
    return {
        "config": config_to_dict(source.config),
        "model": model_to_dict(source.model),
        "normalizer": normalizer_to_dict(source.normalizer),
        "bag_of_words": _bow_to_dict(source.bag_of_words),
    }


def payload_from_checkpoint(path: PathLike) -> Dict[str, Any]:
    """Snapshot payload from a verified supervisor checkpoint.

    ``path`` is one checkpoint file, or a checkpoint directory whose
    newest verified file is used. Raises
    :class:`~repro.core.checkpoint.StateFileError` when the file (or
    every file in the directory) fails verification.
    """

    def serving_slice(_number: int, state: StateFile) -> Dict[str, Any]:
        section = state.body.get("engine", {})
        if section.get("engine") == "sequential":
            section = section["pipeline"]
        _check_sections(section, state.path)
        return {key: section[key] for key in SNAPSHOT_SECTIONS}

    path = Path(path)
    if path.is_dir():
        return StateStore(path, "checkpoint").load_latest(serving_slice)
    return serving_slice(0, read_state(path, "checkpoint"))


def _check_sections(payload: Dict[str, Any], source: Any) -> None:
    """Structural verification beyond the digest."""
    for key in SNAPSHOT_SECTIONS:
        if key not in payload:
            raise SnapshotIntegrityError(f"{source}: no {key!r} section")


class SnapshotStore:
    """Versioned, checksummed snapshot directory (single writer).

    Args:
        root: directory holding the snapshot files (created on first
            publish).
        keep: how many snapshots to retain; older files are
            garbage-collected at publish time.
        metrics: optional registry; the store counts
            ``snapshots_published_total``, ``snapshot_rejected_total``
            (verification failures seen by this process) and gauges
            ``snapshot_latest_version``.
    """

    def __init__(
        self,
        root: PathLike,
        keep: int = 5,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._files = StateStore(root, "snapshot", keep=keep)
        self.root = self._files.root
        self.keep = keep
        self.metrics = metrics
        self.n_published = 0
        self.n_rejected = 0

    def versions(self) -> List[int]:
        """Retained versions, oldest first."""
        return self._files.numbers()

    def latest_version(self) -> Optional[int]:
        """Newest published version, or ``None`` for an empty store."""
        versions = self.versions()
        return versions[-1] if versions else None

    def publish(
        self,
        payload: Dict[str, Any],
        meta: Optional[Dict[str, Any]] = None,
    ) -> SnapshotInfo:
        """Atomically publish ``payload`` as the next version."""
        _check_sections(payload, "payload")
        version, state = self._files.write(payload, meta)
        self.n_published += 1
        if self.metrics is not None:
            self.metrics.counter("snapshots_published_total").inc()
            self.metrics.gauge("snapshot_latest_version").set(version)
        logger.info(
            "published snapshot v%d (%d bytes, sha256 %s...)",
            version, state.n_bytes, state.sha256[:12],
        )
        return _info(version, state)

    # -- verified reads -------------------------------------------------

    def load_verified(
        self, version: Optional[int] = None
    ) -> Tuple[SnapshotInfo, Dict[str, Any]]:
        """Load one version (default: the latest), verifying it.

        Raises :class:`SnapshotIntegrityError` when the file is
        missing, its bytes do not match its digest (torn or bit-flipped
        file), or the payload misses a section.
        """
        if version is None:
            version = self.latest_version()
        if version is None:
            raise SnapshotIntegrityError("store has no snapshots")
        path = self._files.path(version)
        try:
            return _verified(version, read_state(path, "snapshot"))
        except StateFileError as exc:
            self._reject(path, exc)
            raise SnapshotIntegrityError(str(exc)) from exc

    def load_latest_verified(self) -> Tuple[SnapshotInfo, Dict[str, Any]]:
        """Newest snapshot that verifies, falling back over corrupt ones.

        Each corrupt candidate is counted and WARNING-logged once, and
        the newest verifiable older version wins. Raises
        :class:`SnapshotIntegrityError` only when *no* retained version
        verifies.
        """
        try:
            return self._files.load_latest(_verified, reject=self._reject)
        except FileNotFoundError as exc:
            raise SnapshotIntegrityError("store has no snapshots") from exc
        except StateFileError as exc:
            raise SnapshotIntegrityError(str(exc)) from exc

    def _reject(self, path: Path, exc: Exception) -> None:
        self.n_rejected += 1
        if self.metrics is not None:
            self.metrics.counter("snapshot_rejected_total").inc()
        logger.warning(
            "snapshot %s refused (%s); falling back to the newest "
            "verifiable version", path.name, exc,
        )


def _info(version: int, state: StateFile) -> SnapshotInfo:
    return SnapshotInfo(
        version, state.path, state.sha256, state.n_bytes, dict(state.meta)
    )


def _verified(
    version: int, state: StateFile
) -> Tuple[SnapshotInfo, Dict[str, Any]]:
    _check_sections(state.body, state.path)
    return _info(version, state), state.body
