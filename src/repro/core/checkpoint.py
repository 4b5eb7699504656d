"""Pipeline checkpointing: save and resume the full detector state.

A production stream processor must survive restarts without losing its
model, its normalization statistics, or its adaptive vocabulary (Spark
Streaming checkpoints its state for the same reason). This module
serializes the *entire* :class:`AggressionDetectionPipeline` — model,
normalizer, adaptive bag-of-words, prequential evaluator, alert
history, sampler reservoir, and counters — to a JSON-safe dict, such
that a resumed pipeline continues the stream *exactly* as the original
would have (verified by the equivalence tests).

Every persisted state — supervisor checkpoints, serving snapshots and
the ``repro run --save-model`` file — is one *state file*
(:func:`write_state` / :func:`read_state`): a single JSON object whose
first member is a ``"sha256"`` over the rest of its bytes, followed by
``kind``, ``version`` and ``meta``, then the body's keys. The reader
checks the digest before it parses anything, so a truncated or
bit-flipped file is refused, never half-trusted. :class:`StateStore`
keeps numbered state files (``<kind>-NNNNNNNN.json``) in one
directory, bounds their retention and loads the newest one that
verifies.

Files are written *atomically and durably* (:func:`atomic_write_text`):
the payload goes to a ``*.tmp`` file in the same directory, is fsynced,
and is moved over the target with ``os.replace``, with the parent
directory fsynced around the rename so the swap survives power loss,
not just process crash. A crash mid-save therefore leaves either the
previous good file or the new one, never a torn file.

The serialization helpers for the alert manager and the boosted sampler
(:func:`alert_manager_to_dict` / :func:`sampler_to_dict` and their
inverses) are shared with :mod:`repro.reliability.supervisor`, which
checkpoints the micro-batch engine's equivalent state.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.adaptive_bow import AdaptiveBagOfWords, FixedBagOfWords
from repro.core.alerting import Alert, AlertAction, AlertManager
from repro.core.config import PipelineConfig
from repro.core.evaluation import MetricsPoint, PrequentialEvaluator
from repro.core.normalization import (
    IdentityNormalizer,
    MinMaxNoOutliersNormalizer,
    MinMaxNormalizer,
    Normalizer,
    ZScoreNormalizer,
)
from repro.core.pipeline import AggressionDetectionPipeline
from repro.streamml.serialize import (
    SerializationError,
    _minmax_from_dict,
    _minmax_to_dict,
    _stats_from_dict,
    _stats_to_dict,
    model_from_dict,
    model_to_dict,
)
from repro.streamml.instance import ClassifiedInstance, Instance
from repro.streamml.stats import P2Quantile

PathLike = Union[str, Path]


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so its entries (renames) reach stable storage.

    Some filesystems (and non-POSIX platforms) refuse to open or fsync
    directories; durability degrades gracefully there — the rename is
    still atomic, it just rides the next metadata flush.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: PathLike, text: str) -> int:
    """Write ``text`` to ``path`` atomically and durably; returns bytes.

    Writes to ``<name>.tmp`` in the *same directory* (``os.replace``
    must not cross filesystems), flushes and fsyncs the data, fsyncs
    the parent directory (so the temp file's *entry* is on disk before
    the rename references it), replaces the target in one atomic
    rename, then fsyncs the parent directory again so the rename
    itself survives power loss — not just process crash. A failure at
    any point leaves the previous file contents intact; the stale
    ``*.tmp`` is overwritten by the next attempt. Shared by the
    checkpoint writers, the snapshot store and the flight recorder's
    post-mortem dumps — anything that must never leave a torn file
    behind.
    """
    target = Path(path)
    data = text.encode("utf-8")
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    parent = target.parent if str(target.parent) else Path(".")
    _fsync_dir(parent)
    os.replace(tmp, target)
    _fsync_dir(parent)
    return len(data)


# ----------------------------------------------------------------------
# State files
# ----------------------------------------------------------------------

#: Version of the state-file layout (envelope plus body sections).
STATE_VERSION = 1

#: A bare supervisor checkpoint with this ``supervisor_version`` (no
#: envelope, no digest) is the one pre-state-file input still read, so
#: a deployment can resume across the upgrade.
LEGACY_CHECKPOINT_VERSION = 5

_HEAD = b'{"sha256":"'
_BODY_AT = len(_HEAD) + 64 + 2  # the digest, its closing quote, a comma


class StateFileError(SerializationError):
    """A state file is unreadable, corrupt, or not the expected kind."""


@dataclass(frozen=True)
class StateFile:
    """One verified state file: its envelope and its parsed body."""

    path: Path
    sha256: str
    n_bytes: int
    meta: Dict[str, Any]
    body: Dict[str, Any]


def _encode_state(
    kind: str, body: Dict[str, Any], meta: Optional[Dict[str, Any]] = None
) -> str:
    """State-file text for ``body``.

    One JSON object: ``{"sha256":…,"kind":…,"version":…,"meta":…}``
    followed by the body's keys. The digest covers every byte after
    the ``"sha256"`` member, so a reader verifies before it parses.
    """
    envelope = {
        "kind": kind, "version": STATE_VERSION, "meta": dict(meta or {})
    }
    clash = sorted((set(envelope) | {"sha256"}) & set(body))
    if clash:
        raise ValueError(f"body keys {clash} collide with the envelope")
    envelope.update(body)
    rest = json.dumps(envelope, separators=(",", ":"))[1:]
    digest = hashlib.sha256(rest.encode("utf-8")).hexdigest()
    return '{"sha256":"' + digest + '",' + rest


def write_state(
    path: PathLike,
    kind: str,
    body: Dict[str, Any],
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Atomically write one state file; returns its byte size."""
    return atomic_write_text(path, _encode_state(kind, body, meta))


def read_state(path: PathLike, kind: str, legacy: bool = False) -> StateFile:
    """Read one state file of ``kind``, checking its digest first.

    Raises :class:`StateFileError` naming the file when it is missing,
    truncated, bit-flipped, of another kind or version, or no state
    file at all. ``legacy=True`` also accepts a bare
    ``supervisor_version: 5`` checkpoint (which carries no digest).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise StateFileError(f"{path}: unreadable ({exc})") from exc
    if raw.startswith(_HEAD) and raw[_BODY_AT - 2:_BODY_AT] == b'",':
        claimed = raw[len(_HEAD):_BODY_AT - 2].decode("ascii", "replace")
        digest = hashlib.sha256(raw[_BODY_AT:]).hexdigest()
        if digest != claimed:
            raise StateFileError(
                f"{path}: sha256 mismatch (header {claimed[:12]}..., "
                f"content {digest[:12]}...)"
            )
        body = _parse_state(path, raw)
        found = (body.get("kind"), body.get("version"))
        if found != (kind, STATE_VERSION):
            raise StateFileError(
                f"{path}: kind {found[0]!r} version {found[1]!r}, expected "
                f"kind {kind!r} version {STATE_VERSION}"
            )
        for key in ("sha256", "kind", "version"):
            del body[key]
        return StateFile(path, claimed, len(raw), body.pop("meta", {}), body)
    if legacy and kind == "checkpoint":
        body = _parse_state(path, raw)
        if body.pop("supervisor_version", None) == LEGACY_CHECKPOINT_VERSION:
            return StateFile(
                path, hashlib.sha256(raw).hexdigest(), len(raw), {}, body
            )
    raise StateFileError(f"{path}: not a {kind} state file")


def _parse_state(path: Path, raw: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise StateFileError(f"{path}: does not parse ({exc})") from exc
    if not isinstance(payload, dict):
        raise StateFileError(f"{path}: not a JSON object")
    return payload


class StateStore:
    """Numbered state files of one kind: ``<kind>-NNNNNNNN.json``.

    Single writer, many readers. Each :meth:`write` takes the number
    after the newest file on disk, lands atomically (readers see the
    whole file or none of it), then deletes all but the newest ``keep``
    files. :meth:`load_latest` walks the files newest-first and returns
    the first that verifies, so corrupt state costs freshness, never
    availability.
    """

    def __init__(self, root: PathLike, kind: str, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.root = Path(root)
        self.kind = kind
        self.keep = keep

    def files(self) -> List[Tuple[int, Path]]:
        """``(number, path)`` of every file on disk, oldest first."""
        found = []
        for path in self.root.glob(f"{self.kind}-*.json"):
            stamp = path.name[len(self.kind) + 1:-len(".json")]
            if stamp.isdigit():
                found.append((int(stamp), path))
        return sorted(found)

    def numbers(self) -> List[int]:
        """Numbers of the files on disk, oldest first."""
        return [number for number, _ in self.files()]

    def path(self, number: int) -> Path:
        """The file on disk for ``number``, else the name a write uses."""
        default = self.root / f"{self.kind}-{number:08d}.json"
        return dict(self.files()).get(number, default)

    def write(
        self, body: Dict[str, Any], meta: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, StateFile]:
        """Write ``body`` as the next number; returns it and the file."""
        self.root.mkdir(parents=True, exist_ok=True)
        files = self.files()
        number = files[-1][0] + 1 if files else 1
        text = _encode_state(self.kind, body, meta)
        path = self.root / f"{self.kind}-{number:08d}.json"
        n_bytes = atomic_write_text(path, text)
        for _, stale in files[:max(0, len(files) + 1 - self.keep)]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        sha256 = text[len(_HEAD):_BODY_AT - 2]
        return number, StateFile(path, sha256, n_bytes, dict(meta or {}), body)

    def load_latest(
        self,
        build: Callable[[int, StateFile], Any],
        reject: Optional[Callable[[Path, Exception], None]] = None,
        legacy: bool = False,
    ) -> Any:
        """``build(number, file)`` for the newest file that verifies.

        A file that fails to read, verify or build goes to
        ``reject(path, error)`` and the next older one is tried. Raises
        :class:`FileNotFoundError` when there are no files and
        :class:`StateFileError` when none of them verifies.
        """
        files = self.files()
        if not files:
            raise FileNotFoundError(f"no {self.kind} files in {self.root}")
        failures: List[str] = []
        for number, path in reversed(files):
            try:
                return build(number, read_state(path, self.kind, legacy))
            except Exception as exc:
                failures.append(f"{path.name}: {type(exc).__name__}: {exc}")
                if reject is not None:
                    reject(path, exc)
        raise StateFileError(
            f"no verifiable {self.kind} in {self.root}: " + "; ".join(failures)
        )


# ----------------------------------------------------------------------
# Normalizers
# ----------------------------------------------------------------------

def _p2_to_dict(sketch: P2Quantile) -> Dict[str, Any]:
    return {
        "quantile": sketch.quantile,
        "count": sketch.count,
        "initial": list(sketch._initial),
        "q": list(sketch._q),
        "n": list(sketch._n),
        "np": list(sketch._np),
        "dn": list(sketch._dn),
    }


def _p2_from_dict(payload: Dict[str, Any]) -> P2Quantile:
    sketch = P2Quantile(float(payload["quantile"]))
    sketch.count = int(payload["count"])
    sketch._initial = [float(v) for v in payload["initial"]]
    sketch._q = [float(v) for v in payload["q"]]
    sketch._n = [float(v) for v in payload["n"]]
    sketch._np = [float(v) for v in payload["np"]]
    sketch._dn = [float(v) for v in payload["dn"]]
    return sketch


def normalizer_to_dict(normalizer: Normalizer) -> Dict[str, Any]:
    """Serialize any normalizer kind."""
    base = {
        "n_features": normalizer.n_features,
        "observed": normalizer.observed,
        "transformed": normalizer.n_transformed,
        "clipped": normalizer.n_clipped,
        "fast_math": normalizer.fast_math,
    }
    if isinstance(normalizer, MinMaxNoOutliersNormalizer):
        return dict(
            base,
            kind="minmax_no_outliers",
            lower_quantile=normalizer.lower_quantile,
            upper_quantile=normalizer.upper_quantile,
            lower=[_p2_to_dict(s) for s in normalizer._lower],
            upper=[_p2_to_dict(s) for s in normalizer._upper],
        )
    if isinstance(normalizer, MinMaxNormalizer):
        return dict(
            base,
            kind="minmax",
            trackers=[_minmax_to_dict(t) for t in normalizer._trackers],
        )
    if isinstance(normalizer, ZScoreNormalizer):
        return dict(
            base,
            kind="zscore",
            stats=[_stats_to_dict(s) for s in normalizer._stats],
        )
    if isinstance(normalizer, IdentityNormalizer):
        return dict(base, kind="none")
    raise SerializationError(f"unknown normalizer type {type(normalizer)!r}")


def normalizer_from_dict(payload: Dict[str, Any]) -> Normalizer:
    """Reconstruct a normalizer from :func:`normalizer_to_dict`."""
    kind = payload["kind"]
    n_features = int(payload["n_features"])
    if kind == "minmax_no_outliers":
        normalizer = MinMaxNoOutliersNormalizer(
            n_features,
            lower_quantile=float(payload["lower_quantile"]),
            upper_quantile=float(payload["upper_quantile"]),
        )
        normalizer._lower = [_p2_from_dict(s) for s in payload["lower"]]
        normalizer._upper = [_p2_from_dict(s) for s in payload["upper"]]
    elif kind == "minmax":
        normalizer = MinMaxNormalizer(n_features)
        normalizer._trackers = [
            _minmax_from_dict(t) for t in payload["trackers"]
        ]
    elif kind == "zscore":
        normalizer = ZScoreNormalizer(n_features)
        normalizer._stats = [_stats_from_dict(s) for s in payload["stats"]]
    elif kind == "none":
        normalizer = IdentityNormalizer(n_features)
    else:
        raise SerializationError(f"unknown normalizer kind {kind!r}")
    normalizer.observed = int(payload["observed"])
    normalizer.n_transformed = int(payload["transformed"])
    normalizer.n_clipped = int(payload["clipped"])
    normalizer.fast_math = bool(payload["fast_math"])
    return normalizer


# ----------------------------------------------------------------------
# Bag of words
# ----------------------------------------------------------------------

def _bow_to_dict(bow: Union[AdaptiveBagOfWords, FixedBagOfWords]) -> Dict[str, Any]:
    if isinstance(bow, FixedBagOfWords):
        return {"kind": "fixed", "words": sorted(bow.words)}
    return {
        "kind": "adaptive",
        "words": sorted(bow.words),
        "seed": sorted(bow.seed),
        "update_interval": bow.update_interval,
        "decay": bow.decay,
        "add_min_count": bow.add_min_count,
        "add_ratio": bow.add_ratio,
        "remove_min_count": bow.remove_min_count,
        "remove_ratio": bow.remove_ratio,
        "min_word_length": bow.min_word_length,
        "aggressive_counts": bow._aggressive_counts,
        "normal_counts": bow._normal_counts,
        "aggressive_tweets": bow._aggressive_tweets,
        "normal_tweets": bow._normal_tweets,
        "since_maintenance": bow._since_maintenance,
        "n_added": bow.n_added,
        "n_removed": bow.n_removed,
        "size_history": [list(p) for p in bow.size_history],
        "labeled_seen": bow._labeled_seen,
    }


def _bow_from_dict(payload: Dict[str, Any]):
    if payload["kind"] == "fixed":
        return FixedBagOfWords(seed_words=payload["words"])
    bow = AdaptiveBagOfWords(
        seed_words=payload["words"],
        update_interval=int(payload["update_interval"]),
        decay=float(payload["decay"]),
        add_min_count=float(payload["add_min_count"]),
        add_ratio=float(payload["add_ratio"]),
        remove_min_count=float(payload["remove_min_count"]),
        remove_ratio=float(payload["remove_ratio"]),
        min_word_length=int(payload["min_word_length"]),
    )
    bow.seed = set(payload["seed"])
    bow._aggressive_counts = {
        k: float(v) for k, v in payload["aggressive_counts"].items()
    }
    bow._normal_counts = {
        k: float(v) for k, v in payload["normal_counts"].items()
    }
    bow._aggressive_tweets = float(payload["aggressive_tweets"])
    bow._normal_tweets = float(payload["normal_tweets"])
    bow._since_maintenance = int(payload["since_maintenance"])
    bow.n_added = int(payload["n_added"])
    bow.n_removed = int(payload["n_removed"])
    bow.size_history = [tuple(p) for p in payload["size_history"]]
    bow._labeled_seen = int(payload["labeled_seen"])
    return bow


# ----------------------------------------------------------------------
# Evaluator / sampler
# ----------------------------------------------------------------------

def _evaluator_to_dict(evaluator: PrequentialEvaluator) -> Dict[str, Any]:
    return {
        "n_classes": evaluator.n_classes,
        "window": evaluator.window,
        "record_every": evaluator.record_every,
        "cumulative": evaluator.cumulative.matrix,
        "windowed": evaluator.windowed.matrix,
        "window_contents": [list(p) for p in evaluator._window_contents],
        "n_labeled": evaluator.n_labeled,
        "history": [vars(p) for p in evaluator.history],
        "unlabeled_counts": {
            str(k): v for k, v in evaluator.unlabeled_stats.counts.items()
        },
        "unlabeled_total": evaluator.unlabeled_stats.total,
    }


def _evaluator_from_dict(payload: Dict[str, Any]) -> PrequentialEvaluator:
    from collections import deque

    evaluator = PrequentialEvaluator(
        n_classes=int(payload["n_classes"]),
        window=int(payload["window"]),
        record_every=int(payload["record_every"]),
    )
    evaluator.cumulative.matrix = [
        [float(v) for v in row] for row in payload["cumulative"]
    ]
    evaluator.cumulative.total = sum(
        sum(row) for row in evaluator.cumulative.matrix
    )
    evaluator.windowed.matrix = [
        [float(v) for v in row] for row in payload["windowed"]
    ]
    evaluator.windowed.total = sum(
        sum(row) for row in evaluator.windowed.matrix
    )
    evaluator._window_contents = deque(
        (int(t), int(p)) for t, p in payload["window_contents"]
    )
    evaluator.n_labeled = int(payload["n_labeled"])
    evaluator.history = [MetricsPoint(**p) for p in payload["history"]]
    evaluator.unlabeled_stats.counts = {
        int(k): int(v) for k, v in payload["unlabeled_counts"].items()
    }
    evaluator.unlabeled_stats.total = int(payload["unlabeled_total"])
    return evaluator


def _classified_to_dict(classified: ClassifiedInstance) -> Dict[str, Any]:
    instance = classified.instance
    return {
        "x": list(instance.x),
        "y": instance.y,
        "weight": instance.weight,
        "timestamp": instance.timestamp,
        "tweet_id": instance.tweet_id,
        "predicted": classified.predicted,
        "proba": list(classified.proba),
    }


def _classified_from_dict(payload: Dict[str, Any]) -> ClassifiedInstance:
    return ClassifiedInstance(
        instance=Instance(
            x=tuple(payload["x"]),
            y=payload["y"],
            weight=float(payload["weight"]),
            timestamp=float(payload["timestamp"]),
            tweet_id=payload["tweet_id"],
        ),
        predicted=int(payload["predicted"]),
        proba=tuple(payload["proba"]),
    )


# ----------------------------------------------------------------------
# Alerting / sampler / config (shared with the engine checkpoints)
# ----------------------------------------------------------------------

def _alert_to_dict(alert: Alert) -> Dict[str, Any]:
    return {
        "tweet_id": alert.tweet_id,
        "user_id": alert.user_id,
        "predicted_class": alert.predicted_class,
        "confidence": alert.confidence,
        "timestamp": alert.timestamp,
        "action": alert.action.value,
    }


def _alert_from_dict(payload: Dict[str, Any]) -> Alert:
    return Alert(
        tweet_id=payload["tweet_id"],
        user_id=payload["user_id"],
        predicted_class=int(payload["predicted_class"]),
        confidence=float(payload["confidence"]),
        timestamp=float(payload["timestamp"]),
        action=AlertAction(payload["action"]),
    )


def alert_manager_to_dict(manager: AlertManager) -> Dict[str, Any]:
    """Serialize the alert manager's live state *and* its audit log.

    The full alert list is kept so a resumed run reproduces the
    uninterrupted run's alert list exactly (the supervisor's
    crash-resume equivalence guarantee); registered sinks are runtime
    wiring and are not serialized.
    """
    return {
        "suspended_users": dict(manager.suspended_users),
        "user_history": {
            user: list(history)
            for user, history in manager._user_history.items()
        },
        "alerts": [_alert_to_dict(alert) for alert in manager.alerts],
    }


def restore_alert_manager(
    manager: AlertManager, payload: Dict[str, Any]
) -> None:
    """Load :func:`alert_manager_to_dict` state into a fresh manager."""
    from collections import deque

    manager.suspended_users = {
        user: float(ts) for user, ts in payload["suspended_users"].items()
    }
    manager._user_history = {
        user: deque(float(t) for t in history)
        for user, history in payload["user_history"].items()
    }
    manager.alerts = [_alert_from_dict(a) for a in payload["alerts"]]


def sampler_to_dict(sampler) -> Dict[str, Any]:
    """Serialize the boosted reservoir, RNG state included."""
    return {
        "rng_state": _rng_state_to_json(sampler._rng.getstate()),
        "counter": sampler._counter,
        "n_offered": sampler.n_offered,
        "n_aggressive_offered": sampler.n_aggressive_offered,
        "heap": [
            {"key": key, "tiebreak": tiebreak,
             "item": _classified_to_dict(item)}
            for key, tiebreak, item in sampler._heap
        ],
    }


def restore_sampler(sampler, payload: Dict[str, Any]) -> None:
    """Load :func:`sampler_to_dict` state into a fresh sampler."""
    import heapq

    sampler._rng.setstate(_rng_state_from_json(payload["rng_state"]))
    sampler._counter = int(payload["counter"])
    sampler.n_offered = int(payload["n_offered"])
    sampler.n_aggressive_offered = int(payload["n_aggressive_offered"])
    sampler._heap = [
        (float(e["key"]), int(e["tiebreak"]), _classified_from_dict(e["item"]))
        for e in payload["heap"]
    ]
    heapq.heapify(sampler._heap)


def config_to_dict(config: PipelineConfig) -> Dict[str, Any]:
    """The pipeline-config fields a checkpoint must round-trip."""
    return {
        "n_classes": config.n_classes,
        "preprocessing": config.preprocessing,
        "normalization": config.normalization,
        "adaptive_bow": config.adaptive_bow,
        "deobfuscate": config.deobfuscate,
        "model": config.model,
        "model_params": dict(config.model_params),
        "evaluation_window": config.evaluation_window,
        "record_every": config.record_every,
        "alert_min_confidence": config.alert_min_confidence,
        "sample_capacity": config.sample_capacity,
        "sample_boost": config.sample_boost,
        "seed": config.seed,
        "fast_math": config.fast_math,
    }


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------

def pipeline_to_dict(pipeline: AggressionDetectionPipeline) -> Dict[str, Any]:
    """Serialize the full pipeline state (JSON-safe)."""
    return {
        "config": config_to_dict(pipeline.config),
        "model": model_to_dict(pipeline.model),
        "normalizer": normalizer_to_dict(pipeline.normalizer),
        "bag_of_words": _bow_to_dict(pipeline.bag_of_words),
        "evaluator": _evaluator_to_dict(pipeline.evaluator),
        "counters": {
            "n_processed": pipeline.n_processed,
            "n_labeled": pipeline.n_labeled,
            "n_unlabeled": pipeline.n_unlabeled,
            "n_quarantined": pipeline.n_quarantined,
        },
        "alerting": alert_manager_to_dict(pipeline.alert_manager),
        "sampler": sampler_to_dict(pipeline.sampler),
    }


def pipeline_from_dict(payload: Dict[str, Any]) -> AggressionDetectionPipeline:
    """Rebuild a pipeline that continues exactly where the saved one was."""
    config = PipelineConfig(**payload["config"])
    pipeline = AggressionDetectionPipeline(config)
    pipeline.model = model_from_dict(payload["model"])
    pipeline.normalizer = normalizer_from_dict(payload["normalizer"])
    pipeline.bag_of_words = _bow_from_dict(payload["bag_of_words"])
    pipeline.extractor.bag_of_words = pipeline.bag_of_words
    pipeline.evaluator = _evaluator_from_dict(payload["evaluator"])
    counters = payload["counters"]
    pipeline.n_processed = int(counters["n_processed"])
    pipeline.n_labeled = int(counters["n_labeled"])
    pipeline.n_unlabeled = int(counters["n_unlabeled"])
    pipeline.n_quarantined = int(counters["n_quarantined"])
    restore_alert_manager(pipeline.alert_manager, payload["alerting"])
    restore_sampler(pipeline.sampler, payload["sampler"])
    return pipeline


def _rng_state_to_json(state) -> List[Any]:
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def _rng_state_from_json(payload) -> tuple:
    version, internal, gauss_next = payload
    return (int(version), tuple(int(v) for v in internal), gauss_next)
