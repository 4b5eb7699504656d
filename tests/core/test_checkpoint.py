"""Tests for pipeline checkpointing (save → resume equivalence)."""

from __future__ import annotations

import pytest

from repro.core.checkpoint import (
    StateFileError,
    normalizer_from_dict,
    normalizer_to_dict,
    pipeline_from_dict,
    pipeline_to_dict,
    read_state,
    write_state,
)
from repro.core.config import PipelineConfig
from repro.core.normalization import make_normalizer
from repro.core.pipeline import AggressionDetectionPipeline
from repro.data.loader import strip_labels

from tests.conftest import flip_model_digit


class TestNormalizerRoundTrip:
    @pytest.mark.parametrize(
        "kind", ["minmax", "minmax_no_outliers", "zscore", "none"]
    )
    def test_transform_identical(self, kind):
        import random

        rng = random.Random(0)
        normalizer = make_normalizer(kind, 3)
        for _ in range(500):
            normalizer.observe(
                (rng.gauss(5, 2), rng.expovariate(0.1), rng.random())
            )
        restored = normalizer_from_dict(normalizer_to_dict(normalizer))
        for _ in range(50):
            probe = (rng.gauss(5, 2), rng.expovariate(0.1), rng.random())
            assert restored.transform(probe) == pytest.approx(
                normalizer.transform(probe)
            )


class TestResumeEquivalence:
    """A resumed pipeline must continue exactly as an uninterrupted one."""

    @pytest.mark.parametrize("model", ["ht", "slr"])
    def test_metrics_identical_after_resume(self, medium_stream, model):
        stream = medium_stream[:5000]
        half = len(stream) // 2
        config = PipelineConfig(n_classes=2, model=model)

        uninterrupted = AggressionDetectionPipeline(config)
        uninterrupted.process_stream(stream)

        first = AggressionDetectionPipeline(config)
        first.process_stream(stream[:half])
        resumed = pipeline_from_dict(pipeline_to_dict(first))
        resumed.process_stream(stream[half:])

        assert resumed.evaluator.summary() == pytest.approx(
            uninterrupted.evaluator.summary()
        )
        assert resumed.n_processed == uninterrupted.n_processed
        assert len(resumed.bag_of_words) == len(uninterrupted.bag_of_words)

    def test_unlabeled_path_state_restored(self, small_stream):
        config = PipelineConfig(n_classes=2)
        pipeline = AggressionDetectionPipeline(config)
        pipeline.process_stream(small_stream)
        for tweet in strip_labels(small_stream[:400]):
            pipeline.process(tweet)
        restored = pipeline_from_dict(pipeline_to_dict(pipeline))
        assert restored.n_unlabeled == pipeline.n_unlabeled
        assert restored.sampler.n_offered == pipeline.sampler.n_offered
        assert len(restored.sampler.sample()) == len(pipeline.sampler.sample())
        assert (
            restored.alert_manager.suspended_users
            == pipeline.alert_manager.suspended_users
        )

    def test_sampler_rng_continues_identically(self, small_stream):
        config = PipelineConfig(n_classes=2)
        pipeline = AggressionDetectionPipeline(config)
        pipeline.process_stream(small_stream[:1000])
        restored = pipeline_from_dict(pipeline_to_dict(pipeline))
        tail = list(strip_labels(small_stream[1000:1400]))
        for tweet in tail:
            pipeline.process(tweet)
            restored.process(tweet)
        original_ids = sorted(
            c.instance.tweet_id for c in pipeline.sampler.sample()
        )
        restored_ids = sorted(
            c.instance.tweet_id for c in restored.sampler.sample()
        )
        assert original_ids == restored_ids


class TestFiles:
    @pytest.fixture()
    def state_path(self, tmp_path, small_stream):
        pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=3))
        pipeline.process_stream(small_stream[:800])
        path = tmp_path / "state.json"
        write_state(path, "checkpoint", pipeline_to_dict(pipeline), {"n": 800})
        return path

    def test_file_round_trip(self, state_path):
        state = read_state(state_path, "checkpoint")
        assert state.meta == {"n": 800}
        restored = pipeline_from_dict(state.body)
        assert restored.config.n_classes == 3
        assert restored.n_processed == 800

    def test_bad_version_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.core.checkpoint.STATE_VERSION", 2)
        write_state(tmp_path / "v2.json", "checkpoint", {"cursor": 0})
        monkeypatch.undo()
        with pytest.raises(StateFileError, match="v2.json.*version 2"):
            read_state(tmp_path / "v2.json", "checkpoint")

    DAMAGE = {
        "wrong_kind": lambda path: None,
        "truncated": lambda path: path.write_text(path.read_text()[:999]),
        "bit_flip": flip_model_digit,
        "missing": lambda path: path.unlink(),
        "bare": lambda path: path.write_text('{"cursor": 0}'),
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_file_refused_naming_it(self, state_path, damage):
        self.DAMAGE[damage](state_path)
        kind = "snapshot" if damage == "wrong_kind" else "checkpoint"
        with pytest.raises(StateFileError, match="state.json"):
            read_state(state_path, kind, legacy=True)
