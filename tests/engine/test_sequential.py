"""Tests for the sequential (MOA-like) engine."""

from __future__ import annotations

from repro.core.config import PipelineConfig
from repro.engine.sequential import SequentialEngine


class TestSequentialEngine:
    def test_run_reports_throughput(self, small_stream):
        engine = SequentialEngine(PipelineConfig(n_classes=2))
        result = engine.run(small_stream)
        assert result.pipeline_result.n_processed == len(small_stream)
        assert result.throughput > 0
        assert result.metrics["f1"] > 0.5

    def test_measure_throughput_after_warmup(self, small_stream):
        engine = SequentialEngine(PipelineConfig(n_classes=2))
        throughput = engine.measure_throughput(small_stream, warmup=200)
        assert throughput > 0
