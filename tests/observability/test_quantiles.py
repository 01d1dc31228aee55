"""Tests for the streaming quantile engine (exact buffer + log buckets)."""

import random
import statistics

import pytest

from repro.observability.metrics import Histogram, MetricsRegistry
from repro.observability.quantiles import (
    DEFAULT_QUANTILES,
    RELATIVE_ERROR,
    QuantileSketch,
    exact_quantile,
    quantile_key,
)
from repro.observability.report import format_metrics


class TestExactQuantile:
    def test_median_of_odd_list(self):
        assert exact_quantile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_interpolates(self):
        assert exact_quantile([0.0, 1.0], 0.5) == pytest.approx(0.5)

    def test_extremes(self):
        ordered = [float(x) for x in range(10)]
        assert exact_quantile(ordered, 0.0) == 0.0
        assert exact_quantile(ordered, 1.0) == 9.0


class TestQuantileKey:
    def test_keys(self):
        assert quantile_key(0.5) == "p50"
        assert quantile_key(0.9) == "p90"
        assert quantile_key(0.99) == "p99"
        assert quantile_key(0.999) == "p999"


class TestQuantileSketch:
    def test_exact_under_limit(self):
        rng = random.Random(3)
        sketch = QuantileSketch()
        data = [rng.expovariate(1.0) for _ in range(200)]
        for value in data:
            sketch.record(value)
        assert sketch.is_exact
        ordered = sorted(data)
        for q in DEFAULT_QUANTILES:
            assert sketch.quantile(q) == pytest.approx(
                exact_quantile(ordered, q)
            )

    def test_switches_to_sketch_above_limit(self):
        rng = random.Random(5)
        sketch = QuantileSketch(exact_limit=64)
        data = [rng.lognormvariate(0.0, 1.0) for _ in range(5_000)]
        for value in data:
            sketch.record(value)
        assert not sketch.is_exact
        ordered = sorted(data)
        assert sketch.quantile(0.5) == pytest.approx(
            exact_quantile(ordered, 0.5), rel=0.05
        )
        assert sketch.quantile(0.99) == pytest.approx(
            exact_quantile(ordered, 0.99), rel=0.25
        )

    def test_untracked_quantiles_answer_from_buckets(self):
        sketch = QuantileSketch(quantiles=(0.5,), exact_limit=8)
        data = [float(value) for value in range(1, 1001)]
        for value in data:
            sketch.record(value)
        assert sketch.quantile(0.25) == pytest.approx(
            exact_quantile(data, 0.25), rel=RELATIVE_ERROR
        )
        assert sketch.quantile(0.0) == pytest.approx(1.0, rel=RELATIVE_ERROR)
        assert sketch.quantile(1.0) == pytest.approx(1000.0, rel=RELATIVE_ERROR)

    def test_negative_values_mirror_positive(self):
        sketch = QuantileSketch(exact_limit=0)
        data = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
        for value in data:
            sketch.record(value)
        assert sketch.quantile(0.0) == pytest.approx(-3.0, rel=RELATIVE_ERROR)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) == pytest.approx(3.0, rel=RELATIVE_ERROR)

    def test_summary_keys(self):
        sketch = QuantileSketch()
        for value in range(100):
            sketch.record(float(value))
        summary = sketch.summary()
        assert set(summary) == {"p50", "p90", "p99", "p999"}
        assert summary["p50"] == pytest.approx(49.5)

    def test_empty_summary_is_none(self):
        summary = QuantileSketch().summary()
        assert all(value is None for value in summary.values())

    def test_reset(self):
        sketch = QuantileSketch()
        sketch.record(1.0)
        sketch.reset()
        assert sketch.quantile(0.5) is None


def _lognormal(rng):
    return rng.lognormvariate(-9.0, 1.5)


def _uniform(rng):
    return rng.uniform(0.0, 1.0)


def _heavy_tailed(rng):
    return rng.paretovariate(1.1)


class TestBucketAccuracy:
    """Past the exact buffer every reported quantile stays within
    ``RELATIVE_ERROR`` of the exact one, body and tail alike."""

    @pytest.mark.parametrize(
        "draw",
        [_lognormal, _uniform, _heavy_tailed],
        ids=["lognormal", "uniform", "heavy_tailed"],
    )
    def test_within_relative_error_on_100k_samples(self, draw):
        rng = random.Random(17)
        # One sample in twenty is an exact zero (an empty change, a
        # no-op step) so the zero bucket is exercised too.
        data = [
            0.0 if rng.random() < 0.05 else draw(rng) for _ in range(100_000)
        ]
        sketch = QuantileSketch()
        for value in data:
            sketch.record(value)
        assert not sketch.is_exact
        ordered = sorted(data)
        for q in DEFAULT_QUANTILES:
            assert sketch.quantile(q) == pytest.approx(
                exact_quantile(ordered, q), rel=RELATIVE_ERROR
            ), q

    def test_all_zero_stream(self):
        sketch = QuantileSketch(exact_limit=4)
        for _ in range(100):
            sketch.record(0.0)
        assert set(sketch.summary().values()) == {0.0}

    def test_bucket_count_is_bounded_by_value_range(self):
        """The bucket count grows with the logarithm of the value range
        (about 800 buckets span 1 µs to 10 s), not with the number of
        samples."""
        rng = random.Random(2)
        sketch = QuantileSketch(exact_limit=0)
        for _ in range(100_000):
            sketch.record(rng.uniform(1e-6, 10.0))
        assert len(sketch._positive) < 900


class TestHistogramQuantiles:
    def test_summary_carries_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("step.wall_time_s")
        for value in range(1, 101):
            histogram.record(value / 1000.0)
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(0.0505, rel=0.02)
        assert summary["p99"] == pytest.approx(0.09999, rel=0.02)
        assert summary["p999"] is not None

    def test_quantile_method(self):
        histogram = Histogram("h")
        data = [float(x) for x in range(1, 50)]
        for value in data:
            histogram.record(value)
        assert histogram.quantile(0.5) == pytest.approx(
            statistics.median(data)
        )

    def test_reset_clears_sketch(self):
        histogram = Histogram("h")
        histogram.record(1.0)
        histogram.reset()
        assert histogram.quantile(0.5) is None

    def test_report_shows_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("engine.step.wall_time_s")
        for value in range(100):
            histogram.record(value / 1000.0)
        text = format_metrics(registry)
        assert "p50=" in text
        assert "p99=" in text
        assert "p999=" in text
