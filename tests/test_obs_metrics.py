"""Metrics registry + the cache counters surfaced on ExecutionStats."""

import sys

import pytest

from repro.execution.execute import Execute
from repro.llm.cache import CallCache
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

sys.path.insert(0, "tests")
from test_execution_pipeline import make_source, shape_filter_convert


class TestPrimitives:
    def test_counter_increments(self):
        counter = Counter("llm.calls")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot_value() == 5

    def test_gauge_set(self):
        gauge = Gauge("queue.depth")
        gauge.set(3.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.snapshot_value() == 2.0

    def test_histogram_summary(self):
        hist = Histogram("wait.seconds")
        for value in (2.0, 5.0, 1.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(8.0 / 3)
        assert hist.snapshot_value() == {
            "count": 3, "sum": 8.0, "min": 1.0, "max": 5.0,
            "p50": 2.0, "p95": 5.0, "p99": 5.0,
        }

    def test_empty_histogram_snapshot(self):
        assert Histogram("h.h").snapshot_value() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_histogram_quantiles_nearest_rank(self):
        hist = Histogram("lat.seconds")
        # Observe 1..100 out of order: quantiles are order-insensitive.
        for value in range(100, 0, -1):
            hist.observe(float(value))
        assert hist.quantile(0.50) == 50.0
        assert hist.quantile(0.95) == 95.0
        assert hist.quantile(0.99) == 99.0
        assert hist.quantile(1.0) == 100.0
        snap = hist.snapshot_value()
        assert (snap["p50"], snap["p95"], snap["p99"]) == (50.0, 95.0, 99.0)
        with pytest.raises(ValueError):
            hist.quantile(0.0)

    def test_histogram_quantiles_single_sample(self):
        hist = Histogram("one.sample")
        hist.observe(3.5)
        snap = hist.snapshot_value()
        assert (snap["p50"], snap["p95"], snap["p99"]) == (3.5, 3.5, 3.5)


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert len(registry) == 1

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(TypeError):
            registry.gauge("a.b")

    def test_snapshot_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc(1)
        registry.gauge("a.first").set(2.5)
        registry.counter("q.mid").inc(9)
        snap = registry.snapshot()
        assert list(snap) == ["a.first", "q.mid", "z.last"]
        assert snap == {"a.first": 2.5, "q.mid": 9, "z.last": 1}

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        registry.clear()
        assert len(registry) == 0


class TestExecutionMetrics:
    def test_stats_metrics_snapshot(self):
        source = make_source(6, "metrics-snap")
        records, stats = Execute(shape_filter_convert(source), lint=False)
        metrics = stats.metrics
        op_stats = stats.plan_stats.operator_stats
        assert metrics["llm.calls"] == sum(op.llm_calls for op in op_stats)
        assert metrics["run.records_out"] == len(records)
        assert metrics["run.elapsed_seconds"] == pytest.approx(
            stats.plan_stats.total_time_seconds)
        # Per-operator counters mirror operator_stats exactly.
        for index, op in enumerate(op_stats):
            prefix = f"op.{index}.{op.op_label}"
            assert metrics[f"{prefix}.records_in"] == op.records_in
            assert metrics[f"{prefix}.records_out"] == op.records_out
            assert metrics[f"{prefix}.llm_calls"] == op.llm_calls
            assert metrics[f"{prefix}.busy_seconds"] == pytest.approx(
                op.time_seconds)

    def test_best_effort_queue_metrics_not_in_stats(self):
        source = make_source(6, "metrics-queue")
        _, stats = Execute(shape_filter_convert(source), lint=False,
                           executor="pipelined", max_workers=2)
        assert not any("queue_depth" in name for name in stats.metrics)
        assert not any("poll_retries" in name for name in stats.metrics)


class TestCacheCountersOnStats:
    def test_cold_then_warm_run(self):
        source = make_source(6, "metrics-cache")
        cache = CallCache()
        dataset = shape_filter_convert(source)
        _, cold = Execute(dataset, cache=cache, lint=False)
        assert cold.cache_misses > 0
        assert cold.cache_hits == 0
        assert cold.metrics["llm.cache_misses"] == cold.cache_misses

        _, warm = Execute(dataset, cache=cache, lint=False)
        assert warm.cache_hits == cold.cache_misses
        assert warm.cache_misses == 0
        assert warm.metrics["llm.cache_hits"] == warm.cache_hits

    def test_evictions_counted(self):
        source = make_source(6, "metrics-evict")
        cache = CallCache(max_entries=2)
        _, stats = Execute(shape_filter_convert(source), cache=cache,
                           lint=False)
        assert stats.cache_evictions > 0

    def test_no_cache_leaves_counters_zero(self):
        source = make_source(4, "metrics-nocache")
        _, stats = Execute(shape_filter_convert(source), lint=False)
        assert (stats.cache_hits, stats.cache_misses,
                stats.cache_evictions) == (0, 0, 0)

    def test_summary_mentions_cache_when_used(self):
        source = make_source(4, "metrics-summary")
        cache = CallCache()
        _, stats = Execute(shape_filter_convert(source), cache=cache,
                           lint=False)
        assert "call cache" in stats.summary()
