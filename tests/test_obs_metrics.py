"""Run metrics, their summary, and the cache counters on ExecutionStats."""

import sys

import pytest

from repro.execution.execute import Execute
from repro.llm.cache import CallCache
from repro.obs.metrics import summarize

sys.path.insert(0, "tests")
from test_execution_pipeline import make_source, shape_filter_convert


class TestPrimitives:
    def test_histogram_summary(self):
        assert summarize([2.0, 5.0, 1.0]) == {
            "count": 3, "sum": 8.0, "min": 1.0, "max": 5.0,
            "p50": 2.0, "p95": 5.0, "p99": 5.0,
        }

    def test_empty_histogram_snapshot(self):
        assert summarize([]) == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_histogram_quantiles_nearest_rank(self):
        # 1..100 in reverse order: quantiles are order-insensitive.
        summary = summarize([float(value) for value in range(100, 0, -1)])
        assert (summary["p50"], summary["p95"], summary["p99"]) == (
            50.0, 95.0, 99.0)
        assert (summary["min"], summary["max"]) == (1.0, 100.0)
        assert summary["sum"] == 5050.0

    def test_histogram_quantiles_single_sample(self):
        summary = summarize([3.5])
        assert (summary["p50"], summary["p95"], summary["p99"]) == (
            3.5, 3.5, 3.5)


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

    def test_snapshot_sorted(self):
        source = make_source(6, "metrics-sorted")
        _, stats = Execute(shape_filter_convert(source), lint=False,
                           executor="sharded", max_workers=2)
        assert "shard.scatter.records" in stats.metrics
        assert list(stats.metrics) == sorted(stats.metrics)

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
