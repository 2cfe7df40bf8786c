"""E11 (ablation): semantic call caching.

Re-running a pipeline (or re-asking the same semantic question within a
run) should not pay for the same model call twice.  Measures cold vs warm
execution with a shared :class:`~repro.llm.cache.CallCache`.
"""

import pytest

import repro as pz
from repro.llm.cache import CallCache


def test_e11_warm_rerun_is_free(benchmark, scientific_pipeline):
    def run():
        cache = CallCache()
        _, cold = pz.Execute(
            scientific_pipeline, policy=pz.MaxQuality(), cache=cache
        )
        records, warm = pz.Execute(
            scientific_pipeline, policy=pz.MaxQuality(), cache=cache
        )
        return cold, warm, records, cache

    cold, warm, records, cache = benchmark(run)
    benchmark.extra_info.update({
        "cold_cost_usd": round(cold.total_cost_usd, 4),
        "warm_cost_usd": round(warm.total_cost_usd, 4),
        "cold_time_s": round(cold.total_time_seconds, 1),
        "warm_time_s": round(warm.total_time_seconds, 1),
        "cache_hit_rate": round(cache.stats.hit_rate, 3),
    })
    assert len(records) == 6  # cached answers are identical
    assert warm.total_cost_usd == 0.0
    assert warm.total_time_seconds < cold.total_time_seconds / 20
    assert cache.stats.hit_rate > 0.4


def test_e11_cache_dedupes_within_a_run(benchmark, scientific_pipeline):
    """Conventional extraction re-asks per-field questions; a cache folds
    the duplicate sub-questions of the one-to-many refinement passes."""

    def run():
        cache = CallCache()
        _, stats = pz.Execute(
            scientific_pipeline, policy=pz.MaxQuality(), cache=cache
        )
        return stats, cache

    stats, cache = benchmark(run)
    benchmark.extra_info.update({
        "lookups": cache.stats.lookups,
        "hits": cache.stats.hits,
        "cost_usd": round(stats.total_cost_usd, 4),
    })
    # Every semantic call consults the cache; within a single cold run the
    # hit count is small but the machinery is exercised end-to-end.
    assert cache.stats.lookups >= 40
