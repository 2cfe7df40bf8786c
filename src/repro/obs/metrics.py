"""Metrics: one run's deterministic numbers, and the shared summary.

A run's metrics are a plain dict on the
:class:`~repro.physical.context.ExecutionContext`, filled at run end from
the OperatorStats and ledger the stats report.  A counter (an int) adds
(:func:`count`), a gauge keeps its last write, and a distribution is a
list of raw samples that :func:`summarize` reduces when
``ExecutionStats.metrics`` is built.  The wall-clock windows of
:mod:`repro.obs.telemetry` report the same summary.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

#: Quantiles reported by every summary, in reporting order.
HISTOGRAM_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def count(metrics: Dict[str, Any], name: str, amount: int) -> None:
    """Add ``amount`` to the counter ``name`` of ``metrics``."""
    metrics[name] = metrics.get(name, 0) + amount


def nearest_rank(ordered: List[float], q: float) -> float:
    """Exact nearest-rank quantile over pre-sorted samples: 1-based rank
    ``ceil(q * n)`` in integer arithmetic (q quantized to 1e-6), so float
    rounding can't shift the rank."""
    rank = -(-len(ordered) * int(round(q * 1000000)) // 1000000)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """count/sum/min/max and nearest-rank p50/p95/p99 of ``values``.  The
    sum is an exact ``fsum``, so sample order never moves the summary;
    no samples give all zeros."""
    ordered = sorted(values)
    summary = {
        "count": len(ordered),
        "sum": round(math.fsum(ordered), 9),
        "min": min(values) if ordered else 0.0,
        "max": max(values) if ordered else 0.0,
    }
    for label, q in HISTOGRAM_QUANTILES:
        summary[label] = nearest_rank(ordered, q) if ordered else 0.0
    return summary
